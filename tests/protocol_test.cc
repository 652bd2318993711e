// Tests for the FUSIONP/1 wrapper protocol: message round trips, server
// behaviour, and RemoteSource over TCP against in-process wrappers —
// including the key invariant that metered costs are identical whether a
// source is called directly or across the wire — plus the dialing side's
// bounds (TcpLink): garbage, flooding and stalled peers against the
// Client, a router shard link and RemoteSource.
#include <gtest/gtest.h>

#include <dirent.h>

#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "cost/oracle_cost_model.h"
#include "exec/executor.h"
#include "mediator/client.h"
#include "optimizer/sja.h"
#include "protocol/client_protocol.h"
#include "protocol/message.h"
#include "protocol/remote_source.h"
#include "protocol/source_server.h"
#include "protocol/tcp_server.h"
#include "relational/reference_evaluator.h"
#include "router/router.h"
#include "source/simulated_source.h"
#include "test_daemon.h"
#include "workload/dmv.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

constexpr char kFloodSql[] = "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'";

// ---------------------------------------------------------------------------
// Value / message serialization round trips
// ---------------------------------------------------------------------------

TEST(ProtocolValueTest, RoundTripsEveryType) {
  for (const Value& v :
       {Value::Null(), Value(int64_t{-42}), Value(3.141592653589793),
        Value("plain"), Value("with\nnewline"), Value("back\\slash"),
        Value("")}) {
    const auto back = ParseSerializedValue(SerializeValue(v));
    ASSERT_TRUE(back.ok()) << SerializeValue(v);
    EXPECT_EQ(*back, v) << SerializeValue(v);
    if (!v.is_null()) {
      EXPECT_EQ(back->type(), v.type());
    }
  }
}

TEST(ProtocolValueTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSerializedValue("x:1").ok());
  EXPECT_FALSE(ParseSerializedValue("i:abc").ok());
  EXPECT_FALSE(ParseSerializedValue("d:").ok());
  EXPECT_FALSE(ParseSerializedValue("s").ok());
  EXPECT_FALSE(ParseSerializedValue("s:bad\\q").ok());
  // Strict numbers: overflow is rejected rather than clamped, and a sign or
  // whitespace the serializer never emits is rejected too.
  EXPECT_FALSE(ParseSerializedValue("i:99999999999999999999").ok());
  EXPECT_FALSE(ParseSerializedValue("i:-99999999999999999999").ok());
  EXPECT_FALSE(ParseSerializedValue("i:+5").ok());
  EXPECT_FALSE(ParseSerializedValue("i: 5").ok());
  EXPECT_FALSE(ParseSerializedValue("i:5 ").ok());
  EXPECT_FALSE(ParseSerializedValue("d:1e999").ok());
  EXPECT_FALSE(ParseSerializedValue("d: 2.5").ok());
  // The extremes themselves are exact.
  EXPECT_EQ(*ParseSerializedValue("i:-9223372036854775808"),
            Value(std::numeric_limits<int64_t>::min()));
  EXPECT_EQ(*ParseSerializedValue("i:9223372036854775807"),
            Value(std::numeric_limits<int64_t>::max()));
}

TEST(ProtocolMessageTest, RequestRoundTrip) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSemiJoin;
  request.merge_attribute = "L";
  request.condition_text = "V = 'it''s' AND D >= 1990";
  request.bindings = {Value("J55"), Value(int64_t{7})};
  const auto back = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, SourceRequest::Kind::kSemiJoin);
  EXPECT_EQ(back->merge_attribute, "L");
  EXPECT_EQ(back->condition_text, request.condition_text);
  ASSERT_EQ(back->bindings.size(), 2u);
  EXPECT_EQ(back->bindings[0], Value("J55"));
  EXPECT_EQ(back->bindings[1], Value(int64_t{7}));
}

TEST(ProtocolMessageTest, ResponseRoundTrip) {
  SourceResponse response;
  response.items = {Value("J55"), Value("T21")};
  response.relation_lines = {"L:string,V:string", "J55,dui"};
  response.name = "R1";
  response.semijoin_support = "bindings";
  response.supports_load = false;
  response.charges.push_back({"sq", 0, 2, 3, 15.5});
  const auto back = ParseResponse(SerializeResponse(response));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->items.size(), 2u);
  EXPECT_EQ(back->relation_lines, response.relation_lines);
  EXPECT_EQ(back->name, "R1");
  EXPECT_EQ(back->semijoin_support, "bindings");
  EXPECT_FALSE(back->supports_load);
  ASSERT_EQ(back->charges.size(), 1u);
  EXPECT_EQ(back->charges[0].kind, "sq");
  EXPECT_DOUBLE_EQ(back->charges[0].cost, 15.5);
}

TEST(ProtocolMessageTest, ErrorResponseRoundTrip) {
  SourceResponse response;
  response.ok = false;
  response.error_code = StatusCode::kUnsupported;
  response.error_message = "no semijoins\nhere";
  const auto back = ParseResponse(SerializeResponse(response));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error_code, StatusCode::kUnsupported);
  EXPECT_EQ(back->error_message, response.error_message);
}

TEST(ProtocolMessageTest, RejectsMalformedFrames) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("HTTP/1.1 GET\nend\n").ok());
  EXPECT_FALSE(ParseRequest("FUSIONP/1 NOPE\nend\n").ok());
  EXPECT_FALSE(ParseRequest("FUSIONP/1 SELECT\nmerge L\n").ok());  // no end
  EXPECT_FALSE(ParseResponse("FUSIONP/1 MAYBE\nend\n").ok());
  EXPECT_FALSE(ParseResponse("FUSIONP/1 OK\ncharge sq 1\nend\n").ok());
  // Malformed values of *known* fields still fail...
  EXPECT_FALSE(ParseRequest("FUSIONP/1 SELECT\ntrace x y\nend\n").ok());
  EXPECT_FALSE(ParseRequest(
      "FUSIONP/1 SELECT\ntrace 99999999999999999999999 1\nend\n").ok());
  EXPECT_FALSE(
      ParseRequest("FUSIONP/1 SEMIJOIN\nbind i:99999999999999999999\nend\n")
          .ok());
  // ...including every number on a charge line: no clamping, no garbage
  // read as 0.
  for (const char* charge :
       {"charge sq x 2 3 1.5", "charge sq 1 2 3 abc", "charge sq 1 -2 3 1.5",
        "charge sq 1 2 99999999999999999999999 1.5", "charge sq 1 2 3 1e999",
        "charge sq 1 2 3 1.5 extra"}) {
    const auto response =
        ParseResponse(std::string("FUSIONP/1 OK\n") + charge + "\nend\n");
    ASSERT_FALSE(response.ok()) << charge;
    EXPECT_EQ(response.status().code(), StatusCode::kParseError) << charge;
  }
}

// Literal wire frames, pinned byte for byte: the codec must emit exactly
// these bytes and read them back to the same structs.
constexpr char kGoldenSourceRequest[] =
    "FUSIONP/1 SEMIJOIN\n"
    "merge L\n"
    "cond V = 'it''s'\\nAND D >= 1990 \\\\\n"
    "bind s:J55\n"
    "bind i:-9\n"
    "bind d:0.25\n"
    "bind null\n"
    "bind s:a\\nb\n"
    "trace 11 12\n"
    "end\n";
constexpr char kGoldenSourceResponse[] =
    "FUSIONP/1 OK\n"
    "item i:1\n"
    "item i:-9223372036854775808\n"
    "item s:T21\n"
    "item d:1e+100\n"
    "relation-line L:string,V:string\n"
    "relation-line J55,du\\\\i\n"
    "relation-line multi\\nline\n"
    "name R1\n"
    "semijoin bindings\n"
    "load no\n"
    "features trace,future\n"
    "charge sq 0 2 3 15.5\n"
    "charge sjq 4 5 6 0.33333333333333331\n"
    "end\n";
constexpr char kGoldenSourceErrorResponse[] =
    "FUSIONP/1 ERROR\n"
    "error Unsupported no semijoins\\nhere\n"
    "load yes\n"
    "end\n";

TEST(ProtocolMessageTest, FramesMatchGoldenBytes) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSemiJoin;
  request.merge_attribute = "L";
  request.condition_text = "V = 'it''s'\nAND D >= 1990 \\";
  request.bindings = {Value("J55"), Value(int64_t{-9}), Value(0.25),
                      Value::Null(), Value("a\nb")};
  request.trace_id = 11;
  request.parent_span = 12;
  EXPECT_EQ(SerializeRequest(request), kGoldenSourceRequest);
  const auto parsed_request = ParseRequest(kGoldenSourceRequest);
  ASSERT_TRUE(parsed_request.ok()) << parsed_request.status().ToString();
  EXPECT_EQ(SerializeRequest(*parsed_request), kGoldenSourceRequest);

  SourceResponse response;
  response.items = {Value(int64_t{1}),
                    Value(std::numeric_limits<int64_t>::min()), Value("T21"),
                    Value(1e100)};
  response.relation_lines = {"L:string,V:string", "J55,du\\i", "multi\nline"};
  response.name = "R1";
  response.semijoin_support = "bindings";
  response.supports_load = false;
  response.features = {"trace", "future"};
  response.charges.push_back({"sq", 0, 2, 3, 15.5});
  response.charges.push_back({"sjq", 4, 5, 6, 1.0 / 3.0});
  SourceResponse error;
  error.ok = false;
  error.error_code = StatusCode::kUnsupported;
  error.error_message = "no semijoins\nhere";
  const std::pair<const SourceResponse*, const char*> cases[] = {
      {&response, kGoldenSourceResponse}, {&error, kGoldenSourceErrorResponse}};
  for (const auto& [original, golden] : cases) {
    EXPECT_EQ(SerializeResponse(*original), golden);
    const auto parsed = ParseResponse(golden);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->items, original->items);
    EXPECT_EQ(SerializeResponse(*parsed), golden);
  }
}

TEST(ProtocolMessageTest, IgnoresUnknownFieldsForForwardCompat) {
  // ...but unknown fields are skipped, so an older peer survives a newer
  // peer's extensions (the way trace/features were added) instead of
  // erroring on every new line.
  const auto request = ParseRequest("FUSIONP/1 SELECT\nwat x\nend\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->kind, SourceRequest::Kind::kSelect);
  const auto response =
      ParseResponse("FUSIONP/1 OK\nname dmv\nshiny new-field\nend\n");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->name, "dmv");
}

TEST(ProtocolMessageTest, TraceContextRoundTrip) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSelect;
  request.condition_text = "V = 'x'";
  request.merge_attribute = "L";
  request.trace_id = 0xdeadbeefcafef00dULL;
  request.parent_span = 42;
  const auto back = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->trace_id, request.trace_id);
  EXPECT_EQ(back->parent_span, request.parent_span);
  // A request without a context serializes no trace line at all.
  request.trace_id = 0;
  EXPECT_EQ(SerializeRequest(request).find("trace"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Server + RemoteSource end to end over TCP
// ---------------------------------------------------------------------------

/// One-attempt-per-millisecond retry schedule for peers that never answer
/// properly.
RetryPolicy FastRetry(int attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.initial_backoff_seconds = 0.001;
  policy.max_backoff_seconds = 0.01;
  return policy;
}

/// A connected (server, remote-wrapper) pair over one Figure 1 DMV source,
/// plus an in-process copy of that source for direct calls.
struct RemotePair {
  std::unique_ptr<TcpSourceServer> server;
  std::unique_ptr<RemoteSource> remote;
  std::unique_ptr<SimulatedSource> direct;
};

RemotePair MakeRemotePair(std::unique_ptr<SimulatedSource> source) {
  RemotePair pair;
  pair.direct = std::make_unique<SimulatedSource>(*source);
  pair.server = std::make_unique<TcpSourceServer>(std::move(source),
                                                  TcpSourceServer::Options{});
  EXPECT_TRUE(pair.server->Start().ok());
  auto remote = RemoteSource::ConnectTcp({Endpoint(pair.server->port())});
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  if (remote.ok()) pair.remote = std::move(remote).value();
  return pair;
}

RemotePair MakeRemotePair() {
  auto instance = BuildDmvFigure1();
  EXPECT_TRUE(instance.ok());
  return MakeRemotePair(
      std::make_unique<SimulatedSource>(*instance->simulated[0]));
}

TEST(RemoteSourceTest, HandshakeCarriesMetadata) {
  RemotePair ep = MakeRemotePair();
  ASSERT_NE(ep.remote, nullptr);
  EXPECT_EQ(ep.remote->name(), "R1");
  EXPECT_TRUE(ep.remote->schema().HasColumn("L"));
  EXPECT_TRUE(ep.remote->schema().HasColumn("V"));
  EXPECT_EQ(ep.remote->capabilities().semijoin, SemijoinSupport::kNative);
}

TEST(RemoteSourceTest, SelectMatchesDirectCallIncludingCosts) {
  RemotePair ep = MakeRemotePair();
  ASSERT_NE(ep.remote, nullptr);
  SimulatedSource& local = *ep.direct;

  const Condition cond = Condition::Eq("V", Value("dui"));
  CostLedger remote_ledger, local_ledger;
  const auto via_protocol = ep.remote->Select(cond, "L", &remote_ledger);
  const auto via_direct = local.Select(cond, "L", &local_ledger);
  ASSERT_TRUE(via_protocol.ok()) << via_protocol.status().ToString();
  ASSERT_TRUE(via_direct.ok());
  EXPECT_EQ(*via_protocol, *via_direct);
  EXPECT_DOUBLE_EQ(remote_ledger.total(), local_ledger.total());
  EXPECT_EQ(remote_ledger.num_queries(), local_ledger.num_queries());
}

TEST(RemoteSourceTest, SemiJoinAndLoadAndFetch) {
  RemotePair ep = MakeRemotePair();
  ASSERT_NE(ep.remote, nullptr);
  ItemSet candidates({Value("J55"), Value("T21"), Value("ZZ")});
  CostLedger ledger;
  const auto semi = ep.remote->SemiJoin(Condition::Eq("V", Value("sp")), "L",
                                        candidates, &ledger);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  EXPECT_EQ(semi->ToString(), "{'T21'}");

  const auto loaded = ep.remote->Load(&ledger);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->schema(), ep.remote->schema());

  const auto records = ep.remote->FetchRecords("L", candidates, &ledger);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);  // J55 + T21 rows in R1
  EXPECT_GT(ledger.total(), 0.0);
}

TEST(RemoteSourceTest, ServerErrorsMapBackToStatus) {
  // A wrapper without native semijoin support refuses SEMIJOIN; the error
  // crosses the protocol as ERROR and comes back as kUnsupported.
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  Capabilities caps;
  caps.semijoin = SemijoinSupport::kPassedBindingsOnly;
  RemotePair ep = MakeRemotePair(std::make_unique<SimulatedSource>(
      "R1", instance->simulated[0]->relation(), caps,
      instance->simulated[0]->network()));
  ASSERT_NE(ep.remote, nullptr);
  ItemSet candidates({Value("J55")});
  const auto semi = ep.remote->SemiJoin(Condition::True(), "L", candidates,
                                        nullptr);
  ASSERT_FALSE(semi.ok());
  EXPECT_EQ(semi.status().code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Misbehaving peers on every dialer (Client, router shard link,
// RemoteSource): each fails within its bounded attempts and keeps nothing
// open, and neither a flood nor a stall pins the caller.
// ---------------------------------------------------------------------------

size_t OpenFds() {
  size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

/// Polls `done` every millisecond for up to 10 s.
template <typename Pred>
bool Eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Answers every frame of either dialect, HELLO included, with a whole
/// frame of noise.
struct NoisePeer {
  std::string Handle(const std::string&) { return "NOISE\nend\n"; }
};

/// A FUSIONQ/1 peer that answers HELLO as a pre-feature server (so a SUBMIT
/// to it is never re-sent) and answers any other frame with `chunk`,
/// `repeat` times and no `end` line, then holds the connection open until
/// the dialer closes it.
TcpServer::Handler UnterminatedPeer(std::string chunk, int repeat) {
  return [chunk, repeat](ChaosSocket& socket) {
    for (;;) {
      const Result<std::string> frame = socket.Receive();
      if (!frame.ok()) return;
      if (frame->rfind("FUSIONQ/1 HELLO", 0) == 0) {
        ClientResponse hello;
        hello.server = "unterminated";
        if (!socket.Send(SerializeClientResponse(hello)).ok()) return;
        continue;
      }
      for (int i = 0; i < repeat; ++i) {
        if (!socket.Send(chunk).ok()) return;
      }
    }
  };
}

/// 1 MiB of item lines; 65 of them exceed TcpLink::kMaxReplyBytes.
std::string FloodChunk() {
  std::string chunk;
  while (chunk.size() < (1u << 20)) chunk += "item i:12345678\n";
  return chunk;
}

/// Runs `call` on its own thread. A call still blocked after `limit` fails
/// the test, and `unblock` (stopping the peer) then ends it.
template <typename Call>
auto BoundedCall(Call call, std::chrono::seconds limit,
                 const std::function<void()>& unblock) {
  auto future = std::async(std::launch::async, call);
  if (future.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << "call still blocked after " << limit.count() << " s";
    unblock();
  }
  return future.get();
}

Client::Builder RemoteBuilder(int port, int attempts) {
  Client::Builder builder;
  builder.To(Client::Target::Remote(Endpoint(port)))
      .ClientId("dialer")
      .Reconnect(FastRetry(attempts));
  return builder;
}

/// A one-shard router over the peer at `port`.
std::unique_ptr<QueryRouter> RouterOver(int port) {
  auto map = ShardMap::Make({{"s0", Endpoint(port)}});
  EXPECT_TRUE(map.ok());
  QueryRouter::Options options;
  options.reconnect = FastRetry(3);
  return std::make_unique<QueryRouter>(std::move(map).value(), options);
}

std::string SubmitFrame() {
  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.sql = "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'";
  return SerializeClientRequest(submit);
}

TEST(RemoteSourceTest, GarbageTransportFailsCleanly) {
  NoisePeer noise;
  TcpServer peer(FrameHandler(&noise, kMaxSourceFrameBytes));
  ASSERT_TRUE(peer.Start().ok());
  const size_t fds_before = OpenFds();
  auto remote = RemoteSource::ConnectTcp({Endpoint(peer.port())},
                                         FastRetry(3));
  EXPECT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kParseError)
      << remote.status().ToString();
  EXPECT_TRUE(Eventually([&] {
    return peer.live_connections() == 0 && OpenFds() == fds_before;
  })) << "live " << peer.live_connections();
}

TEST(DialerBoundsTest, GarbagePeerFailsClientBuildCleanly) {
  NoisePeer noise;
  TcpServer peer(FrameHandler(&noise, kMaxClientFrameBytes));
  ASSERT_TRUE(peer.Start().ok());
  const size_t fds_before = OpenFds();
  auto client = RemoteBuilder(peer.port(), 3).Build();
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kParseError)
      << client.status().ToString();
  EXPECT_TRUE(Eventually([&] {
    return peer.live_connections() == 0 && OpenFds() == fds_before;
  })) << "live " << peer.live_connections();
}

TEST(DialerBoundsTest, GarbageShardFailsTheForwardCleanly) {
  NoisePeer noise;
  TcpServer peer(FrameHandler(&noise, kMaxClientFrameBytes));
  ASSERT_TRUE(peer.Start().ok());
  const size_t fds_before = OpenFds();
  auto router = RouterOver(peer.port());
  const auto response = ParseClientResponse(router->Handle(SubmitFrame()));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, StatusCode::kParseError);
  EXPECT_NE(response->error_message.find("shard s0"), std::string::npos)
      << response->error_message;
  EXPECT_EQ(router->idle_links(0), 0u);
  EXPECT_TRUE(Eventually([&] {
    return peer.live_connections() == 0 && OpenFds() == fds_before;
  })) << "live " << peer.live_connections();
}

TEST(DialerBoundsTest, ClientCutsOffAnUnterminatedFlood) {
  TcpServer peer(UnterminatedPeer(FloodChunk(), 65));
  ASSERT_TRUE(peer.Start().ok());
  auto client = RemoteBuilder(peer.port(), 1).Build();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const Status status = BoundedCall(
      [&] { return client->QuerySql(kFloodSql).status(); },
      std::chrono::seconds(30), [&] { peer.Stop(); });
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("oversized message"), std::string::npos)
      << status.ToString();
}

TEST(DialerBoundsTest, RouterCutsOffAnUnterminatedShardFlood) {
  TcpServer peer(UnterminatedPeer(FloodChunk(), 65));
  ASSERT_TRUE(peer.Start().ok());
  auto router = RouterOver(peer.port());
  const std::string reply = BoundedCall(
      [&] { return router->Handle(SubmitFrame()); }, std::chrono::seconds(30),
      [&] { peer.Stop(); });
  const auto response = ParseClientResponse(reply);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, StatusCode::kParseError);
  EXPECT_NE(response->error_message.find("oversized message"),
            std::string::npos)
      << response->error_message;
  EXPECT_NE(response->error_message.find("shard s0"), std::string::npos)
      << response->error_message;
}

TEST(DialerBoundsTest, ClientGivesUpOnAPeerStalledMidReply) {
  // Half a reply, then silence: the stall deadline ends the call.
  TcpServer peer(UnterminatedPeer("FUSIONQ/1 OK\nticket 5\n", 1));
  ASSERT_TRUE(peer.Start().ok());
  auto client = RemoteBuilder(peer.port(), 1).Build();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto start = std::chrono::steady_clock::now();
  const Status status = BoundedCall(
      [&] { return client->QuerySql(kFloodSql).status(); },
      std::chrono::seconds(40), [&] { peer.Stop(); });
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_GE(waited, TcpServer::kStallDeadlineSeconds - 1.0);
}

// ---------------------------------------------------------------------------
// Whole federation behind the protocol
// ---------------------------------------------------------------------------

TEST(RemoteFederationTest, PlansExecuteIdenticallyOverTheWire) {
  SyntheticSpec spec;
  spec.universe_size = 300;
  spec.num_sources = 3;
  spec.num_conditions = 2;
  spec.selectivity = {0.1, 0.3};
  spec.frac_native_semijoin = 1.0;
  spec.seed = 23;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const FusionQuery query = instance->query;
  const ItemSet expected =
      *ReferenceFusionAnswer(RelationsOf(*instance), "M", query.conditions());

  // Optimize against the local instance.
  const auto model = OracleCostModel::Create(instance->simulated, query);
  ASSERT_TRUE(model.ok());
  const auto sja = OptimizeSja(*model);
  ASSERT_TRUE(sja.ok());
  const auto local_report =
      ExecutePlan(sja->plan, instance->catalog, query);
  ASSERT_TRUE(local_report.ok());

  // Rebuild the catalog with every source behind a protocol boundary.
  SourceCatalog remote_catalog;
  std::vector<std::unique_ptr<TcpSourceServer>> servers;
  for (const SimulatedSource* sim : instance->simulated) {
    servers.push_back(std::make_unique<TcpSourceServer>(
        std::make_unique<SimulatedSource>(*sim), TcpSourceServer::Options{}));
    ASSERT_TRUE(servers.back()->Start().ok());
    auto remote =
        RemoteSource::ConnectTcp({Endpoint(servers.back()->port())});
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_TRUE(remote_catalog.Add(std::move(remote).value()).ok());
  }

  const auto remote_report = ExecutePlan(sja->plan, remote_catalog, query);
  ASSERT_TRUE(remote_report.ok()) << remote_report.status().ToString();
  EXPECT_EQ(remote_report->answer, expected);
  EXPECT_EQ(remote_report->answer, local_report->answer);
  EXPECT_NEAR(remote_report->ledger.total(), local_report->ledger.total(),
              1e-9);
}

}  // namespace
}  // namespace fusion
