// Chaos-engineering tests for the serving tier (the `chaos` ctest label):
// the seeded fault-injecting socket layer (protocol/chaos.h), the socket
// hardening guards (stall deadline, receive limit), FUSIONQ/1 idempotent
// reconnect (request-id dedup + transparent client redial), and source
// replica failover (RemoteSource::ConnectTcp over TcpSourceServer pairs).
//
// The acceptance test at the bottom runs the whole stack — QueryService
// over replicated TCP sources, chaos on every wire, one replica killed
// mid-run — and asserts the chaotic run answers byte-identically to a
// fault-free serial run with no query metered twice. All chaos seeds are
// pinned, so a failure replays deterministically.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "mediator/client.h"
#include "mediator/service.h"
#include "protocol/chaos.h"
#include "protocol/client_protocol.h"
#include "protocol/remote_source.h"
#include "protocol/socket.h"
#include "protocol/source_server.h"
#include "protocol/tcp_server.h"
#include "source/simulated_source.h"
#include "test_daemon.h"
#include "workload/dmv.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

constexpr char kDuiAndSp[] =
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'";
constexpr char kDuiAndSp93[] =
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp' AND u1.D >= 1993";
constexpr char kDuiOnly[] = "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'";

/// Millisecond-scale retry schedule so failover/reconnect tests finish in
/// well under a second even when every attempt is needed.
RetryPolicy FastRetry(int attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.initial_backoff_seconds = 0.001;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.01;
  return policy;
}

/// A connected loopback pair: `server` is the accepted side, `client` the
/// dialing side. Dialing completes against the listener's backlog, so no
/// accept thread is needed.
struct SocketPair {
  MessageSocket server;
  MessageSocket client;
};

SocketPair MakeSocketPair() {
  auto listener = TcpListener::Bind("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  auto dialed = DialTcp(Endpoint(listener->port()));
  EXPECT_TRUE(dialed.ok()) << dialed.status().ToString();
  auto accepted = listener->Accept();
  EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  return {std::move(accepted).value(), std::move(dialed).value()};
}

/// Service over the Figure-1 federation with oracle statistics (simulated
/// sources, so the deterministic mode keeps costs pinned).
std::unique_ptr<QueryService> Figure1Service(QueryService::Options options) {
  auto instance = BuildDmvFigure1();
  EXPECT_TRUE(instance.ok());
  options.client.statistics = StatisticsMode::kOracle;
  return std::make_unique<QueryService>(Mediator(std::move(instance->catalog)),
                                        options);
}

/// fusionqd's handler plus a switch that loses exactly one SUBMIT response
/// *after* executing it — the deterministic trigger for the idempotent-
/// replay path (frame delivered, answer lost, client re-SUBMITs).
TcpServer::Handler DropFirstSubmitResponse(QueryService* service) {
  auto dropped = std::make_shared<std::atomic<bool>>(false);
  return [service, dropped](ChaosSocket& socket) {
    ServeFrames(socket, kMaxClientFrameBytes, [&](const std::string& frame) {
      std::string response = service->Handle(frame);
      if (frame.rfind("FUSIONQ/1 SUBMIT", 0) == 0 && !dropped->exchange(true)) {
        // The query executed; its answer dies on the wire. The client must
        // reconnect and replay via its request-id, never re-execute.
        socket.inner().Shutdown();
      }
      return response;
    });
  };
}

/// fusionqd's serve loop with seeded chaos on every connection.
std::unique_ptr<TcpServer> ChaosDaemon(QueryService* service,
                                       const ChaosPolicy& chaos) {
  return std::make_unique<TcpServer>(
      FrameHandler(service, kMaxClientFrameBytes),
      std::make_shared<ChaosDecider>(chaos));
}

// ---------------------------------------------------------------------------
// ChaosDecider: the seeded decision stream
// ---------------------------------------------------------------------------

TEST(ChaosDeciderTest, SameSeedSameStream) {
  ChaosPolicy policy;
  policy.drop_rate = 0.5;
  policy.seed = 42;
  ChaosDecider a(policy), b(policy);
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(a.NextUniform(), b.NextUniform()) << "draw " << i;
  }
  EXPECT_EQ(a.decisions(), 64u);

  // A different seed produces a different schedule.
  ChaosPolicy other = policy;
  other.seed = 43;
  ChaosDecider c(policy), d(other);
  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    if (c.NextUniform() != d.NextUniform()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(ChaosDeciderTest, ZeroProbabilityConsumesNoDraw) {
  ChaosPolicy policy;
  policy.drop_rate = 0.5;
  ChaosDecider decider(policy);
  // Fire(0) must not advance the stream: which rates are enabled never
  // shifts the decision schedule of the others.
  EXPECT_FALSE(decider.Fire(0.0));
  EXPECT_EQ(decider.decisions(), 0u);
  (void)decider.Fire(0.5);
  EXPECT_EQ(decider.decisions(), 1u);
}

// ---------------------------------------------------------------------------
// ChaosSocket: injected faults look like real network failures
// ---------------------------------------------------------------------------

TEST(ChaosSocketTest, PassthroughWithoutDecider) {
  SocketPair pair = MakeSocketPair();
  ChaosSocket server(std::move(pair.server));  // implicit, no chaos
  ASSERT_TRUE(pair.client.Send("ping\nend\n").ok());
  auto received = server.Receive();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received.value(), "ping\nend\n");
}

TEST(ChaosSocketTest, DropResetsTheConnection) {
  const ChaosCounts before = GlobalChaosCounts();
  ChaosPolicy policy;
  policy.drop_rate = 1.0;
  policy.seed = 7;
  SocketPair pair = MakeSocketPair();
  ChaosSocket server(std::move(pair.server),
                     std::make_shared<ChaosDecider>(policy));
  ASSERT_TRUE(pair.client.Send("ping\nend\n").ok());
  const auto received = server.Receive();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable);
  // The peer sees either a clean close (kUnavailable) or, when the kernel
  // RSTs because the dropped frame was never read, ECONNRESET (kInternal) —
  // both in the transport-error class every recovery path retries.
  const auto client_side = pair.client.Receive();
  ASSERT_FALSE(client_side.ok());
  EXPECT_TRUE(client_side.status().code() == StatusCode::kUnavailable ||
              client_side.status().code() == StatusCode::kInternal)
      << client_side.status().ToString();
  EXPECT_GT(GlobalChaosCounts().drops, before.drops);
}

TEST(ChaosSocketTest, TornWriteLeavesPeerMidMessage) {
  const ChaosCounts before = GlobalChaosCounts();
  ChaosPolicy policy;
  policy.torn_write_rate = 1.0;
  policy.seed = 7;
  SocketPair pair = MakeSocketPair();
  ChaosSocket server(std::move(pair.server),
                     std::make_shared<ChaosDecider>(policy));
  const Status sent = server.Send("FUSIONQ/1 OK\nticket 1\nstate done\nend\n");
  EXPECT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), StatusCode::kUnavailable);
  // The peer holds a strict prefix of the frame when the connection dies:
  // a mid-message close, not a clean idle one.
  const auto received = pair.client.Receive();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kParseError);
  EXPECT_GT(GlobalChaosCounts().torn_writes, before.torn_writes);
}

// ---------------------------------------------------------------------------
// Socket hardening: stall deadline and receive limit
// ---------------------------------------------------------------------------

TEST(SocketGuardTest, IdlePeerNeverTripsTheStallDeadline) {
  SocketPair pair = MakeSocketPair();
  ASSERT_TRUE(pair.server.SetStallDeadline(0.2).ok());
  Result<std::string> received = Status::Unavailable("pending");
  std::thread reader([&] { received = pair.server.Receive(); });
  // Idle (no frame in progress) for longer than the deadline, then a whole
  // frame: the guard only watches *mid-frame* silence.
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  ASSERT_TRUE(pair.client.Send("late\nend\n").ok());
  reader.join();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received.value(), "late\nend\n");
}

TEST(SocketGuardTest, MidFrameSilenceTripsTheStallDeadline) {
  SocketPair pair = MakeSocketPair();
  ASSERT_TRUE(pair.server.SetStallDeadline(0.2).ok());
  // Ship half a frame and go silent — a torn write or a wedged peer.
  const char partial[] = "FUSIONP/1 OK\nname R";
  ASSERT_GT(::send(pair.client.fd(), partial, sizeof(partial) - 1, 0), 0);
  const auto received = pair.server.Receive();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SocketGuardTest, ReceiveLimitCutsOffUnterminatedFloods) {
  SocketPair pair = MakeSocketPair();
  pair.server.SetReceiveLimit(1024);
  ASSERT_TRUE(pair.client.Send(std::string(4096, 'x')).ok());
  const auto received = pair.server.Receive();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// QueryService idempotency dedup
// ---------------------------------------------------------------------------

TEST(ServiceIdempotencyTest, DuplicateSubmitReplaysTheOriginal) {
  auto service = Figure1Service(QueryService::Options());
  QueryService::SubmitOptions submit;
  submit.request_id = 77;
  const auto first = service->Submit("alice", kDuiAndSp, submit);
  ASSERT_TRUE(first.ok());
  const auto answer = service->Wait(first.value());
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->items.ToString(), "{'J55', 'T21'}");

  // Same (client, request-id): the original ticket and outcome come back,
  // nothing executes or meters a second time.
  const auto replayed = service->Submit("alice", kDuiAndSp, submit);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), first.value());
  EXPECT_EQ(service->idempotent_replays(), 1u);
  const auto replayed_answer = service->Wait(replayed.value());
  ASSERT_TRUE(replayed_answer.ok());
  EXPECT_EQ(replayed_answer->items.ToString(), answer->items.ToString());
  EXPECT_DOUBLE_EQ(replayed_answer->cost, answer->cost);

  // A different client with the same request-id is a different request.
  const auto other = service->Submit("bob", kDuiAndSp, submit);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.value(), first.value());
  EXPECT_EQ(service->idempotent_replays(), 1u);
  ASSERT_TRUE(service->Wait(other.value()).ok());
}

TEST(ServiceIdempotencyTest, DedupTableEvictsFifo) {
  QueryService::Options options;
  options.max_dedup = 1;
  auto service = Figure1Service(options);
  QueryService::SubmitOptions submit;
  submit.request_id = 1;
  const auto first = service->Submit("alice", kDuiOnly, submit);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(service->Wait(first.value()).ok());
  submit.request_id = 2;
  ASSERT_TRUE(service->Submit("alice", kDuiOnly, submit).ok());
  // request-id 1 was evicted: the same key now executes afresh (at-most-once
  // holds within the window, at-least-once beyond it).
  submit.request_id = 1;
  const auto again = service->Submit("alice", kDuiOnly, submit);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value(), first.value());
  EXPECT_EQ(service->idempotent_replays(), 0u);
}

// ---------------------------------------------------------------------------
// ServeConnection over a ChaosSocket
// ---------------------------------------------------------------------------

TEST(ServiceServeConnectionTest, ServesFramesAndAdvertisesIdempotency) {
  auto service = Figure1Service(QueryService::Options());
  SocketPair pair = MakeSocketPair();
  std::thread serving([&] {
    service->ServeConnection(ChaosSocket(std::move(pair.server)));
  });

  ClientRequest hello;
  hello.kind = ClientRequest::Kind::kHello;
  hello.client_id = "wire";
  ASSERT_TRUE(pair.client.Send(SerializeClientRequest(hello)).ok());
  auto reply = pair.client.Receive();
  ASSERT_TRUE(reply.ok());
  auto parsed = ParseClientResponse(reply.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ok);
  EXPECT_TRUE(
      FeatureSet::FromNames(parsed->features).Has(Feature::kIdempotency));

  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.client_id = "wire";
  submit.sql = kDuiAndSp;
  submit.request_id = 99;
  ASSERT_TRUE(pair.client.Send(SerializeClientRequest(submit)).ok());
  reply = pair.client.Receive();
  ASSERT_TRUE(reply.ok());
  parsed = ParseClientResponse(reply.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->items.size(), 2u);

  pair.client.Close();
  serving.join();
}

// ---------------------------------------------------------------------------
// Client transparent reconnect
// ---------------------------------------------------------------------------

TEST(ClientReconnectTest, LostResponseReplaysInsteadOfReexecuting) {
  auto service = Figure1Service(QueryService::Options());
  TcpServer daemon(DropFirstSubmitResponse(service.get()));
  ASSERT_TRUE(daemon.Start().ok());

  auto client = Client::Builder()
                    .To(Client::Target::Remote(Endpoint(daemon.port())))
                    .ClientId("replay")
                    .Reconnect(FastRetry(6))
                    .Build();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto answer = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->items.ToString(), "{'J55', 'T21'}");
  // The SUBMIT executed exactly once; the lost answer came back via the
  // request-id dedup table after one reconnect.
  EXPECT_EQ(client->reconnects(), 1u);
  EXPECT_EQ(service->idempotent_replays(), 1u);
}

TEST(ClientReconnectTest, SurvivesSeededConnectionChaos) {
  auto service = Figure1Service(QueryService::Options());
  ChaosPolicy chaos;
  // ~35% of exchanges die under these rates; a 20-attempt millisecond
  // backoff ladder makes query failure vanishingly unlikely while still
  // forcing many reconnects.
  chaos.drop_rate = 0.15;
  chaos.torn_write_rate = 0.1;
  chaos.seed = 20260809;
  auto daemon = ChaosDaemon(service.get(), chaos);
  ASSERT_TRUE(daemon->Start().ok());

  auto client = Client::Builder()
                    .To(Client::Target::Remote(Endpoint(daemon->port())))
                    .ClientId("chaotic")
                    .Reconnect(FastRetry(20))
                    .Build();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int q = 0; q < 20; ++q) {
    const auto answer = client->QuerySql(kDuiOnly);
    ASSERT_TRUE(answer.ok()) << "query " << q << ": "
                             << answer.status().ToString();
    EXPECT_EQ(answer->items.ToString(), "{'J55', 'T21', 'T80'}") << q;
  }
  // With these rates and seed the connection dies repeatedly; every death
  // was healed by a transparent redial.
  EXPECT_GT(client->reconnects(), 0u);
}

// ---------------------------------------------------------------------------
// RemoteSource replica failover
// ---------------------------------------------------------------------------

TEST(ReplicaFailoverTest, FailsOverWhenTheActiveReplicaDies) {
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  const SimulatedSource* sim = instance->simulated[0];
  SimulatedSource direct(*sim);

  TcpSourceServer::Options options;
  std::vector<std::unique_ptr<TcpSourceServer>> replicas;
  std::vector<std::string> endpoints;
  for (int r = 0; r < 2; ++r) {
    replicas.push_back(std::make_unique<TcpSourceServer>(
        std::make_unique<SimulatedSource>(*sim), options));
    ASSERT_TRUE(replicas.back()->Start().ok());
    endpoints.push_back(Endpoint(replicas.back()->port()));
  }

  auto remote = RemoteSource::ConnectTcp(endpoints, FastRetry(6));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote.value()->name(), "R1");
  EXPECT_EQ(remote.value()->active_endpoint(), endpoints[0]);

  const Condition cond = Condition::Eq("V", Value("dui"));
  CostLedger healthy_ledger, direct_ledger;
  const auto healthy = remote.value()->Select(cond, "L", &healthy_ledger);
  const auto expected = direct.Select(cond, "L", &direct_ledger);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(healthy->ToString(), expected->ToString());
  EXPECT_DOUBLE_EQ(healthy_ledger.total(), direct_ledger.total());

  // Kill the replica the source is stuck to: the next call must rotate to
  // the survivor, answer identically, and charge exactly once.
  replicas[0]->Stop();
  CostLedger failover_ledger;
  const auto failed_over = remote.value()->Select(cond, "L", &failover_ledger);
  ASSERT_TRUE(failed_over.ok()) << failed_over.status().ToString();
  EXPECT_EQ(failed_over->ToString(), expected->ToString());
  EXPECT_DOUBLE_EQ(failover_ledger.total(), direct_ledger.total());
  EXPECT_GE(remote.value()->failovers(), 1u);
  EXPECT_EQ(remote.value()->active_endpoint(), endpoints[1]);
}

TEST(ReplicaFailoverTest, RejectsReplicaServingADifferentSource) {
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  TcpSourceServer::Options options;
  TcpSourceServer r1(std::make_unique<SimulatedSource>(*instance->simulated[0]),
                     options);
  TcpSourceServer r2(std::make_unique<SimulatedSource>(*instance->simulated[1]),
                     options);
  ASSERT_TRUE(r1.Start().ok());
  ASSERT_TRUE(r2.Start().ok());

  // The misconfigured "replica" (a different source) passes unnoticed at
  // connect time — endpoint 0 answers — but is rejected by HELLO
  // re-validation when failover reaches it: better no answer than the
  // wrong source's answer.
  auto remote = RemoteSource::ConnectTcp(
      {Endpoint(r1.port()), Endpoint(r2.port())}, FastRetry(3));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote.value()->name(), "R1");
  r1.Stop();
  CostLedger ledger;
  const auto result =
      remote.value()->Select(Condition::Eq("V", Value("dui")), "L", &ledger);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("all replicas failed"),
            std::string::npos);
  // The failed attempts replayed no charges.
  EXPECT_DOUBLE_EQ(ledger.total(), 0.0);
}

TEST(ReplicaFailoverTest, AllReplicasDownIsUnavailable) {
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  TcpSourceServer::Options options;
  TcpSourceServer replica(
      std::make_unique<SimulatedSource>(*instance->simulated[0]), options);
  ASSERT_TRUE(replica.Start().ok());
  auto remote =
      RemoteSource::ConnectTcp({Endpoint(replica.port())}, FastRetry(3));
  ASSERT_TRUE(remote.ok());
  replica.Stop();
  const auto result =
      remote.value()->Select(Condition::Eq("V", Value("dui")), "L", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Acceptance: the full stack under seeded chaos matches a fault-free run
// ---------------------------------------------------------------------------

TEST(ChaosSoakTest, ChaoticRunMatchesFaultFreeSerialRun) {
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());

  // Both runs use the same serial query order, session-learned statistics
  // (oracle modes need in-process simulated sources), and no result cache —
  // so every query's metered cost is its own and the two ledgers must agree
  // query by query.
  ClientOptions client_options;
  client_options.use_cache = false;
  client_options.execution.parallelism = 1;

  // Fault-free baseline: an embedded client over copies of the sources.
  SourceCatalog baseline_catalog;
  for (const SimulatedSource* sim : instance->simulated) {
    ASSERT_TRUE(
        baseline_catalog.Add(std::make_unique<SimulatedSource>(*sim)).ok());
  }
  auto baseline = Client::Builder()
                      .To(Client::Target::Embedded(std::move(baseline_catalog)))
                      .Options(client_options)
                      .Build();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Chaotic stack: each source behind two TCP replicas with seeded faults
  // on every connection.
  std::vector<std::unique_ptr<TcpSourceServer>> replicas;
  SourceCatalog remote_catalog;
  std::vector<RemoteSource*> remotes;
  for (size_t j = 0; j < instance->simulated.size(); ++j) {
    TcpSourceServer::Options server_options;
    server_options.chaos.drop_rate = 0.05;
    server_options.chaos.torn_write_rate = 0.05;
    server_options.chaos.seed = 1000 + j;
    std::vector<std::string> endpoints;
    for (int r = 0; r < 2; ++r) {
      replicas.push_back(std::make_unique<TcpSourceServer>(
          std::make_unique<SimulatedSource>(*instance->simulated[j]),
          server_options));
      ASSERT_TRUE(replicas.back()->Start().ok());
      endpoints.push_back(Endpoint(replicas.back()->port()));
    }
    auto remote = RemoteSource::ConnectTcp(endpoints, FastRetry(8));
    ASSERT_TRUE(remote.ok()) << "source " << j << ": "
                             << remote.status().ToString();
    remotes.push_back(remote.value().get());
    ASSERT_TRUE(remote_catalog.Add(std::move(remote).value()).ok());
  }

  QueryService::Options service_options;
  service_options.client = client_options;
  QueryService service(Mediator(std::move(remote_catalog)), service_options);

  ChaosPolicy chaos;
  chaos.drop_rate = 0.1;
  chaos.torn_write_rate = 0.1;
  chaos.seed = 4242;
  auto daemon = ChaosDaemon(&service, chaos);
  ASSERT_TRUE(daemon->Start().ok());

  auto chaotic = Client::Builder()
                     .To(Client::Target::Remote(Endpoint(daemon->port())))
                     .ClientId("soak")
                     .Reconnect(FastRetry(10))
                     .Build();
  ASSERT_TRUE(chaotic.ok()) << chaotic.status().ToString();

  std::vector<std::string> queries;
  for (int round = 0; round < 4; ++round) {
    queries.push_back(kDuiOnly);
    queries.push_back(kDuiAndSp);
    queries.push_back(kDuiAndSp93);
  }

  double chaotic_total = 0.0, baseline_total = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (q == 5) {
      // Mid-run replica failure: kill whichever replica source R1 is
      // currently stuck to. Every later query touches R1, so failover to
      // the survivor is forced.
      const std::string active = remotes[0]->active_endpoint();
      for (auto& replica : replicas) {
        if (Endpoint(replica->port()) == active) replica->Stop();
      }
    }
    const auto expected = baseline->QuerySql(queries[q]);
    ASSERT_TRUE(expected.ok()) << q << ": " << expected.status().ToString();
    const auto got = chaotic->QuerySql(queries[q]);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_EQ(got->items.ToString(), expected->items.ToString())
        << "query " << q;
    EXPECT_TRUE(got->complete) << "query " << q;
    // No query is double-metered: the chaotic ledger matches the fault-free
    // one even though frames were dropped, torn, and re-sent underneath.
    EXPECT_NEAR(got->cost, expected->cost, 1e-6) << "query " << q;
    EXPECT_EQ(got->source_queries, expected->source_queries) << "query " << q;
    chaotic_total += got->cost;
    baseline_total += expected->cost;
  }
  EXPECT_NEAR(chaotic_total, baseline_total, 1e-6);
  EXPECT_GE(remotes[0]->failovers(), 1u);

  // The run really was chaotic — the seeded schedules injected faults.
  const ChaosCounts counts = GlobalChaosCounts();
  EXPECT_GT(counts.drops + counts.torn_writes, 0u);
}

}  // namespace
}  // namespace fusion
