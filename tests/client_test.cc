// Tests for the fusion::Client facade (the one client API over the stack)
// and for the unified error taxonomy: every StatusCode must survive a
// serialize→parse round trip through BOTH protocol dialects (FUSIONP/1, the
// wrapper side, and FUSIONQ/1, the client side) with nothing re-coded at a
// boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "common/status.h"
#include "mediator/client.h"
#include "mediator/service.h"
#include "obs/exposition.h"
#include "protocol/client_protocol.h"
#include "protocol/message.h"
#include "protocol/socket.h"
#include "workload/dmv.h"

namespace fusion {
namespace {

constexpr char kDuiAndSp[] =
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'";

Result<Client> Figure1Client(ClientOptions options = {}) {
  auto instance = BuildDmvFigure1();
  EXPECT_TRUE(instance.ok());
  return Client::Builder()
      .To(Client::Target::Embedded(std::move(instance->catalog)))
      .Options(options)
      .Statistics(StatisticsMode::kOracle)
      .Build();
}

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

TEST(ClientBuilderTest, RequiresACatalogOrAnEndpoint) {
  const auto client = Client::Builder().Build();
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClientBuilderTest, RejectsTwoTargets) {
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  const auto client =
      Client::Builder()
          .To(Client::Target::Embedded(std::move(instance->catalog)))
          .To(Client::Target::Remote("127.0.0.1:1"))
          .Build();
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
}

// An INI catalog path counts as a target too, so pairing it with an
// endpoint trips the one-target rule.
TEST(ClientBuilderTest, RejectsCatalogFileAndEndpoint) {
  const auto client =
      Client::Builder()
          .To(Client::Target::EmbeddedFile("examples/data/dmv.ini"))
          .To(Client::Target::Remote("127.0.0.1:1"))
          .Build();
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClientBuilderTest, RejectsEmptyRemoteEndpointList) {
  const auto client =
      Client::Builder().To(Client::Target::Remote(std::vector<std::string>{}))
          .Build();
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClientBuilderTest, MissingCatalogFileFailsBuild) {
  const auto client =
      Client::Builder()
          .To(Client::Target::EmbeddedFile("/nonexistent/catalog.ini"))
          .Build();
  EXPECT_FALSE(client.ok());
}

// ---------------------------------------------------------------------------
// Embedded queries through the facade
// ---------------------------------------------------------------------------

TEST(ClientTest, AnswersTheRunningExample) {
  auto client = Figure1Client();
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client->connected());
  const auto answer = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->items.ToString(), "{'J55', 'T21'}");
  EXPECT_GT(answer->cost, 0.0);
  EXPECT_GT(answer->source_queries, 0u);
  EXPECT_TRUE(answer->complete);
  // Embedded mode ships the full QueryAnswer alongside the summary.
  ASSERT_NE(answer->detail, nullptr);
  EXPECT_DOUBLE_EQ(answer->detail->execution.ledger.total(), answer->cost);
  EXPECT_EQ(answer->detail->execution.ledger.num_queries(),
            answer->source_queries);
}

TEST(ClientTest, PerCallStrategyOverrideChangesThePlan) {
  auto client = Figure1Client();
  ASSERT_TRUE(client.ok());
  CallControls filter;
  filter.strategy = OptimizerStrategy::kFilter;
  const auto baseline = client->QuerySql(kDuiAndSp, filter);
  ASSERT_TRUE(baseline.ok());
  ASSERT_NE(baseline->detail, nullptr);
  EXPECT_EQ(baseline->detail->optimized.plan_class, PlanClass::kFilter);
  // The session default (SJA+) stays in force for plain calls.
  const auto tuned = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(tuned.ok());
  ASSERT_NE(tuned->detail, nullptr);
  EXPECT_NE(tuned->detail->optimized.plan_class, PlanClass::kFilter);
  EXPECT_EQ(baseline->items, tuned->items);
}

TEST(ClientTest, UseCacheFalseKeepsEveryRunCold) {
  ClientOptions options;
  options.use_cache = false;
  auto client = Figure1Client(options);
  ASSERT_TRUE(client.ok());
  const auto first = client->QuerySql(kDuiAndSp);
  const auto second = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->cost, 0.0);
  // No memo attached: the rerun pays the full metered cost again.
  EXPECT_DOUBLE_EQ(second->cost, first->cost);
}

TEST(ClientTest, CachedRerunIsNearlyFree) {
  auto client = Figure1Client();  // use_cache defaults to true
  ASSERT_TRUE(client.ok());
  const auto cold = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(cold.ok());
  ASSERT_GT(cold->cost, 0.0);
  const auto warm = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->items, cold->items);
  EXPECT_LE(warm->cost, 0.1 * cold->cost);
}

TEST(ClientTest, EmbeddedExplainAnnotatesTheExecutedPlan) {
  auto client = Figure1Client();
  ASSERT_TRUE(client.ok());
  const auto answer = client->QuerySqlExplained(kDuiAndSp);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->items.ToString(), "{'J55', 'T21'}");
  ASSERT_FALSE(answer->explain_lines.empty());
  EXPECT_NE(answer->explain_lines[0].find("plan "), std::string::npos);
  EXPECT_NE(answer->explain_lines[0].find("estimated cost"),
            std::string::npos);
  // At least one op line carries the [cost, ms, cache] annotation.
  bool annotated = false;
  for (const std::string& line : answer->explain_lines) {
    if (line.find("cache") != std::string::npos) annotated = true;
  }
  EXPECT_TRUE(annotated);
  // The plain path stays unannotated.
  const auto plain = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->explain_lines.empty());
}

TEST(ClientTest, EmbeddedStatsRendersParseableExposition) {
  auto client = Figure1Client();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->QuerySql(kDuiAndSp).ok());
  const auto text = client->Stats();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const auto exposition = ParseStatsText(*text);
  ASSERT_TRUE(exposition.ok()) << exposition.status().ToString();
  EXPECT_EQ(exposition->schema, kStatsSchemaVersion);
  EXPECT_GT(exposition->samples.size(), 0u);
}

TEST(ClientTest, RemoteClientNegotiatesObservabilityFeatures) {
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  QueryService::Options options;
  options.client.statistics = StatisticsMode::kOracle;
  QueryService service(Mediator(std::move(instance->catalog)), options);
  auto listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(listener->port());
  std::thread server([&] {
    auto accepted = listener->Accept();
    if (accepted.ok()) {
      service.ServeConnection(std::move(accepted).value());
    }
  });
  {
    auto client = Client::Builder()
                      .To(Client::Target::Remote(endpoint))
                      .ClientId("negotiator")
                      .Build();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_TRUE(client->connected());
    // HELLO negotiated the observability features (typed registry — no raw
    // string literals at the negotiation site).
    const FeatureSet features = FeatureSet::FromNames(client->server_features());
    EXPECT_TRUE(features.Has(Feature::kTrace));
    EXPECT_TRUE(features.Has(Feature::kStats));
    EXPECT_TRUE(features.Has(Feature::kExplain));
    // EXPLAIN over the wire: annotated executed plan rides the response.
    const auto explained = client->QuerySqlExplained(kDuiAndSp);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_EQ(explained->items.ToString(), "{'J55', 'T21'}");
    EXPECT_FALSE(explained->explain_lines.empty());
    // STATS over the wire parses and names this client as a tenant.
    const auto text = client->Stats();
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    const auto exposition = ParseStatsText(*text);
    ASSERT_TRUE(exposition.ok());
    EXPECT_NE(exposition->Find("tenant_requests_total", "negotiator"),
              nullptr);
    // Server-side cache counters surfaced on the wire answer.
    const auto warm = client->QuerySql(kDuiAndSp);
    ASSERT_TRUE(warm.ok());
    EXPECT_GT(warm->cache_hits + warm->cache_containment_hits, 0u);
  }
  server.join();
}

TEST(ClientTest, RemoteAnswerItemsAreSortedAndDeduplicated) {
  // A scripted FUSIONQ/1 peer answers HELLO, then one SUBMIT per wire item
  // list: items arrive out of order and with duplicates, and the client
  // must decode them to the sorted-unique set one Insert per item builds.
  const std::vector<std::vector<Value>> wire_lists = {
      {Value(int64_t{5}), Value(int64_t{1}), Value(int64_t{5}),
       Value(int64_t{-3}), Value(int64_t{1})},
      {Value("T21"), Value("J55"), Value("T21"), Value("A10")},
      {}};
  auto listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(listener->port());
  std::thread server([&] {
    auto accepted = listener->Accept();
    if (!accepted.ok()) return;
    MessageSocket socket = std::move(accepted).value();
    if (!socket.Receive().ok()) return;  // HELLO
    ClientResponse hello;
    hello.server = "scripted";
    if (!socket.Send(SerializeClientResponse(hello)).ok()) return;
    for (const std::vector<Value>& items : wire_lists) {
      if (!socket.Receive().ok()) return;  // SUBMIT
      ClientResponse done;
      done.state = "done";
      done.items = items;
      if (!socket.Send(SerializeClientResponse(done)).ok()) return;
    }
  });
  {
    auto client = Client::Builder().To(Client::Target::Remote(endpoint)).Build();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const std::string expected[] = {"{-3, 1, 5}", "{'A10', 'J55', 'T21'}",
                                    "{}"};
    for (size_t i = 0; i < wire_lists.size(); ++i) {
      const auto answer = client->QuerySql(kDuiAndSp);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ItemSet one_at_a_time;
      for (const Value& v : wire_lists[i]) one_at_a_time.Insert(v);
      EXPECT_EQ(answer->items, one_at_a_time);
      EXPECT_EQ(answer->items.ToString(), expected[i]);
    }
  }
  server.join();
}

TEST(ClientTest, CancelledTokenFailsTheCall) {
  auto client = Figure1Client();
  ASSERT_TRUE(client.ok());
  std::atomic<bool> cancel{true};  // already cancelled at admission
  CallControls controls;
  controls.cancel = &cancel;
  const auto answer = client->QuerySql(kDuiAndSp, controls);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
}

TEST(ClientTest, SummarizeAnswerMapsTheLedger) {
  auto client = Figure1Client();
  ASSERT_TRUE(client.ok());
  const auto answer = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(answer.ok());
  const ClientAnswer summary = SummarizeAnswer(*answer->detail);
  EXPECT_EQ(summary.items, answer->items);
  EXPECT_DOUBLE_EQ(summary.cost, answer->cost);
  EXPECT_EQ(summary.source_queries, answer->source_queries);
  EXPECT_EQ(summary.complete, answer->complete);
}

// ---------------------------------------------------------------------------
// The unified error taxonomy: every code survives both wire dialects
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomyTest, EveryCodeRoundTripsThroughItsName) {
  for (const StatusCode code : kAllStatusCodes) {
    const auto parsed = StatusCodeFromName(StatusCodeName(code));
    ASSERT_TRUE(parsed.ok()) << StatusCodeName(code);
    EXPECT_EQ(*parsed, code);
  }
}

TEST(ErrorTaxonomyTest, EveryCodeSurvivesTheWrapperDialect) {
  for (const StatusCode code : kAllStatusCodes) {
    if (code == StatusCode::kOk) continue;  // OK is not an error response
    SourceResponse response;
    response.ok = false;
    response.error_code = code;
    response.error_message = "boom: details & 'quotes'\nsecond line";
    const auto parsed = ParseResponse(SerializeResponse(response));
    ASSERT_TRUE(parsed.ok()) << StatusCodeName(code);
    EXPECT_FALSE(parsed->ok);
    EXPECT_EQ(parsed->error_code, code) << StatusCodeName(code);
    EXPECT_EQ(parsed->error_message, response.error_message);
  }
}

TEST(ErrorTaxonomyTest, EveryCodeSurvivesTheClientDialect) {
  for (const StatusCode code : kAllStatusCodes) {
    if (code == StatusCode::kOk) continue;
    const ClientResponse error =
        ClientErrorResponse(Status(code, "op failed\nwith detail"));
    const auto parsed = ParseClientResponse(SerializeClientResponse(error));
    ASSERT_TRUE(parsed.ok()) << StatusCodeName(code);
    EXPECT_FALSE(parsed->ok);
    EXPECT_EQ(parsed->error_code, code) << StatusCodeName(code);
    EXPECT_EQ(parsed->error_message, "op failed\nwith detail");
  }
}

TEST(ErrorTaxonomyTest, UnknownCodeNameIsAParseError) {
  const auto parsed = StatusCodeFromName("NotACode");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// FUSIONQ/1 request / response serde
// ---------------------------------------------------------------------------

TEST(ClientProtocolTest, SubmitRequestRoundTrips) {
  ClientRequest request;
  request.kind = ClientRequest::Kind::kSubmit;
  request.client_id = "investigator-7";
  request.sql = kDuiAndSp;
  request.wait = false;
  const auto parsed = ParseClientRequest(SerializeClientRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, ClientRequest::Kind::kSubmit);
  EXPECT_EQ(parsed->client_id, "investigator-7");
  EXPECT_EQ(parsed->sql, request.sql);
  EXPECT_FALSE(parsed->wait);
}

TEST(ClientProtocolTest, SqlWithNewlinesAndEscapesRoundTrips) {
  ClientRequest request;
  request.kind = ClientRequest::Kind::kSubmit;
  request.sql = "SELECT x\nFROM y\\z WHERE a = 'b c'";
  const auto parsed = ParseClientRequest(SerializeClientRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->sql, request.sql);
}

TEST(ClientProtocolTest, StatusAndCancelCarryTheTicket) {
  for (const auto kind :
       {ClientRequest::Kind::kStatus, ClientRequest::Kind::kCancel}) {
    ClientRequest request;
    request.kind = kind;
    request.ticket = 4631;
    const auto parsed = ParseClientRequest(SerializeClientRequest(request));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->kind, kind);
    EXPECT_EQ(parsed->ticket, 4631u);
  }
}

TEST(ClientProtocolTest, ResultResponseRoundTrips) {
  ClientResponse response;
  response.ticket = 9;
  response.state = "done";
  response.items = {Value("J55"), Value("T21")};
  response.cost = 65.62;
  response.source_queries = 3;
  response.cache_hits = 2;
  response.cache_misses = 1;
  response.calibration_cost = 4.5;
  response.complete = false;
  const auto parsed = ParseClientResponse(SerializeClientResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->ticket, 9u);
  EXPECT_EQ(parsed->state, "done");
  EXPECT_EQ(parsed->items, response.items);
  EXPECT_DOUBLE_EQ(parsed->cost, 65.62);
  EXPECT_EQ(parsed->source_queries, 3u);
  EXPECT_EQ(parsed->cache_hits, 2u);
  EXPECT_EQ(parsed->cache_misses, 1u);
  EXPECT_DOUBLE_EQ(parsed->calibration_cost, 4.5);
  EXPECT_FALSE(parsed->complete);
}

TEST(ClientProtocolTest, MalformedTextIsAParseError) {
  EXPECT_FALSE(ParseClientRequest("HTTP/1.1 GET /\nend\n").ok());
  EXPECT_FALSE(ParseClientRequest("FUSIONQ/1 SUBMIT\n").ok());  // no end
  EXPECT_FALSE(ParseClientResponse("FUSIONQ/1 MAYBE\nend\n").ok());
  // Numeric fields are strict: no clamping on overflow, no garbage read as
  // 0, no sign or whitespace the serializer never emits.
  for (const char* frame : {
           "FUSIONQ/1 STATUS\nticket 99999999999999999999999\nend\n",
           "FUSIONQ/1 STATUS\nticket -1\nend\n",
           "FUSIONQ/1 SUBMIT\nsql x\nrequest-id 18446744073709551616\nend\n",
           "FUSIONQ/1 INVALIDATE\nsource R1\nversion 7x\nend\n",
       }) {
    const auto request = ParseClientRequest(frame);
    ASSERT_FALSE(request.ok()) << frame;
    EXPECT_EQ(request.status().code(), StatusCode::kParseError) << frame;
  }
  for (const char* frame : {
           "FUSIONQ/1 OK\nticket 99999999999999999999999\nend\n",
           "FUSIONQ/1 OK\ncache-hits 99999999999999999999999\nend\n",
           "FUSIONQ/1 OK\nitems-sent 12abc\nend\n",
           "FUSIONQ/1 OK\nsource-queries +3\nend\n",
           "FUSIONQ/1 OK\ncost abc\nend\n",
           "FUSIONQ/1 OK\ncost 1.5 \nend\n",
           "FUSIONQ/1 OK\ncalibration-cost 1e999\nend\n",
           "FUSIONQ/1 OK\nitem i:99999999999999999999\nend\n",
           "FUSIONQ/1 OK\nitem i:+5\nend\n",
           "FUSIONQ/1 OK\nitem i: 5\nend\n",
           "FUSIONQ/1 ERROR\nerror 99999999999999999999 boom\nend\n",
       }) {
    const auto response = ParseClientResponse(frame);
    ASSERT_FALSE(response.ok()) << frame;
    EXPECT_EQ(response.status().code(), StatusCode::kParseError) << frame;
  }
}

// Literal wire frames, pinned byte for byte: the codec must emit exactly
// these bytes and read them back to the same structs.
constexpr char kGoldenSubmitRequest[] =
    "FUSIONQ/1 SUBMIT\n"
    "client tenant \\\\7\n"
    "sql SELECT u1.L FROM U u1\\nWHERE u1.V = 'a\\\\b'\n"
    "wait no\n"
    "explain yes\n"
    "trace-id 18446744073709551615\n"
    "parent-span 42\n"
    "request-id 16045690984503111693\n"
    "end\n";
constexpr char kGoldenHelloRequest[] =
    "FUSIONQ/1 HELLO\n"
    "client c0\n"
    "features trace,stats,explain,idempotency,sharding\n"
    "end\n";
constexpr char kGoldenStatusRequest[] =
    "FUSIONQ/1 STATUS\n"
    "ticket 1234567890123\n"
    "end\n";
constexpr char kGoldenInvalidateRequest[] =
    "FUSIONQ/1 INVALIDATE\n"
    "source R\\n1\n"
    "version 9\n"
    "end\n";
constexpr char kGoldenIntResponse[] =
    "FUSIONQ/1 OK\n"
    "ticket 77\n"
    "state done\n"
    "item i:-9223372036854775808\n"
    "item i:-1\n"
    "item i:0\n"
    "item i:42\n"
    "item i:9223372036854775807\n"
    "cost 65.620000000000005\n"
    "source-queries 3\n"
    "cache-hits 2\n"
    "cache-misses 1\n"
    "items-sent 12\n"
    "items-received 345\n"
    "cache-containment 1\n"
    "calibration-cost 0.10000000000000001\n"
    "complete no\n"
    "end\n";
constexpr char kGoldenMixedResponse[] =
    "FUSIONQ/1 OK\n"
    "ticket 5\n"
    "item null\n"
    "item i:-7\n"
    "item d:3.1415926535897931\n"
    "item d:1e+21\n"
    "item d:1.0000000000000001e-05\n"
    "item d:-0\n"
    "item d:2.5\n"
    "item s:line\\nbreak\\\\slash\n"
    "item s:\n"
    "item s:plain words\n"
    "cost 0.33333333333333331\n"
    "source-queries 0\n"
    "cache-hits 0\n"
    "cache-misses 0\n"
    "items-sent 0\n"
    "items-received 0\n"
    "end\n";
constexpr char kGoldenErrorResponse[] =
    "FUSIONQ/1 ERROR\n"
    "error Unavailable shard down\\nretry \\\\later\n"
    "ticket 3\n"
    "state failed\n"
    "end\n";
constexpr char kGoldenStatsExplainResponse[] =
    "FUSIONQ/1 OK\n"
    "server fusionqd\n"
    "features trace,stats,explain,idempotency,sharding\n"
    "stats # fusionq-stats schema 1\n"
    "stats requests_total 7\n"
    "stats weird \\\\ line\n"
    "explain plan SJA+ (simple), estimated cost 1.000\n"
    "explain   op 0: sq source=0 [cost 1.000, 0.2 ms, cache miss]\n"
    "end\n";

TEST(ClientProtocolTest, RequestsMatchGoldenBytes) {
  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.client_id = "tenant \\7";
  submit.sql = "SELECT u1.L FROM U u1\nWHERE u1.V = 'a\\b'";
  submit.wait = false;
  submit.explain = true;
  submit.trace_id = std::numeric_limits<uint64_t>::max();
  submit.parent_span = 42;
  submit.request_id = 0xdeadbeefcafef00dull;
  ClientRequest hello;
  hello.client_id = "c0";
  hello.features = ClientProtocolFeatures();
  ClientRequest status;
  status.kind = ClientRequest::Kind::kStatus;
  status.ticket = 1234567890123ull;
  ClientRequest invalidate;
  invalidate.kind = ClientRequest::Kind::kInvalidate;
  invalidate.source = "R\n1";
  invalidate.version = 9;
  const std::pair<const ClientRequest*, const char*> cases[] = {
      {&submit, kGoldenSubmitRequest},
      {&hello, kGoldenHelloRequest},
      {&status, kGoldenStatusRequest},
      {&invalidate, kGoldenInvalidateRequest}};
  for (const auto& [request, golden] : cases) {
    EXPECT_EQ(SerializeClientRequest(*request), golden);
    const auto parsed = ParseClientRequest(golden);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(SerializeClientRequest(*parsed), golden);
  }
}

TEST(ClientProtocolTest, ResponsesMatchGoldenBytes) {
  ClientResponse ints;
  ints.ticket = 77;
  ints.state = "done";
  ints.items = {Value(std::numeric_limits<int64_t>::min()), Value(int64_t{-1}),
                Value(int64_t{0}), Value(int64_t{42}),
                Value(std::numeric_limits<int64_t>::max())};
  ints.cost = 65.62;
  ints.source_queries = 3;
  ints.cache_hits = 2;
  ints.cache_misses = 1;
  ints.items_sent = 12;
  ints.items_received = 345;
  ints.cache_containment_hits = 1;
  ints.calibration_cost = 0.1;
  ints.complete = false;
  ClientResponse mixed;
  mixed.ticket = 5;
  mixed.items = {Value::Null(), Value(int64_t{-7}), Value(3.141592653589793),
                 Value(1e21), Value(1e-5), Value(-0.0), Value(2.5),
                 Value("line\nbreak\\slash"), Value(""), Value("plain words")};
  mixed.cost = 1.0 / 3.0;
  ClientResponse error =
      ClientErrorResponse(Status::Unavailable("shard down\nretry \\later"));
  error.ticket = 3;
  error.state = "failed";
  ClientResponse observed;
  observed.server = "fusionqd";
  observed.features = ClientProtocolFeatures();
  observed.stats_lines = {"# fusionq-stats schema 1", "requests_total 7",
                          "weird \\ line"};
  observed.explain_lines = {
      "plan SJA+ (simple), estimated cost 1.000",
      "  op 0: sq source=0 [cost 1.000, 0.2 ms, cache miss]"};
  const std::pair<const ClientResponse*, const char*> cases[] = {
      {&ints, kGoldenIntResponse},
      {&mixed, kGoldenMixedResponse},
      {&error, kGoldenErrorResponse},
      {&observed, kGoldenStatsExplainResponse}};
  for (const auto& [response, golden] : cases) {
    EXPECT_EQ(SerializeClientResponse(*response), golden);
    const auto parsed = ParseClientResponse(golden);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->items, response->items);
    EXPECT_EQ(SerializeClientResponse(*parsed), golden);
  }
}

TEST(ClientProtocolTest, ObservabilityFieldsRoundTrip) {
  // The tracing/negotiation fields added for distributed observability:
  // trace-id / parent-span / explain on requests, features / stats /
  // explain / cache-containment on responses.
  ClientRequest request;
  request.kind = ClientRequest::Kind::kSubmit;
  request.client_id = "traced";
  request.sql = kDuiAndSp;
  request.wait = true;
  request.explain = true;
  request.trace_id = 0xdeadbeefcafef00dULL;
  request.parent_span = 42;
  const std::string wire = SerializeClientRequest(request);
  const auto parsed = ParseClientRequest(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->explain);
  EXPECT_EQ(parsed->trace_id, request.trace_id);
  EXPECT_EQ(parsed->parent_span, request.parent_span);
  // A zero trace id stays off the wire entirely.
  request.trace_id = 0;
  EXPECT_EQ(SerializeClientRequest(request).find("trace-id"),
            std::string::npos);

  ClientRequest hello;
  hello.kind = ClientRequest::Kind::kHello;
  hello.features = ClientProtocolFeatures();
  const auto hello_parsed = ParseClientRequest(SerializeClientRequest(hello));
  ASSERT_TRUE(hello_parsed.ok());
  EXPECT_EQ(hello_parsed->features, ClientProtocolFeatures());

  ClientRequest stats;
  stats.kind = ClientRequest::Kind::kStats;
  stats.client_id = "watcher";
  const auto stats_parsed = ParseClientRequest(SerializeClientRequest(stats));
  ASSERT_TRUE(stats_parsed.ok());
  EXPECT_EQ(stats_parsed->kind, ClientRequest::Kind::kStats);

  ClientResponse response;
  response.ticket = 3;
  response.state = "done";
  response.features = ClientProtocolFeatures();
  response.cache_containment_hits = 5;
  response.stats_lines = {"# fusionq-stats schema 1", "requests_total 7"};
  response.explain_lines = {"plan SJA+ (simple), estimated cost 1.000",
                           "  op 0: sq source=0 [cost 1.000, 0.2 ms, "
                           "cache miss]"};
  const auto response_parsed =
      ParseClientResponse(SerializeClientResponse(response));
  ASSERT_TRUE(response_parsed.ok());
  EXPECT_EQ(response_parsed->features, ClientProtocolFeatures());
  EXPECT_EQ(response_parsed->cache_containment_hits, 5u);
  EXPECT_EQ(response_parsed->stats_lines, response.stats_lines);
  EXPECT_EQ(response_parsed->explain_lines, response.explain_lines);
}

TEST(ClientProtocolTest, UnknownFieldsAreIgnoredForForwardCompat) {
  // A newer peer may send fields this build has never heard of; they must
  // parse as a valid frame, not an error — that is what lets HELLO feature
  // negotiation evolve the protocol without breaking old binaries.
  const auto request = ParseClientRequest(
      "FUSIONQ/1 SUBMIT\nclient shiny\nsql SELECT 1\n"
      "brand-new-field value with spaces\nend\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->client_id, "shiny");
  const auto response = ParseClientResponse(
      "FUSIONQ/1 OK\nticket 1\nstate done\nfuture-field 9\nend\n");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->state, "done");
}

}  // namespace
}  // namespace fusion
