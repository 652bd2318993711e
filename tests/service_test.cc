// Tests for the serving layer (mediator/service.h): admission control and
// load shedding, round-robin fairness, cooperative CANCEL, the FUSIONQ/1
// Handle() driver, and the acceptance property of the shared session — two
// clients submitting the same query get byte-identical answers with the
// second metered at a fraction of the first.
//
// Labelled `service` and `concurrency` (see tests/CMakeLists.txt): the soak
// and shared-cache tests exercise many client threads against one session
// and must stay TSan-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mediator/service.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "protocol/client_protocol.h"
#include "protocol/socket.h"
#include "protocol/tcp_server.h"
#include "relational/relation.h"
#include "source/simulated_source.h"
#include "test_daemon.h"
#include "workload/dmv.h"

namespace fusion {
namespace {

constexpr char kDuiAndSp[] =
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'";
constexpr char kDuiAndSp93[] =
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp' AND u1.D >= 1993";
constexpr char kDuiOnly[] = "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'";

/// Service over the Figure-1 federation with oracle statistics (the sources
/// are simulated, so the deterministic mode keeps costs pinned).
std::unique_ptr<QueryService> Figure1Service(QueryService::Options options) {
  auto instance = BuildDmvFigure1();
  EXPECT_TRUE(instance.ok());
  options.client.statistics = StatisticsMode::kOracle;
  return std::make_unique<QueryService>(Mediator(std::move(instance->catalog)),
                                        options);
}

/// A gate shared by decorated sources: every Select/Load blocks until the
/// test opens it, and the test can await the first arrival — the tool for
/// holding a request *mid-execution* deterministically.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;

  void Enter() {
    std::unique_lock<std::mutex> lock(mutex);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return entered > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex);
    open = true;
    cv.notify_all();
  }
};

class GatedSource : public SourceWrapper {
 public:
  GatedSource(std::unique_ptr<SourceWrapper> inner, Gate* gate)
      : inner_(std::move(inner)), gate_(gate) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  const Capabilities& capabilities() const override {
    return inner_->capabilities();
  }

  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override {
    gate_->Enter();
    return inner_->Select(cond, merge_attribute, ledger);
  }
  Result<ItemSet> SemiJoin(const Condition& cond,
                           const std::string& merge_attribute,
                           const ItemSet& candidates,
                           CostLedger* ledger) override {
    gate_->Enter();
    return inner_->SemiJoin(cond, merge_attribute, candidates, ledger);
  }
  Result<Relation> Load(CostLedger* ledger) override {
    gate_->Enter();
    return inner_->Load(ledger);
  }
  Result<Relation> FetchRecords(const std::string& merge_attribute,
                                const ItemSet& items,
                                CostLedger* ledger) override {
    return inner_->FetchRecords(merge_attribute, items, ledger);
  }

 private:
  std::unique_ptr<SourceWrapper> inner_;
  Gate* gate_;
};

/// Service whose sources all block on `gate`. Session-learned statistics
/// (the decorated sources hide the oracle) and no cache, so every submitted
/// query really reaches the gate.
std::unique_ptr<QueryService> GatedService(Gate* gate,
                                           QueryService::Options options) {
  auto instance = BuildDmvFigure1();
  EXPECT_TRUE(instance.ok());
  SourceCatalog catalog;
  for (size_t j = 0; j < instance->catalog.size(); ++j) {
    const SimulatedSource* sim = instance->catalog.source(j).AsSimulated();
    EXPECT_NE(sim, nullptr);
    EXPECT_TRUE(catalog
                    .Add(std::make_unique<GatedSource>(
                        std::make_unique<SimulatedSource>(*sim), gate))
                    .ok());
  }
  options.client.use_cache = false;
  options.client.execution.parallelism = 1;
  return std::make_unique<QueryService>(Mediator(std::move(catalog)),
                                        options);
}

// ---------------------------------------------------------------------------
// Submit / Wait / Poll basics
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, SubmitWaitAnswersTheRunningExample) {
  auto service = Figure1Service({});
  const auto ticket = service->Submit("alice", kDuiAndSp);
  ASSERT_TRUE(ticket.ok());
  const auto answer = service->Wait(*ticket);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->items.ToString(), "{'J55', 'T21'}");
  EXPECT_GT(answer->cost, 0.0);
  const auto status = service->Poll(*ticket);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, "done");
}

TEST(QueryServiceTest, UnknownTicketIsNotFound) {
  auto service = Figure1Service({});
  EXPECT_EQ(service->Wait(12345).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service->Poll(12345).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service->Cancel(12345).code(), StatusCode::kNotFound);
}

TEST(QueryServiceTest, InvalidSqlFailsTheRequestNotTheService) {
  auto service = Figure1Service({});
  const auto bad = service->Submit("alice", "SELECT nonsense");
  ASSERT_TRUE(bad.ok());  // admission succeeds; the failure is the outcome
  EXPECT_FALSE(service->Wait(*bad).ok());
  const auto status = service->Poll(*bad);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, "failed");
  // The service keeps serving after a failed request.
  const auto good = service->Submit("alice", kDuiAndSp);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(service->Wait(*good).ok());
}

TEST(QueryServiceTest, ShutdownRejectsNewSubmissions) {
  auto service = Figure1Service({});
  service->Shutdown();
  const auto ticket = service->Submit("alice", kDuiAndSp);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// The acceptance property: a shared session makes the second client cheap
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, SecondClientSameQueryIsNearlyFreeAndIdentical) {
  auto service = Figure1Service({});
  const auto first = service->Submit("alice", kDuiAndSp);
  ASSERT_TRUE(first.ok());
  const auto cold = service->Wait(*first);
  ASSERT_TRUE(cold.ok());
  ASSERT_GT(cold->cost, 0.0);

  // A *different* client submits the same query: same session, same cache.
  const auto second = service->Submit("bob", kDuiAndSp);
  ASSERT_TRUE(second.ok());
  const auto warm = service->Wait(*second);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->items.ToString(), cold->items.ToString());
  EXPECT_LE(warm->cost, 0.1 * cold->cost);
}

TEST(QueryServiceTest, ConcurrentSameQueryClientsShareOneExecution) {
  QueryService::Options options;
  options.workers = 4;
  auto service = Figure1Service(options);

  // Phase 1: one cold request establishes the full metered cost.
  const auto cold_ticket = service->Submit("warmup", kDuiAndSp);
  ASSERT_TRUE(cold_ticket.ok());
  const auto cold = service->Wait(*cold_ticket);
  ASSERT_TRUE(cold.ok());
  ASSERT_GT(cold->cost, 0.0);

  // Phase 2: many clients hit the warm session concurrently. Every answer
  // must be byte-identical to the cold one and nearly free.
  constexpr int kClients = 6;
  std::vector<std::string> answers(kClients);
  std::vector<double> costs(kClients, -1.0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const auto ticket =
          service->Submit("client-" + std::to_string(i), kDuiAndSp);
      if (!ticket.ok()) return;
      const auto answer = service->Wait(*ticket);
      if (!answer.ok()) return;
      answers[i] = answer->items.ToString();
      costs[i] = answer->cost;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(answers[i], cold->items.ToString()) << "client " << i;
    ASSERT_GE(costs[i], 0.0) << "client " << i;
    EXPECT_LE(costs[i], 0.1 * cold->cost) << "client " << i;
  }
}

// ---------------------------------------------------------------------------
// Admission control and load shedding
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, AdmissionOverflowShedsWithUnavailableNotAHang) {
  Gate gate;
  QueryService::Options options;
  options.workers = 1;
  options.max_queue = 1;
  auto service = GatedService(&gate, options);

  // First request occupies the only worker (held at the gate)...
  const auto running = service->Submit("alice", kDuiAndSp);
  ASSERT_TRUE(running.ok());
  gate.AwaitEntered();
  // ...second request fills the single admission slot...
  const auto queued = service->Submit("bob", kDuiAndSp93);
  ASSERT_TRUE(queued.ok());
  // ...third is shed immediately — kUnavailable, not a blocked Submit.
  const auto shed = service->Submit("carol", kDuiOnly);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service->shedded(), 1u);

  // Draining the gate lets the admitted requests finish normally.
  gate.Open();
  EXPECT_TRUE(service->Wait(*running).ok());
  EXPECT_TRUE(service->Wait(*queued).ok());
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, CancelMidExecutionFreesThePoolSlot) {
  Gate gate;
  QueryService::Options options;
  options.workers = 1;
  auto service = GatedService(&gate, options);

  const auto ticket = service->Submit("alice", kDuiAndSp);
  ASSERT_TRUE(ticket.ok());
  gate.AwaitEntered();  // the request is mid-execution, inside a source call
  ASSERT_TRUE(service->Cancel(*ticket).ok());
  gate.Open();  // the in-flight call returns; the next admission cancels

  const auto outcome = service->Wait(*ticket);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  const auto status = service->Poll(*ticket);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, "cancelled");

  // The worker the cancelled query held must be free again: a fresh request
  // on the same single-worker pool completes.
  const auto next = service->Submit("bob", kDuiAndSp93);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(service->Wait(*next).ok());
}

TEST(QueryServiceTest, CancelQueuedRequestNeverStarts) {
  Gate gate;
  QueryService::Options options;
  options.workers = 1;
  auto service = GatedService(&gate, options);

  const auto running = service->Submit("alice", kDuiAndSp);
  ASSERT_TRUE(running.ok());
  gate.AwaitEntered();
  const auto queued = service->Submit("bob", kDuiAndSp93);
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(service->Cancel(*queued).ok());
  gate.Open();

  const auto outcome = service->Wait(*queued);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(service->Wait(*running).ok());
}

TEST(QueryServiceTest, CancelIsIdempotent) {
  Gate gate;
  QueryService::Options options;
  options.workers = 1;
  auto service = GatedService(&gate, options);
  const auto ticket = service->Submit("alice", kDuiAndSp);
  ASSERT_TRUE(ticket.ok());
  gate.AwaitEntered();
  EXPECT_TRUE(service->Cancel(*ticket).ok());
  EXPECT_TRUE(service->Cancel(*ticket).ok());
  gate.Open();
  EXPECT_FALSE(service->Wait(*ticket).ok());
  EXPECT_TRUE(service->Cancel(*ticket).ok());  // after completion, still OK
}

// ---------------------------------------------------------------------------
// The FUSIONQ/1 protocol driver
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, HandleAnswersHelloSubmitStatusCancel) {
  auto service = Figure1Service({});

  ClientRequest hello;
  hello.kind = ClientRequest::Kind::kHello;
  const auto hello_response =
      ParseClientResponse(service->Handle(SerializeClientRequest(hello)));
  ASSERT_TRUE(hello_response.ok());
  EXPECT_TRUE(hello_response->ok);
  EXPECT_EQ(hello_response->server, "fusionqd");

  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.client_id = "wire-client";
  submit.sql = kDuiAndSp;
  submit.wait = true;
  const auto result =
      ParseClientResponse(service->Handle(SerializeClientRequest(submit)));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->ok);
  EXPECT_EQ(result->state, "done");
  ASSERT_EQ(result->items.size(), 2u);
  EXPECT_GT(result->cost, 0.0);

  ClientRequest status;
  status.kind = ClientRequest::Kind::kStatus;
  status.ticket = result->ticket;
  const auto polled =
      ParseClientResponse(service->Handle(SerializeClientRequest(status)));
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(polled->ok);
  EXPECT_EQ(polled->state, "done");
  EXPECT_EQ(polled->items, result->items);

  ClientRequest cancel;
  cancel.kind = ClientRequest::Kind::kCancel;
  cancel.ticket = result->ticket;
  const auto cancelled =
      ParseClientResponse(service->Handle(SerializeClientRequest(cancel)));
  ASSERT_TRUE(cancelled.ok());
  EXPECT_TRUE(cancelled->ok);  // terminal request: cancel is a no-op
}

TEST(QueryServiceTest, HandleTurnsGarbageIntoAnErrorResponse) {
  auto service = Figure1Service({});
  const auto response =
      ParseClientResponse(service->Handle("GET / HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(response.ok());  // the *response* is well-formed FUSIONQ/1
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, StatusCode::kParseError);
}

TEST(QueryServiceTest, HandleReportsUnknownTicketsAsNotFound) {
  auto service = Figure1Service({});
  ClientRequest status;
  status.kind = ClientRequest::Kind::kStatus;
  status.ticket = 777;
  const auto response =
      ParseClientResponse(service->Handle(SerializeClientRequest(status)));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Observability surfaces: STATS, EXPLAIN, SLO accounting, trace adoption
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, HelloAdvertisesObservabilityFeatures) {
  auto service = Figure1Service({});
  ClientRequest hello;
  hello.kind = ClientRequest::Kind::kHello;
  hello.client_id = "negotiator";
  hello.features = ClientProtocolFeatures();
  const auto response =
      ParseClientResponse(service->Handle(SerializeClientRequest(hello)));
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok);
  const FeatureSet features = FeatureSet::FromNames(response->features);
  EXPECT_TRUE(features.Has(Feature::kTrace));
  EXPECT_TRUE(features.Has(Feature::kStats));
  EXPECT_TRUE(features.Has(Feature::kExplain));
  EXPECT_TRUE(features.Has(Feature::kSharding));
}

TEST(QueryServiceTest, StatsVerbServesParseableExposition) {
  auto service = Figure1Service({});
  ClientRequest hello;
  hello.kind = ClientRequest::Kind::kHello;
  hello.client_id = "statsy";
  ASSERT_TRUE(ParseClientResponse(
                  service->Handle(SerializeClientRequest(hello)))->ok);
  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.client_id = "statsy";
  submit.sql = kDuiAndSp;
  submit.wait = true;
  ASSERT_TRUE(ParseClientResponse(
                  service->Handle(SerializeClientRequest(submit)))->ok);

  ClientRequest stats;
  stats.kind = ClientRequest::Kind::kStats;
  stats.client_id = "statsy";
  const auto response =
      ParseClientResponse(service->Handle(SerializeClientRequest(stats)));
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok);
  ASSERT_FALSE(response->stats_lines.empty());
  std::string text;
  for (const std::string& line : response->stats_lines) text += line + "\n";
  const auto exposition = ParseStatsText(text);
  ASSERT_TRUE(exposition.ok()) << exposition.status().ToString();
  const StatsSample* requests =
      exposition->Find("tenant_requests_total", "statsy");
  ASSERT_NE(requests, nullptr) << text;
  EXPECT_GE(requests->value, 1.0);
  const StatsSample* cost =
      exposition->Find("tenant_metered_cost_total", "statsy");
  ASSERT_NE(cost, nullptr);
  EXPECT_GT(cost->value, 0.0);
}

TEST(QueryServiceTest, ExplainReturnsTheAnnotatedExecutedPlan) {
  auto service = Figure1Service({});
  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.client_id = "explainer";
  submit.sql = kDuiAndSp;
  submit.wait = true;
  submit.explain = true;
  const auto response =
      ParseClientResponse(service->Handle(SerializeClientRequest(submit)));
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok) << response->error_message;
  ASSERT_FALSE(response->explain_lines.empty());
  // Header names the chosen algorithm and both cost figures; op lines carry
  // the per-op timing/cache annotations.
  EXPECT_NE(response->explain_lines[0].find("plan "), std::string::npos);
  EXPECT_NE(response->explain_lines[0].find("measured cost"),
            std::string::npos);
  bool annotated = false;
  for (const std::string& line : response->explain_lines) {
    if (line.find("cache") != std::string::npos &&
        line.find("ms") != std::string::npos) {
      annotated = true;
    }
  }
  EXPECT_TRUE(annotated) << "no per-op annotation in explain output";
  // Without the flag, no explain lines ride the response.
  submit.explain = false;
  const auto plain =
      ParseClientResponse(service->Handle(SerializeClientRequest(submit)));
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->explain_lines.empty());
}

// ---------------------------------------------------------------------------
// Retained outcomes: the wire summary only, under a byte budget
// ---------------------------------------------------------------------------

TEST(QueryServiceRetentionTest, ServedOutcomeCarriesNoExecutionDetail) {
  auto service = Figure1Service({});
  const auto answer = service->Wait(*service->Submit("alice", kDuiAndSp));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->items.ToString(), "{'J55', 'T21'}");
  EXPECT_GT(answer->cost, 0.0);
  // The plan, ledger and witness sets are released once the summary is
  // built; a plain Submit asked for no explain lines.
  EXPECT_EQ(answer->detail, nullptr);
  EXPECT_TRUE(answer->explain_lines.empty());
  EXPECT_GT(service->retained_bytes(), 0u);
}

TEST(QueryServiceRetentionTest, ExplainReplayReturnsTheSameLines) {
  auto service = Figure1Service({});
  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.client_id = "explainer";
  submit.sql = kDuiAndSp;
  submit.wait = true;
  submit.explain = true;
  submit.request_id = 77;
  const auto first =
      ParseClientResponse(service->Handle(SerializeClientRequest(submit)));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->ok) << first->error_message;
  ASSERT_FALSE(first->explain_lines.empty());
  // The reconnect replay: same request id, same frame. Nothing re-runs, and
  // the lines rendered at execution come back unchanged.
  const auto replay =
      ParseClientResponse(service->Handle(SerializeClientRequest(submit)));
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay->ok) << replay->error_message;
  EXPECT_EQ(service->idempotent_replays(), 1u);
  EXPECT_EQ(replay->ticket, first->ticket);
  EXPECT_EQ(replay->explain_lines, first->explain_lines);
  EXPECT_EQ(replay->items, first->items);
  // A plain SUBMIT of the same query retains and returns no lines.
  submit.explain = false;
  submit.request_id = 78;
  const auto plain =
      ParseClientResponse(service->Handle(SerializeClientRequest(submit)));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->ok) << plain->error_message;
  EXPECT_TRUE(plain->explain_lines.empty());
  const auto retained = service->Wait(plain->ticket);
  ASSERT_TRUE(retained.ok());
  EXPECT_TRUE(retained->explain_lines.empty());
}

/// One simulated source whose condition V = 'a' holds on all `rows` rows, so
/// the one-condition query below answers `rows` items.
std::unique_ptr<QueryService> LargeAnswerService(size_t rows) {
  Relation relation(
      Schema({{"L", ValueType::kInt64}, {"V", ValueType::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        relation.Append({Value(static_cast<int64_t>(i)), Value("a")}).ok());
  }
  SourceCatalog catalog;
  EXPECT_TRUE(catalog
                  .Add(std::make_unique<SimulatedSource>(
                      "R1", std::move(relation), Capabilities{},
                      NetworkProfile{}))
                  .ok());
  QueryService::Options options;
  options.workers = 1;
  options.client.statistics = StatisticsMode::kOracle;
  return std::make_unique<QueryService>(Mediator(std::move(catalog)),
                                        options);
}

TEST(QueryServiceRetentionTest, RetainedOutcomesStayWithinTheByteBudget) {
  constexpr char kAll[] = "SELECT u1.L FROM U u1 WHERE u1.V = 'a'";
  constexpr size_t kRows = 40000;
  auto service = LargeAnswerService(kRows);
  const QueryService::Options defaults;
  QueryService::SubmitOptions submit;
  submit.request_id = 1;
  const auto first = service->Submit("bulk", kAll, submit);
  ASSERT_TRUE(first.ok());
  const auto answer = service->Wait(*first);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->items.size(), kRows);
  const size_t per_outcome = service->retained_bytes();
  ASSERT_GE(per_outcome, kRows * sizeof(int64_t));
  // Half again as many outcomes as the budget holds: all of them fit both
  // count windows, so only the byte budget can evict.
  const size_t submits = QueryService::kMaxRetainedBytes / per_outcome * 3 / 2;
  ASSERT_LT(submits, defaults.max_retained);
  ASSERT_LT(submits, defaults.max_dedup);
  std::vector<uint64_t> tickets = {*first};
  for (uint64_t id = 2; id <= submits; ++id) {
    submit.request_id = id;
    const auto ticket = service->Submit("bulk", kAll, submit);
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE(service->Wait(*ticket).ok());
    tickets.push_back(*ticket);
    ASSERT_LE(service->retained_bytes(), QueryService::kMaxRetainedBytes)
        << "after " << id << " outcomes";
  }
  EXPECT_GT(service->retained_bytes(),
            QueryService::kMaxRetainedBytes - 2 * per_outcome);
  // The oldest outcomes left both tables: the ticket is gone, and its
  // request id re-executes instead of replaying.
  EXPECT_EQ(service->Wait(tickets.front()).status().code(),
            StatusCode::kNotFound);
  submit.request_id = 1;
  const auto rerun = service->Submit("bulk", kAll, submit);
  ASSERT_TRUE(rerun.ok());
  EXPECT_NE(*rerun, tickets.front());
  EXPECT_EQ(service->idempotent_replays(), 0u);
  // The newest are still retained, and their request ids still replay.
  ASSERT_TRUE(service->Wait(tickets.back()).ok());
  submit.request_id = submits;
  const auto replay = service->Submit("bulk", kAll, submit);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, tickets.back());
  EXPECT_EQ(service->idempotent_replays(), 1u);
}

TEST(QueryServiceTest, SloRegistryAccountsCompletionsErrorsAndSheds) {
  auto service = Figure1Service({});
  ASSERT_TRUE(service->Wait(*service->Submit("alice", kDuiAndSp)).ok());
  EXPECT_FALSE(service->Wait(*service->Submit("alice", "SELECT junk")).ok());
  const std::vector<TenantSloSnapshot> tenants = service->slo().Snapshot();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].tenant, "alice");
  EXPECT_EQ(tenants[0].requests, 2u);
  EXPECT_EQ(tenants[0].errors, 1u);
  EXPECT_DOUBLE_EQ(tenants[0].error_rate, 0.5);
  EXPECT_GT(tenants[0].metered_cost, 0.0);
  EXPECT_EQ(tenants[0].latency_ms.count, 2u);
}

TEST(QueryServiceTest, SloRegistryCountsShedsAndCancels) {
  Gate gate;
  QueryService::Options options;
  options.workers = 1;
  options.max_queue = 1;
  auto service = GatedService(&gate, options);
  const auto running = service->Submit("alice", kDuiAndSp);
  ASSERT_TRUE(running.ok());
  gate.AwaitEntered();
  const auto queued = service->Submit("bob", kDuiAndSp93);
  ASSERT_TRUE(queued.ok());
  ASSERT_FALSE(service->Submit("carol", kDuiOnly).ok());  // shed
  ASSERT_TRUE(service->Cancel(*queued).ok());             // never runs
  gate.Open();
  ASSERT_TRUE(service->Wait(*running).ok());
  EXPECT_FALSE(service->Wait(*queued).ok());

  const std::vector<TenantSloSnapshot> tenants = service->slo().Snapshot();
  ASSERT_EQ(tenants.size(), 3u);  // alice, bob, carol (sorted)
  EXPECT_EQ(tenants[0].tenant, "alice");
  EXPECT_EQ(tenants[0].requests, 1u);
  EXPECT_EQ(tenants[0].errors, 0u);
  EXPECT_EQ(tenants[1].tenant, "bob");
  EXPECT_EQ(tenants[1].cancelled, 1u);
  EXPECT_EQ(tenants[2].tenant, "carol");
  EXPECT_EQ(tenants[2].shed, 1u);
  EXPECT_EQ(tenants[2].requests, 0u);  // shed is not a completion
}

TEST(QueryServiceTest, StatsCountsTenantOverflow) {
  auto service = Figure1Service({});
  auto overflow_total = [&] {
    const auto stats = ParseStatsText(service->StatsText());
    EXPECT_TRUE(stats.ok());
    const StatsSample* sample =
        stats.ok() ? stats->Find(metrics::kSloTenantOverflowTotal) : nullptr;
    return sample != nullptr ? sample->value : -1.0;
  };
  EXPECT_EQ(overflow_total(), 0.0);
  for (size_t i = 0; i <= SloRegistry::kMaxTenants; ++i) {
    ClientRequest hello;
    hello.kind = ClientRequest::Kind::kHello;
    hello.client_id = "client" + std::to_string(i);
    ASSERT_TRUE(
        ParseClientResponse(service->Handle(SerializeClientRequest(hello)))
            ->ok);
  }
  EXPECT_EQ(overflow_total(), 1.0);
  EXPECT_EQ(service->slo().Snapshot().size(), SloRegistry::kMaxTenants + 1);
}

TEST(QueryServiceTest, SubmitAdoptsTheInboundTraceContext) {
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  auto service = Figure1Service({});
  QueryService::SubmitOptions submit_options;
  submit_options.trace_id = 0x5eedULL;
  submit_options.parent_span = 0x77ULL;
  const auto ticket = service->Submit("traced", kDuiAndSp, submit_options);
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(service->Wait(*ticket).ok());
  const std::vector<SpanRecord> spans = Tracer::Global().Drain();
  Tracer::Global().Disable();
  const SpanRecord* request_span = nullptr;
  for (const SpanRecord& span : spans) {
    if (span.name == "service.request") request_span = &span;
  }
  ASSERT_NE(request_span, nullptr);
  // The service span joins the client's trace and parents to its span; so
  // does every span recorded underneath it.
  EXPECT_EQ(request_span->trace_id, submit_options.trace_id);
  EXPECT_EQ(request_span->parent_id, submit_options.parent_span);
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, submit_options.trace_id) << span.name;
  }
}

// ---------------------------------------------------------------------------
// Execution permits: waiting SUBMITs run on their connection thread
// ---------------------------------------------------------------------------

/// A closed-until-opened gate that also counts the source calls inside it
/// at once and logs each call's condition in arrival order. The serving
/// layer runs plans serially, so calls inside at once are executions
/// inside at once.
struct CountingGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  int inside = 0;
  int max_inside = 0;
  std::vector<std::string> entered;

  void Enter(const std::string& condition) {
    std::unique_lock<std::mutex> lock(mutex);
    max_inside = std::max(max_inside, ++inside);
    entered.push_back(condition);
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
    --inside;
  }
  void AwaitCall(const std::string& condition) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] {
      return std::find(entered.begin(), entered.end(), condition) !=
             entered.end();
    });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex);
    open = true;
    cv.notify_all();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mutex);
    open = false;
  }
  /// Distinct conditions in order of first arrival: the order executions
  /// started in.
  std::vector<std::string> Started() {
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::string> started;
    for (const std::string& condition : entered) {
      if (std::find(started.begin(), started.end(), condition) ==
          started.end()) {
        started.push_back(condition);
      }
    }
    return started;
  }
};

class CountingGatedSource : public SourceWrapper {
 public:
  CountingGatedSource(std::unique_ptr<SourceWrapper> inner, CountingGate* gate)
      : inner_(std::move(inner)), gate_(gate) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  const Capabilities& capabilities() const override {
    return inner_->capabilities();
  }
  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override {
    gate_->Enter(cond.ToString());
    return inner_->Select(cond, merge_attribute, ledger);
  }
  Result<ItemSet> SemiJoin(const Condition& cond,
                           const std::string& merge_attribute,
                           const ItemSet& candidates,
                           CostLedger* ledger) override {
    gate_->Enter(cond.ToString());
    return inner_->SemiJoin(cond, merge_attribute, candidates, ledger);
  }
  Result<Relation> Load(CostLedger* ledger) override {
    gate_->Enter("load " + name());
    return inner_->Load(ledger);
  }
  Result<Relation> FetchRecords(const std::string& merge_attribute,
                                const ItemSet& items,
                                CostLedger* ledger) override {
    return inner_->FetchRecords(merge_attribute, items, ledger);
  }

 private:
  std::unique_ptr<SourceWrapper> inner_;
  CountingGate* gate_;
};

/// One DMV source behind `gate`, session-learned statistics, FILTER plans
/// and no cache: a one-condition query is one sq call, and every request
/// reaches the gate.
std::unique_ptr<QueryService> CountingGatedService(
    CountingGate* gate, QueryService::Options options) {
  auto instance = BuildDmvFigure1();
  EXPECT_TRUE(instance.ok());
  const SimulatedSource* sim = instance->catalog.source(0).AsSimulated();
  EXPECT_NE(sim, nullptr);
  SourceCatalog catalog;
  EXPECT_TRUE(catalog
                  .Add(std::make_unique<CountingGatedSource>(
                      std::make_unique<SimulatedSource>(*sim), gate))
                  .ok());
  options.client.use_cache = false;
  options.client.strategy = OptimizerStrategy::kFilter;
  return std::make_unique<QueryService>(Mediator(std::move(catalog)),
                                        options);
}

std::string OneConditionSql(const std::string& value) {
  return "SELECT u1.L FROM U u1 WHERE u1.V = '" + value + "'";
}
std::string ConditionText(const std::string& value) {
  return "V = '" + value + "'";
}

/// One FUSIONQ/1 exchange over a connected socket.
Result<ClientResponse> Exchange(MessageSocket& socket,
                                const ClientRequest& request) {
  FUSION_RETURN_IF_ERROR(socket.Send(SerializeClientRequest(request)));
  FUSION_ASSIGN_OR_RETURN(const std::string reply, socket.Receive());
  return ParseClientResponse(reply);
}

ClientRequest SubmitRequest(const std::string& client, const std::string& sql,
                            bool wait) {
  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.client_id = client;
  submit.sql = sql;
  submit.wait = wait;
  return submit;
}

/// Waits (up to 10 s) until the service's queue depth gauge reads `depth`.
bool AwaitQueueDepth(double depth) {
  const Gauge& gauge =
      MetricsRegistry::Global().gauge(metrics::kServiceQueueDepth);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (gauge.value() != depth) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// 1 permit, max_queue 2, six client connections over real sockets, one
// source whose calls all wait at a gate. A waiting SUBMIT that finds the
// permit free runs on its connection thread; the next two queue; the rest
// shed at once. At no time is more than one execution inside the source.
TEST(QueryServiceConcurrencyTest, InlineRunsKeepThePermitBoundOverSockets) {
  CountingGate gate;
  QueryService::Options options;
  options.workers = 1;
  options.max_queue = 2;
  auto service = CountingGatedService(&gate, options);
  TcpServer daemon(FrameHandler(service.get(), kMaxClientFrameBytes));
  ASSERT_TRUE(daemon.Start().ok());
  std::vector<MessageSocket> connections;
  for (int i = 0; i < 6; ++i) {
    auto socket = DialTcp(Endpoint(daemon.port()));
    ASSERT_TRUE(socket.ok()) << socket.status().ToString();
    connections.push_back(std::move(socket).value());
  }
  const std::string clients[] = {"a", "b", "c", "d", "e", "f"};
  // Client threads. Whatever fails, the gate opens and every thread joins
  // before the sockets, the server and the service go away.
  std::vector<std::thread> threads;
  struct JoinAll {
    CountingGate& gate;
    std::vector<std::thread>& threads;
    ~JoinAll() {
      gate.Open();
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } join_all{gate, threads};

  // Round 1. Connection 0 runs inline and holds the permit at the gate;
  // 1 and 2 queue (in that order); 3, 4 and 5 are shed.
  std::vector<Result<ClientResponse>> waited(3, Status::Unavailable("none"));
  threads.emplace_back([&] {
    waited[0] = Exchange(connections[0],
                         SubmitRequest("a", OneConditionSql("r0"), true));
  });
  gate.AwaitCall(ConditionText("r0"));
  threads.emplace_back([&] {
    waited[1] = Exchange(connections[1],
                         SubmitRequest("b", OneConditionSql("r1"), true));
  });
  EXPECT_TRUE(AwaitQueueDepth(1));
  threads.emplace_back([&] {
    waited[2] = Exchange(connections[2],
                         SubmitRequest("c", OneConditionSql("r2"), true));
  });
  EXPECT_TRUE(AwaitQueueDepth(2));
  // Shed replies come back while the gate is still closed: a shed SUBMIT
  // never waits on a running one. (Had they taken no permit, they would
  // sit at the gate; the wait below gives up after 10 s, so the test
  // fails rather than hangs.)
  std::vector<Result<ClientResponse>> shed(3, Status::Unavailable("none"));
  std::atomic<int> shed_replies{0};
  for (int i = 3; i < 6; ++i) {
    threads.emplace_back([&, i] {
      shed[i - 3] = Exchange(connections[i],
                             SubmitRequest(clients[i], OneConditionSql(
                                 "r" + std::to_string(i)), true));
      ++shed_replies;
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shed_replies.load() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(shed_replies.load(), 3) << "a shed SUBMIT waited on the gate";
  EXPECT_EQ(gate.Started(), std::vector<std::string>{ConditionText("r0")});
  gate.Open();
  for (std::thread& t : threads) t.join();
  for (const Result<ClientResponse>& reply : shed) {
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_FALSE(reply->ok);
    EXPECT_EQ(reply->error_code, StatusCode::kUnavailable);
  }
  for (const Result<ClientResponse>& reply : waited) {
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->ok) << reply->error_message;
    EXPECT_EQ(reply->state, "done");
  }
  EXPECT_EQ(service->shedded(), 3u);
  EXPECT_EQ(gate.max_inside, 1);
  // Queued requests start in round-robin client order.
  EXPECT_EQ(gate.Started(),
            (std::vector<std::string>{ConditionText("r0"), ConditionText("r1"),
                                      ConditionText("r2")}));

  // Round 2. A queued ticket cancelled before the permit frees never
  // starts; the request queued behind it still runs.
  gate.Close();
  threads.clear();
  threads.emplace_back([&] {
    waited[0] = Exchange(connections[0],
                         SubmitRequest("a", OneConditionSql("s0"), true));
  });
  gate.AwaitCall(ConditionText("s0"));
  const auto queued =
      Exchange(connections[1], SubmitRequest("b", OneConditionSql("s1"),
                                             /*wait=*/false));
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  ASSERT_TRUE(queued->ok);
  EXPECT_EQ(queued->state, "queued");
  threads.emplace_back([&] {
    waited[2] = Exchange(connections[2],
                         SubmitRequest("c", OneConditionSql("s2"), true));
  });
  ASSERT_TRUE(AwaitQueueDepth(2));
  ClientRequest cancel;
  cancel.kind = ClientRequest::Kind::kCancel;
  cancel.ticket = queued->ticket;
  const auto cancelled = Exchange(connections[1], cancel);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_TRUE(cancelled->ok);
  EXPECT_EQ(cancelled->state, "queued");
  gate.Open();
  for (std::thread& t : threads) t.join();
  for (const size_t i : {size_t{0}, size_t{2}}) {
    ASSERT_TRUE(waited[i].ok()) << waited[i].status().ToString();
    EXPECT_TRUE(waited[i]->ok) << waited[i]->error_message;
  }
  ClientRequest status;
  status.kind = ClientRequest::Kind::kStatus;
  status.ticket = queued->ticket;
  const auto polled = Exchange(connections[1], status);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->state, "cancelled");
  const std::vector<std::string> started = gate.Started();
  EXPECT_EQ(std::count(started.begin(), started.end(), ConditionText("s1")),
            0);
  EXPECT_EQ(started.back(), ConditionText("s2"));
  EXPECT_EQ(gate.max_inside, 1);
  for (MessageSocket& socket : connections) socket.Close();
  daemon.Stop();
}

// Round-robin across clients, which a FIFO would not give: with the permit
// held, client a queues two requests and then b one; b's runs between a's.
TEST(QueryServiceTest, QueuedRequestsStartRoundRobinAcrossClients) {
  CountingGate gate;
  QueryService::Options options;
  options.workers = 1;
  auto service = CountingGatedService(&gate, options);
  const auto running = service->Submit("a", OneConditionSql("q0"));
  ASSERT_TRUE(running.ok());
  gate.AwaitCall(ConditionText("q0"));
  std::vector<uint64_t> tickets = {*running};
  for (const auto& [client, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"a", "q1"}, {"a", "q2"}, {"b", "q3"}}) {
    const auto ticket = service->Submit(client, OneConditionSql(value));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  gate.Open();
  for (const uint64_t ticket : tickets) EXPECT_TRUE(service->Wait(ticket).ok());
  EXPECT_EQ(gate.Started(),
            (std::vector<std::string>{ConditionText("q0"), ConditionText("q1"),
                                      ConditionText("q3"),
                                      ConditionText("q2")}));
  EXPECT_EQ(gate.max_inside, 1);
}

// STATS counts the SUBMITs that ran on their connection thread: on an idle
// service every waiting SUBMIT does, a wait=no SUBMIT never does.
TEST(QueryServiceTest, InlineRunsCountWaitingSubmitsOnAnIdleService) {
  auto service = Figure1Service({});
  const Counter& inline_runs =
      MetricsRegistry::Global().counter(metrics::kServiceInlineRunsTotal);
  const Counter& requests =
      MetricsRegistry::Global().counter(metrics::kServiceRequestsTotal);
  const uint64_t inline_before = inline_runs.value();
  const uint64_t requests_before = requests.value();
  constexpr int kSubmits = 5;
  const char* queries[] = {kDuiAndSp, kDuiAndSp93, kDuiOnly};
  for (int i = 0; i < kSubmits; ++i) {
    const auto response = ParseClientResponse(service->Handle(
        SerializeClientRequest(SubmitRequest("alice", queries[i % 3], true))));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->ok) << response->error_message;
    EXPECT_EQ(response->state, "done");
  }
  EXPECT_EQ(inline_runs.value() - inline_before, uint64_t{kSubmits});

  const auto queued = ParseClientResponse(service->Handle(
      SerializeClientRequest(SubmitRequest("alice", kDuiOnly, false))));
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(queued->ok);
  EXPECT_TRUE(service->Wait(queued->ticket).ok());
  EXPECT_EQ(inline_runs.value() - inline_before, uint64_t{kSubmits});
  EXPECT_EQ(requests.value() - requests_before, uint64_t{kSubmits + 1});
  EXPECT_NE(service->StatsText().find(metrics::kServiceInlineRunsTotal),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Multi-client soak: N clients, mixed queries, one shared session
// ---------------------------------------------------------------------------

TEST(QueryServiceSoakTest, ManyClientsManyQueriesOneSession) {
  QueryService::Options options;
  options.workers = 4;
  options.max_queue = 256;  // soak must not shed
  auto service = Figure1Service(options);

  // Reference answers, computed through the same service up front.
  const char* queries[] = {kDuiAndSp, kDuiAndSp93, kDuiOnly};
  std::string expected[3];
  for (int q = 0; q < 3; ++q) {
    const auto ticket = service->Submit("reference", queries[q]);
    ASSERT_TRUE(ticket.ok());
    const auto answer = service->Wait(*ticket);
    ASSERT_TRUE(answer.ok()) << queries[q];
    expected[q] = answer->items.ToString();
  }

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const int q = (c + i) % 3;
        const auto ticket =
            service->Submit("soak-" + std::to_string(c), queries[q]);
        if (!ticket.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto answer = service->Wait(*ticket);
        if (!answer.ok()) {
          failures.fetch_add(1);
        } else if (answer->items.ToString() != expected[q]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace fusion
