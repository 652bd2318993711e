// Failure-injection tests: transient source failures (FlakySource), the
// executor's retry/backoff policy, option validation, and the retry × cache
// interaction — including the cost accounting of failed attempts.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/source_call_cache.h"
#include "mediator/mediator.h"
#include "optimizer/filter.h"
#include "relational/reference_evaluator.h"
#include "source/flaky_source.h"
#include "source/simulated_source.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

Schema DmvSchema() {
  return Schema({{"L", ValueType::kString},
                 {"V", ValueType::kString},
                 {"D", ValueType::kInt64}});
}

Relation SmallRelation() {
  Relation r(DmvSchema());
  EXPECT_TRUE(r.Append({Value("J55"), Value("dui"), Value(int64_t{1993})}).ok());
  EXPECT_TRUE(r.Append({Value("T21"), Value("sp"), Value(int64_t{1994})}).ok());
  return r;
}

std::unique_ptr<FlakySource> MakeFlaky(FlakySource::Options options) {
  NetworkProfile net;
  net.query_overhead = 10.0;
  return std::make_unique<FlakySource>(
      std::make_unique<SimulatedSource>("R1", SmallRelation(), Capabilities{},
                                        net),
      options);
}

// ---------------------------------------------------------------------------
// FlakySource behaviour
// ---------------------------------------------------------------------------

TEST(FlakySourceTest, FailFirstKThenSucceeds) {
  FlakySource::Options options;
  options.fail_first_k = 2;
  auto src = MakeFlaky(options);
  CostLedger ledger;
  EXPECT_FALSE(src->Select(Condition::True(), "L", &ledger).ok());
  EXPECT_FALSE(src->Select(Condition::True(), "L", &ledger).ok());
  EXPECT_TRUE(src->Select(Condition::True(), "L", &ledger).ok());
  EXPECT_EQ(src->calls_attempted(), 3u);
  EXPECT_EQ(src->calls_failed(), 2u);
}

TEST(FlakySourceTest, FailedCallsChargeOverhead) {
  FlakySource::Options options;
  options.fail_first_k = 1;
  auto src = MakeFlaky(options);
  CostLedger ledger;
  EXPECT_FALSE(src->Select(Condition::True(), "L", &ledger).ok());
  ASSERT_EQ(ledger.num_queries(), 1u);
  EXPECT_DOUBLE_EQ(ledger.total(), 10.0);  // the wasted round trip
  EXPECT_NE(ledger.charges()[0].detail.find("FAILED"), std::string::npos);
}

TEST(FlakySourceTest, ZeroProbabilityNeverFails) {
  auto src = MakeFlaky({});
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(src->Select(Condition::True(), "L", nullptr).ok());
  }
  EXPECT_EQ(src->calls_failed(), 0u);
}

TEST(FlakySourceTest, DelegatesMetadata) {
  auto src = MakeFlaky({});
  EXPECT_EQ(src->name(), "R1");
  EXPECT_EQ(src->schema(), DmvSchema());
  EXPECT_NE(src->AsSimulated(), nullptr);
}

TEST(FlakySourceTest, FailuresAreSeedDeterministic) {
  FlakySource::Options options;
  options.failure_probability = 0.5;
  options.seed = 99;
  auto a = MakeFlaky(options);
  auto b = MakeFlaky(options);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(a->Select(Condition::True(), "L", nullptr).ok(),
              b->Select(Condition::True(), "L", nullptr).ok());
  }
}

TEST(FlakySourceTest, OutageWindowFailsPermanently) {
  FlakySource::Options options;
  options.outage_start = 1;
  options.outage_end = 3;  // calls 1 and 2 are down; 0 and 3+ are fine
  auto src = MakeFlaky(options);
  EXPECT_TRUE(src->Select(Condition::True(), "L", nullptr).ok());
  const auto down = src->Select(Condition::True(), "L", nullptr);
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(src->Select(Condition::True(), "L", nullptr).ok());
  EXPECT_TRUE(src->Select(Condition::True(), "L", nullptr).ok());
}

TEST(FlakySourceTest, TransientAndOutageCodesAreDistinct) {
  FlakySource::Options transient;
  transient.fail_first_k = 1;
  auto a = MakeFlaky(transient);
  EXPECT_EQ(a->Select(Condition::True(), "L", nullptr).status().code(),
            StatusCode::kInternal);

  FlakySource::Options outage;
  outage.outage_end = std::numeric_limits<size_t>::max();
  auto b = MakeFlaky(outage);
  EXPECT_EQ(b->Select(Condition::True(), "L", nullptr).status().code(),
            StatusCode::kUnavailable);
}

TEST(FlakySourceTest, TargetedOperationLeavesOthersAlone) {
  FlakySource::Options options;
  options.fail_first_k = 100;
  options.target_operation = "lq";
  auto src = MakeFlaky(options);
  // sq passes untouched and consumes no failure decision...
  EXPECT_TRUE(src->Select(Condition::True(), "L", nullptr).ok());
  EXPECT_EQ(src->calls_attempted(), 0u);
  // ...while lq is on the failure budget.
  EXPECT_FALSE(src->Load(nullptr).ok());
  EXPECT_EQ(src->calls_attempted(), 1u);
}

TEST(FlakySourceTest, InjectedLatencyDelaysCalls) {
  FlakySource::Options options;
  options.injected_latency_seconds = 0.02;
  auto src = MakeFlaky(options);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(src->Select(Condition::True(), "L", nullptr).ok());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.02);
}

// ---------------------------------------------------------------------------
// Executor retries
// ---------------------------------------------------------------------------

/// Builds a catalog with one flaky and one reliable source.
SourceCatalog FlakyCatalog(FlakySource::Options options) {
  SourceCatalog catalog;
  EXPECT_TRUE(catalog.Add(MakeFlaky(options)).ok());
  NetworkProfile net;
  net.query_overhead = 10.0;
  Relation r2(DmvSchema());
  EXPECT_TRUE(
      r2.Append({Value("J55"), Value("sp"), Value(int64_t{1996})}).ok());
  EXPECT_TRUE(catalog
                  .Add(std::make_unique<SimulatedSource>(
                      "R2", std::move(r2), Capabilities{}, net))
                  .ok());
  return catalog;
}

FusionQuery DuiSpQuery() {
  return FusionQuery("L", {Condition::Eq("V", Value("dui")),
                           Condition::Eq("V", Value("sp"))});
}

Plan FilterPlanFor2x2() {
  Plan plan;
  const int a0 = plan.EmitSelect(0, 0);
  const int a1 = plan.EmitSelect(0, 1);
  const int x1 = plan.EmitUnion({a0, a1});
  const int b0 = plan.EmitSelect(1, 0);
  const int b1 = plan.EmitSelect(1, 1);
  const int u2 = plan.EmitUnion({b0, b1});
  const int x2 = plan.EmitIntersect({x1, u2});
  plan.SetResult(x2);
  return plan;
}

TEST(RetryTest, WithoutRetriesTransientFailureKillsTheQuery) {
  FlakySource::Options options;
  options.fail_first_k = 1;
  const SourceCatalog catalog = FlakyCatalog(options);
  const auto report = ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

TEST(RetryTest, RetriesRecoverFromTransientFailures) {
  FlakySource::Options options;
  options.fail_first_k = 1;
  const SourceCatalog catalog = FlakyCatalog(options);
  ExecOptions exec;
  exec.retry.max_attempts = 3;
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->answer.ToString(), "{'J55'}");
  // The failed attempt's overhead is on the ledger alongside the retries.
  bool saw_failed_charge = false;
  for (const Charge& c : report->ledger.charges()) {
    if (c.detail.find("FAILED") != std::string::npos) saw_failed_charge = true;
  }
  EXPECT_TRUE(saw_failed_charge);
}

TEST(RetryTest, RetriesExhaustEventually) {
  FlakySource::Options options;
  options.fail_first_k = 100;  // fails more times than we retry
  const SourceCatalog catalog = FlakyCatalog(options);
  ExecOptions exec;
  exec.retry.max_attempts = 3;
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  EXPECT_FALSE(report.ok());
}

TEST(RetryTest, PermanentErrorsAreNotRetried) {
  // A semijoin against an unsupported source is permanent: the executor must
  // not burn attempts on it.
  SourceCatalog catalog;
  Capabilities none;
  none.semijoin = SemijoinSupport::kUnsupported;
  NetworkProfile net;
  EXPECT_TRUE(catalog
                  .Add(std::make_unique<SimulatedSource>(
                      "R1", SmallRelation(), none, net))
                  .ok());
  Plan plan;
  const int a = plan.EmitSelect(0, 0);
  const int s = plan.EmitSemiJoin(1, 0, a);
  plan.SetResult(s);
  ExecOptions exec;
  exec.retry.max_attempts = 5;
  const auto report = ExecutePlan(plan, catalog, DuiSpQuery(), exec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnsupported);
}

TEST(RetryTest, PermanentUnavailableIsNotRetried) {
  // A source in outage fails with kUnavailable: retrying cannot help, so the
  // executor must not burn the retry ladder (one attempt, one wasted charge).
  FlakySource::Options options;
  options.outage_end = std::numeric_limits<size_t>::max();
  SourceCatalog catalog = FlakyCatalog(options);
  ExecOptions exec;
  exec.retry.max_attempts = 5;
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
  const auto* flaky = dynamic_cast<const FlakySource*>(&catalog.source(0));
  ASSERT_NE(flaky, nullptr);
  EXPECT_EQ(flaky->calls_attempted(), 1u);
}

// ---------------------------------------------------------------------------
// ExecOptions validation
// ---------------------------------------------------------------------------

TEST(ValidateOptionsTest, RejectsBadOptionsBeforeContactingSources) {
  const SourceCatalog catalog = FlakyCatalog({});
  const Plan plan = FilterPlanFor2x2();
  const FusionQuery query = DuiSpQuery();
  auto expect_invalid = [&](const ExecOptions& exec) {
    const auto report = ExecutePlan(plan, catalog, query, exec);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    // Rejected before any call: the flaky source saw nothing.
    const auto* flaky = dynamic_cast<const FlakySource*>(&catalog.source(0));
    ASSERT_NE(flaky, nullptr);
    EXPECT_EQ(flaky->calls_attempted(), 0u);
  };
  ExecOptions exec;
  exec.retry.max_attempts = 0;
  expect_invalid(exec);
  exec = ExecOptions{};
  exec.retry.max_attempts = -3;
  expect_invalid(exec);
  exec = ExecOptions{};
  exec.parallelism = 0;
  expect_invalid(exec);
  exec = ExecOptions{};
  exec.simulated_seconds_per_cost = -0.5;
  expect_invalid(exec);
  exec = ExecOptions{};
  exec.retry.backoff_multiplier = 0.5;
  expect_invalid(exec);
  exec = ExecOptions{};
  exec.deadline_seconds = -1.0;
  expect_invalid(exec);
}

TEST(ValidateOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateExecOptions(ExecOptions{}).ok());
}

// ---------------------------------------------------------------------------
// Backoff schedule
// ---------------------------------------------------------------------------

TEST(BackoffTest, ExponentialGrowthWithCap) {
  RetryPolicy retry;
  retry.initial_backoff_seconds = 0.1;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_seconds = 0.5;
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(1), 0.1);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(2), 0.2);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(3), 0.4);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(4), 0.5);  // capped
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(9), 0.5);
}

TEST(BackoffTest, NoBackoffByDefault) {
  EXPECT_DOUBLE_EQ(RetryPolicy{}.BackoffSeconds(1), 0.0);
}

TEST(BackoffTest, RetriesActuallySleep) {
  FlakySource::Options options;
  options.fail_first_k = 2;
  const SourceCatalog catalog = FlakyCatalog(options);
  ExecOptions exec;
  exec.retry.max_attempts = 3;
  exec.retry.initial_backoff_seconds = 0.02;
  const auto start = std::chrono::steady_clock::now();
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->answer.ToString(), "{'J55'}");
  // Two transient failures ⇒ two backoff sleeps: 0.02 + 0.04.
  EXPECT_GE(elapsed, 0.06);
  EXPECT_EQ(report->retries_total, 2u);
}

// ---------------------------------------------------------------------------
// Retry × cache
// ---------------------------------------------------------------------------

TEST(RetryCacheTest, RetriedSuccessPopulatesCacheExactlyOnce) {
  FlakySource::Options options;
  options.fail_first_k = 1;
  SourceCatalog catalog = FlakyCatalog(options);
  SourceCallCache cache;
  ExecOptions exec;
  exec.retry.max_attempts = 3;
  exec.cache = &cache;
  const auto first =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->retries_total, 1u);
  const auto* flaky = dynamic_cast<const FlakySource*>(&catalog.source(0));
  ASSERT_NE(flaky, nullptr);
  const size_t calls_after_first = flaky->calls_attempted();

  // The retried success was published: a second run answers every selection
  // from the memo and issues no further source calls.
  const auto second =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->answer, first->answer);
  EXPECT_EQ(second->cache_hits, 4u);
  EXPECT_EQ(second->ledger.num_queries(), 0u);
  EXPECT_EQ(flaky->calls_attempted(), calls_after_first);
}

TEST(RetryCacheTest, ConcurrentExecutionsShareTheRetriedAnswer) {
  // Several executions race on the same cache against a source whose first
  // call fails. Single-flight: whoever leads a given (source, cond) flight
  // retries through the failure; waiters inherit the retried success. All
  // executions must agree on the answer. (Run under TSan via the
  // concurrency label.)
  FlakySource::Options options;
  options.fail_first_k = 1;
  SourceCatalog catalog = FlakyCatalog(options);
  SourceCallCache cache;
  constexpr int kThreads = 4;
  std::vector<Result<ExecutionReport>> results(
      kThreads, Status(StatusCode::kInternal, "never ran"));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ExecOptions exec;
        exec.retry.max_attempts = 3;
        exec.cache = &cache;
        results[static_cast<size_t>(t)] =
            ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->answer.ToString(), "{'J55'}");
  }
  // Exactly one failure was injected (fail_first_k = 1), so exactly one
  // flight retried; every other consumer either waited on a flight or hit
  // the memo.
  const auto* flaky = dynamic_cast<const FlakySource*>(&catalog.source(0));
  ASSERT_NE(flaky, nullptr);
  EXPECT_EQ(flaky->calls_failed(), 1u);
}

TEST(RetryTest, EndToEndThroughMediatorOnFlakyFederation) {
  // Random failures at 20% with 4 attempts: the query should almost surely
  // succeed and still compute the right answer.
  SyntheticSpec spec;
  spec.universe_size = 200;
  spec.num_sources = 4;
  spec.num_conditions = 2;
  spec.seed = 5;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const ItemSet expected = *ReferenceFusionAnswer(
      RelationsOf(*instance), "M", instance->query.conditions());
  const FusionQuery query = instance->query;

  // Rewrap every source in a flaky decorator.
  SourceCatalog flaky;
  SourceCatalog original = std::move(instance->catalog);
  for (size_t j = 0; j < 4; ++j) {
    const SimulatedSource* sim = original.source(j).AsSimulated();
    ASSERT_NE(sim, nullptr);
    FlakySource::Options options;
    options.failure_probability = 0.2;
    options.seed = 100 + j;
    ASSERT_TRUE(flaky
                    .Add(std::make_unique<FlakySource>(
                        std::make_unique<SimulatedSource>(*sim), options))
                    .ok());
  }
  Mediator mediator(std::move(flaky));
  MediatorOptions options;
  options.statistics = StatisticsMode::kOracle;
  options.execution.retry.max_attempts = 6;
  const auto answer = mediator.Answer(query, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->items, expected);
}

}  // namespace
}  // namespace fusion
