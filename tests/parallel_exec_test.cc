// Concurrency test suite for the parallel plan executor (run it under TSan
// via -DFUSION_SANITIZE=thread, see README.md):
//   - equivalence: for a matrix of plan shapes, parallel execution at any
//     worker count reproduces sequential answers, emulation counts, witness
//     sets, and the ledger charge-for-charge;
//   - retry/flake determinism: interleaved attempts against FlakySources
//     lose no retries and stay byte-deterministic under a fixed seed;
//   - single-flight: concurrent identical selections through a shared
//     SourceCallCache cost exactly one source call;
//   - makespan: with simulated per-cost latencies, measured wall clock
//     tracks ComputeResponseTime's critical path, not the sequential sum.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/source_call_cache.h"
#include "mediator/mediator.h"
#include "plan/response_time.h"
#include "relational/reference_evaluator.h"
#include "source/flaky_source.h"
#include "source/simulated_source.h"
#include "workload/dmv.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

// ---------------------------------------------------------------------------
// Plan matrix over the Figure 1 instance
// ---------------------------------------------------------------------------

Plan FilterPlan() {
  Plan plan;
  std::vector<int> dui, sp;
  for (int j = 0; j < 3; ++j) dui.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(dui, "X1");
  for (int j = 0; j < 3; ++j) sp.push_back(plan.EmitSelect(1, j));
  const int u2 = plan.EmitUnion(sp, "U2");
  plan.SetResult(plan.EmitIntersect({x1, u2}, "X2"));
  return plan;
}

Plan SemijoinPlan() {
  Plan plan;
  std::vector<int> dui;
  for (int j = 0; j < 3; ++j) dui.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(dui, "X1");
  std::vector<int> sp;
  for (int j = 0; j < 3; ++j) sp.push_back(plan.EmitSemiJoin(1, j, x1));
  plan.SetResult(plan.EmitUnion(sp, "X2"));
  return plan;
}

Plan DifferencePrunedPlan() {
  Plan plan;
  std::vector<int> dui;
  for (int j = 0; j < 3; ++j) dui.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(dui, "X1");
  const int y1 = plan.EmitSemiJoin(1, 0, x1, "Y1");
  const int p1 = plan.EmitDifference(x1, y1, "P1");
  const int y2 = plan.EmitSemiJoin(1, 1, p1, "Y2");
  const int p2 = plan.EmitDifference(p1, y2, "P2");
  const int y3 = plan.EmitSemiJoin(1, 2, p2, "Y3");
  plan.SetResult(plan.EmitUnion({y1, y2, y3}, "X2"));
  return plan;
}

Plan LoadPlan() {
  Plan plan;
  const int y = plan.EmitLoad(2, "Y3");
  const int a0 = plan.EmitSelect(0, 0);
  const int a1 = plan.EmitSelect(0, 1);
  const int a2 = plan.EmitLocalSelect(0, y, "X13");
  const int x1 = plan.EmitUnion({a0, a1, a2}, "X1");
  const int b0 = plan.EmitSelect(1, 0);
  const int b1 = plan.EmitSelect(1, 1);
  const int b2 = plan.EmitLocalSelect(1, y, "X23");
  const int u2 = plan.EmitUnion({b0, b1, b2}, "U2");
  plan.SetResult(plan.EmitIntersect({x1, u2}, "X2"));
  return plan;
}

/// Asserts that a parallel report is indistinguishable from the sequential
/// one: answer, emulation count, witness knowledge, exact per-op costs, and the
/// ledger charge-for-charge (Report() prints every charge in order, so
/// string equality is the strongest practical check — even floating-point
/// totals must agree because both sides accumulate in plan-op order).
void ExpectSameExecution(const ExecutionReport& seq,
                         const ExecutionReport& par) {
  EXPECT_EQ(seq.answer, par.answer);
  EXPECT_EQ(seq.emulated_semijoins, par.emulated_semijoins);
  EXPECT_EQ(seq.ledger.Report(), par.ledger.Report());
  EXPECT_DOUBLE_EQ(seq.ledger.total(), par.ledger.total());
  // Each op's cost is its own sub-ledger's total under every scheduler, so
  // the per-op costs agree exactly, not just within rounding.
  EXPECT_EQ(seq.per_op_cost, par.per_op_cost);
  const std::vector<ItemSet> seq_witnesses = seq.WitnessSets();
  const std::vector<ItemSet> par_witnesses = par.WitnessSets();
  ASSERT_EQ(seq_witnesses.size(), par_witnesses.size());
  for (size_t j = 0; j < seq_witnesses.size(); ++j) {
    EXPECT_EQ(seq_witnesses[j], par_witnesses[j]) << "source " << j;
  }
}

TEST(ParallelExecTest, MatchesSequentialAcrossPlanMatrix) {
  const auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  const Plan plans[] = {FilterPlan(), SemijoinPlan(), DifferencePrunedPlan(),
                        LoadPlan()};
  for (size_t p = 0; p < std::size(plans); ++p) {
    const auto seq =
        ExecutePlan(plans[p], instance->catalog, instance->query);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    for (const int parallelism : {1, 2, 8}) {
      ExecOptions options;
      options.parallelism = parallelism;
      const auto par =
          ExecutePlan(plans[p], instance->catalog, instance->query, options);
      ASSERT_TRUE(par.ok())
          << "plan " << p << " parallelism " << parallelism << ": "
          << par.status().ToString();
      SCOPED_TRACE("plan " + std::to_string(p) + " parallelism " +
                   std::to_string(parallelism));
      ExpectSameExecution(*seq, *par);
      EXPECT_EQ(par->answer.ToString(), "{'J55', 'T21'}");
    }
  }
}

TEST(ParallelExecTest, MatchesSequentialWithEmulatedSemijoins) {
  SyntheticSpec spec;
  spec.universe_size = 200;
  spec.num_sources = 3;
  spec.num_conditions = 2;
  spec.coverage = 0.6;
  spec.frac_native_semijoin = 0.0;
  spec.frac_passed_bindings = 1.0;  // every semijoin is emulated
  spec.seed = 21;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());

  Plan plan;
  std::vector<int> c1;
  for (int j = 0; j < 3; ++j) c1.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(c1, "X1");
  std::vector<int> c2;
  for (int j = 0; j < 3; ++j) c2.push_back(plan.EmitSemiJoin(1, j, x1));
  plan.SetResult(plan.EmitUnion(c2, "X2"));

  const auto seq = ExecutePlan(plan, instance->catalog, instance->query);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq->emulated_semijoins, 3u);
  for (const int parallelism : {2, 8}) {
    ExecOptions options;
    options.parallelism = parallelism;
    const auto par =
        ExecutePlan(plan, instance->catalog, instance->query, options);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    ExpectSameExecution(*seq, *par);
  }
  // And the answer is the true fusion answer for this shape: every source
  // sees both conditions.
  const ItemSet expected = *ReferenceFusionAnswer(
      RelationsOf(*instance), "M", instance->query.conditions());
  EXPECT_EQ(seq->answer, expected);
}

TEST(ParallelExecTest, MatchesSequentialOnOptimizedPlans) {
  // Whatever shape the optimizers produce (SJA+ emits differences and loads
  // when they pay off), parallel execution must agree with sequential.
  for (const uint64_t seed : {0u, 1u, 2u, 3u, 4u}) {
    SyntheticSpec spec;
    spec.universe_size = 300;
    spec.num_sources = 4;
    spec.num_conditions = 3;
    spec.coverage = 0.4;
    spec.frac_native_semijoin = 0.7;
    spec.frac_passed_bindings = 0.3;
    spec.seed = seed;
    auto instance = GenerateSynthetic(spec);
    ASSERT_TRUE(instance.ok());
    Mediator mediator(std::move(instance->catalog));
    MediatorOptions options;
    options.strategy = OptimizerStrategy::kSjaPlus;
    options.statistics = StatisticsMode::kOracle;
    const auto opt = mediator.Optimize(instance->query, options);
    ASSERT_TRUE(opt.ok()) << opt.status().ToString();

    const auto seq =
        ExecutePlan(opt->plan, mediator.catalog(), instance->query);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    ExecOptions exec;
    exec.parallelism = 8;
    const auto par =
        ExecutePlan(opt->plan, mediator.catalog(), instance->query, exec);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSameExecution(*seq, *par);
  }
}

TEST(ParallelExecTest, MediatorPlumbsParallelismThrough) {
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  Mediator mediator(std::move(instance->catalog));
  MediatorOptions options;
  options.statistics = StatisticsMode::kOracle;
  const auto sequential = mediator.Answer(instance->query, options);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  options.execution.parallelism = 4;
  const auto parallel = mediator.Answer(instance->query, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->items.ToString(), "{'J55', 'T21'}");
  ExpectSameExecution(sequential->execution, parallel->execution);
}

TEST(ParallelExecTest, UnsupportedSemijoinStillFailsCleanly) {
  SyntheticSpec spec;
  spec.universe_size = 50;
  spec.num_sources = 2;
  spec.num_conditions = 2;
  spec.frac_native_semijoin = 0.0;
  spec.frac_passed_bindings = 0.0;  // no semijoin capability at all
  spec.seed = 5;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  Plan plan;
  const int a = plan.EmitSelect(0, 0);
  const int b = plan.EmitSelect(0, 1);  // independent work for the workers
  const int s = plan.EmitSemiJoin(1, 1, a);
  plan.SetResult(plan.EmitUnion({b, s}));
  ExecOptions options;
  options.parallelism = 4;
  const auto report =
      ExecutePlan(plan, instance->catalog, instance->query, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Flaky sources: interleaved retries stay deterministic
// ---------------------------------------------------------------------------

struct FlakyFederation {
  SourceCatalog catalog;
  FusionQuery query;
  std::vector<const FlakySource*> flaky;  // borrowed views
};

/// Builds a flaky-decorated copy of a deterministic synthetic federation.
/// Two invocations with the same arguments produce byte-identical twins, so
/// a parallel run can be compared against a sequential run of its twin.
FlakyFederation BuildFlakyFederation(double failure_probability) {
  SyntheticSpec spec;
  spec.universe_size = 150;
  spec.num_sources = 4;
  spec.num_conditions = 2;
  spec.coverage = 0.5;
  spec.frac_native_semijoin = 0.5;
  spec.frac_passed_bindings = 0.5;  // emulated probes retry individually
  spec.seed = 77;
  auto instance = GenerateSynthetic(spec);
  EXPECT_TRUE(instance.ok());
  FlakyFederation out;
  out.query = instance->query;
  for (size_t j = 0; j < spec.num_sources; ++j) {
    const SimulatedSource* sim = instance->catalog.source(j).AsSimulated();
    EXPECT_NE(sim, nullptr);
    FlakySource::Options options;
    options.failure_probability = failure_probability;
    // Generous retry budget: with p=0.2 and 10 attempts the chance of any
    // call exhausting its retries is ~1e-7, so runs are reliably identical.
    options.seed = 1000 + j;
    auto flaky = std::make_unique<FlakySource>(
        std::make_unique<SimulatedSource>(*sim), options);
    out.flaky.push_back(flaky.get());
    EXPECT_TRUE(out.catalog.Add(std::move(flaky)).ok());
  }
  return out;
}

Plan FlakyStressPlan() {
  // sq fan-out, a semijoin chain with a difference, and an intersect join:
  // every op kind whose retries can interleave.
  Plan plan;
  std::vector<int> c1;
  for (int j = 0; j < 4; ++j) c1.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(c1, "X1");
  const int y1 = plan.EmitSemiJoin(1, 0, x1, "Y1");
  const int p1 = plan.EmitDifference(x1, y1, "P1");
  const int y2 = plan.EmitSemiJoin(1, 1, p1, "Y2");
  const int y3 = plan.EmitSemiJoin(1, 2, x1, "Y3");
  plan.SetResult(plan.EmitUnion({y1, y2, y3}, "X2"));
  return plan;
}

TEST(ParallelExecStressTest, HundredFlakyExecutionsMatchSequentialTwin) {
  constexpr int kExecutions = 100;
  constexpr double kFailureProbability = 0.2;
  FlakyFederation parallel_fed = BuildFlakyFederation(kFailureProbability);
  FlakyFederation sequential_fed = BuildFlakyFederation(kFailureProbability);
  const Plan plan = FlakyStressPlan();

  ExecOptions par_options;
  par_options.parallelism = 8;
  par_options.retry.max_attempts = 10;
  ExecOptions seq_options;
  seq_options.retry.max_attempts = 10;

  for (int i = 0; i < kExecutions; ++i) {
    const auto par =
        ExecutePlan(plan, parallel_fed.catalog, parallel_fed.query,
                    par_options);
    const auto seq =
        ExecutePlan(plan, sequential_fed.catalog, sequential_fed.query,
                    seq_options);
    ASSERT_TRUE(par.ok()) << "execution " << i << ": "
                          << par.status().ToString();
    ASSERT_TRUE(seq.ok()) << "execution " << i << ": "
                          << seq.status().ToString();
    SCOPED_TRACE("execution " + std::to_string(i));
    // Deterministic answers AND deterministic accounting: the ledger carries
    // every failed attempt's wasted round trip, so equality here means no
    // retry was lost or double-counted under interleaving.
    ExpectSameExecution(*seq, *par);
  }
  // The failure streams themselves must line up call-for-call.
  size_t total_attempts = 0, total_failures = 0;
  for (size_t j = 0; j < parallel_fed.flaky.size(); ++j) {
    EXPECT_EQ(parallel_fed.flaky[j]->calls_attempted(),
              sequential_fed.flaky[j]->calls_attempted())
        << "source " << j;
    EXPECT_EQ(parallel_fed.flaky[j]->calls_failed(),
              sequential_fed.flaky[j]->calls_failed())
        << "source " << j;
    total_attempts += parallel_fed.flaky[j]->calls_attempted();
    total_failures += parallel_fed.flaky[j]->calls_failed();
  }
  EXPECT_GT(total_failures, 0u) << "stress test injected no failures at all";
  EXPECT_GT(total_attempts, total_failures);
}

TEST(ParallelExecStressTest, SharedCacheNeverDoubleCharges) {
  // Repeated executions through one shared cache: after the first run every
  // selection is a hit, and hits must charge nothing — in any mode.
  constexpr int kExecutions = 50;
  FlakyFederation parallel_fed = BuildFlakyFederation(0.0);
  FlakyFederation sequential_fed = BuildFlakyFederation(0.0);
  const Plan plan = FlakyStressPlan();

  SourceCallCache par_cache, seq_cache;
  ExecOptions par_options;
  par_options.parallelism = 8;
  par_options.cache = &par_cache;
  ExecOptions seq_options;
  seq_options.cache = &seq_cache;

  for (int i = 0; i < kExecutions; ++i) {
    const auto par = ExecutePlan(plan, parallel_fed.catalog,
                                 parallel_fed.query, par_options);
    const auto seq = ExecutePlan(plan, sequential_fed.catalog,
                                 sequential_fed.query, seq_options);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    SCOPED_TRACE("execution " + std::to_string(i));
    ExpectSameExecution(*seq, *par);
  }
  EXPECT_EQ(par_cache.hits(), seq_cache.hits());
  EXPECT_EQ(par_cache.misses(), seq_cache.misses());
  // Each distinct selection hit the source exactly once across all 50 runs.
  for (size_t j = 0; j < parallel_fed.flaky.size(); ++j) {
    EXPECT_EQ(parallel_fed.flaky[j]->calls_attempted(),
              sequential_fed.flaky[j]->calls_attempted())
        << "source " << j;
  }
}

// ---------------------------------------------------------------------------
// Single-flight deduplication
// ---------------------------------------------------------------------------

/// Decorator that makes Select slow and counts invocations — slow enough
/// that two racing executions reliably overlap in the flight window.
class SlowCountingSource : public SourceWrapper {
 public:
  SlowCountingSource(std::unique_ptr<SourceWrapper> inner,
                     std::atomic<int>* select_calls)
      : inner_(std::move(inner)), select_calls_(select_calls) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  const Capabilities& capabilities() const override {
    return inner_->capabilities();
  }

  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override {
    select_calls_->fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return inner_->Select(cond, merge_attribute, ledger);
  }
  Result<ItemSet> SemiJoin(const Condition& cond,
                           const std::string& merge_attribute,
                           const ItemSet& candidates,
                           CostLedger* ledger) override {
    return inner_->SemiJoin(cond, merge_attribute, candidates, ledger);
  }
  Result<Relation> Load(CostLedger* ledger) override {
    return inner_->Load(ledger);
  }
  Result<Relation> FetchRecords(const std::string& merge_attribute,
                                const ItemSet& items,
                                CostLedger* ledger) override {
    return inner_->FetchRecords(merge_attribute, items, ledger);
  }

 private:
  std::unique_ptr<SourceWrapper> inner_;
  std::atomic<int>* select_calls_;
};

TEST(SingleFlightTest, ConcurrentIdenticalSelectionsCostOneSourceCall) {
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  std::atomic<int> select_calls{0};
  SourceCatalog catalog;
  for (size_t j = 0; j < 3; ++j) {
    const SimulatedSource* sim = instance->catalog.source(j).AsSimulated();
    ASSERT_NE(sim, nullptr);
    ASSERT_TRUE(catalog
                    .Add(std::make_unique<SlowCountingSource>(
                        std::make_unique<SimulatedSource>(*sim),
                        &select_calls))
                    .ok());
  }
  Plan plan;
  plan.SetResult(plan.EmitSelect(0, 0));  // one selection: sq(c1, R1)

  SourceCallCache cache;
  ExecOptions options;
  options.cache = &cache;
  // Two whole executions race on the same cache: the slower one must ride
  // the faster one's in-flight call rather than issuing its own.
  Status statuses[2];
  ItemSet answers[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const auto report =
          ExecutePlan(plan, catalog, instance->query, options);
      statuses[t] = report.status();
      if (report.ok()) answers[t] = report->answer;
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  ASSERT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(select_calls.load(), 1)
      << "identical concurrent selections must be deduplicated into a "
         "single in-flight source call";
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SingleFlightTest, AbandonedFlightPromotesAWaiter) {
  // The leader's call fails; a waiter must be promoted and retry the source
  // rather than inheriting the failure or deadlocking.
  SourceCallCache cache;
  std::atomic<int> fulfilled{0};
  std::thread leader([&] {
    auto flight = cache.BeginFlight(0, "c");
    ASSERT_EQ(flight.cached(), nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Dropping the guard without Fulfill = the source call failed.
  });
  std::thread waiter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto flight = cache.BeginFlight(0, "c");
    if (flight.cached() == nullptr) {
      flight.Fulfill(ItemSet({Value("x")}));
      fulfilled.fetch_add(1);
    }
  });
  leader.join();
  waiter.join();
  EXPECT_EQ(fulfilled.load(), 1);
  const std::shared_ptr<const ItemSet> entry = cache.Lookup(0, "c");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->ToString(), "{'x'}");
}

// ---------------------------------------------------------------------------
// A failed run stops issuing source calls
// ---------------------------------------------------------------------------

/// Decorator for the failure-drain test. Counts Select calls; in kFail mode
/// every Select fails permanently (kUnavailable) and opens `*failed`; in
/// kHold mode the call waits for `*failed`, then lingers long enough for the
/// executor to record the failure before this worker takes another op.
class LatchedSource : public SourceWrapper {
 public:
  enum class Mode { kPass, kFail, kHold };

  LatchedSource(std::unique_ptr<SourceWrapper> inner, Mode mode,
                std::atomic<bool>* failed)
      : inner_(std::move(inner)), mode_(mode), failed_(failed) {}

  int select_calls() const { return select_calls_.load(); }

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  const Capabilities& capabilities() const override {
    return inner_->capabilities();
  }

  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override {
    select_calls_.fetch_add(1);
    if (mode_ == Mode::kFail) {
      failed_->store(true);
      return Status::Unavailable("source '" + name() + "' is down");
    }
    if (mode_ == Mode::kHold) {
      while (!failed_->load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return inner_->Select(cond, merge_attribute, ledger);
  }
  Result<ItemSet> SemiJoin(const Condition& cond,
                           const std::string& merge_attribute,
                           const ItemSet& candidates,
                           CostLedger* ledger) override {
    return inner_->SemiJoin(cond, merge_attribute, candidates, ledger);
  }
  Result<Relation> Load(CostLedger* ledger) override {
    return inner_->Load(ledger);
  }
  Result<Relation> FetchRecords(const std::string& merge_attribute,
                                const ItemSet& items,
                                CostLedger* ledger) override {
    return inner_->FetchRecords(merge_attribute, items, ledger);
  }

 private:
  std::unique_ptr<SourceWrapper> inner_;
  const Mode mode_;
  std::atomic<bool>* failed_;
  std::atomic<int> select_calls_{0};
};

TEST(ParallelExecTest, QueuedOpsMakeNoSourceCallsAfterAFailure) {
  // Seven independent selections on two workers: op 0's source is down, op
  // 1 holds the other worker until that failure is in, and ops 2-6 sit in
  // the pool's queue. Once the run has failed they must drain without
  // contacting their sources (no charges, breaker ticks, or cache fills for
  // a query whose answer is already lost).
  constexpr size_t kSources = 7;
  SyntheticSpec spec;
  spec.universe_size = 100;
  spec.num_sources = kSources;
  spec.num_conditions = 2;
  spec.seed = 9;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  std::atomic<bool> failed{false};
  std::vector<const LatchedSource*> sources;
  SourceCatalog catalog;
  for (size_t j = 0; j < kSources; ++j) {
    const SimulatedSource* sim = instance->catalog.source(j).AsSimulated();
    ASSERT_NE(sim, nullptr);
    const LatchedSource::Mode mode = j == 0   ? LatchedSource::Mode::kFail
                                     : j == 1 ? LatchedSource::Mode::kHold
                                              : LatchedSource::Mode::kPass;
    auto source = std::make_unique<LatchedSource>(
        std::make_unique<SimulatedSource>(*sim), mode, &failed);
    sources.push_back(source.get());
    ASSERT_TRUE(catalog.Add(std::move(source)).ok());
  }
  Plan plan;
  std::vector<int> selects;
  for (size_t j = 0; j < kSources; ++j) {
    selects.push_back(plan.EmitSelect(0, static_cast<int>(j)));
  }
  plan.SetResult(plan.EmitUnion(selects, "X1"));

  ExecOptions options;
  options.parallelism = 2;
  const auto report = ExecutePlan(plan, catalog, instance->query, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(sources[0]->select_calls(), 1);
  for (size_t j = 2; j < kSources; ++j) {
    EXPECT_EQ(sources[j]->select_calls(), 0) << "source " << j;
  }
}

// ---------------------------------------------------------------------------
// Measured makespan
// ---------------------------------------------------------------------------

TEST(ParallelExecTest, MeasuredMakespanTracksCriticalPathNotTotalWork) {
  const auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  const Plan plan = FilterPlan();
  ExecOptions options;
  options.simulated_seconds_per_cost = 2e-3;  // each op sleeps ~2ms/cost-unit

  const auto seq = ExecutePlan(plan, instance->catalog, instance->query,
                               options);
  ASSERT_TRUE(seq.ok());
  options.parallelism = 4;
  const auto par = ExecutePlan(plan, instance->catalog, instance->query,
                               options);
  ASSERT_TRUE(par.ok());

  const auto theory = ComputeResponseTime(plan, par->per_op_cost);
  ASSERT_TRUE(theory.ok());
  ASSERT_GT(theory->response_time, 0.0);
  ASSERT_LT(theory->response_time, theory->total_work);

  // Sleeps are lower bounds, so the measured makespan can only exceed the
  // theoretical one; and parallel overlap must beat the sequential sum by a
  // wide margin (theory predicts ~2.6x on this plan — assert a loose 1.5x
  // so scheduler jitter and sanitizer overhead never flake the test).
  const double scale = options.simulated_seconds_per_cost;
  EXPECT_GE(par->wall_clock_makespan, 0.95 * theory->response_time * scale);
  EXPECT_GE(seq->wall_clock_makespan, 0.95 * theory->total_work * scale);
  EXPECT_LT(par->wall_clock_makespan, seq->wall_clock_makespan / 1.5)
      << "parallel execution failed to overlap independent source calls";
}

}  // namespace
}  // namespace fusion
