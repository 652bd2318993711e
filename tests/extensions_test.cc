// Tests for the extensions built on top of the paper's core: the
// response-time (parallel) cost analysis and SJA-RT optimizer, lazy
// short-circuit execution, witness-based second-phase fetch planning,
// yield-ordered semijoin pruning, and the partitioned-data contrast regime.
#include <gtest/gtest.h>

#include "cost/oracle_cost_model.h"
#include "exec/executor.h"
#include "mediator/fetch_planner.h"
#include "mediator/mediator.h"
#include "optimizer/brute_force.h"
#include "optimizer/filter.h"
#include "optimizer/postopt.h"
#include "optimizer/sja.h"
#include "optimizer/sja_rt.h"
#include "plan/response_time.h"
#include "relational/reference_evaluator.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

// ---------------------------------------------------------------------------
// Response-time analysis
// ---------------------------------------------------------------------------

TEST(ResponseTimeTest, ParallelSelectionsOverlap) {
  // Two selections against different sources run concurrently: the makespan
  // is the max, not the sum.
  Plan plan;
  const int a = plan.EmitSelect(0, 0);
  const int b = plan.EmitSelect(0, 1);
  const int u = plan.EmitUnion({a, b});
  plan.SetResult(u);
  const auto rt = ComputeResponseTime(plan, {30.0, 50.0, 0.0});
  ASSERT_TRUE(rt.ok());
  EXPECT_DOUBLE_EQ(rt->response_time, 50.0);
  EXPECT_DOUBLE_EQ(rt->total_work, 80.0);
}

TEST(ResponseTimeTest, SemijoinChainsSerialize) {
  // sq -> sjq -> sjq must run in sequence (data dependencies).
  Plan plan;
  const int a = plan.EmitSelect(0, 0);
  const int s1 = plan.EmitSemiJoin(1, 1, a);
  const int s2 = plan.EmitSemiJoin(2, 2, s1);
  plan.SetResult(s2);
  const auto rt = ComputeResponseTime(plan, {10.0, 20.0, 30.0});
  ASSERT_TRUE(rt.ok());
  EXPECT_DOUBLE_EQ(rt->response_time, 60.0);
}

TEST(ResponseTimeTest, SameSourceQueriesSerialize) {
  // Two independent selections against the SAME source queue up.
  Plan plan;
  const int a = plan.EmitSelect(0, 0);
  const int b = plan.EmitSelect(1, 0);
  const int u = plan.EmitUnion({a, b});
  plan.SetResult(u);
  const auto rt = ComputeResponseTime(plan, {30.0, 50.0, 0.0});
  ASSERT_TRUE(rt.ok());
  EXPECT_DOUBLE_EQ(rt->response_time, 80.0);
}

TEST(ResponseTimeTest, LocalOpsAreInstant) {
  Plan plan;
  const int y = plan.EmitLoad(0);
  const int a = plan.EmitLocalSelect(0, y);
  const int b = plan.EmitLocalSelect(1, y);
  const int i = plan.EmitIntersect({a, b});
  plan.SetResult(i);
  const auto rt = ComputeResponseTime(plan, {100.0, 0.0, 0.0, 0.0});
  ASSERT_TRUE(rt.ok());
  EXPECT_DOUBLE_EQ(rt->response_time, 100.0);
}

TEST(ResponseTimeTest, RejectsWrongCostVectorLength) {
  Plan plan;
  const int a = plan.EmitSelect(0, 0);
  plan.SetResult(a);
  EXPECT_FALSE(ComputeResponseTime(plan, {1.0, 2.0}).ok());
}

TEST(ResponseTimeTest, FilterPlanResponseTimeIsMaxPerSource) {
  // A filter plan's makespan is governed by the slowest source's two queries
  // in sequence, not by the total over all sources.
  SyntheticSpec spec;
  spec.universe_size = 300;
  spec.num_sources = 6;
  spec.num_conditions = 2;
  spec.seed = 12;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  ASSERT_TRUE(model.ok());
  const auto filter = OptimizeFilter(*model);
  ASSERT_TRUE(filter.ok());
  const auto rt = EstimateResponseTime(filter->plan, *model);
  ASSERT_TRUE(rt.ok());
  EXPECT_LT(rt->response_time, rt->total_work);
  // Lower bound: the slowest single source query.
  double slowest = 0;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      slowest = std::max(slowest, model->SqCost(i, j));
    }
  }
  EXPECT_GE(rt->response_time, slowest);
}

// ---------------------------------------------------------------------------
// SJA-RT
// ---------------------------------------------------------------------------

class SjaRtTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SjaRtTest, ProducesCorrectAnswersAndBeatsWorkOptimalOnRt) {
  SyntheticSpec spec;
  spec.universe_size = 300;
  spec.num_sources = 3;
  spec.num_conditions = 3;
  spec.coverage = 0.4;
  spec.selectivity_jitter = 0.8;
  spec.frac_native_semijoin = 0.7;
  spec.frac_passed_bindings = 0.3;
  spec.seed = GetParam();
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  ASSERT_TRUE(model.ok());

  const auto sja_rt = OptimizeSjaResponseTime(*model);
  ASSERT_TRUE(sja_rt.ok()) << sja_rt.status().ToString();
  // Correct answer.
  const ItemSet expected = *ReferenceFusionAnswer(
      RelationsOf(*instance), "M", instance->query.conditions());
  const auto report =
      ExecutePlan(sja_rt->plan, instance->catalog, instance->query);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->answer, expected);

  // Its declared cost is the exact response-time estimate of its plan.
  const auto rt = EstimateResponseTime(sja_rt->plan, *model);
  ASSERT_TRUE(rt.ok());
  EXPECT_NEAR(rt->response_time, sja_rt->estimated_cost,
              1e-9 * (1 + sja_rt->estimated_cost));

  // Never worse on RT than the work-optimal SJA plan (it considers SJA's
  // candidate and more within each ordering... heuristic per round, so
  // allow equality with the SJA plan's RT as the weakest acceptable bound).
  const auto sja = OptimizeSja(*model);
  ASSERT_TRUE(sja.ok());
  const auto sja_rt_of_work_plan = EstimateResponseTime(sja->plan, *model);
  ASSERT_TRUE(sja_rt_of_work_plan.ok());
  EXPECT_LE(sja_rt->estimated_cost,
            sja_rt_of_work_plan->response_time * 1.2 + 1e-9)
      << "RT optimizer much worse than work-optimal plan's RT";

  // Against the RT brute force: never better, usually equal.
  const auto brute =
      BruteForceSemijoinAdaptive(*model, 1 << 20,
                                 PlanObjective::kResponseTime);
  ASSERT_TRUE(brute.ok());
  EXPECT_GE(sja_rt->estimated_cost, brute->estimated_cost - 1e-9);
  EXPECT_LE(sja_rt->estimated_cost, brute->estimated_cost * 1.5 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SjaRtTest, ::testing::Range<uint64_t>(0, 10));

TEST(SjaRtTest, PrefersParallelismOverMinimalWork) {
  // One source is slow but cheap to query; total-work SJA may chain
  // semijoins through it while SJA-RT avoids long chains. At minimum the
  // two objectives must rank these hand-built plans consistently.
  SourceParams fast;
  fast.capabilities.semijoin = SemijoinSupport::kNative;
  fast.network.query_overhead = 1;
  fast.network.cost_per_item_sent = 0.01;
  fast.network.cost_per_item_received = 0.01;
  fast.cardinality = 100;
  fast.result_size = {50, 50};
  SourceParams slow = fast;
  slow.network.query_overhead = 500;  // dominates any data transfer
  const ParametricCostModel model({fast, slow}, 200);

  // Chain plan: both rounds' queries at the slow source serialize.
  ConditionOrderPlan chain = MakeStructure({0, 1}, 2);
  chain.use_semijoin[1] = {true, true};
  const auto built = BuildStructuredPlan(model, chain, {}, false);
  ASSERT_TRUE(built.ok());
  const auto rt = EstimateResponseTime(built->plan, model);
  ASSERT_TRUE(rt.ok());
  // Slow source answers c1 (500) then its c2 semijoin waits for X1 → 1000+.
  EXPECT_GE(rt->response_time, 1000.0);
  EXPECT_LT(rt->response_time, rt->total_work);
}

// ---------------------------------------------------------------------------
// Metered per-op costs & measured response time
// ---------------------------------------------------------------------------

class MeteredRtTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MeteredRtTest, PerOpCostsSumToLedgerAndMatchEstimates) {
  SyntheticSpec spec;
  spec.universe_size = 300;
  spec.num_sources = 4;
  spec.num_conditions = 3;
  spec.frac_native_semijoin = 0.7;
  spec.frac_passed_bindings = 0.3;
  spec.selectivity_jitter = 0.8;
  spec.seed = GetParam();
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  ASSERT_TRUE(model.ok());
  const auto sja = OptimizeSja(*model);
  ASSERT_TRUE(sja.ok());

  for (const bool lazy : {false, true}) {
    ExecOptions options;
    options.lazy_short_circuit = lazy;
    const auto report = ExecutePlan(sja->plan, instance->catalog,
                                    instance->query, options);
    ASSERT_TRUE(report.ok());
    double sum = 0;
    for (double c : report->per_op_cost) sum += c;
    EXPECT_NEAR(sum, report->ledger.total(), 1e-9)
        << "per-op attribution must cover the whole ledger (lazy=" << lazy
        << ")";
    // Measured makespan from metered costs equals the oracle estimate.
    const auto measured = ComputeResponseTime(sja->plan, report->per_op_cost);
    const auto estimated = EstimateResponseTime(sja->plan, *model);
    ASSERT_TRUE(measured.ok());
    ASSERT_TRUE(estimated.ok());
    if (!lazy) {
      EXPECT_NEAR(measured->response_time, estimated->response_time,
                  1e-6 * (1 + estimated->response_time));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeteredRtTest,
                         ::testing::Range<uint64_t>(40, 48));

// ---------------------------------------------------------------------------
// Lazy short-circuit execution
// ---------------------------------------------------------------------------

TEST(LazyExecTest, EmptyAnchorConditionSkipsDownstreamQueries) {
  // Condition 1 matches nothing anywhere: once X1 = ∅, a lazy executor
  // answers without touching the remaining rounds' sources.
  SyntheticSpec spec;
  spec.universe_size = 200;
  spec.num_sources = 4;
  spec.num_conditions = 3;
  spec.selectivity = {0.0, 0.3, 0.3};  // first condition unsatisfiable
  spec.seed = 3;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  ASSERT_TRUE(model.ok());
  const auto sja = OptimizeSja(*model);
  ASSERT_TRUE(sja.ok());

  const auto eager =
      ExecutePlan(sja->plan, instance->catalog, instance->query);
  ExecOptions lazy_options;
  lazy_options.lazy_short_circuit = true;
  const auto lazy = ExecutePlan(sja->plan, instance->catalog,
                                instance->query, lazy_options);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(lazy.ok());
  EXPECT_TRUE(lazy->answer.empty());
  EXPECT_EQ(lazy->answer, eager->answer);
  EXPECT_LT(lazy->ledger.total(), eager->ledger.total());
  EXPECT_GT(lazy->skipped_ops, 0u);
}

class LazyEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LazyEquivalenceTest, LazyMatchesEagerNeverCostsMore) {
  SyntheticSpec spec;
  spec.universe_size = 300;
  spec.num_sources = 4;
  spec.num_conditions = 3;
  spec.selectivity_default = 0.1;
  spec.selectivity_jitter = 0.9;
  spec.frac_native_semijoin = 0.6;
  spec.frac_passed_bindings = 0.4;
  spec.seed = GetParam();
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  ASSERT_TRUE(model.ok());
  for (const bool postopt : {false, true}) {
    const auto opt = postopt ? OptimizeSjaPlus(*model) : OptimizeSja(*model);
    ASSERT_TRUE(opt.ok());
    const auto eager =
        ExecutePlan(opt->plan, instance->catalog, instance->query);
    ExecOptions options;
    options.lazy_short_circuit = true;
    const auto lazy =
        ExecutePlan(opt->plan, instance->catalog, instance->query, options);
    ASSERT_TRUE(eager.ok());
    ASSERT_TRUE(lazy.ok());
    EXPECT_EQ(lazy->answer, eager->answer);
    EXPECT_LE(lazy->ledger.total(), eager->ledger.total() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Witness-based fetch planning
// ---------------------------------------------------------------------------

ItemSet Ints(std::initializer_list<int64_t> xs) {
  std::vector<Value> v;
  for (int64_t x : xs) v.push_back(Value(x));
  return ItemSet(std::move(v));
}

TEST(FetchPlannerTest, GreedyCoverPicksLargestFirst) {
  const std::vector<ItemSet> witnesses = {
      Ints({1, 2, 3, 4}), Ints({4, 5}), Ints({5})};
  const auto plan = PlanWitnessFetch(witnesses, Ints({1, 2, 3, 4, 5}));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->size(), 2u);
  EXPECT_EQ((*plan)[0].source, 0u);
  EXPECT_EQ((*plan)[0].items, Ints({1, 2, 3, 4}));
  EXPECT_EQ((*plan)[1].source, 1u);
  EXPECT_EQ((*plan)[1].items, Ints({5}));
}

TEST(FetchPlannerTest, EmptyAnswerNeedsNoFetches) {
  const auto plan = PlanWitnessFetch({Ints({1})}, ItemSet());
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
}

TEST(FetchPlannerTest, ErrorsWhenAnswerLacksWitness) {
  const auto plan = PlanWitnessFetch({Ints({1})}, Ints({2}));
  EXPECT_FALSE(plan.ok());
}

TEST(FetchPlannerTest, WitnessFetchCheaperThanBroadcastEndToEnd) {
  SyntheticSpec spec;
  spec.universe_size = 500;
  spec.num_sources = 6;
  spec.num_conditions = 2;
  spec.selectivity = {0.1, 0.3};
  spec.seed = 9;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const FusionQuery query = instance->query;
  Mediator mediator(std::move(instance->catalog));
  MediatorOptions options;
  options.statistics = StatisticsMode::kOracle;
  const auto answer = mediator.Answer(query, options);
  ASSERT_TRUE(answer.ok());
  if (answer->items.empty()) GTEST_SKIP() << "empty answer";

  CostLedger broadcast_ledger, witness_ledger;
  const auto broadcast =
      mediator.FetchRecords(query, answer->items, &broadcast_ledger);
  const auto witness =
      mediator.FetchRecordsFromWitnesses(query, *answer, &witness_ledger);
  ASSERT_TRUE(broadcast.ok());
  ASSERT_TRUE(witness.ok()) << witness.status().ToString();
  EXPECT_LE(witness_ledger.total(), broadcast_ledger.total());
  // Every answered item has at least one fetched record.
  const size_t idx = *witness->schema().IndexOf("M");
  ItemSet fetched;
  for (const Tuple& t : witness->tuples()) fetched.Insert(t[idx]);
  EXPECT_TRUE(answer->items.IsSubsetOf(fetched));
  // And witness records are a subset of broadcast records per item count.
  EXPECT_LE(witness->size(), broadcast->size());
}

// ---------------------------------------------------------------------------
// Yield-ordered semijoin pruning
// ---------------------------------------------------------------------------

TEST(OrderedPruningTest, HighYieldFirstShipsFewerItems) {
  // Source 0 confirms almost nothing for c2; source 1 confirms a lot.
  // Index order queries 0 first (no pruning benefit); yield order queries 1
  // first, shrinking what 0 receives.
  SourceParams low;
  low.capabilities.semijoin = SemijoinSupport::kNative;
  low.network.query_overhead = 1;
  low.network.cost_per_item_sent = 5;  // shipping dominates
  low.network.cost_per_item_received = 0.1;
  low.cardinality = 1000;
  low.result_size = {400, 20};
  SourceParams high = low;
  high.result_size = {400, 600};
  const ParametricCostModel model({low, high}, 1000);

  ConditionOrderPlan s = MakeStructure({0, 1}, 2);
  s.use_semijoin[1] = {true, true};
  const auto unordered = BuildStructuredPlan(model, s, {}, true, false);
  const auto ordered = BuildStructuredPlan(model, s, {}, true, true);
  ASSERT_TRUE(unordered.ok());
  ASSERT_TRUE(ordered.ok());
  EXPECT_LT(ordered->total_cost, unordered->total_cost);
}

TEST(OrderedPruningTest, AnswerUnchangedOnRealData) {
  SyntheticSpec spec;
  spec.universe_size = 400;
  spec.num_sources = 5;
  spec.num_conditions = 3;
  spec.selectivity = {0.05, 0.4, 0.4};
  spec.selectivity_jitter = 0.9;
  spec.seed = 21;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  ASSERT_TRUE(model.ok());
  const auto sja = OptimizeSja(*model);
  ASSERT_TRUE(sja.ok());
  PostOptOptions ordered;
  ordered.order_semijoins_by_yield = true;
  const auto plus =
      PostOptimizeStructure(*model, sja->structure, ordered, "SJA");
  ASSERT_TRUE(plus.ok());
  const auto expected = *ReferenceFusionAnswer(
      RelationsOf(*instance), "M", instance->query.conditions());
  const auto report =
      ExecutePlan(plus->plan, instance->catalog, instance->query);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->answer, expected);
  // Oracle estimates remain exact under reordering.
  EXPECT_NEAR(report->ledger.total(), plus->estimated_cost,
              1e-6 * (1 + plus->estimated_cost));
}

// ---------------------------------------------------------------------------
// Partitioned-data regime
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Correlated conditions
// ---------------------------------------------------------------------------

TEST(CorrelationTest, HighCorrelationCouplesConditionFlags) {
  auto joint_vs_product = [](double corr) {
    SyntheticSpec spec;
    spec.universe_size = 4000;
    spec.num_sources = 1;
    spec.num_conditions = 2;
    spec.coverage = 1.0;
    spec.selectivity = {0.3, 0.3};
    spec.selectivity_jitter = 0.0;
    spec.condition_correlation = corr;
    spec.seed = 99;
    const auto instance = GenerateSynthetic(spec);
    EXPECT_TRUE(instance.ok());
    const Relation& r = instance->simulated[0]->relation();
    double a = 0, b = 0, ab = 0;
    for (const Tuple& t : r.tuples()) {
      const bool fa = t[1].int64() == 1;
      const bool fb = t[2].int64() == 1;
      a += fa;
      b += fb;
      ab += fa && fb;
    }
    const double total = static_cast<double>(r.size());
    return (ab / total) / ((a / total) * (b / total));
  };
  // Independent flags: joint ≈ product. Correlated: joint clearly above.
  EXPECT_NEAR(joint_vs_product(0.0), 1.0, 0.15);
  EXPECT_GT(joint_vs_product(1.0), 1.2);
}

TEST(CorrelationTest, MarginalSelectivityPreserved) {
  for (const double corr : {0.0, 1.0}) {
    SyntheticSpec spec;
    spec.universe_size = 5000;
    spec.num_sources = 1;
    spec.num_conditions = 1;
    spec.coverage = 1.0;
    spec.selectivity = {0.2};
    spec.selectivity_jitter = 0.0;
    spec.condition_correlation = corr;
    spec.seed = 7;
    const auto instance = GenerateSynthetic(spec);
    ASSERT_TRUE(instance.ok());
    const auto count = instance->simulated[0]->relation().CountWhere(
        Condition::Eq("A1", Value(int64_t{1})));
    ASSERT_TRUE(count.ok());
    EXPECT_NEAR(static_cast<double>(*count) / 5000.0, 0.2, 0.03)
        << "corr " << corr;
  }
}

TEST(CorrelationTest, AnswersStayCorrectUnderCorrelation) {
  SyntheticSpec spec;
  spec.universe_size = 400;
  spec.num_sources = 4;
  spec.num_conditions = 3;
  spec.condition_correlation = 0.8;
  spec.seed = 13;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  ASSERT_TRUE(model.ok());
  const auto sja = OptimizeSja(*model);
  ASSERT_TRUE(sja.ok());
  const auto report =
      ExecutePlan(sja->plan, instance->catalog, instance->query);
  ASSERT_TRUE(report.ok());
  const auto expected = *ReferenceFusionAnswer(
      RelationsOf(*instance), "M", instance->query.conditions());
  EXPECT_EQ(report->answer, expected);
}

TEST(PartitionedTest, EveryEntityLivesInExactlyOneSource) {
  SyntheticSpec spec;
  spec.universe_size = 300;
  spec.num_sources = 5;
  spec.num_conditions = 2;
  spec.partition_entities = true;
  spec.seed = 8;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  size_t total = 0;
  ItemSet all;
  for (const SimulatedSource* s : instance->simulated) {
    const ItemSet mine =
        *s->relation().SelectItems(Condition::True(), "M");
    EXPECT_TRUE(ItemSet::Intersect(all, mine).empty())
        << "entity duplicated across sources";
    all = ItemSet::Union(all, mine);
    total += s->relation().size();
  }
  EXPECT_EQ(total, 300u);
  EXPECT_EQ(all.size(), 300u);
}

TEST(PartitionedTest, FusionAnswerStillCorrect) {
  SyntheticSpec spec;
  spec.universe_size = 400;
  spec.num_sources = 4;
  spec.num_conditions = 2;
  spec.selectivity = {0.4, 0.4};
  spec.partition_entities = true;
  spec.seed = 10;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  ASSERT_TRUE(model.ok());
  const auto sja = OptimizeSja(*model);
  ASSERT_TRUE(sja.ok());
  const auto report =
      ExecutePlan(sja->plan, instance->catalog, instance->query);
  ASSERT_TRUE(report.ok());
  const auto expected = *ReferenceFusionAnswer(
      RelationsOf(*instance), "M", instance->query.conditions());
  EXPECT_EQ(report->answer, expected);
  // With partitioned data every answer entity satisfied both conditions at
  // its single home source.
  for (const Value& v : report->answer) {
    size_t holders = 0;
    for (const SimulatedSource* s : instance->simulated) {
      const ItemSet mine = *s->relation().SelectItems(Condition::True(), "M");
      holders += mine.Contains(v);
    }
    EXPECT_EQ(holders, 1u);
  }
}

}  // namespace
}  // namespace fusion
