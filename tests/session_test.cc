// Tests for session-level machinery: the source-call cache (runtime CSE),
// the session-learned universe bound, and the fusiongen catalog export /
// fusionq import round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "bench/workload.h"
#include "cli/catalog_config.h"
#include "cli/catalog_export.h"
#include "cost/oracle_cost_model.h"
#include "exec/executor.h"
#include "exec/source_call_cache.h"
#include "mediator/mediator.h"
#include "mediator/session.h"
#include "obs/metrics.h"
#include "optimizer/filter.h"
#include "optimizer/spj_baseline.h"
#include "query/parser.h"
#include "relational/reference_evaluator.h"
#include "source/flaky_source.h"
#include "source/simulated_source.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

SyntheticInstance SmallInstance(uint64_t seed) {
  SyntheticSpec spec;
  spec.universe_size = 300;
  spec.num_sources = 3;
  spec.num_conditions = 2;
  spec.selectivity = {0.1, 0.3};
  spec.seed = seed;
  auto instance = GenerateSynthetic(spec);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

// ---------------------------------------------------------------------------
// SourceCallCache
// ---------------------------------------------------------------------------

TEST(SourceCallCacheTest, LookupInsertAndStats) {
  SourceCallCache cache;
  EXPECT_EQ(cache.Lookup(0, "V = 'dui'"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert(0, "V = 'dui'", ItemSet({Value("J55")}));
  const std::shared_ptr<const ItemSet> hit = cache.Lookup(0, "V = 'dui'");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ToString(), "{'J55'}");
  EXPECT_EQ(cache.hits(), 1u);
  // Different source index: separate entry.
  EXPECT_EQ(cache.Lookup(1, "V = 'dui'"), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(SourceCallCacheTest, SecondExecutionIsFree) {
  const SyntheticInstance instance = SmallInstance(4);
  const auto model =
      OracleCostModel::Create(instance.simulated, instance.query);
  ASSERT_TRUE(model.ok());
  const auto filter = OptimizeFilter(*model);
  ASSERT_TRUE(filter.ok());

  SourceCallCache cache;
  ExecOptions options;
  options.cache = &cache;
  const auto first =
      ExecutePlan(filter->plan, instance.catalog, instance.query, options);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->ledger.total(), 0.0);

  const auto second =
      ExecutePlan(filter->plan, instance.catalog, instance.query, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answer, first->answer);
  // Every selection served from the memo: nothing metered.
  EXPECT_DOUBLE_EQ(second->ledger.total(), 0.0);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(SourceCallCacheTest, CachedRunsKeepWitnessKnowledge) {
  const SyntheticInstance instance = SmallInstance(6);
  const auto model =
      OracleCostModel::Create(instance.simulated, instance.query);
  ASSERT_TRUE(model.ok());
  const auto filter = OptimizeFilter(*model);
  ASSERT_TRUE(filter.ok());
  SourceCallCache cache;
  ExecOptions options;
  options.cache = &cache;
  const auto warm =
      ExecutePlan(filter->plan, instance.catalog, instance.query, options);
  ASSERT_TRUE(warm.ok());
  const auto cached =
      ExecutePlan(filter->plan, instance.catalog, instance.query, options);
  ASSERT_TRUE(cached.ok());
  // Witness sets must match between the metered and the cached run, so
  // witness-based fetch planning keeps working on cache hits.
  const std::vector<ItemSet> warm_witnesses = warm->WitnessSets();
  const std::vector<ItemSet> cached_witnesses = cached->WitnessSets();
  ASSERT_EQ(cached_witnesses.size(), warm_witnesses.size());
  for (size_t j = 0; j < warm_witnesses.size(); ++j) {
    EXPECT_EQ(cached_witnesses[j], warm_witnesses[j]);
  }
}

TEST(SourceCallCacheTest, RecoversSpjBaselineCseAtRuntime) {
  // The no-CSE SPJ-union baseline re-issues identical selections; a shared
  // cache recovers the savings at execution time.
  const SyntheticInstance instance = SmallInstance(7);
  const auto model =
      OracleCostModel::Create(instance.simulated, instance.query);
  ASSERT_TRUE(model.ok());
  const auto baseline = SpjUnionBaseline(*model, false);
  ASSERT_TRUE(baseline.ok());

  const auto plain =
      ExecutePlan(baseline->plan, instance.catalog, instance.query);
  ASSERT_TRUE(plain.ok());

  SourceCallCache cache;
  ExecOptions options;
  options.cache = &cache;
  const auto cached =
      ExecutePlan(baseline->plan, instance.catalog, instance.query, options);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->answer, plain->answer);
  EXPECT_LT(cached->ledger.total(), plain->ledger.total());
  EXPECT_GT(cache.hits(), 0u);
}

TEST(SourceCallCacheTest, DistinctConditionsDoNotCollide) {
  SourceCallCache cache;
  cache.Insert(0, "A1 = 1", ItemSet({Value(int64_t{1})}));
  cache.Insert(0, "A1 = 2", ItemSet({Value(int64_t{2})}));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Lookup(0, "A1 = 1")->ToString(), "{1}");
  EXPECT_EQ(cache.Lookup(0, "A1 = 2")->ToString(), "{2}");
}

// ---------------------------------------------------------------------------
// Session-learned universe bound
// ---------------------------------------------------------------------------

/// Answers each query in turn and checks, after every one, that the
/// session's learned universe equals the size of the ItemSet union of every
/// witness set reported so far. Returns that union.
ItemSet CheckUniverseAfterEachQuery(QuerySession& session,
                                    const std::vector<FusionQuery>& queries) {
  ItemSet seen;
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto answer = session.Answer(queries[q]);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    if (!answer.ok()) break;
    for (const ItemSet& items : answer->execution.WitnessSets()) {
      seen = ItemSet::Union(seen, items);
    }
    EXPECT_EQ(session.observed_universe_size(), seen.size()) << "query " << q;
  }
  return seen;
}

TEST(SessionUniverseTest, TracksUnionOfObservedItems) {
  SyntheticSpec spec;
  spec.universe_size = 400;
  spec.num_sources = 4;
  spec.num_conditions = 3;
  spec.selectivity = {0.1, 0.3, 0.5};
  spec.frac_native_semijoin = 0.5;
  spec.frac_passed_bindings = 0.25;
  spec.seed = 11;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const FusionQuery full = instance->query;
  const std::vector<Condition>& conds = full.conditions();
  const FusionQuery first_two(full.merge_attribute(), {conds[0], conds[1]});
  const FusionQuery last_two(full.merge_attribute(), {conds[1], conds[2]});
  const FusionQuery single(full.merge_attribute(), {conds[2]});
  QuerySession session(Mediator(std::move(instance->catalog)), {});
  EXPECT_EQ(session.observed_universe_size(), 0u);
  // Fresh queries grow the universe; the repeats are cache hits.
  const ItemSet seen = CheckUniverseAfterEachQuery(
      session, {first_two, first_two, last_two, full, last_two, single, full,
                single});
  EXPECT_GT(seen.size(), 0u);
  EXPECT_GT(session.cache().hits(), 0u);
}

/// A source whose merge keys arrive as doubles although the catalog schema
/// types M as int64 (a wrapper over a differently typed backend): it stores
/// each key doubled, as an int64, and answers sq with half of it. It offers
/// only sq, so every plan reaches it through selections.
class HalfKeyedSource : public SourceWrapper {
 public:
  HalfKeyedSource(std::string name, Relation doubled_keys)
      : inner_(std::move(name), std::move(doubled_keys), SqOnly(),
               NetworkProfile{}) {}

  const std::string& name() const override { return inner_.name(); }
  const Schema& schema() const override { return inner_.schema(); }
  const Capabilities& capabilities() const override {
    return inner_.capabilities();
  }
  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override {
    FUSION_ASSIGN_OR_RETURN(ItemSet doubled,
                            inner_.Select(cond, merge_attribute, ledger));
    // Halving keeps the order and the distinctness of the keys.
    std::vector<Value> halves;
    for (const Value& v : doubled) {
      halves.emplace_back(static_cast<double>(v.int64()) / 2.0);
    }
    return ItemSet::FromSortedUnique(std::move(halves));
  }
  Result<ItemSet> SemiJoin(const Condition&, const std::string&,
                           const ItemSet&, CostLedger*) override {
    return Status::Unsupported("sq only");
  }
  Result<Relation> Load(CostLedger*) override {
    return Status::Unsupported("sq only");
  }
  Result<Relation> FetchRecords(const std::string&, const ItemSet&,
                                CostLedger*) override {
    return Status::Unsupported("sq only");
  }

 private:
  static Capabilities SqOnly() {
    Capabilities caps;
    caps.semijoin = SemijoinSupport::kUnsupported;
    caps.supports_load = false;
    return caps;
  }
  SimulatedSource inner_;
};

TEST(SessionUniverseTest, MixedInt64AndIntegralDoubleItemsCountOnce) {
  // Source "ints" reports int64 keys 0..59, source "reals" double keys
  // 0.0, 0.5, ..., 39.5: every integral real equals an int key, the
  // half-integral ones match nothing. One more pair sits above 2^53: int64
  // 2^53 + 1 equals the double 2^53 it rounds to.
  const Schema schema({{"M", ValueType::kInt64}, {"f", ValueType::kInt64}});
  Relation ints(schema), doubled_reals(schema);
  for (int64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(ints.Append({Value(k), Value(k % 5)}).ok());
  }
  for (int64_t k = 0; k < 80; ++k) {
    ASSERT_TRUE(doubled_reals.Append({Value(k), Value(k % 5)}).ok());
  }
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  ASSERT_TRUE(ints.Append({Value(kTwo53 + 1), Value(int64_t{0})}).ok());
  ASSERT_TRUE(
      doubled_reals.Append({Value(2 * kTwo53), Value(int64_t{0})}).ok());
  SourceCatalog catalog;
  ASSERT_TRUE(catalog
                  .Add(std::make_unique<SimulatedSource>(
                      "ints", std::move(ints), Capabilities{},
                      NetworkProfile{}))
                  .ok());
  ASSERT_TRUE(catalog
                  .Add(std::make_unique<HalfKeyedSource>(
                      "reals", std::move(doubled_reals)))
                  .ok());
  auto at_least = [](int64_t k) {
    return Condition::Compare("f", CompareOp::kGe, Value(k));
  };
  auto at_most = [](int64_t k) {
    return Condition::Compare("f", CompareOp::kLe, Value(k));
  };
  const std::vector<FusionQuery> queries = {
      FusionQuery("M", {at_least(1)}),
      FusionQuery("M", {at_least(1)}),
      FusionQuery("M", {at_least(2), at_most(3)}),
      FusionQuery("M", {at_most(0)}),
      FusionQuery("M", {at_least(0), at_most(4)}),
      FusionQuery("M", {at_most(0)}),
  };
  QuerySession session(Mediator(std::move(catalog)), {});
  const ItemSet seen = CheckUniverseAfterEachQuery(session, queries);
  // By the fifth query every key has been seen: 61 ints plus the 40
  // half-integral reals; the other 41 reals coincide with int keys.
  EXPECT_EQ(seen.size(), 101u);
  EXPECT_EQ(session.observed_universe_size(), 101u);
}

// The universe bound learns the answers of the ops that contacted a source,
// once the query has succeeded. A query that fails after one source answer
// learns nothing; that answer stays in the cache, and a later query served
// from the cache does not learn it either (a cache hit adds no item under
// successful-only sequences, so only this failure path differs from
// learning every witness set).
TEST(SessionUniverseTest, FailedQueryLearnsNothing) {
  const Schema schema({{"M", ValueType::kInt64}, {"f", ValueType::kInt64}});
  Relation rows(schema);
  for (int64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(rows.Append({Value(k), Value(k % 5)}).ok());
  }
  FlakySource::Options flaky;
  // Call 0 answers, call 1 fails (a permanent outage, not retried), later
  // calls answer again.
  flaky.outage_start = 1;
  flaky.outage_end = 2;
  SourceCatalog catalog;
  ASSERT_TRUE(catalog
                  .Add(std::make_unique<FlakySource>(
                      std::make_unique<SimulatedSource>(
                          "R", std::move(rows), Capabilities{},
                          NetworkProfile{}),
                      flaky))
                  .ok());
  // f >= 1 holds for 48 keys, f <= 3 for 48, both for 36.
  const FusionQuery query(
      "M", {Condition::Compare("f", CompareOp::kGe, Value(int64_t{1})),
            Condition::Compare("f", CompareOp::kLe, Value(int64_t{3}))});
  QuerySession::Options options;
  options.strategy = OptimizerStrategy::kFilter;
  options.execution.retry.max_attempts = 1;
  QuerySession session(Mediator(std::move(catalog)), options);

  const auto failed = session.Answer(query);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(session.cache().entries(), 1u);
  EXPECT_EQ(session.observed_universe_size(), 0u);

  const auto answered = session.Answer(query);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered->items.size(), 36u);
  EXPECT_EQ(answered->execution.cache_hits, 1u);
  // Only the second selection arrived with this query.
  EXPECT_EQ(session.observed_universe_size(), 48u);
  ItemSet witnessed;
  for (const ItemSet& items : answered->execution.WitnessSets()) {
    witnessed = ItemSet::Union(witnessed, items);
  }
  EXPECT_EQ(witnessed.size(), 60u);
}

// ---------------------------------------------------------------------------
// Plan memo bound
// ---------------------------------------------------------------------------

// The plan memo keeps the last executed plan per distinct query, FIFO-
// bounded at 128 (kPlanMemoCapacity): a session asked 150 distinct queries
// holds 128 plans, not 150.
TEST(SessionPlanMemoTest, StaysAtCapacityPastIt) {
  bench::MacroWorkloadSpec spec;
  spec.universe_size = 600;
  spec.num_sources = 3;
  spec.num_conditions = 5;
  spec.pool_size = 150;
  spec.seed = 17;
  auto workload = bench::MacroWorkload::Generate(spec);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ASSERT_EQ(workload->pool().size(), 150u);
  QuerySession session(Mediator(std::move(workload->catalog())), {});
  for (const std::string& sql : workload->pool()) {
    const auto answer = session.AnswerSql(sql);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  }
  EXPECT_EQ(session.memoized_plans(), 128u);
}

/// What the session's cache can answer for `query`'s (condition, source)
/// pairs right now: the view cache-aware planning prices against.
QueryCacheView CacheViewOf(const QuerySession& session,
                           const FusionQuery& query, size_t num_sources) {
  const size_t m = query.num_conditions();
  QueryCacheView view;
  view.sq_answerable.assign(m, std::vector<char>(num_sources, 0));
  view.sjq_answerable.assign(m, std::vector<char>(num_sources, 0));
  view.lq_cached.assign(num_sources, 0);
  for (size_t j = 0; j < num_sources; ++j) {
    const bool lq = session.cache().ContainsLoad(j);
    view.lq_cached[j] = lq ? 1 : 0;
    for (size_t i = 0; i < m; ++i) {
      const std::string key = query.conditions()[i].CacheKey();
      if (lq || session.cache().ContainsSelect(j, key)) {
        view.sq_answerable[i][j] = 1;
        view.sjq_answerable[i][j] = 1;
      } else if (session.cache().ContainsSemiJoin(j, key)) {
        view.sjq_answerable[i][j] = 1;
      }
    }
  }
  return view;
}

// A repeated query whose remembered plan the cache answers whole re-prices
// at 0, and no plan prices below 0: the session runs that plan without
// running the optimizer. Once a source of the plan is invalidated the memo
// prices above 0, the optimizer runs again, and the session picks what the
// memo-vs-fresh comparison picks.
TEST(SessionPlanMemoTest, ZeroPricedMemoHitSkipsTheOptimizer) {
  SyntheticSpec spec;
  spec.universe_size = 500;
  spec.num_sources = 4;
  spec.num_conditions = 3;
  spec.selectivity = {0.05, 0.3, 0.5};
  spec.frac_native_semijoin = 0.5;
  spec.frac_passed_bindings = 0.25;
  spec.seed = 23;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const FusionQuery query = instance->query;
  const FusionQuery canonical = query.Canonicalized();
  const std::vector<const SimulatedSource*> simulated = instance->simulated;
  const size_t num_sources = simulated.size();
  QuerySession::Options options;
  // Fixed oracle statistics, so the test can rebuild the session's model.
  options.statistics = StatisticsMode::kOracle;
  QuerySession session(Mediator(std::move(instance->catalog)), options);
  const Counter& plans = MetricsRegistry::Global().counter(
      metrics::kOptimizerPlansConsidered);

  const auto cold = session.Answer(query);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_GT(cold->execution.ledger.total(), 0.0);
  ASSERT_EQ(session.memoized_plans(), 1u);

  const uint64_t before_warm = plans.value();
  const auto warm = session.Answer(query);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(plans.value() - before_warm, 0u);
  EXPECT_EQ(warm->optimized.plan.ToString(), cold->optimized.plan.ToString());
  EXPECT_DOUBLE_EQ(warm->optimized.estimated_cost, 0.0);
  EXPECT_DOUBLE_EQ(warm->execution.ledger.total(), 0.0);
  EXPECT_EQ(warm->items, cold->items);

  // Invalidate the first source the plan asks.
  int invalidated = -1;
  for (const PlanOp& op : warm->optimized.plan.ops()) {
    if (op.source >= 0) {
      invalidated = op.source;
      break;
    }
  }
  ASSERT_GE(invalidated, 0);
  session.InvalidateSource(static_cast<size_t>(invalidated));

  // The comparison the session makes, rebuilt from the same inputs: memo
  // re-priced against a fresh plan under the cache-aware model, ties to
  // the memo.
  const auto oracle = OracleCostModel::Create(simulated, canonical);
  ASSERT_TRUE(oracle.ok());
  const QueryCacheView view = CacheViewOf(session, canonical, num_sources);
  ASSERT_TRUE(view.AnySet());
  const CacheAwareCostModel cached_model(*oracle, view);
  const auto memo_price =
      EstimatePlanCost(warm->optimized.plan, cached_model);
  ASSERT_TRUE(memo_price.ok());
  EXPECT_GT(memo_price->total, 0.0);
  const auto fresh = RunOptimizer(cached_model, OptimizerStrategy::kSjaPlus,
                                  PostOptOptions{});
  ASSERT_TRUE(fresh.ok());
  const Plan& expected = memo_price->total <= fresh->estimated_cost
                             ? warm->optimized.plan
                             : fresh->plan;

  const uint64_t before_refresh = plans.value();
  const auto refreshed = session.Answer(query);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_GT(plans.value() - before_refresh, 0u);
  EXPECT_EQ(refreshed->optimized.plan.ToString(), expected.ToString());
  EXPECT_GT(refreshed->execution.ledger.total(), 0.0);
  EXPECT_EQ(refreshed->items, cold->items);
}

// With session-learned statistics, a memo whose every call the cache
// answers is returned before any model or cache view is built. Pins that
// it is returned exactly when the view-based pricing would put it at 0:
// before each warm query the test builds the view the full path prices
// against, and every plan the session returns at 0 without the optimizer
// must price at 0 under it (and every other one above 0, or the optimizer
// ran).
TEST(SessionPlanMemoTest, SessionLearnedZeroPricedMemoMatchesTheCacheView) {
  bench::MacroWorkloadSpec spec;
  spec.universe_size = 800;
  spec.num_sources = 4;
  spec.num_conditions = 5;
  spec.pool_size = 40;
  spec.seed = 29;
  auto workload = bench::MacroWorkload::Generate(spec);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const std::vector<std::string> pool = workload->pool();
  QuerySession session(Mediator(std::move(workload->catalog())), {});
  const SourceCatalog& catalog = session.mediator().catalog();
  std::vector<const SimulatedSource*> simulated;
  for (size_t j = 0; j < catalog.size(); ++j) {
    simulated.push_back(catalog.source(j).AsSimulated());
    ASSERT_NE(simulated.back(), nullptr);
  }
  const Counter& plans = MetricsRegistry::Global().counter(
      metrics::kOptimizerPlansConsidered);
  for (const std::string& sql : pool) ASSERT_TRUE(session.AnswerSql(sql).ok());

  size_t shortcuts = 0;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& sql : pool) {
      const auto parsed = ParseFusionQuery(sql);
      ASSERT_TRUE(parsed.ok());
      const FusionQuery canonical = parsed->Canonicalized();
      const QueryCacheView view =
          CacheViewOf(session, canonical, catalog.size());
      const uint64_t before = plans.value();
      const auto answer = session.AnswerSql(sql);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      const auto oracle = OracleCostModel::Create(simulated, canonical);
      ASSERT_TRUE(oracle.ok());
      const auto price = EstimatePlanCost(answer->optimized.plan, *oracle,
                                          view);
      ASSERT_TRUE(price.ok());
      if (plans.value() == before) {
        EXPECT_DOUBLE_EQ(answer->optimized.estimated_cost, 0.0) << sql;
        EXPECT_DOUBLE_EQ(price->total, 0.0) << sql;
        EXPECT_DOUBLE_EQ(answer->execution.ledger.total(), 0.0) << sql;
        ++shortcuts;
      }
    }
  }
  // The warm rounds mostly replay answered plans.
  EXPECT_GT(shortcuts, pool.size());
}

// ---------------------------------------------------------------------------
// Bounded session state
// ---------------------------------------------------------------------------

// Learned result sizes are FIFO-bounded: a session that sees 1000 more
// distinct (source, condition) pairs than kObservedSizeCapacity holds at
// most that many at every point.
TEST(SessionBoundsTest, LearnedResultSizesStayBounded) {
  SyntheticInstance instance = SmallInstance(31);
  const size_t num_sources = instance.catalog.size();
  QuerySession::Options options;
  options.strategy = OptimizerStrategy::kFilter;  // one sq per (c, R)
  options.use_cache = false;
  QuerySession session(Mediator(std::move(instance.catalog)), options);
  constexpr size_t kPerQuery = 4;
  const size_t target = QuerySession::kObservedSizeCapacity + 1000;
  int64_t next = 0;
  size_t pairs = 0;
  size_t max_seen = 0;
  while (pairs < target) {
    std::vector<Condition> conditions;
    for (size_t i = 0; i < kPerQuery; ++i) {
      conditions.push_back(Condition::Eq("M", Value(next++)));
    }
    const auto answer = session.Answer(FusionQuery("M", conditions));
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    pairs += kPerQuery * num_sources;
    max_seen = std::max(max_seen, session.observed_conditions());
  }
  EXPECT_LE(max_seen, QuerySession::kObservedSizeCapacity);
  EXPECT_EQ(session.observed_conditions(),
            QuerySession::kObservedSizeCapacity);
}

// The prepared-query memo answers a repeated text without parsing it
// again and is FIFO-bounded by kPreparedCapacity.
TEST(SessionBoundsTest, PreparedQueriesStayBounded) {
  SyntheticInstance instance = SmallInstance(37);
  QuerySession::Options options;
  options.use_cache = false;
  QuerySession session(Mediator(std::move(instance.catalog)), options);
  const auto first = session.AnswerSql("SELECT u1.M FROM U u1 WHERE u1.A1 = 1");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(session.prepared_queries(), 1u);
  const auto again = session.AnswerSql("SELECT u1.M FROM U u1 WHERE u1.A1 = 1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->items, first->items);
  EXPECT_EQ(session.prepared_queries(), 1u);
  // A text that fails to parse or validate is not memoized.
  EXPECT_FALSE(session.AnswerSql("SELECT nonsense").ok());
  EXPECT_FALSE(session.AnswerSql("SELECT u1.M FROM U u1 WHERE u1.Z = 1").ok());
  EXPECT_EQ(session.prepared_queries(), 1u);
  for (size_t k = 0; k < QuerySession::kPreparedCapacity + 10; ++k) {
    const std::string sql =
        "SELECT u1.M FROM U u1 WHERE u1.M = " + std::to_string(k);
    ASSERT_TRUE(session.AnswerSql(sql).ok());
    ASSERT_LE(session.prepared_queries(), QuerySession::kPreparedCapacity);
  }
  EXPECT_EQ(session.prepared_queries(), QuerySession::kPreparedCapacity);
}

// ---------------------------------------------------------------------------
// Catalog export round trip
// ---------------------------------------------------------------------------

class CatalogExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fusion_export_test";
    ASSERT_EQ(std::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str()),
              0);
  }
  std::string dir_;
};

TEST_F(CatalogExportTest, RoundTripsThroughLoadCatalog) {
  SyntheticSpec spec;
  spec.universe_size = 200;
  spec.num_sources = 3;
  spec.num_conditions = 2;
  spec.frac_native_semijoin = 0.34;
  spec.frac_passed_bindings = 0.33;
  spec.seed = 11;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const FusionQuery query = instance->query;
  const ItemSet expected = *ReferenceFusionAnswer(
      RelationsOf(*instance), "M", query.conditions());

  ASSERT_TRUE(ExportCatalog(instance->catalog, dir_).ok());
  auto loaded = LoadCatalogFromFile(dir_ + "/catalog.ini");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);

  // Profiles and capabilities survive the round trip.
  for (size_t j = 0; j < 3; ++j) {
    const SimulatedSource* original = instance->simulated[j];
    const SimulatedSource* back = loaded->source(j).AsSimulated();
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->name(), original->name());
    EXPECT_EQ(back->capabilities().semijoin,
              original->capabilities().semijoin);
    EXPECT_NEAR(back->network().query_overhead,
                original->network().query_overhead, 1e-9);
    EXPECT_NEAR(back->network().cost_per_item_sent,
                original->network().cost_per_item_sent, 1e-9);
    EXPECT_EQ(back->relation().size(), original->relation().size());
  }

  // And queries answer identically.
  Mediator mediator(std::move(loaded).value());
  MediatorOptions options;
  options.statistics = StatisticsMode::kOracle;
  const auto answer = mediator.Answer(query, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->items, expected);
}

TEST_F(CatalogExportTest, RejectsEmptyCatalog) {
  SourceCatalog empty;
  EXPECT_FALSE(ExportCatalog(empty, dir_).ok());
}

TEST_F(CatalogExportTest, FailsOnUnwritableDirectory) {
  SyntheticSpec spec;
  spec.universe_size = 50;
  spec.num_sources = 1;
  spec.num_conditions = 1;
  const auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  EXPECT_FALSE(
      ExportCatalog(instance->catalog, "/nonexistent/dir/xyz").ok());
}

}  // namespace
}  // namespace fusion
