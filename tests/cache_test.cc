// Tests for the cross-query result cache: bounded LRU with a hard byte
// budget (also while semijoin anchors grow), TTL expiry, versioned
// invalidation that fences in-flight sq, sjq and lq calls, containment reuse
// (sjq from sq / lq, sq from lq, sjq from a candidate-superset sjq or from
// a cumulative anchor) proved byte-identical to direct source answers,
// canonical condition cache keys, queries sharing a semijoin condition no
// longer re-paying each other's calls, and cache-aware re-optimization
// making a repeated session query strictly cheaper than cache-oblivious
// planning.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/source_call_cache.h"
#include "mediator/session.h"
#include "query/fusion_query.h"
#include "source/simulated_source.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

ItemSet Ints(std::vector<int64_t> xs) {
  std::vector<Value> v;
  v.reserve(xs.size());
  for (int64_t x : xs) v.push_back(Value(x));
  return ItemSet(std::move(v));
}

// ---------------------------------------------------------------------------
// LRU byte budget
// ---------------------------------------------------------------------------

/// Resident bytes of one single-int entry under a one-character key,
/// measured rather than hardcoded (entry overhead + ItemSet layout are
/// implementation details).
size_t OneEntryBytes() {
  SourceCallCache probe;
  probe.Insert(0, "k", Ints({1}));
  return probe.bytes();
}

TEST(CacheLruTest, ByteBudgetIsAHardInvariantUnderInsertStress) {
  SourceCallCache::Options options;
  options.max_bytes = 4 * OneEntryBytes();
  SourceCallCache cache(options);
  for (int i = 0; i < 200; ++i) {
    cache.Insert(0, "c" + std::to_string(i), Ints({i, i + 1, i + 2}));
    ASSERT_LE(cache.bytes(), options.max_bytes)
        << "budget exceeded after insert " << i;
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LT(cache.entries(), 200u);
  // The newest entry survived; the oldest was evicted long ago.
  EXPECT_NE(cache.Lookup(0, "c199"), nullptr);
  EXPECT_EQ(cache.Lookup(0, "c0"), nullptr);
}

TEST(CacheLruTest, EvictsLeastRecentlyUsedFirst) {
  const size_t entry = OneEntryBytes();
  SourceCallCache::Options options;
  options.max_bytes = 2 * entry + entry / 2;  // room for two entries, not three
  SourceCallCache cache(options);
  cache.Insert(0, "a", Ints({1}));
  cache.Insert(0, "b", Ints({2}));
  EXPECT_EQ(cache.entries(), 2u);
  // Touch "a": "b" becomes the least recently used.
  EXPECT_NE(cache.Lookup(0, "a"), nullptr);
  cache.Insert(0, "c", Ints({3}));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(0, "b"), nullptr);
  EXPECT_NE(cache.Lookup(0, "a"), nullptr);
  EXPECT_NE(cache.Lookup(0, "c"), nullptr);
}

TEST(CacheLruTest, EntryLargerThanBudgetIsEvictedImmediately) {
  SourceCallCache::Options options;
  options.max_bytes = 1;  // nothing fits
  SourceCallCache cache(options);
  cache.Insert(0, "big", Ints({1, 2, 3, 4, 5}));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(CacheLruTest, ByteBudgetHoldsWhileSemiJoinAnchorsGrow) {
  SourceCallCache::Options options;
  options.max_bytes = 8 * OneEntryBytes();
  SourceCallCache cache(options);
  // A few keys whose anchors merge ever wider candidate sets.
  for (int i = 0; i < 120; ++i) {
    std::vector<int64_t> candidates;
    for (int x = i; x < 2 * i + 3; ++x) candidates.push_back(x);
    std::vector<int64_t> result;
    for (int64_t x : candidates) {
      if (x % 2 == 0) result.push_back(x);
    }
    cache.InsertSemiJoin(0, "c" + std::to_string(i % 3), Ints(candidates),
                         Ints(result), cache.version(0));
    ASSERT_LE(cache.bytes(), options.max_bytes)
        << "budget exceeded after insert " << i;
  }
  EXPECT_GT(cache.evictions(), 0u);

  // An anchor that outgrows the whole budget evicts itself.
  SourceCallCache small(options);
  small.InsertSemiJoin(0, "big", Ints({1, 2}), Ints({2}), small.version(0));
  ASSERT_TRUE(small.ContainsSemiJoin(0, "big"));
  std::vector<int64_t> wide;
  for (int64_t x = 0; x < 4000; ++x) wide.push_back(x);
  small.InsertSemiJoin(0, "big", Ints(wide), Ints({2, 4}), small.version(0));
  EXPECT_FALSE(small.ContainsSemiJoin(0, "big"));
  EXPECT_LE(small.bytes(), options.max_bytes);
  EXPECT_GE(small.evictions(), 1u);
}

TEST(CacheLruTest, MergedSemiJoinAnchorsAreChargedAtExactSize) {
  // An int-form set of n items charges sizeof(ItemSet) + 8n bytes when its
  // vector holds no spare capacity.
  auto exact = [](size_t n) { return sizeof(ItemSet) + n * sizeof(int64_t); };
  SourceCallCache probe;
  probe.InsertSemiJoin(0, "k", Ints({1}), Ints({1}), probe.version(0));
  const size_t overhead = probe.bytes() - 2 * exact(1);  // key + entry

  // Three overlapping anchors of 1600 candidates each, merged under one key;
  // after each merge the entry holds exactly the unions so far.
  SourceCallCache cache;
  size_t candidates_so_far = 0;
  for (int64_t part = 0; part < 3; ++part) {
    std::vector<int64_t> candidates;
    std::vector<int64_t> result;
    for (int64_t x = part * 1000; x < part * 1000 + 1600; ++x) {
      candidates.push_back(x);
      if (x % 3 == 0) result.push_back(x);
    }
    cache.InsertSemiJoin(0, "k", Ints(candidates), Ints(result),
                         cache.version(0));
    ASSERT_EQ(cache.entries(), 1u);
    // The unions so far: candidates [0, end) and the multiples of 3 there.
    candidates_so_far = static_cast<size_t>(part * 1000 + 1600);
    const size_t results_so_far = (candidates_so_far + 2) / 3;
    EXPECT_EQ(cache.bytes(),
              overhead + exact(candidates_so_far) + exact(results_so_far))
        << "after merging " << part + 1 << " anchors";
  }
  EXPECT_EQ(candidates_so_far, 3600u);
}

TEST(CacheLruTest, EvictionCannotInvalidateAHandedOutAnswer) {
  const size_t entry = OneEntryBytes();
  SourceCallCache::Options options;
  options.max_bytes = entry + entry / 2;  // exactly one entry fits
  SourceCallCache cache(options);
  cache.Insert(0, "a", Ints({7}));
  const std::shared_ptr<const ItemSet> held = cache.Lookup(0, "a");
  ASSERT_NE(held, nullptr);
  cache.Insert(0, "b", Ints({8}));  // evicts "a"
  EXPECT_EQ(cache.Lookup(0, "a"), nullptr);
  // The shared_ptr pins the evicted answer; it is still fully readable.
  EXPECT_EQ(held->ToString(), "{7}");
}

TEST(CacheLruTest, TtlExpiresEntriesLazily) {
  SourceCallCache::Options options;
  options.ttl_seconds = 0.02;
  SourceCallCache cache(options);
  cache.Insert(0, "a", Ints({1}));
  EXPECT_NE(cache.Lookup(0, "a"), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(cache.Lookup(0, "a"), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_GE(cache.evictions(), 1u);
}

// ---------------------------------------------------------------------------
// Invalidation and flight fencing
// ---------------------------------------------------------------------------

TEST(CacheInvalidationTest, InvalidateDropsOnlyThatSource) {
  SourceCallCache cache;
  cache.Insert(0, "c", Ints({1}));
  cache.Insert(1, "c", Ints({2}));
  cache.InsertLoad(0, Relation(Schema({{"L", ValueType::kInt64}})),
                   cache.version(0));
  cache.Invalidate(0);
  EXPECT_EQ(cache.Lookup(0, "c"), nullptr);
  EXPECT_EQ(cache.LookupLoad(0), nullptr);
  EXPECT_NE(cache.Lookup(1, "c"), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(CacheInvalidationTest, InvalidationDropsTheInFlightPublish) {
  SourceCallCache cache;
  SourceCallCache::FlightGuard flight = cache.BeginFlight(0, "c");
  ASSERT_EQ(flight.cached(), nullptr);  // leader
  // The source's data changes while the call is outstanding.
  cache.Invalidate(0);
  flight.Fulfill(Ints({42}));  // stale answer: publish must be dropped
  EXPECT_EQ(cache.Lookup(0, "c"), nullptr);
  // A different source's flights are not fenced.
  SourceCallCache::FlightGuard other = cache.BeginFlight(1, "c");
  ASSERT_EQ(other.cached(), nullptr);
  other.Fulfill(Ints({7}));
  EXPECT_NE(cache.Lookup(1, "c"), nullptr);
}

TEST(CacheInvalidationTest, FencedWaiterIsPromotedAndPublishesFreshAnswer) {
  SourceCallCache cache;
  auto leader = std::make_unique<SourceCallCache::FlightGuard>(
      cache.BeginFlight(0, "c"));
  ASSERT_EQ(leader->cached(), nullptr);
  std::thread waiter([&] {
    SourceCallCache::FlightGuard flight = cache.BeginFlight(0, "c");
    // The leader's publish was dropped by the invalidation, so this caller
    // is promoted to leader and performs the (fresh) call itself.
    ASSERT_EQ(flight.cached(), nullptr);
    flight.Fulfill(Ints({2026}));
  });
  while (cache.flights_deduplicated() == 0) {
    std::this_thread::yield();
  }
  cache.Invalidate(0);
  leader->Fulfill(Ints({1998}));  // stale: dropped
  leader.reset();
  waiter.join();
  const std::shared_ptr<const ItemSet> fresh = cache.Lookup(0, "c");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->ToString(), "{2026}");
}

TEST(CacheInvalidationTest, ClearResetsEntriesStatsAndFencesFlights) {
  SourceCallCache cache;
  cache.Insert(0, "a", Ints({1}));
  EXPECT_NE(cache.Lookup(0, "a"), nullptr);  // one hit on the books
  SourceCallCache::FlightGuard flight = cache.BeginFlight(0, "b");
  ASSERT_EQ(flight.cached(), nullptr);
  cache.Clear();
  flight.Fulfill(Ints({3}));  // began before the Clear: publish dropped
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.hits(), 0u);  // stats reset
  EXPECT_EQ(cache.Lookup(0, "b"), nullptr);
}

TEST(CacheInvalidationTest, StaleSemiJoinAndLoadPublishesAreDropped) {
  SourceCallCache cache;
  const Relation relation(Schema({{"L", ValueType::kInt64}}));
  // Read the version, then the source's data changes before the publish.
  const uint64_t before = cache.version(0);
  cache.Invalidate(0);
  EXPECT_NE(cache.version(0), before);
  cache.InsertSemiJoin(0, "c", Ints({1, 2}), Ints({1}), before);
  cache.InsertLoad(0, relation, before);
  EXPECT_FALSE(cache.ContainsSemiJoin(0, "c"));
  EXPECT_FALSE(cache.ContainsLoad(0));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);

  // A stale publish cannot widen an anchor stored under the new version.
  const uint64_t current = cache.version(0);
  cache.InsertSemiJoin(0, "c", Ints({1, 2}), Ints({1}), current);
  cache.InsertSemiJoin(0, "c", Ints({7, 8}), Ints({8}), before);
  bool derived = false;
  EXPECT_EQ(cache.FindSemiJoin(0, Condition::Eq("V", Value("a")), "c", "L",
                               Ints({7, 8}), &derived),
            nullptr);

  // Clear() fences the same way.
  const uint64_t before_clear = cache.version(0);
  cache.Clear();
  cache.InsertSemiJoin(0, "c", Ints({1, 2}), Ints({1}), before_clear);
  cache.InsertLoad(0, relation, before_clear);
  EXPECT_EQ(cache.entries(), 0u);

  // Publishes under the current version are stored.
  cache.InsertSemiJoin(0, "c", Ints({1, 2}), Ints({1}), cache.version(0));
  cache.InsertLoad(0, relation, cache.version(0));
  EXPECT_TRUE(cache.ContainsSemiJoin(0, "c"));
  EXPECT_TRUE(cache.ContainsLoad(0));
}

// ---------------------------------------------------------------------------
// Containment reuse — derived answers must be byte-identical to what the
// source itself would return.
// ---------------------------------------------------------------------------

Schema ItemSchema() {
  return Schema({{"L", ValueType::kInt64}, {"V", ValueType::kString}});
}

/// 12 rows: L = 0..11, V = 'a' for even L, 'u' for odd L.
SimulatedSource ParitySource(std::string name = "R1") {
  Relation r(ItemSchema());
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(r.Append({Value(i), Value(i % 2 == 0 ? "a" : "u")}).ok());
  }
  return SimulatedSource(std::move(name), std::move(r), Capabilities{},
                         NetworkProfile{});
}

TEST(CacheContainmentTest, SemiJoinFromCachedSelectIsByteIdentical) {
  SimulatedSource src = ParitySource();
  const Condition cond = Condition::Eq("V", Value("a"));
  CostLedger scratch;
  const auto direct_sq = src.Select(cond, "L", &scratch);
  ASSERT_TRUE(direct_sq.ok());
  const ItemSet candidates = Ints({0, 1, 2, 3, 99});
  const auto direct_sjq = src.SemiJoin(cond, "L", candidates, &scratch);
  ASSERT_TRUE(direct_sjq.ok());

  SourceCallCache cache;
  cache.Insert(0, cond.CacheKey(), *direct_sq);
  bool derived = false;
  const std::shared_ptr<const ItemSet> answer =
      cache.FindSemiJoin(0, cond, cond.CacheKey(), "L", candidates, &derived);
  ASSERT_NE(answer, nullptr);
  EXPECT_TRUE(derived);
  EXPECT_EQ(*answer, *direct_sjq);
  // A containment hit is also an exact-key miss (the sjq key was absent).
  EXPECT_EQ(cache.containment_hits(), 1u);
  EXPECT_GE(cache.misses(), cache.containment_hits());
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CacheContainmentTest, SelectAndSemiJoinFromCachedLoadAreByteIdentical) {
  SimulatedSource src = ParitySource();
  const Condition cond = Condition::Eq("V", Value("u"));
  CostLedger scratch;
  const auto direct_sq = src.Select(cond, "L", &scratch);
  ASSERT_TRUE(direct_sq.ok());
  const ItemSet candidates = Ints({1, 2, 3});
  const auto direct_sjq = src.SemiJoin(cond, "L", candidates, &scratch);
  ASSERT_TRUE(direct_sjq.ok());
  const auto loaded = src.Load(&scratch);
  ASSERT_TRUE(loaded.ok());

  SourceCallCache cache;
  cache.InsertLoad(0, *loaded, cache.version(0));
  const std::shared_ptr<const ItemSet> sq = cache.DeriveSelect(0, cond, "L");
  ASSERT_NE(sq, nullptr);
  EXPECT_EQ(*sq, *direct_sq);
  bool derived = false;
  const std::shared_ptr<const ItemSet> sjq =
      cache.FindSemiJoin(0, cond, cond.CacheKey(), "L", candidates, &derived);
  ASSERT_NE(sjq, nullptr);
  EXPECT_TRUE(derived);
  EXPECT_EQ(*sjq, *direct_sjq);
}

TEST(CacheContainmentTest, SemiJoinFromCandidateSupersetSemiJoin) {
  SimulatedSource src = ParitySource();
  const Condition cond = Condition::Eq("V", Value("a"));
  const ItemSet superset = Ints({0, 1, 2, 3, 4, 5, 6});
  const ItemSet subset = Ints({2, 3, 4});
  CostLedger scratch;
  const auto direct_superset = src.SemiJoin(cond, "L", superset, &scratch);
  ASSERT_TRUE(direct_superset.ok());
  const auto direct_subset = src.SemiJoin(cond, "L", subset, &scratch);
  ASSERT_TRUE(direct_subset.ok());

  SourceCallCache cache;
  cache.InsertSemiJoin(0, cond.CacheKey(), superset, *direct_superset,
                       cache.version(0));
  // Same candidate set: an exact hit, not a derivation.
  bool derived = true;
  std::shared_ptr<const ItemSet> exact =
      cache.FindSemiJoin(0, cond, cond.CacheKey(), "L", superset, &derived);
  ASSERT_NE(exact, nullptr);
  EXPECT_FALSE(derived);
  EXPECT_EQ(*exact, *direct_superset);
  // Subset candidates: sjq(c, R, X) = sjq(c, R, Y) ∩ X for X ⊆ Y.
  std::shared_ptr<const ItemSet> narrowed =
      cache.FindSemiJoin(0, cond, cond.CacheKey(), "L", subset, &derived);
  ASSERT_NE(narrowed, nullptr);
  EXPECT_TRUE(derived);
  EXPECT_EQ(*narrowed, *direct_subset);
  // Non-subset candidates cannot be derived from the stored entry.
  EXPECT_EQ(cache.FindSemiJoin(0, cond, cond.CacheKey(), "L",
                               Ints({0, 100}), &derived),
            nullptr);
}

TEST(CacheContainmentTest, SemiJoinAnchorsAccumulateAcrossCandidateSets) {
  SimulatedSource src = ParitySource();
  const Condition cond = Condition::Eq("V", Value("a"));
  const std::string key = cond.CacheKey();
  const ItemSet x1 = Ints({0, 1, 2, 3, 20});
  const ItemSet x2 = Ints({2, 3, 4, 5, 6, 7});  // overlaps x1, not nested
  CostLedger scratch;
  auto direct = [&](const ItemSet& candidates) {
    auto answer = src.SemiJoin(cond, "L", candidates, &scratch);
    EXPECT_TRUE(answer.ok());
    return *answer;
  };

  SourceCallCache cache;
  cache.InsertSemiJoin(0, key, x1, direct(x1), cache.version(0));
  cache.InsertSemiJoin(0, key, x2, direct(x2), cache.version(0));
  EXPECT_EQ(cache.entries(), 1u);  // one anchor, widened in place
  // Each earlier candidate set, and any subset of their union, is answered
  // byte-identically to the source's own semijoin.
  for (const ItemSet& candidates :
       {x1, x2, Ints({1, 4, 6, 7, 20}), ItemSet::Union(x1, x2)}) {
    bool derived = false;
    const std::shared_ptr<const ItemSet> answer =
        cache.FindSemiJoin(0, cond, key, "L", candidates, &derived);
    ASSERT_NE(answer, nullptr) << candidates.ToString();
    EXPECT_EQ(*answer, direct(candidates)) << candidates.ToString();
  }
  // Candidates outside the union still miss.
  bool derived = false;
  EXPECT_EQ(cache.FindSemiJoin(0, cond, key, "L", Ints({0, 8}), &derived),
            nullptr);
}

// ---------------------------------------------------------------------------
// Invalidation while an sjq or lq source call is outstanding
// ---------------------------------------------------------------------------

/// Delegates to a SimulatedSource, but the first SemiJoin or Load call
/// blocks inside the source until Release(), so a test can invalidate the
/// cache while that call is outstanding.
class GatedSource final : public SourceWrapper {
 public:
  explicit GatedSource(SimulatedSource inner) : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_.name(); }
  const Schema& schema() const override { return inner_.schema(); }
  const Capabilities& capabilities() const override {
    return inner_.capabilities();
  }
  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override {
    return inner_.Select(cond, merge_attribute, ledger);
  }
  Result<ItemSet> SemiJoin(const Condition& cond,
                           const std::string& merge_attribute,
                           const ItemSet& candidates,
                           CostLedger* ledger) override {
    Gate();
    ++semijoins;
    return inner_.SemiJoin(cond, merge_attribute, candidates, ledger);
  }
  Result<Relation> Load(CostLedger* ledger) override {
    Gate();
    ++loads;
    return inner_.Load(ledger);
  }
  Result<Relation> FetchRecords(const std::string& merge_attribute,
                                const ItemSet& items,
                                CostLedger* ledger) override {
    return inner_.FetchRecords(merge_attribute, items, ledger);
  }

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::unique_lock<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  std::atomic<int> semijoins{0};
  std::atomic<int> loads{0};

 private:
  void Gate() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  SimulatedSource inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

/// ParitySource rows twice: R1 plain, R2 gated.
SourceCatalog GatedCatalog(GatedSource** gated) {
  SourceCatalog catalog;
  EXPECT_TRUE(
      catalog.Add(std::make_unique<SimulatedSource>(ParitySource())).ok());
  auto source = std::make_unique<GatedSource>(ParitySource("R2"));
  *gated = source.get();
  EXPECT_TRUE(catalog.Add(std::move(source)).ok());
  return catalog;
}

/// Runs `plan` while R2 (source 1) is invalidated in the middle of its
/// gated call; returns that run's report.
Result<ExecutionReport> ExecuteAcrossInvalidation(const Plan& plan,
                                                  const FusionQuery& query,
                                                  const SourceCatalog& catalog,
                                                  GatedSource& gated,
                                                  const ExecOptions& exec) {
  std::optional<Result<ExecutionReport>> run;
  std::thread runner(
      [&] { run.emplace(ExecutePlan(plan, catalog, query, exec)); });
  gated.WaitUntilEntered();
  exec.cache->Invalidate(1);  // R2's data changes while it is answering
  gated.Release();
  runner.join();
  return *std::move(run);
}

TEST(CacheInvalidationTest, SemiJoinAnsweredAcrossAnInvalidationIsNotPublished) {
  GatedSource* gated = nullptr;
  SourceCatalog catalog = GatedCatalog(&gated);
  const Condition on_r1 = Condition::Eq("V", Value("a"));
  const Condition on_r2 =
      Condition::Compare("L", CompareOp::kLt, Value(int64_t{6}));
  const FusionQuery query("L", {on_r1, on_r2});
  Plan plan;
  const int x = plan.EmitSelect(0, 0);
  plan.SetResult(plan.EmitSemiJoin(1, 1, x));

  SourceCallCache cache;
  ExecOptions exec;
  exec.cache = &cache;
  const auto first =
      ExecuteAcrossInvalidation(plan, query, catalog, *gated, exec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->answer.ToString(), "{0, 2, 4}");
  // The sjq answer raced the invalidation, so it never reached the memo...
  EXPECT_FALSE(cache.ContainsSemiJoin(1, on_r2.CacheKey()));
  EXPECT_TRUE(cache.ContainsSelect(0, on_r1.CacheKey()));  // R1 untouched
  // ...and the next execution asks R2 again.
  const auto second = ExecutePlan(plan, catalog, query, exec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answer, first->answer);
  EXPECT_EQ(gated->semijoins.load(), 2);
  EXPECT_GT(second->ledger.total(), 0.0);
  EXPECT_TRUE(cache.ContainsSemiJoin(1, on_r2.CacheKey()));
}

TEST(CacheInvalidationTest, LoadAnsweredAcrossAnInvalidationIsNotPublished) {
  GatedSource* gated = nullptr;
  SourceCatalog catalog = GatedCatalog(&gated);
  const FusionQuery query("L", {Condition::Eq("V", Value("u"))});
  Plan plan;
  plan.SetResult(plan.EmitLocalSelect(0, plan.EmitLoad(1)));

  SourceCallCache cache;
  ExecOptions exec;
  exec.cache = &cache;
  const auto first =
      ExecuteAcrossInvalidation(plan, query, catalog, *gated, exec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->answer.ToString(), "{1, 3, 5, 7, 9, 11}");
  EXPECT_FALSE(cache.ContainsLoad(1));
  const auto second = ExecutePlan(plan, catalog, query, exec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answer, first->answer);
  EXPECT_EQ(gated->loads.load(), 2);
  EXPECT_GT(second->ledger.total(), 0.0);
  EXPECT_TRUE(cache.ContainsLoad(1));
}

// ---------------------------------------------------------------------------
// Canonical cache keys
// ---------------------------------------------------------------------------

TEST(CacheKeyTest, CommutativelyEqualConditionsShareOneKey) {
  const Condition a = Condition::Eq("V", Value("a"));
  const Condition b = Condition::Compare("L", CompareOp::kGt, Value(int64_t{5}));
  EXPECT_EQ(Condition::And(a, b).CacheKey(), Condition::And(b, a).CacheKey());
  EXPECT_EQ(Condition::Or(a, b).CacheKey(), Condition::Or(b, a).CacheKey());
  // Duplicated conjuncts collapse.
  EXPECT_EQ(Condition::And(a, Condition::And(b, a)).CacheKey(),
            Condition::And(a, b).CacheKey());
  // Raw text differs — only the canonical key is shared.
  EXPECT_NE(Condition::And(a, b).ToString(), Condition::And(b, a).ToString());
}

TEST(CacheKeyTest, ReorderedConjunctsHitTheCacheAcrossExecutions) {
  // Regression: the cache used to key on raw ToString(), so `a AND b`
  // missed an entry stored under `b AND a` and re-paid the source call.
  SourceCatalog catalog;
  {
    Relation r(ItemSchema());
    for (int64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(r.Append({Value(i), Value(i < 4 ? "a" : "u")}).ok());
    }
    ASSERT_TRUE(catalog
                    .Add(std::make_unique<SimulatedSource>(
                        "R1", std::move(r), Capabilities{}, NetworkProfile{}))
                    .ok());
  }
  const Condition a = Condition::Eq("V", Value("a"));
  const Condition b = Condition::Compare("L", CompareOp::kLt, Value(int64_t{2}));
  Plan plan;
  plan.SetResult(plan.EmitSelect(0, 0));

  SourceCallCache cache;
  ExecOptions exec;
  exec.cache = &cache;
  const auto first = ExecutePlan(plan, catalog,
                                 FusionQuery("L", {Condition::And(a, b)}), exec);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->ledger.total(), 0.0);
  const auto second = ExecutePlan(
      plan, catalog, FusionQuery("L", {Condition::And(b, a)}), exec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answer, first->answer);
  EXPECT_EQ(second->ledger.total(), 0.0);  // answered from the memo
  EXPECT_EQ(second->cache_hits, 1u);
}

// ---------------------------------------------------------------------------
// Emulated semijoins probe through the cache
// ---------------------------------------------------------------------------

TEST(CacheProbeTest, RepeatedProbesAreAnsweredFromTheMemo) {
  // R2 has passed-bindings-only semijoin support, so sjq is emulated as one
  // probe selection per candidate. Growing the candidate set re-pays only
  // the *new* probe: old probes answer from the cache, keyed on the
  // canonical probe condition.
  SourceCatalog catalog;
  {
    Relation r1(ItemSchema());
    Relation r2(ItemSchema());
    for (int64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(r1.Append({Value(i), Value(i < 2 ? "a" : i < 3 ? "b" : "x")})
                      .ok());
      ASSERT_TRUE(r2.Append({Value(i), Value("u")}).ok());
    }
    ASSERT_TRUE(catalog
                    .Add(std::make_unique<SimulatedSource>(
                        "R1", std::move(r1), Capabilities{}, NetworkProfile{}))
                    .ok());
    Capabilities bindings_only;
    bindings_only.semijoin = SemijoinSupport::kPassedBindingsOnly;
    ASSERT_TRUE(catalog
                    .Add(std::make_unique<SimulatedSource>(
                        "R2", std::move(r2), bindings_only, NetworkProfile{}))
                    .ok());
  }
  // Query 1 selects {0, 1} as candidates; query 2 selects {0, 1, 2}. The
  // semijoin condition (c2 = V = 'u') is shared.
  const Condition narrow = Condition::Eq("V", Value("a"));
  const Condition wide =
      Condition::Or(Condition::Eq("V", Value("a")), Condition::Eq("V", Value("b")));
  const Condition probe_cond = Condition::Eq("V", Value("u"));
  Plan plan;
  const int x = plan.EmitSelect(0, 0);
  plan.SetResult(plan.EmitSemiJoin(1, 1, x));

  SourceCallCache cache;
  ExecOptions exec;
  exec.cache = &cache;
  const auto first = ExecutePlan(plan, catalog,
                                 FusionQuery("L", {narrow, probe_cond}), exec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->emulated_semijoins, 1u);
  EXPECT_EQ(first->answer.ToString(), "{0, 1}");

  const auto second = ExecutePlan(plan, catalog,
                                  FusionQuery("L", {wide, probe_cond}), exec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answer.ToString(), "{0, 1, 2}");
  // Probes for candidates 0 and 1 hit the memo; only candidate 2 paid.
  EXPECT_GE(second->cache_hits, 2u);
  size_t probe_charges = 0;
  for (const Charge& c : second->ledger.charges()) {
    if (c.kind == ChargeKind::kEmulatedSemiJoinProbe) ++probe_charges;
  }
  EXPECT_EQ(probe_charges, 1u);
}

// ---------------------------------------------------------------------------
// Cumulative anchors end the thrash between queries sharing a condition
// ---------------------------------------------------------------------------

/// Indexes of the sources that `plan` semijoins condition 0 against.
std::vector<size_t> SemiJoinSourcesOfFirstCondition(const Plan& plan) {
  std::vector<size_t> sources;
  for (const PlanOp& op : plan.ops()) {
    if (op.kind == PlanOpKind::kSemiJoin && op.cond == 0) {
      sources.push_back(static_cast<size_t>(op.source));
    }
  }
  return sources;
}

TEST(CacheAnchorTest, QueriesSharingASemiJoinConditionStopPayingAfterOneRound) {
  // Two queries share `A1 = 1`. Once source 2 is invalidated, both plan it
  // there as a native sjq, over different candidate sets. The repeats must
  // not overwrite each other's anchors: after one paid round of A and B,
  // A, B, A are answered entirely from the memo.
  SyntheticSpec spec;
  spec.universe_size = 4000;
  spec.num_sources = 6;
  spec.num_conditions = 6;
  spec.selectivity_default = 0.08;
  spec.coverage = 0.25;
  spec.seed = 11;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  auto flag = [](int i) {
    return Condition::Eq("A" + std::to_string(i), Value(int64_t{1}));
  };
  const FusionQuery a("M", {flag(1), flag(2), flag(3)});
  const FusionQuery b("M", {flag(1), flag(5), flag(6)});
  constexpr size_t kShared = 2;

  QuerySession session(Mediator(std::move(instance->catalog)),
                       QuerySession::Options{});
  ASSERT_TRUE(session.Answer(a).ok());
  ASSERT_TRUE(session.Answer(b).ok());
  session.InvalidateSource(kShared);
  const FusionQuery* asks[] = {&a, &b, &a, &b, &a};
  for (size_t n = 0; n < 5; ++n) {
    const auto answer = session.Answer(*asks[n]);
    ASSERT_TRUE(answer.ok());
    if (n < 2) {
      EXPECT_GT(answer->execution.ledger.total(), 0.0) << "ask " << n;
      const std::vector<size_t> sjq =
          SemiJoinSourcesOfFirstCondition(answer->optimized.plan);
      ASSERT_NE(std::find(sjq.begin(), sjq.end(), kShared), sjq.end())
          << "fixture: ask " << n << " no longer semijoins A1 on source "
          << kShared;
      continue;
    }
    EXPECT_EQ(answer->execution.ledger.total(), 0.0) << "ask " << n;
    EXPECT_TRUE(answer->execution.ledger.charges().empty()) << "ask " << n;
    EXPECT_EQ(answer->execution.cache_misses, 0u) << "ask " << n;
  }
}

// ---------------------------------------------------------------------------
// Concurrency: flights vs Clear/Invalidate vs eviction (run under TSan via
// the `concurrency` label)
// ---------------------------------------------------------------------------

TEST(CacheConcurrencyTest, FlightsSurviveConcurrentClearInvalidateAndEviction) {
  SourceCallCache::Options options;
  options.max_bytes = 6 * OneEntryBytes();
  SourceCallCache cache(options);
  std::atomic<bool> stop{false};
  std::atomic<size_t> budget_violations{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        const std::string key = "c" + std::to_string((t * 7 + i) % 16);
        SourceCallCache::FlightGuard flight =
            cache.BeginFlight(static_cast<size_t>(i % 3), key);
        if (flight.cached() != nullptr) {
          (void)flight.cached()->size();  // must stay readable
        } else if (i % 7 != 0) {          // sometimes abandon the flight
          flight.Fulfill(Ints({i, i + t}));
        }
        bool derived = false;
        (void)cache.FindSemiJoin(static_cast<size_t>(i % 3),
                                 Condition::Eq("V", Value("a")), key, "L",
                                 Ints({1, 2}), &derived);
      }
    });
  }
  std::thread churn([&] {
    while (!stop.load()) {
      cache.Invalidate(1);
      cache.Clear();
      std::this_thread::yield();
    }
  });
  std::thread auditor([&] {
    while (!stop.load()) {
      if (cache.bytes() > options.max_bytes) ++budget_violations;
      (void)cache.StatsSnapshot();
      (void)cache.Lookup(0, "c1");
      std::this_thread::yield();
    }
  });
  for (std::thread& w : workers) w.join();
  stop.store(true);
  churn.join();
  auditor.join();
  EXPECT_EQ(budget_violations.load(), 0u);
  EXPECT_LE(cache.bytes(), options.max_bytes);
}

// FindSemiJoin reads an anchor under the mutex and intersects outside it,
// while other threads merge new parts into the same anchor. Every anchor
// part is sq ∩ X for one fixed sq, so whichever anchor version a reader
// copied, a derived answer must equal sq ∩ (its candidates).
TEST(CacheConcurrencyTest, SemiJoinDerivationsRaceAnchorMerges) {
  SourceCallCache cache;
  std::vector<int64_t> sq_items;
  for (int64_t i = 0; i < 400; ++i) sq_items.push_back(i);
  const ItemSet sq = Ints(sq_items);
  const Condition cond = Condition::Eq("V", Value("a"));
  const std::string key = cond.CacheKey();
  std::atomic<size_t> wrong{0};
  std::atomic<size_t> derived_answers{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        // Candidates: every step-th item of [offset, offset + 600).
        const int64_t step = 2 + (t + i) % 5;
        const int64_t offset = (t * 37 + i * 11) % 200;
        std::vector<int64_t> xs;
        for (int64_t x = offset; x < offset + 600; x += step) xs.push_back(x);
        const ItemSet candidates = Ints(xs);
        if (i % 2 == 0) {
          cache.InsertSemiJoin(0, key, candidates,
                               ItemSet::Intersect(sq, candidates),
                               cache.version(0));
        }
        std::vector<int64_t> sub;
        for (size_t k = 0; k < xs.size(); k += 3) sub.push_back(xs[k]);
        const ItemSet probe = Ints(sub);
        bool derived = false;
        const std::shared_ptr<const ItemSet> answer =
            cache.FindSemiJoin(0, cond, key, "L", probe, &derived);
        if (answer == nullptr) continue;
        if (derived) ++derived_answers;
        if (*answer != ItemSet::Intersect(sq, probe)) ++wrong;
      }
    });
  }
  std::thread churn([&] {
    for (int i = 0; i < 50; ++i) {
      cache.Invalidate(0);
      std::this_thread::yield();
    }
  });
  for (std::thread& w : workers) w.join();
  churn.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(derived_answers.load(), 0u);
}

// ---------------------------------------------------------------------------
// Cache-aware optimization: a repeated session query must get strictly
// cheaper when the optimizer is allowed to plan through the cache.
// ---------------------------------------------------------------------------

/// Two native-semijoin sources whose conditions are *negatively correlated*:
/// c_a ("V = 'a'") matches ~800 items per source, c_u ("V = 'u'") matches
/// 300 per source, and their join overlaps in only 5 items (L = 2000..2004).
/// Shipping item sets is nearly free (cost_per_item_sent = 0.001) while
/// receiving answers is expensive (1.0/item) — the regime where anchoring on
/// the *cached* unselective condition and semijoining the other wins big,
/// but only an optimizer that knows c_a is cached will pick that order.
SourceCatalog CorrelatedCatalog() {
  NetworkProfile net;
  net.query_overhead = 10.0;
  net.cost_per_item_sent = 0.001;
  net.cost_per_item_received = 1.0;
  SourceCatalog catalog;
  Relation r1(ItemSchema());
  for (int64_t i = 0; i < 800; ++i) EXPECT_TRUE(r1.Append({Value(i), Value("a")}).ok());
  for (int64_t i = 2000; i < 2005; ++i) EXPECT_TRUE(r1.Append({Value(i), Value("a")}).ok());
  for (int64_t i = 2800; i < 3100; ++i) EXPECT_TRUE(r1.Append({Value(i), Value("u")}).ok());
  EXPECT_TRUE(catalog
                  .Add(std::make_unique<SimulatedSource>("R1", std::move(r1),
                                                         Capabilities{}, net))
                  .ok());
  Relation r2(ItemSchema());
  for (int64_t i = 700; i < 1500; ++i) EXPECT_TRUE(r2.Append({Value(i), Value("a")}).ok());
  for (int64_t i = 2000; i < 2005; ++i) EXPECT_TRUE(r2.Append({Value(i), Value("u")}).ok());
  for (int64_t i = 3100; i < 3395; ++i) EXPECT_TRUE(r2.Append({Value(i), Value("u")}).ok());
  EXPECT_TRUE(catalog
                  .Add(std::make_unique<SimulatedSource>("R2", std::move(r2),
                                                         Capabilities{}, net))
                  .ok());
  return catalog;
}

TEST(CacheAwareOptimizationTest, RepeatedQueryIsStrictlyCheaperThanOblivious) {
  const Condition c_a = Condition::Eq("V", Value("a"));
  const Condition c_u = Condition::Eq("V", Value("u"));
  const FusionQuery warmup("L", {c_a});
  const FusionQuery query("L", {c_a, c_u});

  // Two identical sessions over identical catalogs; only the optimizer's
  // cache awareness differs. Both *execute* with the cache.
  auto run = [&](bool cache_aware) -> std::pair<ItemSet, double> {
    QuerySession::Options options;
    options.strategy = OptimizerStrategy::kSja;
    options.cache_aware_optimization = cache_aware;
    QuerySession session(Mediator(CorrelatedCatalog()), options);
    const auto first = session.Answer(warmup);
    EXPECT_TRUE(first.ok());
    const auto second = session.Answer(query);
    EXPECT_TRUE(second.ok());
    if (!second.ok()) return {ItemSet(), -1.0};
    return {second->items, second->execution.ledger.total()};
  };
  const auto [oblivious_answer, oblivious_cost] = run(false);
  const auto [aware_answer, aware_cost] = run(true);

  // Same answer, byte-identical, with or without cache-aware planning.
  EXPECT_EQ(aware_answer, oblivious_answer);
  EXPECT_EQ(aware_answer,
            Ints({2000, 2001, 2002, 2003, 2004}));
  // The cache-aware plan anchors on the cached c_a union (free) and
  // semijoins c_u against it; the oblivious plan re-derives the cold-cache
  // order and pays the full sq(c_u, ·) union. Strictly cheaper — this is
  // the tentpole acceptance bar.
  ASSERT_GE(oblivious_cost, 0.0);
  ASSERT_GE(aware_cost, 0.0);
  EXPECT_LT(aware_cost, oblivious_cost);
}

TEST(CacheAwareOptimizationTest, CostModelRepricesOnlyCachedCalls) {
  // Unit-level: the decorator zeroes sq/sjq for view-marked pairs and lq
  // for cached sources, leaves everything else alone, and never turns an
  // infinite (unsupported) semijoin finite.
  class FixedModel final : public CostModel {
   public:
    size_t num_conditions() const override { return 2; }
    size_t num_sources() const override { return 2; }
    double universe_size() const override { return 100.0; }
    double SqCost(size_t, size_t) const override { return 5.0; }
    double SjqCost(size_t, size_t source, const SetEstimate&) const override {
      return source == 1 ? std::numeric_limits<double>::infinity() : 3.0;
    }
    double LqCost(size_t) const override { return 7.0; }
    SetEstimate SqResult(size_t, size_t) const override {
      return SetEstimate{10.0, std::nullopt};
    }
    SetEstimate SjqResult(size_t, size_t, const SetEstimate& x) const override {
      return x;
    }
    double FetchCost(size_t, double) const override { return 1.0; }
  };
  FixedModel base;
  QueryCacheView view;
  view.sq_answerable = {{1, 1}, {0, 0}};  // c0 cached everywhere, c1 nowhere
  view.lq_cached = {1, 0};
  EXPECT_TRUE(view.AnySet());
  const CacheAwareCostModel model(base, view);
  const SetEstimate x{4.0, std::nullopt};
  EXPECT_EQ(model.SqCost(0, 0), 0.0);
  EXPECT_EQ(model.SqCost(1, 0), 5.0);
  EXPECT_EQ(model.SjqCost(0, 0, x), 0.0);
  EXPECT_EQ(model.SjqCost(1, 0, x), 3.0);
  // Cached sq cannot rescue a source that cannot semijoin at all.
  EXPECT_EQ(model.SjqCost(0, 1, x), std::numeric_limits<double>::infinity());
  EXPECT_EQ(model.LqCost(0), 0.0);
  EXPECT_EQ(model.LqCost(1), 7.0);
  EXPECT_EQ(QueryCacheView{}.AnySet(), false);
}

}  // namespace
}  // namespace fusion
