#ifndef FUSION_MEDIATOR_SESSION_H_
#define FUSION_MEDIATOR_SESSION_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/source_call_cache.h"
#include "exec/source_health.h"
#include "mediator/mediator.h"
#include "plan/cost_estimator.h"

namespace fusion {

/// A long-lived query session against one federation: the layer a client
/// application actually talks to. Across the queries of a session it
/// amortizes everything that a per-query mediator pays repeatedly:
///
///  - **answer reuse** — selection results are memoized in a shared
///    SourceCallCache, so overlapping queries stop re-asking sources;
///  - **statistics reuse + feedback** — per-(source, condition) result
///    sizes start from calibration probes (or priors) and are *updated from
///    execution observations*: every executed selection reveals the true
///    result size, so later queries plan with measured statistics instead
///    of estimates. No oracle access is needed anywhere — this is the
///    deployment configuration for sources behind the wrapper protocol;
///  - **source-health memory** — per-source circuit breakers (see
///    exec/source_health.h) are shared across the session's queries, so a
///    source that exhausted one query's retries fails the next query's
///    calls fast instead of re-paying the whole retry ladder.
///
/// The statistics-feedback loop makes the session a simple learning
/// optimizer: plans approach oracle quality as the session observes more
/// (condition, source) pairs. Feedback is *partial* — a pair evaluated by
/// semijoin reveals only |X ∩ S|, not |S|, and cached answers yield no new
/// observations — so convergence is to near-optimality, not exact parity
/// (tests pin a 1.3× band against the oracle plan after one round).
///
/// **Thread safety.** Answer()/AnswerSql() may be called concurrently from
/// many threads against one session — this is what the serving layer
/// (mediator/service.h) does, multiplexing every connected client onto one
/// shared session so they share the cache, the breakers, and the learned
/// statistics. The session knowledge maps are guarded by an internal mutex
/// (held only while snapshotting statistics into a per-query cost model,
/// while checking the plan memo against the cache and while folding one
/// execution's observations back in — never across source calls); the
/// prepared-query memo has its own mutex, and the cache and the breakers
/// are internally synchronized already.
class QuerySession {
 public:
  struct Options {
    OptimizerStrategy strategy = OptimizerStrategy::kSjaPlus;
    /// Where planning statistics come from. nullopt (the default) runs the
    /// session-learned feedback loop described above. A fixed
    /// StatisticsMode instead routes through Mediator::BuildCostModel —
    /// oracle / parametric statistics for controlled experiments, or
    /// kCalibrated sampling probes whose metered traffic lands in
    /// QueryAnswer::calibration_cost. Execution observations are folded
    /// into the session statistics either way, so a session can calibrate
    /// first and go nullopt later without losing what it saw.
    std::optional<StatisticsMode> statistics;
    /// Probe budget etc. for statistics == kCalibrated.
    CalibrationOptions calibration;
    PostOptOptions postopt;
    /// Session cache and circuit breakers are attached automatically
    /// (execution.health, when left null, becomes the session's own).
    ExecOptions execution;
    /// Breaker thresholds for the session-owned SourceHealth.
    SourceHealth::Options health;
    /// Resource bounds for the session-owned SourceCallCache (byte budget,
    /// TTL). Defaults keep the cache unbounded, as before.
    SourceCallCache::Options cache;
    /// Attach the session cache to executions at all. Disable to keep every
    /// query's source traffic cold (each pays its full metered cost —
    /// the single-query CLI default) while still learning statistics and
    /// sharing breakers.
    bool use_cache = true;
    /// Re-optimize repeated queries against the cache: calls the memo can
    /// answer (exactly or by containment) are priced at zero, so the
    /// optimizer steers warm-cache plans through them (CacheAwareCostModel).
    /// Disable for strictly cache-oblivious planning — execution still uses
    /// the cache either way.
    bool cache_aware_optimization = true;
    /// Cardinality prior when a source has never been observed.
    double default_cardinality = 1000.0;
    /// Universe-size prior before any observation.
    double default_universe = 2000.0;
  };

  /// Per-call overrides, for callers that vary planning inputs query by
  /// query over one shared session (experiment drivers comparing
  /// strategies; the serving layer's CANCEL path).
  struct CallControls {
    /// Overrides Options::strategy for this call.
    std::optional<OptimizerStrategy> strategy;
    /// Overrides Options::statistics for this call (set to a fixed mode;
    /// there is no way — or need — to override a fixed session default
    /// back to session-learned per call).
    std::optional<StatisticsMode> statistics;
    /// Cooperative cancellation token, plumbed into ExecOptions::cancel:
    /// setting it makes the execution fail fast with kCancelled at the next
    /// source-call admission. Must outlive the call.
    const std::atomic<bool>* cancel = nullptr;
    /// Overrides ExecOptions::deadline_seconds when >= 0.
    double deadline_seconds = -1.0;
  };

  QuerySession(Mediator mediator, const Options& options)
      : mediator_(std::move(mediator)),
        options_(options),
        cache_(options.cache),
        health_(options.health) {}

  /// Optimizes with session statistics, executes with the session cache,
  /// and folds the execution's observations back into the statistics.
  /// Safe to call concurrently (see class comment).
  Result<QueryAnswer> Answer(const FusionQuery& query) {
    return Answer(query, CallControls{});
  }
  Result<QueryAnswer> Answer(const FusionQuery& query,
                             const CallControls& controls);
  /// As Answer(ParseFusionQuery(sql)), but each SQL text is parsed,
  /// canonicalized, validated and rendered once per session: the prepared
  /// form is memoized per text (FIFO-bounded by kPreparedCapacity), so a
  /// repeated text goes straight to planning.
  Result<QueryAnswer> AnswerSql(const std::string& sql) {
    return AnswerSql(sql, CallControls{});
  }
  Result<QueryAnswer> AnswerSql(const std::string& sql,
                                const CallControls& controls);

  const Mediator& mediator() const { return mediator_; }
  /// Mutable mediator access, for the two-phase protocol's second phase
  /// (FetchRecords issues fresh source traffic outside any session query).
  Mediator& mediator() { return mediator_; }
  const SourceCallCache& cache() const { return cache_; }
  const SourceHealth& health() const { return health_; }
  /// Learned (source, condition) result sizes held (at most
  /// kObservedSizeCapacity).
  size_t observed_conditions() const {
    std::lock_guard<std::mutex> lock(knowledge_mutex_);
    return observed_result_size_.size();
  }
  /// SQL texts held by the prepared-query memo (at most kPreparedCapacity).
  size_t prepared_queries() const {
    std::lock_guard<std::mutex> lock(prepared_mutex_);
    return prepared_.size();
  }
  /// Executed plans held by the plan memo (at most kPlanMemoCapacity).
  size_t memoized_plans() const {
    std::lock_guard<std::mutex> lock(knowledge_mutex_);
    return plan_memo_.size();
  }
  /// Distinct merge-attribute items that successful executions so far
  /// received from sources: the learned universe lower bound (before the
  /// default_universe floor).
  size_t observed_universe_size() const {
    std::lock_guard<std::mutex> lock(knowledge_mutex_);
    return UniverseSizeLocked();
  }

  /// Drops every memoized answer (all sources) — e.g. after bulk updates.
  /// Safe while queries are running; see SourceCallCache::Clear.
  void ResetCache() { cache_.Clear(); }
  /// Drops one source's memoized answers and fences its in-flight calls —
  /// the hook to call when a source reports its data changed.
  void InvalidateSource(size_t source) { cache_.Invalidate(source); }

  /// Bound of the learned per-(source, condition) result sizes, evicted
  /// FIFO. The serving benchmark peaks at ~4.6k entries per trial
  /// (cold_budget; zipf_warm ~780), well inside it, so no benchmark plan
  /// sees an eviction.
  static constexpr size_t kObservedSizeCapacity = 16384;
  /// Bound of the prepared-query memo, evicted FIFO; above the 340
  /// distinct texts of the serving benchmark's cold_budget pool.
  static constexpr size_t kPreparedCapacity = 1024;

 private:
  /// A query made ready for planning: the canonical, validated form and its
  /// rendered conditions, which the statistics keys, the plan-memo key,
  /// learning and the cache lookups share. A canonical condition is its own
  /// Simplified() form, so its ToString() is its CacheKey().
  struct PreparedQuery {
    FusionQuery query;
    std::vector<std::string> cond_texts;
    /// The SQL text, when memoized: the memo's key views it.
    std::string sql;
  };

  /// Canonicalizes and validates `raw` and renders its conditions.
  Result<PreparedQuery> Prepare(const FusionQuery& raw) const;
  /// Prepare(ParseFusionQuery(sql)) through the prepared-query memo.
  Result<std::shared_ptr<const PreparedQuery>> PrepareSql(
      const std::string& sql);
  Result<QueryAnswer> AnswerPrepared(const PreparedQuery& prepared,
                                     const CallControls& controls);

  /// Builds the per-query parametric model from session knowledge, given
  /// the canonical query's rendered conditions. Caller must hold
  /// knowledge_mutex_.
  Result<ParametricCostModel> BuildSessionModel(
      const std::vector<std::string>& cond_texts);

  /// observed_universe_size(). Caller must hold knowledge_mutex_.
  size_t UniverseSizeLocked() const {
    return observed_values_.empty() ? observed_ints_.size()
                                    : observed_values_.size();
  }

  /// What the cache can answer for this query's (condition, source) pairs,
  /// for cache-aware optimization. `keys` are the conditions' cache keys.
  QueryCacheView BuildCacheView(const std::vector<std::string>& keys);
  /// True when the cache answers every source op of `plan` without a source
  /// call, by the rules under which CacheAwareCostModel prices the op at
  /// zero — the plan then re-prices at 0 under any session-learned model,
  /// so no model or view need be built. `keys` as for BuildCacheView.
  bool CacheAnswersEveryCall(const Plan& plan,
                             const std::vector<std::string>& keys) const;

  /// Learns from one execution: exact result sizes for every selection the
  /// plan issued, source cardinalities from loads, and the universe lower
  /// bound from the answers of the ops that contacted a source (a cache hit
  /// holds no item that did not arrive earlier). `cond_texts` are the
  /// canonical query's rendered conditions. Takes knowledge_mutex_ itself.
  void Learn(const std::vector<std::string>& cond_texts,
             const OptimizedPlan& plan, const ExecutionReport& report);
  /// Adds `items` to the learned universe. Caller must hold
  /// knowledge_mutex_.
  void LearnItemsLocked(const ItemSet& items);
  /// Records one learned result size, evicting the oldest entry past
  /// kObservedSizeCapacity. Caller must hold knowledge_mutex_.
  void LearnResultSizeLocked(size_t source, const std::string& cond_text,
                             double size);

  Mediator mediator_;
  Options options_;
  SourceCallCache cache_;
  SourceHealth health_;

  // Session knowledge, shared by every concurrent Answer(). Keys use
  // canonical condition text. Guarded by knowledge_mutex_.
  mutable std::mutex knowledge_mutex_;
  using ResultSizeMap = std::map<std::pair<size_t, std::string>, double>;
  ResultSizeMap observed_result_size_;
  /// Insertion order of observed_result_size_'s entries, for FIFO eviction.
  std::deque<ResultSizeMap::iterator> observed_result_order_;
  std::map<size_t, double> observed_cardinality_;
  /// Every item any successful execution received from a source, kept
  /// incrementally: a query pays for the items that arrived with it, not
  /// for the session's whole history. While
  /// every observed set is int-form the items live raw in `observed_ints_`;
  /// the first set holding any other item moves them, once, into
  /// `observed_values_`, which is non-empty from then on. Either way the
  /// size equals that of the ItemSet union of the same items, since
  /// Value::Hash agrees with Value equality (int64 vs double included).
  /// (The one exception is shared with ItemSet itself: int64s beyond 2^53
  /// next to doubles they round to, where Value equality is not
  /// transitive and no sorted-unique union is well defined.)
  std::unordered_set<int64_t> observed_ints_;
  std::unordered_set<Value, ValueHash> observed_values_;

  /// Last executed plan per (strategy, canonical query), FIFO-bounded. On a
  /// repeated query the memoized plan's calls are exact cache hits, so
  /// cache-aware optimization prefers it over an equally-priced fresh plan
  /// whose semijoin chains would miss the cached anchors — and when it
  /// re-prices at 0, no plan can beat it, so the optimizer is not run.
  /// Guarded by knowledge_mutex_.
  static constexpr size_t kPlanMemoCapacity = 128;
  std::map<std::string, OptimizedPlan> plan_memo_;
  std::deque<std::string> plan_memo_order_;

  /// Prepared queries per SQL text, FIFO-bounded by kPreparedCapacity.
  /// Each key views the text its own entry holds.
  mutable std::mutex prepared_mutex_;
  std::unordered_map<std::string_view, std::shared_ptr<const PreparedQuery>>
      prepared_;
  std::deque<std::shared_ptr<const PreparedQuery>> prepared_order_;
};

}  // namespace fusion

#endif  // FUSION_MEDIATOR_SESSION_H_
