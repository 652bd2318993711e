#ifndef FUSION_PLAN_COST_ESTIMATOR_H_
#define FUSION_PLAN_COST_ESTIMATOR_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "plan/plan.h"

namespace fusion {

/// The estimator's account of one plan: total estimated cost (sum of source
/// query costs; local ops are free per the paper's model), a per-op cost
/// vector aligned with Plan::ops(), and the estimate for the result set.
struct PlanCostBreakdown {
  double total = 0.0;
  std::vector<double> per_op;
  SetEstimate result;
};

/// Walks `plan` propagating SetEstimates through every variable and charging
/// each source query via `model`. With an OracleCostModel the returned total
/// is exactly the cost the executor will meter; with a parametric model it
/// is the optimizer's independence-assumption estimate.
Result<PlanCostBreakdown> EstimatePlanCost(const Plan& plan,
                                           const CostModel& model);

/// What the result cache can answer at plan time for the query being
/// optimized: per (condition, source), whether sq(c_i, R_j) is answerable
/// without a source call (exact entry, or derivable from a cached lq), and
/// per source whether lq(R_j) is cached. Built by the session from
/// SourceCallCache::ContainsSelect / ContainsLoad before each optimization;
/// a plain value type so plan/cost stays independent of the exec layer.
struct QueryCacheView {
  /// sq_answerable[cond][source] != 0 iff sq(c_cond, R_source) is free.
  std::vector<std::vector<char>> sq_answerable;
  /// sjq_answerable[cond][source] != 0 iff the memo holds *some* answer for
  /// semijoins on (c_cond, R_source): a cached sq/lq (always derivable) or a
  /// prior sjq entry. The sjq-entry case is optimistic — it derives free
  /// only when the new plan's candidates are contained in the cached
  /// anchor's, which holds for a repeated identical query but is not
  /// guaranteed across plan shapes. Mispricing costs nothing worse than the
  /// cache-oblivious plan: execution falls back to the real call.
  std::vector<std::vector<char>> sjq_answerable;
  /// lq_cached[source] != 0 iff lq(R_source) is cached.
  std::vector<char> lq_cached;

  bool SqAnswerable(size_t cond, size_t source) const {
    return cond < sq_answerable.size() &&
           source < sq_answerable[cond].size() &&
           sq_answerable[cond][source] != 0;
  }
  bool SjqAnswerable(size_t cond, size_t source) const {
    return cond < sjq_answerable.size() &&
           source < sjq_answerable[cond].size() &&
           sjq_answerable[cond][source] != 0;
  }
  bool LqCached(size_t source) const {
    return source < lq_cached.size() && lq_cached[source] != 0;
  }
  /// True iff the view can change any cost at all (skip wrapping otherwise).
  bool AnySet() const;
};

/// Decorator that re-prices calls the cache can answer at zero, leaving all
/// cardinality estimates (and every other cost) to the wrapped model:
///  - SqCost(c, R) = 0 when the view says sq(c, R) is answerable;
///  - SjqCost(c, R, X) = 0 when sq(c, R) is answerable — sjq(c, R, X) is then
///    the local intersection sq(c, R) ∩ X, free per the paper's cost model —
///    or when a prior sjq(c, R, ·) entry exists (containment derivation on a
///    repeated query); only when the base cost is finite (an unsupported
///    semijoin stays +inf so capability constraints survive re-pricing);
///  - LqCost(R) = 0 when lq(R) is cached.
/// This is what makes FILTER / SJ / SJA / greedy *cache-aware*: on a repeated
/// query the subplans the cache can answer look free, so the optimizer
/// steers the plan through them instead of re-deriving the cold-cache plan.
class CacheAwareCostModel final : public CostModel {
 public:
  /// Both referents must outlive the model.
  CacheAwareCostModel(const CostModel& base, const QueryCacheView& view)
      : base_(base), view_(view) {}

  size_t num_conditions() const override { return base_.num_conditions(); }
  size_t num_sources() const override { return base_.num_sources(); }
  double universe_size() const override { return base_.universe_size(); }

  double SqCost(size_t cond, size_t source) const override {
    if (view_.SqAnswerable(cond, source)) return 0.0;
    return base_.SqCost(cond, source);
  }
  double SjqCost(size_t cond, size_t source,
                 const SetEstimate& x) const override {
    const double cost = base_.SjqCost(cond, source, x);
    if ((view_.SqAnswerable(cond, source) ||
         view_.SjqAnswerable(cond, source)) &&
        cost != std::numeric_limits<double>::infinity()) {
      return 0.0;
    }
    return cost;
  }
  double LqCost(size_t source) const override {
    if (view_.LqCached(source)) return 0.0;
    return base_.LqCost(source);
  }

  SetEstimate SqResult(size_t cond, size_t source) const override {
    return base_.SqResult(cond, source);
  }
  SetEstimate SjqResult(size_t cond, size_t source,
                        const SetEstimate& x) const override {
    return base_.SjqResult(cond, source, x);
  }
  double FetchCost(size_t source, double item_count) const override {
    return base_.FetchCost(source, item_count);
  }

 private:
  const CostModel& base_;
  const QueryCacheView& view_;
};

/// As EstimatePlanCost(plan, model) but pricing cache-answerable calls at
/// zero via CacheAwareCostModel.
Result<PlanCostBreakdown> EstimatePlanCost(const Plan& plan,
                                           const CostModel& model,
                                           const QueryCacheView& view);

}  // namespace fusion

#endif  // FUSION_PLAN_COST_ESTIMATOR_H_
