#include "plan/cost_estimator.h"

namespace fusion {

Result<PlanCostBreakdown> EstimatePlanCost(const Plan& plan,
                                           const CostModel& model) {
  FUSION_RETURN_IF_ERROR(
      plan.Validate(model.num_conditions(), model.num_sources()));
  PlanCostBreakdown out;
  out.per_op.reserve(plan.num_ops());

  std::vector<SetEstimate> var_est(plan.vars().size());
  // For relation vars: which source was loaded (enables local selects to use
  // the model's per-source result estimates).
  std::vector<int> var_source(plan.vars().size(), -1);

  for (const PlanOp& op : plan.ops()) {
    double op_cost = 0.0;
    switch (op.kind) {
      case PlanOpKind::kSelect:
        op_cost = model.SqCost(static_cast<size_t>(op.cond),
                               static_cast<size_t>(op.source));
        var_est[op.target] = model.SqResult(static_cast<size_t>(op.cond),
                                            static_cast<size_t>(op.source));
        break;
      case PlanOpKind::kSemiJoin:
        op_cost = model.SjqCost(static_cast<size_t>(op.cond),
                                static_cast<size_t>(op.source),
                                var_est[op.input]);
        var_est[op.target] = model.SjqResult(static_cast<size_t>(op.cond),
                                             static_cast<size_t>(op.source),
                                             var_est[op.input]);
        break;
      case PlanOpKind::kLoad:
        op_cost = model.LqCost(static_cast<size_t>(op.source));
        var_source[op.target] = op.source;
        break;
      case PlanOpKind::kLocalSelect: {
        // Free: the relation is already at the mediator. The result is the
        // same set sq would have returned from that source.
        const int src = var_source[op.input];
        if (src < 0) {
          return Status::InvalidArgument(
              "local select over a var that is not a loaded relation");
        }
        var_est[op.target] = model.SqResult(static_cast<size_t>(op.cond),
                                            static_cast<size_t>(src));
        break;
      }
      case PlanOpKind::kUnion: {
        SetEstimate acc = var_est[op.inputs[0]];
        for (size_t i = 1; i < op.inputs.size(); ++i) {
          acc = UnionEstimate(acc, var_est[op.inputs[i]],
                              model.universe_size());
        }
        var_est[op.target] = std::move(acc);
        break;
      }
      case PlanOpKind::kIntersect: {
        SetEstimate acc = var_est[op.inputs[0]];
        for (size_t i = 1; i < op.inputs.size(); ++i) {
          acc = IntersectEstimate(acc, var_est[op.inputs[i]],
                                  model.universe_size());
        }
        var_est[op.target] = std::move(acc);
        break;
      }
      case PlanOpKind::kDifference:
        var_est[op.target] =
            DifferenceEstimate(var_est[op.inputs[0]], var_est[op.inputs[1]],
                               model.universe_size());
        break;
    }
    out.per_op.push_back(op_cost);
    out.total += op_cost;
  }
  out.result = var_est[plan.result()];
  return out;
}

bool QueryCacheView::AnySet() const {
  for (const std::vector<char>& row : sq_answerable) {
    for (const char v : row) {
      if (v != 0) return true;
    }
  }
  for (const std::vector<char>& row : sjq_answerable) {
    for (const char v : row) {
      if (v != 0) return true;
    }
  }
  for (const char v : lq_cached) {
    if (v != 0) return true;
  }
  return false;
}

Result<PlanCostBreakdown> EstimatePlanCost(const Plan& plan,
                                           const CostModel& model,
                                           const QueryCacheView& view) {
  const CacheAwareCostModel cached(model, view);
  return EstimatePlanCost(plan, cached);
}

}  // namespace fusion
