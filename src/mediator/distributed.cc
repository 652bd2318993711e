#include "mediator/distributed.h"

#include <optional>
#include <string>
#include <utility>

#include "exec/exec_internal.h"
#include "obs/metrics.h"

namespace fusion {
namespace {

using exec_internal::CallContext;
using exec_internal::CallStats;

/// The distributed runner deliberately supports only the strict eager
/// interpreter profile: that is the mode whose answer and ledger are
/// provably byte-identical across any shard assignment, which is what the
/// fleet's differential oracle checks.
Status ValidateDistributedOptions(const ExecOptions& options) {
  FUSION_RETURN_IF_ERROR(ValidateExecOptions(options));
  if (options.parallelism != 1) {
    return Status::InvalidArgument(
        "distributed execution requires parallelism == 1 (each shard "
        "already overlaps with the others)");
  }
  if (options.lazy_short_circuit) {
    return Status::InvalidArgument(
        "distributed execution is eager: lazy short-circuiting would make "
        "shard ledgers depend on shipping order");
  }
  if (options.on_source_failure != SourceFailurePolicy::kFail) {
    return Status::InvalidArgument(
        "distributed execution does not support degraded answers; route "
        "degradable queries to a single shard");
  }
  return Status::Ok();
}

}  // namespace

Result<DistributedReport> ExecutePlanDistributed(
    const Plan& plan, const FusionQuery& query, const PlanSplit& split,
    const std::vector<ShardExecutor>& shards, const ExecOptions& options) {
  FUSION_RETURN_IF_ERROR(ValidateDistributedOptions(options));
  if (shards.empty()) {
    return Status::InvalidArgument("distributed execution needs >= 1 shard");
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].catalog == nullptr) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " has no catalog replica");
    }
  }
  if (split.op_shard.size() != plan.ops().size()) {
    return Status::InvalidArgument(
        "plan split covers " + std::to_string(split.op_shard.size()) +
        " ops but the plan has " + std::to_string(plan.ops().size()));
  }
  for (const size_t shard : split.op_shard) {
    if (shard >= shards.size()) {
      return Status::InvalidArgument(
          "plan split assigns shard " + std::to_string(shard) +
          " but the fleet has " + std::to_string(shards.size()));
    }
  }

  DistributedReport report;
  report.per_shard_ops.assign(shards.size(), 0);
  CallStats stats;
  exec_internal::FaultState fault(options);

  // SSA variable slots, exactly like the serial interpreter. Conceptually
  // `items_` is partitioned across shards with cut variables shipped at
  // fragment boundaries; because the fleet here runs in one process, the
  // shipping shows up only in the cut-edge accounting below.
  std::vector<std::optional<ItemSet>> items(plan.vars().size());
  std::vector<std::optional<Relation>> relations(plan.vars().size());

  for (size_t k = 0; k < plan.ops().size(); ++k) {
    const PlanOp& op = plan.ops()[k];
    const size_t shard_index = split.op_shard[k];
    const ShardExecutor& shard = shards[shard_index];
    ++report.per_shard_ops[shard_index];

    // Each op charges through its executing shard's memo, so a warm shard
    // answers its fragment for free while a cold one pays full price.
    ExecOptions shard_options = options;
    shard_options.cache = shard.cache;

    auto context_for = [&](const char* op_name,
                           const SourceWrapper& src) {
      CallContext ctx;
      ctx.op = op_name;
      ctx.source_name = &src.name();
      ctx.ledger = &report.ledger;
      ctx.stats = &stats;
      ctx.retry = &shard_options.retry;
      ctx.fault = &fault;
      ctx.health = shard_options.health;
      ctx.source_index = op.source;
      return ctx;
    };

    const double cost_before = report.ledger.total();
    switch (op.kind) {
      case PlanOpKind::kSelect: {
        SourceWrapper& src =
            shard.catalog->source(static_cast<size_t>(op.source));
        const Condition& cond =
            query.conditions()[static_cast<size_t>(op.cond)];
        FUSION_ASSIGN_OR_RETURN(
            ItemSet result,
            exec_internal::CachedSelect(src, cond, query.merge_attribute(),
                                        shard_options, report.ledger,
                                        context_for("sq", src)));
        items[op.target] = std::move(result);
        break;
      }
      case PlanOpKind::kSemiJoin: {
        const ItemSet& candidates = *items[op.input];
        SourceWrapper& src =
            shard.catalog->source(static_cast<size_t>(op.source));
        const Condition& cond =
            query.conditions()[static_cast<size_t>(op.cond)];
        bool emulated = false;
        FUSION_ASSIGN_OR_RETURN(
            ItemSet result,
            exec_internal::CachedSemiJoin(
                src, cond, query.merge_attribute(), candidates, shard_options,
                report.ledger, context_for("sjq", src), &emulated));
        items[op.target] = std::move(result);
        if (emulated) {
          ++report.emulated_semijoins;
          static Counter& counter =
              MetricsRegistry::Global().counter(metrics::kEmulatedSemijoins);
          counter.Increment();
        }
        break;
      }
      case PlanOpKind::kLoad: {
        SourceWrapper& src =
            shard.catalog->source(static_cast<size_t>(op.source));
        FUSION_ASSIGN_OR_RETURN(
            Relation loaded,
            exec_internal::CachedLoad(src, shard_options, report.ledger,
                                      context_for("lq", src)));
        relations[op.target] = std::move(loaded);
        break;
      }
      case PlanOpKind::kLocalSelect: {
        if (!relations[op.input].has_value()) {
          return Status::Internal("local select over unloaded relation var");
        }
        FUSION_ASSIGN_OR_RETURN(
            ItemSet result,
            relations[op.input]->SelectItems(
                query.conditions()[static_cast<size_t>(op.cond)],
                query.merge_attribute()));
        items[op.target] = std::move(result);
        break;
      }
      case PlanOpKind::kUnion: {
        items[op.target] = exec_internal::UnionOfVars(op.inputs, items);
        break;
      }
      case PlanOpKind::kIntersect: {
        std::optional<ItemSet> acc;
        for (const int v : op.inputs) {
          acc = acc.has_value() ? ItemSet::Intersect(*acc, *items[v])
                                : *items[v];
        }
        items[op.target] = std::move(*acc);
        break;
      }
      case PlanOpKind::kDifference: {
        items[op.target] = ItemSet::Difference(*items[op.inputs[0]],
                                               *items[op.inputs[1]]);
        break;
      }
    }
    exec_internal::SleepForCost(report.ledger.total() - cost_before,
                                shard_options);
  }

  // Inter-shard traffic: every cut variable crossed the wire once per
  // consuming shard, carrying its merge-attribute item set.
  for (const PlanCutEdge& edge : split.cut_edges) {
    ++report.cross_shard_vars;
    if (items[edge.var].has_value()) {
      report.cross_shard_items += items[edge.var]->size();
    }
  }

  report.answer = *items[plan.result()];
  report.cache_hits = stats.cache_hits;
  report.cache_misses = stats.cache_misses;
  report.cache_containment_hits = stats.cache_containment_hits;
  report.retries_total = stats.retries;
  return report;
}

}  // namespace fusion
