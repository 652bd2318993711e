#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "exec/exec_internal.h"
#include "exec/parallel_executor.h"
#include "exec/source_health.h"

namespace fusion {
namespace {

using exec_internal::CallContext;
using exec_internal::CallStats;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash. Used for retry
/// jitter so the schedule is a pure function of (seed, source, attempt) —
/// no RNG stream, hence no dependence on thread interleaving.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double RetryPolicy::BackoffSeconds(size_t source_index, int attempt) const {
  if (attempt < 1 || initial_backoff_seconds <= 0.0) return 0.0;
  double backoff = initial_backoff_seconds;
  for (int i = 1; i < attempt; ++i) backoff *= backoff_multiplier;
  if (max_backoff_seconds > 0.0 && backoff > max_backoff_seconds) {
    backoff = max_backoff_seconds;
  }
  if (jitter_fraction > 0.0) {
    uint64_t h = SplitMix64(jitter_seed);
    h = SplitMix64(h ^ static_cast<uint64_t>(source_index));
    h = SplitMix64(h ^ static_cast<uint64_t>(attempt));
    // Top 53 bits → uniform in [0, 1), then map into the symmetric band
    // [1 - jitter, 1 + jitter).
    const double unit =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    backoff *= 1.0 - jitter_fraction + 2.0 * jitter_fraction * unit;
  }
  return backoff;
}

std::vector<int> CompletenessReport::ExcludedSources(int condition) const {
  std::vector<int> sources;
  for (const SourceExclusion& e : excluded) {
    if (e.condition != condition) continue;
    if (std::find(sources.begin(), sources.end(), e.source) == sources.end()) {
      sources.push_back(e.source);
    }
  }
  return sources;
}

std::string CompletenessReport::ToString(
    const std::vector<std::string>& condition_names,
    const std::vector<std::string>& source_names) const {
  if (answer_complete) return "complete answer (no sources excluded)";
  auto cond_text = [&](int c) {
    if (c < 0) return std::string("whole query");
    if (static_cast<size_t>(c) < condition_names.size()) {
      return condition_names[static_cast<size_t>(c)];
    }
    return "c" + std::to_string(c + 1);
  };
  auto source_text = [&](int s) {
    if (s >= 0 && static_cast<size_t>(s) < source_names.size()) {
      return source_names[static_cast<size_t>(s)];
    }
    return "R" + std::to_string(s + 1);
  };
  std::string out =
      "partial answer (sound: every returned item satisfies the query at "
      "some responding source)\n";
  for (const SourceExclusion& e : excluded) {
    out += "  excluded " + source_text(e.source) + " from " +
           cond_text(e.condition) + ": " + e.reason + "\n";
  }
  return out;
}

Status ValidateExecOptions(const ExecOptions& options) {
  const RetryPolicy& retry = options.retry;
  if (retry.max_attempts < 1) {
    return Status::InvalidArgument(
        "retry.max_attempts must be >= 1, got " +
        std::to_string(retry.max_attempts));
  }
  if (retry.initial_backoff_seconds < 0.0) {
    return Status::InvalidArgument("retry.initial_backoff_seconds < 0");
  }
  if (retry.backoff_multiplier < 1.0) {
    return Status::InvalidArgument("retry.backoff_multiplier must be >= 1");
  }
  if (retry.max_backoff_seconds < 0.0) {
    return Status::InvalidArgument("retry.max_backoff_seconds < 0");
  }
  if (retry.jitter_fraction < 0.0 || retry.jitter_fraction >= 1.0) {
    return Status::InvalidArgument(
        "retry.jitter_fraction must be in [0, 1)");
  }
  if (retry.call_timeout_seconds < 0.0) {
    return Status::InvalidArgument("retry.call_timeout_seconds < 0");
  }
  if (options.deadline_seconds < 0.0) {
    return Status::InvalidArgument("deadline_seconds < 0");
  }
  if (options.cost_budget < 0.0) {
    return Status::InvalidArgument("cost_budget < 0");
  }
  if (options.parallelism < 1) {
    return Status::InvalidArgument("parallelism must be >= 1, got " +
                                   std::to_string(options.parallelism));
  }
  if (options.simulated_seconds_per_cost < 0.0) {
    return Status::InvalidArgument("simulated_seconds_per_cost < 0");
  }
  return Status::Ok();
}

namespace {

/// Shared interpreter for eager and lazy execution. In lazy mode, variables
/// are evaluated on demand starting from the plan result, and empty
/// accumulators cut off remaining operand subtrees.
class PlanInterpreter {
 public:
  PlanInterpreter(const Plan& plan, const SourceCatalog& catalog,
                  const FusionQuery& query, const ExecOptions& options,
                  exec_internal::FaultState* fault, ExecutionReport& report)
      : plan_(plan),
        catalog_(catalog),
        query_(query),
        options_(options),
        fault_(fault),
        report_(report) {
    report_.per_source_items.assign(catalog.size(), ItemSet());
    report_.per_op_cost.assign(plan.num_ops(), 0.0);
    report_.per_op_seconds.assign(plan.num_ops(), 0.0);
    report_.per_op_cache.assign(plan.num_ops(), '-');
    items_.resize(plan.vars().size());
    relations_.resize(plan.vars().size());
    defining_op_.assign(plan.vars().size(), -1);
    for (size_t k = 0; k < plan.ops().size(); ++k) {
      defining_op_[static_cast<size_t>(plan.ops()[k].target)] =
          static_cast<int>(k);
    }
    reasons_.assign(plan.num_ops(), "");
    if (options.on_source_failure == SourceFailurePolicy::kDegrade) {
      degradable_ = exec_internal::DegradableOps(plan);
    }
  }

  Status RunEager() {
    for (size_t k = 0; k < plan_.ops().size(); ++k) {
      FUSION_RETURN_IF_ERROR(EvalOp(k, /*lazy=*/false));
    }
    report_.answer = *items_[plan_.result()];
    ExportStats();
    return Status::Ok();
  }

  Status RunLazy() {
    FUSION_RETURN_IF_ERROR(EvalVar(plan_.result(), /*lazy=*/true));
    report_.answer = *items_[plan_.result()];
    // Everything never demanded counts as skipped, plus ops that were
    // answered locally without their source call.
    report_.skipped_ops = short_circuited_;
    for (size_t k = 0; k < plan_.ops().size(); ++k) {
      const int target = plan_.ops()[k].target;
      if (!items_[target].has_value() && !relations_[target].has_value()) {
        ++report_.skipped_ops;
      }
    }
    ExportStats();
    return Status::Ok();
  }

 private:
  void ExportStats() {
    report_.retries_total = stats_.retries;
    report_.cache_hits = stats_.cache_hits;
    report_.cache_misses = stats_.cache_misses;
    report_.cache_containment_hits = stats_.cache_containment_hits;
    report_.breaker_fast_fails = stats_.breaker_fast_fails;
    report_.semijoin_probes_skipped = stats_.semijoin_probes_skipped;
    exec_internal::BuildCompletenessReport(plan_, reasons_,
                                           &report_.completeness);
  }

  /// The fault-tolerance call context for op k's source interactions.
  /// CachedSelect / EmulateSemiJoin override op/source_name/ledger.
  CallContext ContextFor(const char* op_name, const SourceWrapper& src,
                         int source) {
    CallContext ctx;
    ctx.op = op_name;
    ctx.source_name = &src.name();
    ctx.ledger = &report_.ledger;
    ctx.stats = &stats_;
    ctx.retry = &options_.retry;
    ctx.fault = fault_;
    ctx.health = options_.health;
    ctx.source_index = source;
    return ctx;
  }

  /// Degraded-mode absorption of an exhausted source call: substitutes ∅
  /// (or an empty relation) for op k and records the exclusion when that is
  /// provably sound; otherwise returns `status`, failing the query.
  Status HandleSourceFailure(size_t k, const PlanOp& op, const Status& status) {
    if (options_.on_source_failure != SourceFailurePolicy::kDegrade ||
        degradable_.empty() || degradable_[k] == 0 ||
        !exec_internal::IsDegradableFailure(status)) {
      return status;
    }
    reasons_[k] = status.ToString();
    if (op.kind == PlanOpKind::kLoad) {
      relations_[op.target] = Relation(
          catalog_.source(static_cast<size_t>(op.source)).schema());
    } else {
      items_[op.target] = ItemSet();
    }
    return Status::Ok();
  }

  /// Ensures the op defining `var` has run (recursively, in lazy mode).
  Status EvalVar(int var, bool lazy) {
    if (items_[var].has_value() || relations_[var].has_value()) {
      return Status::Ok();
    }
    return EvalOp(static_cast<size_t>(defining_op_[var]), lazy);
  }

  Status EvalOp(size_t k, bool lazy) {
    const PlanOp& op = plan_.ops()[k];
    if (items_[op.target].has_value() || relations_[op.target].has_value()) {
      return Status::Ok();
    }
    ScopedSpan span(SpanCategory::kPlanOp, PlanOpKindName(op.kind));
    if (span.active()) {
      span.AddAttr("op", static_cast<int64_t>(k));
      span.AddAttr("target", plan_.var(op.target).name);
      if (op.source >= 0) {
        span.AddAttr("source",
                     catalog_.source(static_cast<size_t>(op.source)).name());
      }
      if (op.cond >= 0) span.AddAttr("cond", static_cast<int64_t>(op.cond));
    }
    // Attribute only this op's direct charges: nested evaluations (lazy
    // mode) book their own costs, which `attributed_` subtracts out. Time
    // and cache interactions use the same subtraction so EXPLAIN's per-op
    // annotations stay child-exclusive too.
    const double unattributed_before = report_.ledger.total() - attributed_;
    const double attr_secs_before = attributed_seconds_;
    const size_t hits_before = stats_.cache_hits;
    const size_t misses_before = stats_.cache_misses;
    const size_t containment_before = stats_.cache_containment_hits;
    const size_t attr_hits_before = attributed_hits_;
    const size_t attr_misses_before = attributed_misses_;
    const size_t attr_containment_before = attributed_containment_;
    const auto op_start = std::chrono::steady_clock::now();
    FUSION_RETURN_IF_ERROR(EvalOpBody(k, op, lazy));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      op_start)
            .count();
    report_.per_op_seconds[k] =
        elapsed - (attributed_seconds_ - attr_secs_before);
    attributed_seconds_ = attr_secs_before + elapsed;
    const size_t own_hits = (stats_.cache_hits - hits_before) -
                            (attributed_hits_ - attr_hits_before);
    const size_t own_misses = (stats_.cache_misses - misses_before) -
                              (attributed_misses_ - attr_misses_before);
    const size_t own_containment =
        (stats_.cache_containment_hits - containment_before) -
        (attributed_containment_ - attr_containment_before);
    attributed_hits_ = attr_hits_before + (stats_.cache_hits - hits_before);
    attributed_misses_ =
        attr_misses_before + (stats_.cache_misses - misses_before);
    attributed_containment_ =
        attr_containment_before +
        (stats_.cache_containment_hits - containment_before);
    // Containment hits are double-counted inside misses (the exact key did
    // miss), so a "real" miss is a miss beyond the containment count.
    if (own_misses > own_containment) {
      report_.per_op_cache[k] = 'm';
    } else if (own_containment > 0) {
      report_.per_op_cache[k] = 'c';
    } else if (own_hits > 0) {
      report_.per_op_cache[k] = 'h';
    }
    const double own_cost =
        (report_.ledger.total() - attributed_) - unattributed_before;
    report_.per_op_cost[k] = own_cost;
    attributed_ += own_cost;
    span.AddAttr("cost", own_cost);
    if (!reasons_[k].empty()) span.AddAttr("degraded", reasons_[k]);
    exec_internal::SleepForCost(own_cost, options_);
    return Status::Ok();
  }

  Status EvalOpBody(size_t k, const PlanOp& op, bool lazy) {
    switch (op.kind) {
      case PlanOpKind::kSelect: {
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        const Condition& cond =
            query_.conditions()[static_cast<size_t>(op.cond)];
        // Cache consultation, single-flight dedup, retries, and memo
        // publication all live in CachedSelect (shared with the parallel
        // executor). Cache hits charge nothing; witness knowledge stays
        // valid either way.
        Result<ItemSet> result = exec_internal::CachedSelect(
            src, cond, query_.merge_attribute(), options_, report_.ledger,
            ContextFor("sq", src, op.source));
        if (!result.ok()) return HandleSourceFailure(k, op, result.status());
        Observe(op.source, *result);
        items_[op.target] = std::move(result).value();
        break;
      }
      case PlanOpKind::kSemiJoin: {
        if (lazy) FUSION_RETURN_IF_ERROR(EvalVar(op.input, lazy));
        const ItemSet& candidates = *items_[op.input];
        if (lazy && candidates.empty()) {
          items_[op.target] = ItemSet();  // ∅ semijoin needs no source call
          ++short_circuited_;
          break;
        }
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        const Condition& cond =
            query_.conditions()[static_cast<size_t>(op.cond)];
        // Cache lookup (exact or containment-derived), capability dispatch
        // (native / emulated / unsupported), and memo publication all live
        // in CachedSemiJoin (shared with the parallel executor).
        bool emulated = false;
        Result<ItemSet> result = exec_internal::CachedSemiJoin(
            src, cond, query_.merge_attribute(), candidates, options_,
            report_.ledger, ContextFor("sjq", src, op.source), &emulated);
        if (!result.ok()) {
          return HandleSourceFailure(k, op, result.status());
        }
        Observe(op.source, *result);
        items_[op.target] = std::move(result).value();
        if (emulated) {
          ++report_.emulated_semijoins;
          static Counter& counter =
              MetricsRegistry::Global().counter(metrics::kEmulatedSemijoins);
          counter.Increment();
        }
        break;
      }
      case PlanOpKind::kLoad: {
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        Result<Relation> loaded = exec_internal::CachedLoad(
            src, options_, report_.ledger, ContextFor("lq", src, op.source));
        if (!loaded.ok()) return HandleSourceFailure(k, op, loaded.status());
        FUSION_ASSIGN_OR_RETURN(
            ItemSet all_items,
            loaded->SelectItems(Condition::True(), query_.merge_attribute()));
        Observe(op.source, all_items);
        relations_[op.target] = std::move(loaded).value();
        break;
      }
      case PlanOpKind::kLocalSelect: {
        if (lazy) FUSION_RETURN_IF_ERROR(EvalVar(op.input, lazy));
        if (!relations_[op.input].has_value()) {
          return Status::Internal("local select over unloaded relation var");
        }
        FUSION_ASSIGN_OR_RETURN(
            ItemSet result,
            relations_[op.input]->SelectItems(
                query_.conditions()[static_cast<size_t>(op.cond)],
                query_.merge_attribute()));
        items_[op.target] = std::move(result);
        break;
      }
      case PlanOpKind::kUnion: {
        if (lazy) {
          for (int v : op.inputs) FUSION_RETURN_IF_ERROR(EvalVar(v, lazy));
        }
        items_[op.target] = exec_internal::UnionOfVars(op.inputs, items_);
        break;
      }
      case PlanOpKind::kIntersect: {
        std::optional<ItemSet> acc;
        for (int v : op.inputs) {
          if (lazy && acc.has_value() && acc->empty()) {
            break;  // sound cut: ∅ ∩ anything = ∅; skip remaining subtrees
          }
          if (lazy) FUSION_RETURN_IF_ERROR(EvalVar(v, lazy));
          acc = acc.has_value() ? ItemSet::Intersect(*acc, *items_[v])
                                : *items_[v];
        }
        items_[op.target] = std::move(*acc);
        break;
      }
      case PlanOpKind::kDifference: {
        if (lazy) FUSION_RETURN_IF_ERROR(EvalVar(op.inputs[0], lazy));
        const ItemSet& lhs = *items_[op.inputs[0]];
        if (lazy && lhs.empty()) {
          items_[op.target] = ItemSet();  // ∅ − X = ∅; skip rhs subtree
          break;
        }
        if (lazy) FUSION_RETURN_IF_ERROR(EvalVar(op.inputs[1], lazy));
        items_[op.target] = ItemSet::Difference(lhs, *items_[op.inputs[1]]);
        break;
      }
    }
    return Status::Ok();
  }

  void Observe(int source, const ItemSet& received) {
    report_.per_source_items[static_cast<size_t>(source)].UnionInPlace(
        received);
  }

  const Plan& plan_;
  const SourceCatalog& catalog_;
  const FusionQuery& query_;
  const ExecOptions& options_;
  exec_internal::FaultState* fault_;
  ExecutionReport& report_;
  std::vector<std::optional<ItemSet>> items_;
  std::vector<std::optional<Relation>> relations_;
  std::vector<int> defining_op_;
  size_t short_circuited_ = 0;
  double attributed_ = 0.0;  // ledger cost already assigned to some op
  // Per-op attribution state for EXPLAIN: elapsed time and cache
  // interactions already assigned to some (nested) op.
  double attributed_seconds_ = 0.0;
  size_t attributed_hits_ = 0;
  size_t attributed_misses_ = 0;
  size_t attributed_containment_ = 0;
  CallStats stats_;  // per-execution retry/cache/breaker counters
  std::vector<char> degradable_;     // empty unless on_source_failure=kDegrade
  std::vector<std::string> reasons_;  // non-empty iff op was ∅-substituted
};

}  // namespace

Result<ExecutionReport> ExecutePlan(const Plan& plan,
                                    const SourceCatalog& catalog,
                                    const FusionQuery& query,
                                    const ExecOptions& options) {
  FUSION_RETURN_IF_ERROR(ValidateExecOptions(options));
  FUSION_RETURN_IF_ERROR(plan.Validate(query.num_conditions(), catalog.size()));
  ExecutionReport report;
  Tracer& tracer = Tracer::Global();
  report.trace.enabled = tracer.enabled();
  report.trace.start_us = tracer.NowMicros();
  const auto start = std::chrono::steady_clock::now();
  // One fault state per execution: the deadline clock starts here, and the
  // cost budget covers every ledger (all ops, failed attempts included).
  exec_internal::FaultState fault(options);
  if (options.parallelism > 1 && !options.lazy_short_circuit) {
    FUSION_RETURN_IF_ERROR(
        ExecutePlanParallel(plan, catalog, query, options, &fault, report));
  } else {
    // parallelism == 1, or lazy mode: demand-driven evaluation is
    // inherently serial (its payoff is skipping work, not overlapping it).
    PlanInterpreter interpreter(plan, catalog, query, options, &fault, report);
    FUSION_RETURN_IF_ERROR(options.lazy_short_circuit ? interpreter.RunLazy()
                                                      : interpreter.RunEager());
  }
  report.wall_clock_makespan =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.trace.end_us = tracer.NowMicros();
  return report;
}

Result<ExecutionReport> ExecutePlan(const Plan& plan,
                                    const SourceCatalog& catalog,
                                    const FusionQuery& query) {
  return ExecutePlan(plan, catalog, query, ExecOptions{});
}

}  // namespace fusion
