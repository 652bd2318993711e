#include "exec/parallel_executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "exec/exec_internal.h"
#include "exec/source_health.h"
#include "exec/thread_pool.h"

namespace fusion {
namespace {

using exec_internal::CallContext;
using exec_internal::CallStats;

/// One plan execution scheduled over a worker pool.
///
/// Concurrency design: each op evaluates into op-private state (its own
/// sub-ledger, observation set, stats, degradation slot, and SSA target
/// variable), so workers never write shared locations. The scheduler mutex
/// orders an op's completion before the dispatch of its dependents, which
/// makes the dependents' reads of the op's outputs race-free. All op-private
/// state is merged into the report single-threaded, in plan-op order, after
/// the pool has joined — reproducing the sequential interpreter's ledger
/// charge-for-charge.
class ParallelPlanRun {
 public:
  ParallelPlanRun(const Plan& plan, const SourceCatalog& catalog,
                  const FusionQuery& query, const ExecOptions& options,
                  exec_internal::FaultState* fault, ExecutionReport& report)
      : plan_(plan),
        catalog_(catalog),
        query_(query),
        options_(options),
        fault_(fault),
        report_(report) {
    const size_t num_ops = plan.num_ops();
    const size_t num_vars = plan.vars().size();
    items_.resize(num_vars);
    relations_.resize(num_vars);
    op_ledgers_.resize(num_ops);
    op_stats_.resize(num_ops);
    op_seconds_.assign(num_ops, 0.0);
    op_observed_.assign(num_ops, ItemSet());
    op_emulated_.assign(num_ops, 0);
    op_reasons_.assign(num_ops, "");
    if (options.on_source_failure == SourceFailurePolicy::kDegrade) {
      degradable_ = exec_internal::DegradableOps(plan);
    }
    dependents_.assign(num_ops, {});
    pending_.assign(num_ops, 0);
    BuildDependencies();
  }

  Status Run() {
    const size_t num_ops = plan_.num_ops();
    {
      // Everything ready at the outset (selects and loads with no inputs)
      // is dispatched immediately; the rest unlocks as dependencies finish.
      ThreadPool pool(options_.parallelism);
      std::unique_lock<std::mutex> lock(mu_);
      pool_ = &pool;
      for (size_t k = 0; k < num_ops; ++k) {
        if (pending_[k] == 0) Dispatch(k);
      }
      done_cv_.wait(lock, [&] {
        return finished_ == scheduled_ && (failed_ || finished_ == num_ops);
      });
      pool_ = nullptr;
    }  // pool joins here: every dispatched task has completed
    if (failed_) return error_;

    // Single-threaded merge in plan-op order: the resulting ledger is
    // charge-for-charge (and therefore total-for-total, in floating point)
    // identical to eager sequential execution.
    report_.per_source_items.assign(catalog_.size(), ItemSet());
    report_.per_op_cost.assign(num_ops, 0.0);
    report_.per_op_seconds.assign(num_ops, 0.0);
    report_.per_op_cache.assign(num_ops, '-');
    report_.emulated_semijoins = 0;
    report_.skipped_ops = 0;
    CallStats stats;
    for (size_t k = 0; k < num_ops; ++k) {
      report_.per_op_cost[k] = op_ledgers_[k].total();
      report_.per_op_seconds[k] = op_seconds_[k];
      const CallStats& s = op_stats_[k];
      if (s.cache_misses > s.cache_containment_hits) {
        report_.per_op_cache[k] = 'm';
      } else if (s.cache_containment_hits > 0) {
        report_.per_op_cache[k] = 'c';
      } else if (s.cache_hits > 0) {
        report_.per_op_cache[k] = 'h';
      }
      report_.ledger.MergeFrom(std::move(op_ledgers_[k]));
      stats.MergeFrom(op_stats_[k]);
      report_.emulated_semijoins += op_emulated_[k];
      const PlanOp& op = plan_.ops()[k];
      if (op.source >= 0) {
        // An sq/sjq answer is its SSA target (assigned once, never moved
        // from); an lq's items exist only in op_observed_.
        report_.per_source_items[static_cast<size_t>(op.source)].UnionInPlace(
            op.kind == PlanOpKind::kLoad ? op_observed_[k]
                                         : *items_[op.target]);
      }
    }
    report_.answer = *items_[plan_.result()];
    report_.retries_total = stats.retries;
    report_.cache_hits = stats.cache_hits;
    report_.cache_misses = stats.cache_misses;
    report_.cache_containment_hits = stats.cache_containment_hits;
    report_.breaker_fast_fails = stats.breaker_fast_fails;
    report_.semijoin_probes_skipped = stats.semijoin_probes_skipped;
    exec_internal::BuildCompletenessReport(plan_, op_reasons_,
                                           &report_.completeness);
    return Status::Ok();
  }

 private:
  void BuildDependencies() {
    const size_t num_ops = plan_.num_ops();
    std::vector<int> var_def(plan_.vars().size(), -1);
    std::vector<int> last_on_source;
    for (size_t k = 0; k < num_ops; ++k) {
      const PlanOp& op = plan_.ops()[k];
      std::vector<int> deps;
      if (op.input >= 0) deps.push_back(var_def[op.input]);
      for (int v : op.inputs) deps.push_back(var_def[v]);
      if (op.source >= 0) {
        // Same-source ops serialize in plan order: a source answers one
        // query at a time (the model ComputeResponseTime prices).
        if (static_cast<size_t>(op.source) >= last_on_source.size()) {
          last_on_source.resize(static_cast<size_t>(op.source) + 1, -1);
        }
        int& last = last_on_source[static_cast<size_t>(op.source)];
        if (last >= 0) deps.push_back(last);
        last = static_cast<int>(k);
      }
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      for (int d : deps) {
        dependents_[static_cast<size_t>(d)].push_back(static_cast<int>(k));
        ++pending_[k];
      }
      var_def[op.target] = static_cast<int>(k);
    }
  }

  /// Requires mu_ held.
  void Dispatch(size_t k) {
    ++scheduled_;
    // The pool pointer rides in the task (not read from the member) so the
    // backoff-compensation hook needs no lock in the workers.
    pool_->Submit([this, k, pool = pool_] { RunOp(k, pool); });
  }

  void RunOp(size_t k, ThreadPool* pool) {
    Status status;
    {
      // The plan_op span covers the evaluation *and* the simulated-latency
      // sleep, so traced parallel runs show real wall-clock overlap between
      // ops on distinct worker threads.
      const PlanOp& op = plan_.ops()[k];
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
      const auto op_start = std::chrono::steady_clock::now();
      status = EvalOp(k, pool);
      op_seconds_[k] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - op_start)
                           .count();
      if (status.ok()) {
        span.AddAttr("cost", op_ledgers_[k].total());
        if (!op_reasons_[k].empty()) span.AddAttr("degraded", op_reasons_[k]);
        // The op "takes" as long as it cost (scaled); dependents and the
        // next query to this source wait for completion, so makespans
        // compose.
        exec_internal::SleepForCost(op_ledgers_[k].total(), options_);
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (!status.ok()) {
      if (!failed_) {
        failed_ = true;
        error_ = status;
      }
    } else if (!failed_) {
      for (const int d : dependents_[k]) {
        if (--pending_[static_cast<size_t>(d)] == 0) {
          Dispatch(static_cast<size_t>(d));
        }
      }
    }
    ++finished_;
    done_cv_.notify_all();
  }

  /// The fault-tolerance call context for op k's source interactions.
  CallContext ContextFor(const char* op_name, const SourceWrapper& src,
                         size_t k, int source, CostLedger& ledger,
                         ThreadPool* pool) {
    CallContext ctx;
    ctx.op = op_name;
    ctx.source_name = &src.name();
    ctx.ledger = &ledger;
    ctx.stats = &op_stats_[k];
    ctx.retry = &options_.retry;
    ctx.fault = fault_;
    ctx.health = options_.health;
    ctx.source_index = source;
    ctx.blocking_pool = pool;
    return ctx;
  }

  /// Degraded-mode absorption (op-private: each op writes only its own
  /// reason slot). See PlanInterpreter::HandleSourceFailure.
  Status HandleSourceFailure(size_t k, const PlanOp& op, const Status& status) {
    if (options_.on_source_failure != SourceFailurePolicy::kDegrade ||
        degradable_.empty() || degradable_[k] == 0 ||
        !exec_internal::IsDegradableFailure(status)) {
      return status;
    }
    op_reasons_[k] = status.ToString();
    if (op.kind == PlanOpKind::kLoad) {
      relations_[op.target] = Relation(
          catalog_.source(static_cast<size_t>(op.source)).schema());
    } else {
      items_[op.target] = ItemSet();
    }
    return Status::Ok();
  }

  /// Evaluates one op whose dependencies are complete. Mirrors the eager
  /// branch of the sequential interpreter op-for-op; all writes go to
  /// op-private slots (ledger, observations, the SSA target variable).
  Status EvalOp(size_t k, ThreadPool* pool) {
    const PlanOp& op = plan_.ops()[k];
    CostLedger& ledger = op_ledgers_[k];
    switch (op.kind) {
      case PlanOpKind::kSelect: {
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        const Condition& cond =
            query_.conditions()[static_cast<size_t>(op.cond)];
        Result<ItemSet> result = exec_internal::CachedSelect(
            src, cond, query_.merge_attribute(), options_, ledger,
            ContextFor("sq", src, k, op.source, ledger, pool));
        if (!result.ok()) return HandleSourceFailure(k, op, result.status());
        items_[op.target] = std::move(result).value();
        break;
      }
      case PlanOpKind::kSemiJoin: {
        const ItemSet& candidates = *items_[op.input];
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        const Condition& cond =
            query_.conditions()[static_cast<size_t>(op.cond)];
        bool emulated = false;
        Result<ItemSet> result = exec_internal::CachedSemiJoin(
            src, cond, query_.merge_attribute(), candidates, options_, ledger,
            ContextFor("sjq", src, k, op.source, ledger, pool), &emulated);
        if (!result.ok()) {
          return HandleSourceFailure(k, op, result.status());
        }
        items_[op.target] = std::move(result).value();
        if (emulated) {
          op_emulated_[k] = 1;
          static Counter& counter =
              MetricsRegistry::Global().counter(metrics::kEmulatedSemijoins);
          counter.Increment();
        }
        break;
      }
      case PlanOpKind::kLoad: {
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        Result<Relation> loaded = exec_internal::CachedLoad(
            src, options_, ledger,
            ContextFor("lq", src, k, op.source, ledger, pool));
        if (!loaded.ok()) return HandleSourceFailure(k, op, loaded.status());
        FUSION_ASSIGN_OR_RETURN(
            ItemSet all_items,
            loaded->SelectItems(Condition::True(), query_.merge_attribute()));
        op_observed_[k] = std::move(all_items);
        relations_[op.target] = std::move(loaded).value();
        break;
      }
      case PlanOpKind::kLocalSelect: {
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
        items_[op.target] = exec_internal::UnionOfVars(op.inputs, items_);
        break;
      }
      case PlanOpKind::kIntersect: {
        std::optional<ItemSet> acc;
        for (int v : op.inputs) {
          acc = acc.has_value() ? ItemSet::Intersect(*acc, *items_[v])
                                : *items_[v];
        }
        items_[op.target] = std::move(*acc);
        break;
      }
      case PlanOpKind::kDifference: {
        items_[op.target] = ItemSet::Difference(*items_[op.inputs[0]],
                                                *items_[op.inputs[1]]);
        break;
      }
    }
    return Status::Ok();
  }

  const Plan& plan_;
  const SourceCatalog& catalog_;
  const FusionQuery& query_;
  const ExecOptions& options_;
  exec_internal::FaultState* fault_;
  ExecutionReport& report_;

  // Dependency DAG (immutable after construction).
  std::vector<std::vector<int>> dependents_;
  std::vector<char> degradable_;  // empty unless on_source_failure=kDegrade

  // Op-private result slots; written by exactly one worker each.
  std::vector<std::optional<ItemSet>> items_;        // per SSA variable
  std::vector<std::optional<Relation>> relations_;   // per SSA variable
  std::vector<CostLedger> op_ledgers_;
  std::vector<CallStats> op_stats_;
  std::vector<double> op_seconds_;
  std::vector<ItemSet> op_observed_;  // lq ops only: the loaded items
  std::vector<char> op_emulated_;
  std::vector<std::string> op_reasons_;  // non-empty iff op ∅-substituted

  // Scheduler state, guarded by mu_.
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<int> pending_;  // unmet dependency counts
  ThreadPool* pool_ = nullptr;
  size_t scheduled_ = 0;
  size_t finished_ = 0;
  bool failed_ = false;
  Status error_;
};

}  // namespace

Status ExecutePlanParallel(const Plan& plan, const SourceCatalog& catalog,
                           const FusionQuery& query, const ExecOptions& options,
                           exec_internal::FaultState* fault,
                           ExecutionReport& report) {
  ParallelPlanRun run(plan, catalog, query, options, fault, report);
  return run.Run();
}

}  // namespace fusion
