#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "exec/exec_internal.h"
#include "exec/thread_pool.h"

namespace fusion {

double RetryPolicy::BackoffSeconds(int attempt) const {
  if (attempt < 1 || initial_backoff_seconds <= 0.0) return 0.0;
  double backoff = initial_backoff_seconds;
  for (int i = 1; i < attempt; ++i) backoff *= backoff_multiplier;
  if (max_backoff_seconds > 0.0 && backoff > max_backoff_seconds) {
    backoff = max_backoff_seconds;
  }
  return backoff;
}

void RetryPolicy::Backoff(int attempt) const {
  const double seconds = BackoffSeconds(attempt);
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

std::vector<ItemSet> ExecutionReport::WitnessSets() const {
  std::vector<ItemSet> witnesses;
  witnesses.reserve(source_answers.size());
  std::vector<const ItemSet*> sets;
  for (const std::vector<SourceAnswer>& answers : source_answers) {
    sets.clear();
    for (const SourceAnswer& a : answers) sets.push_back(&a.items);
    witnesses.push_back(ItemSet::UnionAll(sets));
  }
  return witnesses;
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
  if (retry.call_timeout_seconds < 0.0) {
    return Status::InvalidArgument("retry.call_timeout_seconds < 0");
  }
  if (options.deadline_seconds < 0.0) {
    return Status::InvalidArgument("deadline_seconds < 0");
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

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One plan execution: a single op evaluator plus the three schedulers that
/// drive it.
///
/// Each op evaluates into its own slot (sub-ledger, call stats, stopwatch,
/// lq observation, emulated flag, degradation reason) and its SSA target
/// variable, so per-op cost, time and cache provenance are exclusive by
/// construction and concurrent workers never write a shared location.
/// Finalize merges the slots into the report in the order the scheduler
/// completed them: plan order for the serial and pool schedulers, demand
/// completion order for the lazy one. Every op books its own charges after
/// its demands have completed, so either way the merged ledger is
/// charge-for-charge the sequence of calls the sources saw.
class PlanRun {
 public:
  PlanRun(const Plan& plan, const SourceCatalog& catalog,
          const FusionQuery& query, const ExecOptions& options,
          exec_internal::FaultState* fault)
      : plan_(plan),
        catalog_(catalog),
        query_(query),
        options_(options),
        fault_(fault),
        slots_(plan.num_ops()),
        items_(plan.vars().size()),
        relations_(plan.vars().size()),
        defining_op_(plan.vars().size(), 0) {
    for (size_t k = 0; k < plan.num_ops(); ++k) {
      defining_op_[static_cast<size_t>(plan.ops()[k].target)] = k;
    }
    // Every sq/sjq op on a condition shares its cache key, so each key is
    // rendered once per execution rather than once per op.
    if (options.cache != nullptr) {
      cache_keys_.reserve(query.num_conditions());
      for (const Condition& cond : query.conditions()) {
        cache_keys_.push_back(cond.CacheKey());
      }
    }
    if (options.on_source_failure == SourceFailurePolicy::kDegrade) {
      degradable_ = exec_internal::DegradableOps(plan);
    }
    order_.reserve(plan.num_ops());
  }

  /// Serial scheduler (the serving path): every op in plan order.
  Status RunSerial() {
    for (size_t k = 0; k < plan_.num_ops(); ++k) {
      FUSION_RETURN_IF_ERROR(Eval(k, nullptr));
      order_.push_back(k);
    }
    return Status::Ok();
  }

  /// Lazy scheduler: demand-driven recursion from the plan result. Ops no
  /// demand reaches are never evaluated.
  Status RunLazy() {
    lazy_ = true;
    return Demand(plan_.result());
  }

  /// Thread-pool scheduler: walks the op dependency DAG, overlapping
  /// data-independent ops. Same-source ops serialize in plan order (a source
  /// answers one query at a time — the model ComputeResponseTime prices, and
  /// what keeps per-source wrapper state deterministic).
  Status RunPool();

  void Finalize(ExecutionReport& report);

 private:
  /// Op-private evaluation state; written only by the op's own evaluation.
  struct OpSlot {
    CostLedger ledger;
    exec_internal::CallStats stats;
    /// Exclusive wall clock: evaluation plus simulated latency, minus any
    /// time spent in lazily demanded ops.
    double seconds = 0.0;
    ItemSet observed;  // lq only: the loaded relation's items
    bool emulated = false;
    std::string degraded;  // non-empty iff the op was ∅-substituted
  };

  bool Defined(int var) const {
    return items_[static_cast<size_t>(var)].has_value() ||
           relations_[static_cast<size_t>(var)].has_value();
  }

  /// Evaluates the op defining `var` (lazy scheduler).
  Status Demand(int var) {
    const size_t k = defining_op_[static_cast<size_t>(var)];
    FUSION_RETURN_IF_ERROR(Eval(k, nullptr));
    order_.push_back(k);
    return Status::Ok();
  }

  /// The evaluator's demand hook: makes `var` available to the op owning
  /// `slot`. Under the serial and pool schedulers every input is already
  /// evaluated, so this is a no-op; under the lazy scheduler it evaluates
  /// the defining op, with the demanding op's stopwatch stopped meanwhile.
  Status Need(OpSlot& slot, int var) {
    if (Defined(var)) return Status::Ok();
    const Clock::time_point start = Clock::now();
    const Status status = Demand(var);
    slot.seconds -= SecondsSince(start);
    return status;
  }

  /// The one op evaluator. `pool` is the scheduler's thread pool (null when
  /// serial), so retry backoff sleeps release their worker slot.
  Status Eval(size_t k, ThreadPool* pool) {
    const PlanOp& op = plan_.ops()[k];
    OpSlot& slot = slots_[k];
    // The plan_op span covers the evaluation *and* the simulated-latency
    // sleep, so traced parallel runs show real wall-clock overlap.
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
    const Clock::time_point start = Clock::now();
    FUSION_RETURN_IF_ERROR(EvalBody(k, op, slot, pool));
    const double cost = slot.ledger.total();
    span.AddAttr("cost", cost);
    if (!slot.degraded.empty()) span.AddAttr("degraded", slot.degraded);
    // The op "takes" as long as it cost (scaled): dependents and the next
    // query to this source wait for it, so makespans compose.
    exec_internal::SleepForCost(cost, options_);
    slot.seconds += SecondsSince(start);
    return Status::Ok();
  }

  Status EvalBody(size_t k, const PlanOp& op, OpSlot& slot, ThreadPool* pool) {
    switch (op.kind) {
      case PlanOpKind::kSelect: {
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        Result<ItemSet> result = exec_internal::CachedSelect(
            src, query_.conditions()[static_cast<size_t>(op.cond)],
            CacheKeyOf(op), query_.merge_attribute(), options_, slot.ledger,
            ContextFor(op, slot, pool));
        if (!result.ok()) return HandleSourceFailure(k, op, result.status());
        items_[op.target] = std::move(result).value();
        break;
      }
      case PlanOpKind::kSemiJoin: {
        FUSION_RETURN_IF_ERROR(Need(slot, op.input));
        const ItemSet& candidates = *items_[op.input];
        if (lazy_ && candidates.empty()) {
          items_[op.target] = ItemSet();  // ∅ semijoin needs no source call
          ++short_circuited_;
          break;
        }
        Result<ItemSet> result = exec_internal::CachedSemiJoin(
            catalog_.source(static_cast<size_t>(op.source)),
            query_.conditions()[static_cast<size_t>(op.cond)],
            CacheKeyOf(op), query_.merge_attribute(), candidates, options_,
            slot.ledger, ContextFor(op, slot, pool), &slot.emulated);
        if (!result.ok()) return HandleSourceFailure(k, op, result.status());
        items_[op.target] = std::move(result).value();
        if (slot.emulated) {
          static Counter& counter =
              MetricsRegistry::Global().counter(metrics::kEmulatedSemijoins);
          counter.Increment();
        }
        break;
      }
      case PlanOpKind::kLoad: {
        Result<Relation> loaded = exec_internal::CachedLoad(
            catalog_.source(static_cast<size_t>(op.source)), options_,
            slot.ledger, ContextFor(op, slot, pool));
        if (!loaded.ok()) return HandleSourceFailure(k, op, loaded.status());
        FUSION_ASSIGN_OR_RETURN(
            slot.observed,
            loaded->SelectItems(Condition::True(), query_.merge_attribute()));
        relations_[op.target] = std::move(loaded).value();
        break;
      }
      case PlanOpKind::kLocalSelect: {
        FUSION_RETURN_IF_ERROR(Need(slot, op.input));
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
        for (const int v : op.inputs) FUSION_RETURN_IF_ERROR(Need(slot, v));
        items_[op.target] = exec_internal::UnionOfVars(op.inputs, items_);
        break;
      }
      case PlanOpKind::kIntersect: {
        // The first operand is read in place; only intersections are built.
        const ItemSet* first = nullptr;
        std::optional<ItemSet> acc;
        for (const int v : op.inputs) {
          const ItemSet* so_far = acc.has_value() ? &*acc : first;
          // Sound cut: ∅ ∩ anything = ∅, so the remaining operands (and,
          // when lazy, their whole subtrees) are skipped.
          if (so_far != nullptr && so_far->empty()) break;
          FUSION_RETURN_IF_ERROR(Need(slot, v));
          if (so_far == nullptr) {
            first = &*items_[v];
          } else {
            acc = ItemSet::Intersect(*so_far, *items_[v]);
          }
        }
        items_[op.target] = acc.has_value() ? std::move(*acc) : *first;
        break;
      }
      case PlanOpKind::kDifference: {
        FUSION_RETURN_IF_ERROR(Need(slot, op.inputs[0]));
        const ItemSet& lhs = *items_[op.inputs[0]];
        if (lhs.empty()) {
          items_[op.target] = ItemSet();  // ∅ − X = ∅; skip the rhs
          break;
        }
        FUSION_RETURN_IF_ERROR(Need(slot, op.inputs[1]));
        items_[op.target] = ItemSet::Difference(lhs, *items_[op.inputs[1]]);
        break;
      }
    }
    return Status::Ok();
  }

  /// The cache key of op's condition; empty when no cache is attached.
  const std::string& CacheKeyOf(const PlanOp& op) const {
    static const std::string kNoKey;
    return cache_keys_.empty() ? kNoKey
                               : cache_keys_[static_cast<size_t>(op.cond)];
  }

  /// The fault-tolerance call context for one source op. CachedSelect /
  /// CachedSemiJoin / CachedLoad set the op tag, source name and ledger.
  exec_internal::CallContext ContextFor(const PlanOp& op, OpSlot& slot,
                                        ThreadPool* pool) const {
    exec_internal::CallContext ctx;
    ctx.stats = &slot.stats;
    ctx.retry = &options_.retry;
    ctx.fault = fault_;
    ctx.health = options_.health;
    ctx.source_index = op.source;
    ctx.blocking_pool = pool;
    return ctx;
  }

  /// Degraded-mode absorption of an exhausted source call: substitutes ∅
  /// (or an empty relation) for op k and records the exclusion when that is
  /// provably sound; otherwise returns `status`, failing the query.
  Status HandleSourceFailure(size_t k, const PlanOp& op, const Status& status) {
    if (degradable_.empty() || degradable_[k] == 0 ||
        !exec_internal::IsDegradableFailure(status)) {
      return status;
    }
    slots_[k].degraded = status.ToString();
    if (op.kind == PlanOpKind::kLoad) {
      relations_[op.target] = Relation(
          catalog_.source(static_cast<size_t>(op.source)).schema());
    } else {
      items_[op.target] = ItemSet();
    }
    return Status::Ok();
  }

  const Plan& plan_;
  const SourceCatalog& catalog_;
  const FusionQuery& query_;
  const ExecOptions& options_;
  exec_internal::FaultState* fault_;
  /// The evaluator's only mode bit: the ∅-candidate semijoin cut skips a
  /// metered call, so only the lazy scheduler enables it.
  bool lazy_ = false;
  std::vector<OpSlot> slots_;
  std::vector<std::optional<ItemSet>> items_;       // per SSA variable
  std::vector<std::optional<Relation>> relations_;  // per SSA variable
  std::vector<size_t> defining_op_;                 // per SSA variable
  std::vector<std::string> cache_keys_;  // per condition; empty without cache
  std::vector<char> degradable_;  // empty unless on_source_failure=kDegrade
  std::vector<size_t> order_;     // evaluated ops, in merge order
  size_t short_circuited_ = 0;    // lazy ∅-candidate semijoins
};

/// The pool scheduler's bookkeeping. Each op's completion is ordered before
/// the dispatch of its dependents by `mu_`, which makes the dependents'
/// reads of the op's outputs race-free.
class PoolScheduler {
 public:
  using EvalFn = std::function<Status(size_t, ThreadPool*)>;

  PoolScheduler(const Plan& plan, int parallelism, EvalFn eval)
      : parallelism_(parallelism),
        eval_(std::move(eval)),
        dependents_(plan.num_ops()),
        pending_(plan.num_ops(), 0) {
    std::vector<int> var_def(plan.vars().size(), -1);
    std::vector<int> last_on_source;
    for (size_t k = 0; k < plan.num_ops(); ++k) {
      const PlanOp& op = plan.ops()[k];
      std::vector<int> deps;
      if (op.input >= 0) deps.push_back(var_def[op.input]);
      for (const int v : op.inputs) deps.push_back(var_def[v]);
      if (op.source >= 0) {
        if (static_cast<size_t>(op.source) >= last_on_source.size()) {
          last_on_source.resize(static_cast<size_t>(op.source) + 1, -1);
        }
        int& last = last_on_source[static_cast<size_t>(op.source)];
        if (last >= 0) deps.push_back(last);
        last = static_cast<int>(k);
      }
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      for (const int d : deps) {
        dependents_[static_cast<size_t>(d)].push_back(static_cast<int>(k));
        ++pending_[k];
      }
      var_def[op.target] = static_cast<int>(k);
    }
  }

  Status Run() {
    const size_t num_ops = pending_.size();
    {
      // Everything ready at the outset is dispatched immediately; the rest
      // unlocks as dependencies finish.
      ThreadPool pool(parallelism_);
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
    return failed_ ? error_ : Status::Ok();
  }

 private:
  /// Requires mu_ held.
  void Dispatch(size_t k) {
    ++scheduled_;
    // The pool pointer rides in the task (not read from the member) so the
    // backoff-compensation hook needs no lock in the workers.
    pool_->Submit([this, k, pool = pool_] { RunOp(k, pool); });
  }

  void RunOp(size_t k, ThreadPool* pool) {
    bool failed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      failed = failed_;
    }
    // Ops still queued when the run fails drain as no-ops: no source
    // contact, breaker tick or cache fill for a query already lost.
    const Status status = failed ? Status::Ok() : eval_(k, pool);
    std::lock_guard<std::mutex> lock(mu_);
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

  const int parallelism_;
  const EvalFn eval_;
  std::vector<std::vector<int>> dependents_;  // immutable after construction

  // Guarded by mu_.
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<int> pending_;  // unmet dependency counts
  ThreadPool* pool_ = nullptr;
  size_t scheduled_ = 0;
  size_t finished_ = 0;
  bool failed_ = false;
  Status error_;
};

Status PlanRun::RunPool() {
  PoolScheduler scheduler(
      plan_, options_.parallelism,
      [this](size_t k, ThreadPool* pool) { return Eval(k, pool); });
  FUSION_RETURN_IF_ERROR(scheduler.Run());
  for (size_t k = 0; k < plan_.num_ops(); ++k) order_.push_back(k);
  return Status::Ok();
}

void PlanRun::Finalize(ExecutionReport& report) {
  const size_t num_ops = plan_.num_ops();
  report.per_op_cost.assign(num_ops, 0.0);
  report.per_op_seconds.assign(num_ops, 0.0);
  report.per_op_cache.assign(num_ops, '-');
  exec_internal::CallStats stats;
  std::vector<std::string> reasons(num_ops);
  report.answer = std::move(*items_[static_cast<size_t>(plan_.result())]);
  report.source_answers.assign(catalog_.size(), {});
  for (const size_t k : order_) {
    OpSlot& slot = slots_[k];
    report.per_op_cost[k] = slot.ledger.total();
    report.per_op_seconds[k] = slot.seconds;
    // Containment hits are double-counted inside misses (the exact key did
    // miss), so a "real" miss is a miss beyond the containment count.
    const exec_internal::CallStats& s = slot.stats;
    if (s.cache_misses > s.cache_containment_hits) {
      report.per_op_cache[k] = 'm';
    } else if (s.cache_containment_hits > 0) {
      report.per_op_cache[k] = 'c';
    } else if (s.cache_hits > 0) {
      report.per_op_cache[k] = 'h';
    }
    const PlanOp& op = plan_.ops()[k];
    if (op.source >= 0) {
      // An sq/sjq answer is its SSA target (already moved into the report
      // when it is the plan result); an lq's items live in the slot.
      ExecutionReport::SourceAnswer answer;
      const std::vector<Charge>& charges = slot.ledger.charges();
      answer.arrived = std::any_of(
          charges.begin(), charges.end(),
          [](const Charge& c) { return !IsFailedAttempt(c); });
      if (op.kind == PlanOpKind::kLoad) {
        answer.items = std::move(slot.observed);
      } else if (op.target == plan_.result()) {
        answer.items = report.answer;
      } else {
        answer.items = std::move(*items_[op.target]);
      }
      report.source_answers[static_cast<size_t>(op.source)].push_back(
          std::move(answer));
    }
    report.ledger.MergeFrom(std::move(slot.ledger));
    stats.MergeFrom(s);
    if (slot.emulated) ++report.emulated_semijoins;
    reasons[k] = std::move(slot.degraded);
  }
  // Never-demanded ops, plus semijoins answered ∅ without their call.
  report.skipped_ops = short_circuited_ + (num_ops - order_.size());
  report.retries_total = stats.retries;
  report.cache_hits = stats.cache_hits;
  report.cache_misses = stats.cache_misses;
  report.cache_containment_hits = stats.cache_containment_hits;
  report.breaker_fast_fails = stats.breaker_fast_fails;
  exec_internal::BuildCompletenessReport(plan_, reasons, &report.completeness);
}

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
  // One fault state per execution: the deadline clock starts here.
  exec_internal::FaultState fault(options);
  PlanRun run(plan, catalog, query, options, &fault);
  // Lazy evaluation is inherently serial (its payoff is skipping work, not
  // overlapping it), so it wins over parallelism.
  if (options.lazy_short_circuit) {
    FUSION_RETURN_IF_ERROR(run.RunLazy());
  } else if (options.parallelism > 1) {
    FUSION_RETURN_IF_ERROR(run.RunPool());
  } else {
    FUSION_RETURN_IF_ERROR(run.RunSerial());
  }
  run.Finalize(report);
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
