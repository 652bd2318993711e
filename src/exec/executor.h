#ifndef FUSION_EXEC_EXECUTOR_H_
#define FUSION_EXEC_EXECUTOR_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/item_set.h"
#include "common/status.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "query/fusion_query.h"
#include "source/catalog.h"
#include "exec/source_call_cache.h"
#include "source/cost_ledger.h"

namespace fusion {

class SourceHealth;

/// One source excluded from one condition's union by degraded-mode
/// execution: every call to it was exhausted (retries spent, breaker open,
/// or deadline hit) and the executor substituted ∅ for its contribution.
struct SourceExclusion {
  /// Condition index the exclusion applies to; -1 means the whole query
  /// (a degraded load whose relation never fed a local selection).
  int condition = -1;
  int source = -1;  // catalog index
  /// The final status that exhausted the source, e.g.
  /// "Unavailable: circuit breaker open for source 'R2'".
  std::string reason;
};

/// Completeness metadata for a (possibly partial) answer. The fusion answer
/// is an intersection of per-condition unions U_i = ∪_j sq(c_i, R_j);
/// dropping a source from some union can only *shrink* it, so every item
/// that survives the intersection still provably satisfies every condition
/// at some responding source. A degraded answer is therefore **sound**
/// (no false positives) but possibly **incomplete** (items witnessed only
/// by the excluded sources are missing).
struct CompletenessReport {
  /// True iff no source was excluded anywhere — the answer is the full one.
  bool answer_complete = true;
  /// Soundness of the partial answer. Always true on a returned report: the
  /// executor refuses ∅-substitution at non-monotone plan positions (the
  /// right side of a difference) and fails the query instead, because
  /// shrinking a subtrahend could *add* items. Present so callers can
  /// assert the invariant rather than trust it.
  bool sound = true;
  std::vector<SourceExclusion> excluded;
  /// Plan-op indices whose results were substituted with ∅ (or an empty
  /// relation). Lets consumers that walk the plan next to the ledger —
  /// e.g. session statistics learning — skip ops that charged failed
  /// attempts but produced no answer.
  std::vector<int> degraded_ops;

  /// Catalog indices excluded from `condition`'s union (deduplicated).
  std::vector<int> ExcludedSources(int condition) const;
  /// Human-readable account, one exclusion per line; names are optional
  /// (indices are printed when a name vector is empty or short).
  std::string ToString(const std::vector<std::string>& condition_names = {},
                       const std::vector<std::string>& source_names = {}) const;
};

/// What actually happened when a plan ran against live sources.
struct ExecutionReport {
  ItemSet answer;
  CostLedger ledger;
  /// Semijoin ops that had to be emulated with per-binding selections
  /// because the source lacks native semijoin support.
  size_t emulated_semijoins = 0;
  /// Ops never evaluated thanks to lazy short-circuiting (0 when eager).
  size_t skipped_ops = 0;
  /// Source-call re-attempts after transient failures (0 when nothing
  /// flaked or max_attempts == 1). Every retry also left a wasted charge on
  /// the ledger; this counter makes retry storms visible without diffing
  /// ledgers.
  size_t retries_total = 0;
  /// Source calls answered from / missed in ExecOptions::cache (both 0 when
  /// no cache is attached). A hit issued no source call and charged
  /// nothing.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Calls whose exact key missed but whose answer was still derived locally
  /// from a *containing* cached entry (sjq from a cached sq or
  /// candidate-superset sjq; sq/sjq from a cached lq). Free like a hit, and
  /// also counted in cache_misses (the exact key did miss).
  size_t cache_containment_hits = 0;
  /// Calls failed fast by an open circuit breaker (no round-trip issued, no
  /// ledger charge). 0 unless ExecOptions::health is attached.
  size_t breaker_fast_fails = 0;
  /// Which sources (if any) were excluded under degraded-mode execution,
  /// per condition — and the soundness contract of the partial answer.
  /// `completeness.answer_complete` is true for every non-degraded run.
  CompletenessReport completeness;
  /// Metered cost of each plan op, aligned with Plan::ops() (an emulated
  /// semijoin's probe charges are summed into its op). Lets the
  /// response-time analyzer compute the *measured* parallel makespan:
  /// ComputeResponseTime(plan, report.per_op_cost).
  std::vector<double> per_op_cost;
  /// Wall-clock seconds each plan op spent evaluating, aligned with
  /// Plan::ops(): its own work plus its simulated latency
  /// (ExecOptions::simulated_seconds_per_cost), excluding ops it demanded
  /// lazily (0 for ops skipped by lazy short-circuiting). Measured with
  /// the steady clock independently of the tracer, so EXPLAIN can annotate
  /// the executed plan with per-op timings even when tracing is disabled.
  std::vector<double> per_op_seconds;
  /// Cache provenance of each plan op, aligned with Plan::ops():
  ///   'h'  every metered call the op issued was an exact cache hit
  ///   'c'  answered with at least one containment-derived hit, rest hits
  ///   'm'  at least one real miss (a source was contacted)
  ///   '-'  no cacheable calls (local op, skipped op, or no cache attached)
  std::vector<char> per_op_cache;
  /// The answer of one evaluated source op (sq, sjq, or an lq's items).
  struct SourceAnswer {
    ItemSet items;
    /// True iff the op's sub-ledger holds a successful charge: a source was
    /// contacted and these items (at least those not already cached)
    /// arrived with it. False for exact and containment cache hits and for
    /// ∅-substituted ops.
    bool arrived = false;
  };
  /// Per source (by catalog index), the answers of its evaluated ops, moved
  /// out of the execution in merge order. Every item a source returned
  /// provably has a record there; session learning reads the arrived ones.
  std::vector<std::vector<SourceAnswer>> source_answers;
  /// Witness knowledge gathered for free during execution: per source, the
  /// union of its op answers. Built on each call, for the second-phase
  /// fetch planner, which uses it to avoid asking every source.
  std::vector<ItemSet> WitnessSets() const;
  /// Measured elapsed wall-clock time of the whole execution, in seconds.
  /// Under ExecOptions::simulated_seconds_per_cost > 0 this is the *measured
  /// makespan*: dividing by the scale yields cost units directly comparable
  /// with ComputeResponseTime(plan, per_op_cost).response_time (parallel
  /// execution) or with ledger.total() (sequential execution).
  double wall_clock_makespan = 0.0;
  /// Window into the global Tracer covering this execution (inert when
  /// tracing was disabled). `trace.Spans()` returns the per-op and
  /// source-call spans of this run; obs/trace_export.h turns them into
  /// Chrome trace-event JSON.
  TraceHandle trace;
};

/// How source calls are retried and bounded: attempts, capped exponential
/// backoff (a pure function of the attempt number, so every executor retries
/// on the same schedule), and a per-call timeout.
struct RetryPolicy {
  /// Total attempts per source call (1 = no retries). Transient failures
  /// (kInternal, and per-call timeouts) are retried up to this many times;
  /// permanent errors (kUnsupported, kUnavailable, schema problems) are
  /// not. Every attempt's cost stays on the ledger — retries are not free.
  int max_attempts = 1;
  /// Sleep before the first re-attempt; doubles (see multiplier) per
  /// further attempt. 0 (default) = immediate retries, as before.
  double initial_backoff_seconds = 0.0;
  double backoff_multiplier = 2.0;
  /// Upper bound on a single backoff sleep (0 = uncapped).
  double max_backoff_seconds = 1.0;
  /// When > 0, an attempt whose wall-clock duration exceeds this is treated
  /// as a timeout failure (kDeadlineExceeded, retriable) even if an answer
  /// eventually arrived — a real mediator would have hung up. This is what
  /// makes slow sources trip the per-query deadline and the breaker.
  double call_timeout_seconds = 0.0;

  /// The (capped) sleep before re-attempt `attempt` (1-based). Pure
  /// function of the policy and the attempt number.
  double BackoffSeconds(int attempt) const;
  /// Sleeps BackoffSeconds(attempt).
  void Backoff(int attempt) const;
};

/// What the executor does when a source call is *exhausted* — retries spent
/// on a transient failure, a permanent kUnavailable (source down or circuit
/// breaker open), or the per-query deadline hit.
enum class SourceFailurePolicy {
  /// Fail the whole query with the source's error (the classic behavior).
  kFail,
  /// Substitute ∅ for the failed sq/sjq/lq leaf and keep going, returning a
  /// sound partial answer with a CompletenessReport naming the excluded
  /// sources. Substitution is refused (the query still fails) at plan
  /// positions where ∅ is not provably sound — see CompletenessReport.
  kDegrade,
};

/// Runtime options for plan execution.
struct ExecOptions {
  /// Lazy, demand-driven evaluation with sound short-circuits: a semijoin
  /// whose candidate set is empty returns ∅ without contacting the source;
  /// an intersection whose running accumulator is empty skips the remaining
  /// operand subtrees entirely; a difference with an empty left side skips
  /// its right side. The answer is always identical to eager execution —
  /// only the (metered) work can shrink. This is runtime adaptivity the
  /// optimizer cannot plan for, since it depends on actual data.
  bool lazy_short_circuit = false;
  /// Per-call retry/backoff/timeout policy.
  RetryPolicy retry;
  /// Wall-clock budget for the whole execution (0 = none). Once exceeded,
  /// further source calls and backoff sleeps fail fast with
  /// kDeadlineExceeded; an in-flight call is not interrupted, so total
  /// wall clock is bounded by deadline + one call duration.
  double deadline_seconds = 0.0;
  /// Optional cooperative cancellation token (the serving layer's CANCEL
  /// path). When non-null and set, further source calls and backoff sleeps
  /// fail fast with kCancelled; like the deadline, an in-flight call is not
  /// interrupted, so cancellation latency is bounded by one call duration.
  /// kCancelled is never retried and never degraded — a cancelled query
  /// fails as a whole, immediately freeing its executor workers.
  const std::atomic<bool>* cancel = nullptr;
  /// Whether an exhausted source fails the query or degrades the answer.
  SourceFailurePolicy on_source_failure = SourceFailurePolicy::kFail;
  /// Optional shared per-source circuit breakers (see exec/source_health.h).
  /// Typically owned by a QuerySession so one query's failures fast-fail the
  /// next query's calls. Null = no breaker.
  SourceHealth* health = nullptr;
  /// Optional memo of selection-query answers shared across executions
  /// (see SourceCallCache). Cached hits cost nothing and appear in the
  /// report's cache statistics rather than the ledger. The cache is
  /// internally synchronized and single-flight deduplicated, so it may be
  /// shared by concurrent workers and concurrent executions.
  SourceCallCache* cache = nullptr;
  /// Worker count. 1 (the default) evaluates ops one after another in plan
  /// order; > 1 walks the plan's op dependency DAG with a thread pool,
  /// overlapping data-independent source calls (queries to the *same*
  /// source still serialize in plan order, matching plan/response_time.h's
  /// model). The answer, per-op costs, and merged ledger are identical
  /// either way. Combined with lazy_short_circuit the lazy scheduler runs
  /// instead (demand-driven evaluation is inherently serial; its payoff is
  /// skipping work, not overlapping it).
  int parallelism = 1;
  /// When > 0, every plan op additionally sleeps for
  /// (its metered cost) * this many seconds, turning the abstract cost units
  /// into real source latencies. Benchmarks use it to demonstrate that
  /// parallel execution's measured wall-clock makespan tracks the
  /// theoretical critical-path makespan. 0 (default) = no artificial delay.
  double simulated_seconds_per_cost = 0.0;
};

/// Rejects nonsensical options with kInvalidArgument before any source is
/// contacted: retry.max_attempts < 1, parallelism < 1, negative
/// simulated_seconds_per_cost / deadline / backoff / timeout,
/// backoff_multiplier < 1. Called by ExecutePlan; exposed for callers that
/// want to validate eagerly.
Status ValidateExecOptions(const ExecOptions& options);

/// The mediator's plan executor: runs `plan` for `query` against the
/// catalog's sources, metering every source interaction. One op evaluator
/// serves three schedulers — serial (plan order), lazy (demand-driven from
/// the result) and thread pool (dependency DAG) — and each op's cost, time
/// and cache provenance in the report are its own, exclusive of the ops it
/// demanded. Semijoin queries to sources with only passed-binding support
/// are emulated as one `c AND M = m` selection per candidate item
/// (Section 2.3); sources with no binding support at all fail the plan with
/// kUnsupported. Local operations (∪, ∩, −, selection over loaded
/// relations) run at the mediator for free.
Result<ExecutionReport> ExecutePlan(const Plan& plan,
                                    const SourceCatalog& catalog,
                                    const FusionQuery& query);

/// As above, with runtime options.
Result<ExecutionReport> ExecutePlan(const Plan& plan,
                                    const SourceCatalog& catalog,
                                    const FusionQuery& query,
                                    const ExecOptions& options);

}  // namespace fusion

#endif  // FUSION_EXEC_EXECUTOR_H_
