#ifndef FUSION_EXEC_EXEC_INTERNAL_H_
#define FUSION_EXEC_EXEC_INTERNAL_H_

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "common/item_set.h"
#include "common/status.h"
#include "exec/executor.h"
#include "exec/source_health.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/condition.h"
#include "source/cost_ledger.h"
#include "source/source_wrapper.h"

/// Source-call machinery behind the plan-op evaluator (exec/executor.cc):
/// charging, retries, backoff, breaker gates and the cache, identical under
/// every scheduler — that is what makes their ledgers byte-comparable.
/// It is also where the observability layer hooks in: every wrapper call
/// attempt gets a `source_call` span (one per ledger charge) and a
/// source_calls_total metric tick, retries get `retry` spans (covering the
/// backoff sleep) and retries_total, and per-execution counts accumulate
/// into a CallStats for the ExecutionReport.
namespace fusion {
namespace exec_internal {

/// Per-execution observability counters, surfaced on ExecutionReport. Each
/// plan op counts into a private CallStats, merged into the report once the
/// run is done (same discipline as the sub-ledgers).
struct CallStats {
  size_t retries = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Answers derived locally from a containing cached entry (sjq answered
  /// from a cached sq or candidate-superset sjq, sq/sjq answered from a
  /// cached relation). Disjoint from cache_hits; such a call also counts a
  /// miss (the exact key missed) but issues no source round trip.
  size_t cache_containment_hits = 0;
  size_t breaker_fast_fails = 0;

  void MergeFrom(const CallStats& other) {
    retries += other.retries;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_containment_hits += other.cache_containment_hits;
    breaker_fast_fails += other.breaker_fast_fails;
  }
};

/// Per-execution admission state, shared by every worker of one
/// ExecutePlan: the wall-clock deadline (fixed at construction) and the
/// cancellation token.
class FaultState {
 public:
  explicit FaultState(const ExecOptions& options)
      : deadline_seconds_(options.deadline_seconds),
        cancel_(options.cancel),
        start_(std::chrono::steady_clock::now()) {}

  /// Seconds until the deadline (negative once passed); +infinity when no
  /// deadline is configured.
  double remaining_seconds() const;

  /// Admission check before a source call or a backoff sleep: non-OK once
  /// the query was cancelled (kCancelled, checked first) or the deadline has
  /// passed (kDeadlineExceeded, with a deadline_exceeded_total tick).
  Status Check() const;

 private:
  const double deadline_seconds_;
  const std::atomic<bool>* const cancel_;
  const std::chrono::steady_clock::time_point start_;
};

/// Who is being called and on whose behalf — context for spans, metrics,
/// per-execution stats, and the fault-tolerance gates. All fields optional;
/// a default context traces anonymously, counts nothing per-execution,
/// retries once (no backoff), and applies no deadline or breaker.
struct CallContext {
  /// Operation tag: "sq", "sjq", "probe" (emulated-semijoin binding),
  /// "lq", or "fetch". Drives the span name and the metric counter.
  const char* op = "call";
  const std::string* source_name = nullptr;
  /// When set, each attempt's span carries the cost delta this attempt
  /// charged to the ledger.
  const CostLedger* ledger = nullptr;
  CallStats* stats = nullptr;
  /// Retry/backoff/timeout policy; null = single attempt.
  const RetryPolicy* retry = nullptr;
  /// Per-query deadline and cancellation; null = unbounded.
  FaultState* fault = nullptr;
  /// Shared circuit breakers; requires source_index >= 0. Null = no gate.
  SourceHealth* health = nullptr;
  int source_index = -1;
  /// When set, backoff sleeps are bracketed with BeginBlocking/EndBlocking
  /// so a sleeping retry does not hold one of the thread-pool scheduler's
  /// worker slots (ready ops keep draining at full parallelism).
  ThreadPool* blocking_pool = nullptr;
};

/// Ticks source_calls_total.<op> and, when `cost_delta >= 0`, observes it
/// in the source_call_cost histogram. Counter references are cached behind
/// function-local statics, so the hot path is two relaxed atomic RMWs.
void CountSourceCall(const char* op, double cost_delta);

/// Pre-call admission: cancellation and the per-query deadline, then the
/// circuit breaker. A non-OK return means the call must not be issued —
/// nothing was charged and no round-trip happened. Ticks the corresponding
/// fast-fail metrics and `stats`.
Status AdmitCall(const CallContext& ctx);

/// Sleeps the policy backoff before re-attempt `attempt`, truncated by the
/// remaining deadline, inside the given (already open) retry span. Returns
/// non-OK without sleeping when the deadline leaves no room to retry.
Status BackoffBeforeAttempt(const CallContext& ctx, const RetryPolicy& retry,
                            int attempt, ScopedSpan& retry_span);

/// Builds the per-call-timeout status (kDeadlineExceeded) for ctx's call.
Status CallTimeoutStatus(const CallContext& ctx, double call_seconds,
                         double timeout_seconds);

/// Runs `fn` under the context's full fault policy:
///  - admission (cancel / deadline / circuit breaker) before every attempt;
///    inadmissible calls fail fast without charging a round-trip;
///  - per-call timeout: an attempt that outlives
///    retry.call_timeout_seconds is treated as a (retriable) timeout
///    failure;
///  - transient failures (kInternal, call timeouts) are retried up to
///    retry.max_attempts times with capped exponential backoff; permanent
///    failures (kUnavailable, kUnsupported) and the query deadline are not
///    retried;
///  - every attempt's outcome is reported to the breaker.
/// Every attempt is traced as one `source_call` span — so the span count
/// equals the ledger's charge count, failed attempts included — and counted
/// into source_calls_total.<op>; re-attempts get an enclosing `retry` span
/// that also covers the backoff sleep, and tick retries_total.
template <typename Fn>
auto CallWithRetries(Fn fn, const CallContext& ctx = {}) -> decltype(fn()) {
  static const RetryPolicy kNoRetry;
  const RetryPolicy& retry = ctx.retry != nullptr ? *ctx.retry : kNoRetry;
  // Set when the last failure was a per-call timeout conversion — the one
  // kDeadlineExceeded flavor that is retriable (the next attempt may be
  // fast); a query-deadline kDeadlineExceeded never re-enters the loop.
  bool last_was_call_timeout = false;
  auto one_attempt = [&](int attempt) {
    last_was_call_timeout = false;
    ScopedSpan span(SpanCategory::kSourceCall, ctx.op);
    const double cost_before =
        ctx.ledger != nullptr ? ctx.ledger->total() : 0.0;
    const auto started = std::chrono::steady_clock::now();
    auto result = fn();
    const double call_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    const double cost_delta =
        ctx.ledger != nullptr ? ctx.ledger->total() - cost_before : -1.0;
    if (result.ok() && retry.call_timeout_seconds > 0.0 &&
        call_seconds > retry.call_timeout_seconds) {
      last_was_call_timeout = true;
      result = CallTimeoutStatus(ctx, call_seconds,
                                 retry.call_timeout_seconds);
    }
    if (span.active()) {
      if (ctx.source_name != nullptr) span.AddAttr("source", *ctx.source_name);
      if (attempt > 0) span.AddAttr("attempt", static_cast<int64_t>(attempt));
      if (ctx.ledger != nullptr) span.AddAttr("cost", cost_delta);
      if (!result.ok()) span.AddAttr("error", result.status().ToString());
    }
    CountSourceCall(ctx.op, cost_delta);
    if (ctx.health != nullptr && ctx.source_index >= 0) {
      if (result.ok()) {
        ctx.health->RecordSuccess(static_cast<size_t>(ctx.source_index),
                                  ctx.source_name);
      } else {
        ctx.health->RecordFailure(static_cast<size_t>(ctx.source_index),
                                  ctx.source_name);
      }
    }
    return result;
  };
  {
    const Status admitted = AdmitCall(ctx);
    if (!admitted.ok()) return admitted;
  }
  auto result = one_attempt(0);
  auto retriable = [&] {
    if (result.ok()) return false;
    const StatusCode code = result.status().code();
    return code == StatusCode::kInternal ||
           (code == StatusCode::kDeadlineExceeded && last_was_call_timeout);
  };
  for (int attempt = 1; attempt < retry.max_attempts && retriable();
       ++attempt) {
    static Counter& retries =
        MetricsRegistry::Global().counter(metrics::kRetriesTotal);
    retries.Increment();
    if (ctx.stats != nullptr) ++ctx.stats->retries;
    ScopedSpan retry_span(SpanCategory::kRetry, ctx.op);
    if (retry_span.active() && ctx.source_name != nullptr) {
      retry_span.AddAttr("source", *ctx.source_name);
      retry_span.AddAttr("attempt", static_cast<int64_t>(attempt));
    }
    const Status slept = BackoffBeforeAttempt(ctx, retry, attempt, retry_span);
    if (!slept.ok()) return slept;
    const Status admitted = AdmitCall(ctx);
    if (!admitted.ok()) return admitted;
    result = one_attempt(attempt);
  }
  return result;
}

/// The ∪ op of every plan evaluator: one ItemSet::UnionAll pass over the
/// (already evaluated) input variables.
inline ItemSet UnionOfVars(const std::vector<int>& inputs,
                           const std::vector<std::optional<ItemSet>>& vars) {
  std::vector<const ItemSet*> sets;
  sets.reserve(inputs.size());
  for (const int v : inputs) sets.push_back(&*vars[static_cast<size_t>(v)]);
  return ItemSet::UnionAll(sets);
}

/// Emulates sjq(cond, source, candidates) with one passed-binding selection
/// per candidate. Probes route through the cache path (CachedSelect, keyed
/// on the canonical probe condition), so identical probes across plans and
/// queries re-answer from the memo instead of re-contacting the source.
/// Probe charges are re-tagged so reports distinguish native semijoins from
/// emulated ones. `ctx.op`/`ledger` are overridden per probe; the
/// fault-tolerance fields gate every probe individually.
Result<ItemSet> EmulateSemiJoin(SourceWrapper& source, const Condition& cond,
                                const std::string& merge_attribute,
                                const ItemSet& candidates,
                                const ExecOptions& options, CallContext ctx,
                                CostLedger& ledger);

/// One selection op's source interaction: consults options.cache first
/// (single-flight deduplicated, so concurrent identical selections — within
/// one parallel plan or across racing executions — cost exactly one source
/// call), falls back to containment derivation from a cached lq(R), retries
/// transient failures, and publishes fresh answers back to the cache.
/// Charges go to `ledger`; cache hits and derived answers charge nothing.
/// Hits/misses/containment tick both the global metrics and `ctx.stats`.
/// `op_tag` labels spans/metrics ("sq", or "probe" for emulated-semijoin
/// bindings). `key` is `cond.CacheKey()`, rendered once per execution by
/// the caller (unread without a cache).
Result<ItemSet> CachedSelect(SourceWrapper& source, const Condition& cond,
                             const std::string& key,
                             const std::string& merge_attribute,
                             const ExecOptions& options, CostLedger& ledger,
                             CallContext ctx, const char* op_tag = "sq");

/// One semijoin op's source interaction: answers
/// from the cache when possible (exact sjq entry, candidate-superset sjq,
/// cached sq, or cached relation — all free), otherwise dispatches on the
/// source's semijoin capability (native call, per-binding emulation, or
/// kUnsupported) and memoizes the fresh answer. `*emulated` is set when the
/// per-binding path ran (the caller counts emulated semijoins). `key` is
/// `cond.CacheKey()`, as for CachedSelect.
Result<ItemSet> CachedSemiJoin(SourceWrapper& source, const Condition& cond,
                               const std::string& key,
                               const std::string& merge_attribute,
                               const ItemSet& candidates,
                               const ExecOptions& options, CostLedger& ledger,
                               CallContext ctx, bool* emulated);

/// One load op's source interaction: returns the cached relation when
/// present (free), otherwise performs lq(R) with the full fault policy and
/// memoizes the result.
Result<Relation> CachedLoad(SourceWrapper& source, const ExecOptions& options,
                            CostLedger& ledger, CallContext ctx);

/// Simulated-latency hook: sleeps cost * options.simulated_seconds_per_cost
/// (no-op at the default scale 0). Lets benchmarks observe real wall-clock
/// overlap whose per-op durations match the cost model's units.
void SleepForCost(double cost, const ExecOptions& options);

/// Degradability of each plan op under SourceFailurePolicy::kDegrade:
/// true iff the op is a source call (sq/sjq/lq) whose target variable is
/// only ever used at *monotone* plan positions — every path to the plan
/// result passes through union/intersect inputs, semijoin candidate sets,
/// local selections, or the *left* side of a difference. Substituting ∅
/// there can only shrink the answer (sound). A leaf feeding the right side
/// of a difference is not degradable: shrinking a subtrahend could add
/// items to the answer.
std::vector<char> DegradableOps(const Plan& plan);

/// Assembles report.completeness (and report.breaker_fast_fails via stats
/// callers merge separately) from the per-op degradation outcomes:
/// `reasons[k]` non-empty iff op k was substituted with ∅, holding the
/// final status string. Load exclusions fan out to the conditions of their
/// dependent local selections.
void BuildCompletenessReport(const Plan& plan,
                             const std::vector<std::string>& reasons,
                             CompletenessReport* out);

/// True when `status` is the kind of source-unreachable failure degraded
/// mode may absorb: exhausted transient retries (kInternal), a permanently
/// unavailable source / open breaker (kUnavailable), or an exceeded
/// deadline or call timeout (kDeadlineExceeded). Plan or capability errors
/// (kUnsupported, kInvalidArgument, ...) always fail.
bool IsDegradableFailure(const Status& status);

}  // namespace exec_internal
}  // namespace fusion

#endif  // FUSION_EXEC_EXEC_INTERNAL_H_
