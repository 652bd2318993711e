#include "exec/exec_internal.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "plan/plan.h"

namespace fusion {
namespace exec_internal {

double FaultState::remaining_seconds() const {
  if (deadline_seconds_ <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return deadline_seconds_ - elapsed;
}

Status FaultState::Check() const {
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    static Counter& cancelled =
        MetricsRegistry::Global().counter(metrics::kCancelledTotal);
    cancelled.Increment();
    return Status::Cancelled("query cancelled by client");
  }
  if (remaining_seconds() < 0.0) {
    static Counter& exceeded = MetricsRegistry::Global().counter(
        metrics::kDeadlineExceededTotal);
    exceeded.Increment();
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::Ok();
}

void CountSourceCall(const char* op, double cost_delta) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter& sq = registry.counter(metrics::kSourceCallsSq);
  static Counter& sjq = registry.counter(metrics::kSourceCallsSjq);
  static Counter& probe = registry.counter(metrics::kSourceCallsProbe);
  static Counter& lq = registry.counter(metrics::kSourceCallsLq);
  static Counter& fetch = registry.counter(metrics::kSourceCallsFetch);
  Counter* c = &sq;
  if (std::strcmp(op, "sjq") == 0) {
    c = &sjq;
  } else if (std::strcmp(op, "probe") == 0) {
    c = &probe;
  } else if (std::strcmp(op, "lq") == 0) {
    c = &lq;
  } else if (std::strcmp(op, "fetch") == 0) {
    c = &fetch;
  }
  c->Increment();
  if (cost_delta >= 0.0) {
    static Histogram& cost_hist =
        registry.histogram(metrics::kSourceCallCost);
    cost_hist.Observe(cost_delta);
  }
}

Status AdmitCall(const CallContext& ctx) {
  if (ctx.fault != nullptr) {
    FUSION_RETURN_IF_ERROR(ctx.fault->Check());
  }
  if (ctx.health != nullptr && ctx.source_index >= 0) {
    const SourceHealth::Admission admission = ctx.health->Admit(
        static_cast<size_t>(ctx.source_index), ctx.source_name);
    if (!admission.allowed) {
      if (ctx.stats != nullptr) ++ctx.stats->breaker_fast_fails;
      std::string who = ctx.source_name != nullptr
                            ? "'" + *ctx.source_name + "'"
                            : "#" + std::to_string(ctx.source_index);
      return Status::Unavailable("circuit breaker open for source " + who);
    }
  }
  return Status::Ok();
}

Status BackoffBeforeAttempt(const CallContext& ctx, const RetryPolicy& retry,
                            int attempt, ScopedSpan& retry_span) {
  double backoff = retry.BackoffSeconds(attempt);
  if (backoff <= 0.0) return Status::Ok();
  if (ctx.fault != nullptr) {
    // No point sleeping past the query deadline: truncate the sleep to the
    // remaining budget, and give up on the retry outright when there is
    // (almost) nothing left.
    const double remaining = ctx.fault->remaining_seconds();
    if (remaining <= 0.0) return ctx.fault->Check();
    if (backoff > remaining) backoff = remaining;
  }
  if (retry_span.active()) retry_span.AddAttr("backoff_s", backoff);
  static Counter& sleeps =
      MetricsRegistry::Global().counter(metrics::kBackoffSleepsTotal);
  sleeps.Increment();
  if (ctx.blocking_pool != nullptr) ctx.blocking_pool->BeginBlocking();
  std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  if (ctx.blocking_pool != nullptr) ctx.blocking_pool->EndBlocking();
  return Status::Ok();
}

Status CallTimeoutStatus(const CallContext& ctx, double call_seconds,
                         double timeout_seconds) {
  std::string who =
      ctx.source_name != nullptr ? " to '" + *ctx.source_name + "'" : "";
  return Status::DeadlineExceeded(
      "call" + who + " exceeded per-call timeout (" +
      std::to_string(call_seconds) + "s > " +
      std::to_string(timeout_seconds) + "s)");
}

namespace {

/// Ticks the exact-hit or containment-hit counters (global metrics and
/// per-execution stats) and emits the cache span for one answered call.
void CountCacheAnswer(const CallContext& ctx, bool derived,
                      const SourceWrapper& source, const std::string& key) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (derived) {
    static Counter& containment =
        registry.counter(metrics::kCacheContainmentHits);
    containment.Increment();
    if (ctx.stats != nullptr) ++ctx.stats->cache_containment_hits;
  } else {
    static Counter& hits = registry.counter(metrics::kCacheHits);
    hits.Increment();
    if (ctx.stats != nullptr) ++ctx.stats->cache_hits;
  }
  ScopedSpan span(SpanCategory::kCache,
                  derived ? "cache.derived" : "cache.hit");
  if (span.active()) {
    span.AddAttr("source", source.name());
    span.AddAttr("cond", key);
  }
}

void CountCacheMiss(const CallContext& ctx) {
  static Counter& misses =
      MetricsRegistry::Global().counter(metrics::kCacheMisses);
  misses.Increment();
  if (ctx.stats != nullptr) ++ctx.stats->cache_misses;
}

}  // namespace

Result<ItemSet> EmulateSemiJoin(SourceWrapper& source, const Condition& cond,
                                const std::string& merge_attribute,
                                const ItemSet& candidates,
                                const ExecOptions& options, CallContext ctx,
                                CostLedger& ledger) {
  ItemSet result;
  // Nothing to probe: sjq(c, R, ∅) = ∅ with zero source contact.
  if (candidates.empty()) return result;
  for (const Value& item : candidates) {
    const Condition probe =
        Condition::And(cond, Condition::Eq(merge_attribute, item));
    CostLedger local;
    // Probes go through the cache path keyed on the canonical probe
    // condition, so identical probes across plans and queries answer from
    // the memo (and concurrent identical probes single-flight).
    const std::string key =
        options.cache != nullptr ? probe.CacheKey() : std::string();
    FUSION_ASSIGN_OR_RETURN(
        ItemSet part, CachedSelect(source, probe, key, merge_attribute,
                                   options, local, ctx, "probe"));
    for (Charge charge : local.charges()) {
      charge.kind = ChargeKind::kEmulatedSemiJoinProbe;
      ledger.Add(std::move(charge));
    }
    // Candidates are probed in sorted order and each probe returns at most
    // {item}, so this appends in O(1) amortized — O(k) across all probes
    // where the old `result = Union(result, part)` rebuild was O(k²).
    result.UnionInPlace(part);
  }
  return result;
}

Result<ItemSet> CachedSelect(SourceWrapper& source, const Condition& cond,
                             const std::string& key,
                             const std::string& merge_attribute,
                             const ExecOptions& options, CostLedger& ledger,
                             CallContext ctx, const char* op_tag) {
  ctx.op = op_tag;
  ctx.source_name = &source.name();
  ctx.ledger = &ledger;
  auto call = [&] {
    return CallWithRetries(
        [&] { return source.Select(cond, merge_attribute, &ledger); }, ctx);
  };
  if (options.cache == nullptr || ctx.source_index < 0) return call();
  SourceCallCache::FlightGuard flight = options.cache->BeginFlight(
      static_cast<size_t>(ctx.source_index), key);
  if (flight.cached() != nullptr) {
    CountCacheAnswer(ctx, /*derived=*/false, source, key);
    return *flight.cached();  // free: answered from the memo
  }
  // This caller leads the flight. Before contacting the source, try
  // containment: with lq(R) cached, sq(c, R) is a free local evaluation.
  // Fulfilling publishes the derived answer as an exact entry, so waiters
  // and future lookups hit directly.
  if (std::shared_ptr<const ItemSet> derived = options.cache->DeriveSelect(
          static_cast<size_t>(ctx.source_index), cond, merge_attribute)) {
    CountCacheAnswer(ctx, /*derived=*/true, source, key);
    flight.Fulfill(*derived);
    return *derived;
  }
  CountCacheMiss(ctx);
  // A failure abandons the flight (guard destructor) so concurrent waiters
  // retry rather than inheriting the error.
  FUSION_ASSIGN_OR_RETURN(ItemSet result, call());
  flight.Fulfill(result);
  return result;
}

Result<ItemSet> CachedSemiJoin(SourceWrapper& source, const Condition& cond,
                               const std::string& key,
                               const std::string& merge_attribute,
                               const ItemSet& candidates,
                               const ExecOptions& options, CostLedger& ledger,
                               CallContext ctx, bool* emulated) {
  *emulated = false;
  ctx.source_name = &source.name();
  ctx.ledger = &ledger;
  SourceCallCache* cache = ctx.source_index >= 0 ? options.cache : nullptr;
  uint64_t version = 0;
  if (cache != nullptr) {
    bool derived = false;
    if (std::shared_ptr<const ItemSet> answer = cache->FindSemiJoin(
            static_cast<size_t>(ctx.source_index), cond, key, merge_attribute,
            candidates, &derived)) {
      CountCacheAnswer(ctx, derived, source, key);
      return *answer;  // free: exact or containment-derived, no round trip
    }
    CountCacheMiss(ctx);
    // Read before the call: an Invalidate() that lands while the source is
    // answering fences the publish below.
    version = cache->version(static_cast<size_t>(ctx.source_index));
  }
  Result<ItemSet> result = [&]() -> Result<ItemSet> {
    switch (source.capabilities().semijoin) {
      case SemijoinSupport::kNative:
        ctx.op = "sjq";
        return CallWithRetries(
            [&] {
              return source.SemiJoin(cond, merge_attribute, candidates,
                                     &ledger);
            },
            ctx);
      case SemijoinSupport::kPassedBindingsOnly:
        *emulated = true;
        return EmulateSemiJoin(source, cond, merge_attribute, candidates,
                               options, ctx, ledger);
      case SemijoinSupport::kUnsupported:
        return Status::Unsupported(
            "plan issues a semijoin to source '" + source.name() +
            "', which cannot process semijoins even by emulation");
    }
    return Status::Internal("unknown semijoin capability");
  }();
  if (result.ok() && cache != nullptr) {
    cache->InsertSemiJoin(static_cast<size_t>(ctx.source_index),
                          key, candidates, *result, version);
  }
  return result;
}

Result<Relation> CachedLoad(SourceWrapper& source, const ExecOptions& options,
                            CostLedger& ledger, CallContext ctx) {
  ctx.op = "lq";
  ctx.source_name = &source.name();
  ctx.ledger = &ledger;
  SourceCallCache* cache = ctx.source_index >= 0 ? options.cache : nullptr;
  uint64_t version = 0;
  if (cache != nullptr) {
    if (std::shared_ptr<const Relation> relation =
            cache->LookupLoad(static_cast<size_t>(ctx.source_index))) {
      CountCacheAnswer(ctx, /*derived=*/false, source, "lq");
      return *relation;  // local copy: free per the cost model
    }
    CountCacheMiss(ctx);
    version = cache->version(static_cast<size_t>(ctx.source_index));
  }
  Result<Relation> loaded =
      CallWithRetries([&] { return source.Load(&ledger); }, ctx);
  if (loaded.ok() && cache != nullptr) {
    cache->InsertLoad(static_cast<size_t>(ctx.source_index), *loaded,
                      version);
  }
  return loaded;
}

void SleepForCost(double cost, const ExecOptions& options) {
  if (options.simulated_seconds_per_cost <= 0.0 || cost <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(
      cost * options.simulated_seconds_per_cost));
}

namespace {
// Polarity bits for the monotonicity walk.
constexpr char kPos = 1;  // appears at a monotone (shrink-is-sound) position
constexpr char kNeg = 2;  // appears under an odd number of difference-rhs
}  // namespace

std::vector<char> DegradableOps(const Plan& plan) {
  const std::vector<PlanOp>& ops = plan.ops();
  // var -> polarity bits, seeded at the result variable. Plans are SSA and
  // straight-line (defs precede uses), so one reverse pass sees every use of
  // a variable before its defining op.
  std::vector<char> var_polarity(plan.vars().size(), 0);
  if (plan.result() >= 0) {
    var_polarity[static_cast<size_t>(plan.result())] = kPos;
  }
  auto add = [&](int var, char bits) {
    if (var >= 0) var_polarity[static_cast<size_t>(var)] |= bits;
  };
  for (size_t k = ops.size(); k-- > 0;) {
    const PlanOp& op = ops[k];
    const char p = op.target >= 0
                       ? var_polarity[static_cast<size_t>(op.target)]
                       : 0;
    if (p == 0) continue;  // dead op: never feeds the result
    const char flipped = static_cast<char>(((p & kPos) ? kNeg : 0) |
                                           ((p & kNeg) ? kPos : 0));
    switch (op.kind) {
      case PlanOpKind::kUnion:
      case PlanOpKind::kIntersect:
        // Both ∪ and ∩ are monotone in every input.
        for (int in : op.inputs) add(in, p);
        break;
      case PlanOpKind::kDifference:
        // Y − Z is monotone in Y, *anti*-monotone in Z: shrinking Z grows
        // the result, so Z's subtree flips polarity.
        add(op.inputs[0], p);
        add(op.inputs[1], flipped);
        break;
      case PlanOpKind::kSemiJoin:
        // sjq(c, R, Y) ⊆ Y and is monotone in the candidate set Y.
        add(op.input, p);
        break;
      case PlanOpKind::kLocalSelect:
        // σ_c(Y) ⊆ Y, monotone in the loaded relation.
        add(op.input, p);
        break;
      case PlanOpKind::kSelect:
      case PlanOpKind::kLoad:
        break;  // leaves: nothing upstream
    }
  }
  // A source op is ∅-substitutable iff its value never reaches the result
  // through an anti-monotone position. (A dead op is trivially safe.)
  std::vector<char> degradable(ops.size(), 0);
  for (size_t k = 0; k < ops.size(); ++k) {
    const PlanOp& op = ops[k];
    const bool is_source_call = op.kind == PlanOpKind::kSelect ||
                                op.kind == PlanOpKind::kSemiJoin ||
                                op.kind == PlanOpKind::kLoad;
    if (!is_source_call) continue;
    const char p = op.target >= 0
                       ? var_polarity[static_cast<size_t>(op.target)]
                       : 0;
    degradable[k] = (p & kNeg) == 0 ? 1 : 0;
  }
  return degradable;
}

void BuildCompletenessReport(const Plan& plan,
                             const std::vector<std::string>& reasons,
                             CompletenessReport* out) {
  const std::vector<PlanOp>& ops = plan.ops();
  for (size_t k = 0; k < ops.size() && k < reasons.size(); ++k) {
    if (reasons[k].empty()) continue;
    const PlanOp& op = ops[k];
    out->degraded_ops.push_back(static_cast<int>(k));
    if (op.kind == PlanOpKind::kLoad) {
      // A degraded load excludes its source from every condition evaluated
      // against the loaded relation downstream.
      bool found_dependent = false;
      for (size_t j = k + 1; j < ops.size(); ++j) {
        if (ops[j].kind == PlanOpKind::kLocalSelect &&
            ops[j].input == op.target) {
          out->excluded.push_back({ops[j].cond, op.source, reasons[k]});
          found_dependent = true;
        }
      }
      if (!found_dependent) {
        out->excluded.push_back({-1, op.source, reasons[k]});
      }
    } else {
      out->excluded.push_back({op.cond, op.source, reasons[k]});
    }
  }
  out->answer_complete = out->degraded_ops.empty();
  out->sound = true;  // by construction: non-degradable ops fail the query
}

bool IsDegradableFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInternal:          // transient retries exhausted
    case StatusCode::kUnavailable:       // source down / breaker open
    case StatusCode::kDeadlineExceeded:  // call timeout / deadline
      return true;
    default:
      return false;
  }
}

}  // namespace exec_internal
}  // namespace fusion
