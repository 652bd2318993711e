#ifndef FUSION_OBS_TRACE_H_
#define FUSION_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fusion {

/// What a span is accounting for. The categories mirror the layers of the
/// stack so a trace can be filtered per layer (and so tests can count, e.g.,
/// source_call spans against the ledger's query count).
enum class SpanCategory {
  kPhase,       // mediator/session phases: optimize, execute, fetch, learn
  kOptimize,    // one optimizer algorithm run
  kPlanOp,      // one plan op evaluated by an executor
  kSourceCall,  // one metered wrapper call attempt (sq/sjq/lq/fetch/probe)
  kRetry,       // a re-attempt after a transient failure
  kCache,       // source-call cache interactions (hit, single-flight wait)
  kRpc,         // one FUSIONP/1 round trip (client or server side)
};

const char* SpanCategoryName(SpanCategory category);

/// A position in a (possibly distributed) trace: which trace the current
/// work belongs to and which span is the would-be parent of new child spans.
/// Ids are minted by Tracer::MintId — splitmix64 over the seeded RNG stream
/// (common/rng.h), never the wall clock — so a FUSION_SEED replay of a
/// single-process run reproduces its ids bit-for-bit. A context travels
/// across the wire as two decimal fields (FUSIONQ/1 `trace-id`/`parent-span`,
/// FUSIONP/1 `trace`), letting the daemon and source servers stitch their
/// spans into the client's trace.
struct TraceContext {
  uint64_t trace_id = 0;  // 0 = no ambient trace
  uint64_t span_id = 0;   // parent for spans opened under this context

  bool valid() const { return trace_id != 0; }
};

/// One finished span. Times are microseconds since the tracer's epoch
/// (steady clock, so durations and overlap are meaningful; absolute wall
/// time is not recorded). `thread_id` is a small sequential id assigned per
/// OS thread — it is the Chrome trace `tid`, so spans on different ids
/// render on different tracks. `trace_id`/`span_id`/`parent_id` stitch the
/// span into a distributed trace (0 when recorded outside any context).
struct SpanRecord {
  std::string name;
  SpanCategory category = SpanCategory::kPhase;
  double start_us = 0.0;
  double end_us = 0.0;
  uint32_t thread_id = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  std::vector<std::pair<std::string, std::string>> attributes;

  double duration_us() const { return end_us - start_us; }
};

/// Process-wide span collector. Disabled by default: when disabled, opening
/// a ScopedSpan costs one relaxed atomic load and no allocation. When
/// enabled, finished spans append to a lock-sharded in-memory buffer (the
/// shard is picked by thread id, so parallel plan workers do not contend on
/// one mutex).
///
/// The buffer only grows until Drain()/Clear(); callers that trace long
/// processes should drain per query (the CLI and benches do).
class Tracer {
 public:
  static Tracer& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a finished span to the current thread's shard. Called by
  /// ~ScopedSpan; usable directly for spans whose bounds are known.
  void Record(SpanRecord record);

  /// Copies out every recorded span, sorted by (start, end, thread).
  std::vector<SpanRecord> Snapshot() const;

  /// Snapshot()s and empties the buffer.
  std::vector<SpanRecord> Drain();

  void Clear();
  size_t size() const;

  /// Microseconds since the tracer epoch (fixed at first Global() use).
  double NowMicros() const;

  /// Small dense id for the calling thread (assigned on first use).
  static uint32_t CurrentThreadId();

  /// The calling thread's ambient trace context ({0,0} when none). Works
  /// whether or not tracing is enabled: a daemon with local tracing off
  /// still forwards the client's context to source servers.
  static TraceContext CurrentContext();

  /// Mints a nonzero id from the seeded splitmix64 stream: GlobalSeed mixed
  /// with the process id and a process-local counter. No wall clock — a
  /// FUSION_SEED replay of one process mints the same ids in the same
  /// order; distinct processes diverge via the pid salt, so a stitched
  /// three-process trace never collides span ids.
  static uint64_t MintId();

 private:
  friend class ScopedSpan;
  friend class TraceContextScope;

  static TraceContext& MutableCurrentContext();

  Tracer();

  static constexpr size_t kNumShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::vector<SpanRecord> spans;
  };

  std::atomic<bool> enabled_{false};
  int64_t epoch_ns_ = 0;  // steady_clock reading at construction
  Shard shards_[kNumShards];
};

/// RAII span: records [construction, destruction) into Tracer::Global()
/// when tracing is enabled, and is inert (no allocation, one atomic load)
/// when not. Attribute adders are no-ops on an inactive span, so call sites
/// need no `if (enabled)` guards for correctness — only to skip expensive
/// attribute construction.
class ScopedSpan {
 public:
  ScopedSpan(SpanCategory category, const char* name);
  ScopedSpan(SpanCategory category, std::string name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when this span is being recorded; use to gate attribute
  /// construction that would itself cost something.
  bool active() const { return active_; }

  void AddAttr(const char* key, std::string value);
  void AddAttr(const char* key, const char* value);
  void AddAttr(const char* key, double value);
  void AddAttr(const char* key, int64_t value);
  void AddAttr(const char* key, size_t value) {
    AddAttr(key, static_cast<int64_t>(value));
  }

 private:
  bool active_ = false;
  SpanRecord record_;
  TraceContext saved_context_;  // restored on destruction (active spans only)
};

/// RAII adoption of an inbound trace context: installs `context` as the
/// calling thread's ambient context and restores the previous one on
/// destruction. Used where a request crosses a process boundary
/// (QueryService request execution, SourceServer::Handle) so every span
/// opened underneath joins the remote caller's trace. An invalid ({0,0})
/// context is a no-op — the ambient context (e.g. the mediator's own, when
/// the source server runs in the mediator's process) stays in place. Unlike
/// ScopedSpan this is always live — context must flow even when local
/// tracing is disabled, because a downstream process may have tracing on.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// A window into the global trace covering one plan execution, surfaced on
/// ExecutionReport. Valid until the tracer is drained or cleared; an
/// execution run with tracing disabled yields an inert handle.
struct TraceHandle {
  bool enabled = false;
  double start_us = 0.0;
  double end_us = 0.0;

  /// The spans recorded within this window (inclusive), sorted by start.
  std::vector<SpanRecord> Spans() const;
};

}  // namespace fusion

#endif  // FUSION_OBS_TRACE_H_
