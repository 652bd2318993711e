#ifndef FUSION_OBS_METRICS_H_
#define FUSION_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fusion {

/// Monotonic event count. All operations are relaxed atomics: metrics
/// tolerate reordering, never tear, and cost one uncontended RMW on the hot
/// path.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-written point-in-time value.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

struct HistogramSnapshot {
  std::vector<uint64_t> buckets;  // kNumBuckets counts
  uint64_t count = 0;
  double sum = 0.0;

  double mean() const { return count == 0 ? 0.0 : sum / count; }

  /// Estimated q-quantile (q in [0,1], clamped) by linear interpolation
  /// inside the log-scale bucket holding the q·count-th observation. The
  /// unbounded last bucket reports its finite lower boundary. Both the
  /// bench harness and the STATS exposition compute percentiles through
  /// this, so a p99 read off the wire matches the one in BENCH_<date>.json
  /// by construction.
  double Quantile(double q) const;
};

/// Fixed log-scale histogram: bucket 0 holds observations <= 1, bucket i
/// (i >= 1) holds (2^(i-1), 2^i], and the last bucket is unbounded above.
/// The boundaries are compile-time constants, so snapshots from different
/// processes/runs are directly comparable — no dynamic rebucketing.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 32;

  void Observe(double v);
  HistogramSnapshot Snapshot() const;
  void Reset();

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// The bucket an observation lands in.
  static size_t BucketIndex(double v);
  /// Inclusive upper bound of bucket i (+inf for the last).
  static double BucketUpperBound(size_t i);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Process-wide named metrics. Lookup registers on first use and returns a
/// reference that stays valid (and keeps its identity across ResetAll) for
/// the life of the process, so hot paths cache it in a function-local
/// static:
///
///   static Counter& retries =
///       MetricsRegistry::Global().counter(metrics::kRetriesTotal);
///   retries.Increment();
///
/// Lookups take a mutex; increments on the returned objects are lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Point-in-time copy of every registered metric, keyed by name.
  MetricsSnapshot Snapshot() const;

  /// Human-readable dump, one metric per line, sorted by name.
  std::string DumpText() const;

  /// Zeroes every metric's value. Registrations (and references handed out)
  /// survive — this resets the numbers, not the registry.
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Canonical metric names instrumented across the stack. Dotted suffixes
/// play the role of labels (source_calls_total.sq == source_calls_total
/// with kind=sq).
namespace metrics {

inline constexpr char kSourceCallsSq[] = "source_calls_total.sq";
inline constexpr char kSourceCallsSjq[] = "source_calls_total.sjq";
inline constexpr char kSourceCallsProbe[] = "source_calls_total.probe";
inline constexpr char kSourceCallsLq[] = "source_calls_total.lq";
inline constexpr char kSourceCallsFetch[] = "source_calls_total.fetch";
inline constexpr char kSourceCallCost[] = "source_call_cost";  // histogram
inline constexpr char kRetriesTotal[] = "retries_total";
inline constexpr char kBackoffSleepsTotal[] = "backoff_sleeps_total";
inline constexpr char kDeadlineExceededTotal[] = "deadline_exceeded_total";
/// Source calls refused at admission because the query's cancellation token
/// was set (the serving layer's CANCEL path).
inline constexpr char kCancelledTotal[] = "cancelled_total";
/// The serving layer (mediator/service.h): requests accepted into the
/// admission queue, those of them run at once on their own connection
/// thread (a waiting SUBMIT that found nothing queued and a permit free),
/// requests shed with kUnavailable at saturation, requests cancelled before
/// or during execution, and the live queue depth gauge.
inline constexpr char kServiceRequestsTotal[] = "service_requests_total";
inline constexpr char kServiceInlineRunsTotal[] = "service_inline_runs_total";
inline constexpr char kServiceSheddedTotal[] = "service_shedded_total";
inline constexpr char kServiceCancelledTotal[] = "service_cancelled_total";
inline constexpr char kServiceQueueDepth[] = "service_queue_depth";  // gauge
inline constexpr char kServiceActiveClients[] =
    "service_active_clients";  // gauge
/// Per-service, rendered into STATS from SloRegistry::overflowed() (not a
/// registry metric): tenant lookups folded into the overflow tenant row.
inline constexpr char kSloTenantOverflowTotal[] = "slo_tenant_overflow_total";
inline constexpr char kBreakerOpensTotal[] = "breaker_opens_total";
inline constexpr char kBreakerFastFailsTotal[] = "breaker_fast_fails_total";
inline constexpr char kCacheHits[] = "cache_hits_total";
inline constexpr char kCacheMisses[] = "cache_misses_total";
inline constexpr char kCacheFlightWaits[] = "cache_flight_waits_total";
/// Answers derived locally from a containing cached entry (sjq from sq,
/// sq/sjq from lq, sjq from a candidate-superset sjq) — no source call.
inline constexpr char kCacheContainmentHits[] = "cache_containment_hits_total";
/// Entries dropped for the byte budget or TTL expiry.
inline constexpr char kCacheEvictions[] = "cache_evictions_total";
inline constexpr char kCacheInvalidations[] = "cache_invalidations_total";
inline constexpr char kCacheBytes[] = "cache_bytes";      // gauge
inline constexpr char kCacheEntries[] = "cache_entries";  // gauge
inline constexpr char kEmulatedSemijoins[] = "emulated_semijoins_total";
inline constexpr char kOptimizerPlansConsidered[] =
    "optimizer_plans_considered";
inline constexpr char kRpcBytesSent[] = "rpc_bytes_sent";
inline constexpr char kRpcBytesReceived[] = "rpc_bytes_received";
inline constexpr char kRpcRequests[] = "rpc_requests_total";
inline constexpr char kRpcServerRequests[] = "rpc_server_requests_total";
/// Network-resilience counters: connected clients redialing a lost fusionqd
/// connection, SUBMITs answered from the service's idempotency dedup table
/// (a replay after reconnect — no re-execution, no re-metering), and
/// RemoteSource transport failovers to another replica endpoint.
inline constexpr char kClientReconnectsTotal[] = "client_reconnects_total";
inline constexpr char kIdempotentReplaysTotal[] = "idempotent_replays_total";
inline constexpr char kSourceFailoversTotal[] = "source_failovers_total";
/// Fleet cache coherence: version-stamped INVALIDATE verbs applied, vs
/// answered `stale` (an idempotent replay of an already-applied version).
inline constexpr char kInvalidatesAppliedTotal[] = "invalidates_applied_total";
inline constexpr char kInvalidatesStaleTotal[] = "invalidates_stale_total";
/// The fusionrd router: SUBMITs forwarded shard-ward, forwards whose query
/// key was seen before (warm), warm forwards that landed on the same shard
/// as last time (memo/cache locality), transport failovers to the
/// next-ranked shard, INVALIDATE fan-out deliveries, and request bytes
/// forwarded to shards (the cross-shard traffic proxy).
inline constexpr char kRouterForwardsTotal[] = "router_forwards_total";
inline constexpr char kRouterWarmForwardsTotal[] = "router_warm_forwards_total";
inline constexpr char kRouterWarmHitsTotal[] = "router_warm_hits_total";
inline constexpr char kRouterFailoversTotal[] = "router_failovers_total";
inline constexpr char kRouterInvalidateFanoutsTotal[] =
    "router_invalidate_fanouts_total";
inline constexpr char kRouterForwardBytes[] = "router_forward_bytes";
/// Faults injected by the chaos layer (protocol/chaos.h), by kind.
inline constexpr char kChaosDropsTotal[] = "chaos_drops_total";
inline constexpr char kChaosTornWritesTotal[] = "chaos_torn_writes_total";
inline constexpr char kChaosDelaysTotal[] = "chaos_delays_total";
inline constexpr char kChaosHangsTotal[] = "chaos_hangs_total";
inline constexpr char kChaosRefusalsTotal[] = "chaos_refusals_total";

/// Maps a CallWithRetries op tag ("sq"/"sjq"/"probe"/"lq"/"fetch") to its
/// source_calls_total counter name.
const char* SourceCallCounterName(const char* op);

/// Per-source circuit breaker state gauge name ("breaker_state.<source>");
/// values follow SourceHealth::BreakerState (0 closed, 1 half-open, 2 open).
std::string BreakerStateGaugeName(const std::string& source_name);

}  // namespace metrics

}  // namespace fusion

#endif  // FUSION_OBS_METRICS_H_
