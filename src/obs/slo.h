#ifndef FUSION_OBS_SLO_H_
#define FUSION_OBS_SLO_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace fusion {

/// Point-in-time view of one tenant's SLO accounting; what the STATS
/// exposition and bench trajectory files render. `tenant` is the FUSIONQ/1
/// HELLO client name ("" for requests that never identified themselves).
struct TenantSloSnapshot {
  std::string tenant;
  uint64_t requests = 0;           // completed requests, ok or failed
  uint64_t errors = 0;             // completed with a non-OK status
  uint64_t shed = 0;               // rejected at admission (kUnavailable)
  uint64_t deadline_exceeded = 0;  // failed with kDeadlineExceeded
  uint64_t cancelled = 0;          // failed with kCancelled
  uint64_t degraded = 0;           // answered, but incomplete (sound partial)
  double metered_cost = 0.0;       // total metered source cost
  /// Error fraction over the last SloRegistry::kErrorWindow completions
  /// (not lifetime — a tenant that recovered reads healthy again).
  double error_rate = 0.0;
  HistogramSnapshot latency_ms;
};

/// Per-tenant SLO accounting for the serving tier. One registry per
/// QueryService (not process-global like MetricsRegistry): tenants are a
/// serving-layer concept, and a test standing up two services must not see
/// each other's tenants.
///
/// Thread-safety: all methods are safe to call concurrently. Recording
/// happens once per request completion/shed — far off the per-source-call
/// hot path — so a per-tenant mutex is fine.
class SloRegistry {
 public:
  /// Completions considered by the rolling error rate.
  static constexpr size_t kErrorWindow = 256;
  /// Named tenants kept. Tenant names come from outside the program (the
  /// HELLO client name) and each row costs ~1 KB (latency histogram plus
  /// the error window), so past this many names every new one folds into
  /// the kOverflowTenant row and the table stays bounded.
  static constexpr size_t kMaxTenants = 256;
  static constexpr char kOverflowTenant[] = "other";

  /// Ensures `tenant` exists (the HELLO path), so a connected-but-idle
  /// client is visible in STATS with zero counts.
  void Register(const std::string& tenant);

  /// Accounts one finished request: latency, metered cost, outcome. `code`
  /// classifies failures (kDeadlineExceeded / kCancelled get their own
  /// counters); `complete` is the answer's CompletenessReport verdict.
  void RecordCompletion(const std::string& tenant, double latency_ms,
                        double metered_cost, bool ok, StatusCode code,
                        bool complete);

  /// Accounts one request rejected at admission (queue saturation). Not a
  /// completion: shed requests never entered the service, so they do not
  /// skew the latency histogram or the rolling error rate.
  void RecordShed(const std::string& tenant);

  /// Every tenant's current accounting, sorted by tenant name. At most
  /// kMaxTenants named rows plus the kOverflowTenant row.
  std::vector<TenantSloSnapshot> Snapshot() const;

  /// Registrations and recordings that were folded into kOverflowTenant
  /// because the named-tenant table was full.
  uint64_t overflowed() const;

 private:
  struct Tenant {
    mutable std::mutex mu;
    uint64_t requests = 0;
    uint64_t errors = 0;
    uint64_t shed = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t cancelled = 0;
    uint64_t degraded = 0;
    double metered_cost = 0.0;
    Histogram latency_ms;
    // Rolling outcome ring: 1 = error. `window_filled` counts valid slots.
    std::array<uint8_t, kErrorWindow> window = {};
    size_t window_next = 0;
    size_t window_filled = 0;
  };

  Tenant& Slot(const std::string& tenant);

  mutable std::mutex mu_;  // guards the map and counts, not tenant state
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  size_t named_tenants_ = 0;  // rows created for their own name
  uint64_t overflowed_ = 0;
};

}  // namespace fusion

#endif  // FUSION_OBS_SLO_H_
