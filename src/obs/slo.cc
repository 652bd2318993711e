#include "obs/slo.h"

namespace fusion {

SloRegistry::Tenant& SloRegistry::Slot(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return *it->second;
  if (named_tenants_ < kMaxTenants) {
    ++named_tenants_;
    return *tenants_.emplace(tenant, std::make_unique<Tenant>())
                .first->second;
  }
  ++overflowed_;
  auto& overflow = tenants_[kOverflowTenant];
  if (overflow == nullptr) overflow = std::make_unique<Tenant>();
  return *overflow;
}

uint64_t SloRegistry::overflowed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overflowed_;
}

void SloRegistry::Register(const std::string& tenant) { Slot(tenant); }

void SloRegistry::RecordCompletion(const std::string& tenant,
                                   double latency_ms, double metered_cost,
                                   bool ok, StatusCode code, bool complete) {
  Tenant& t = Slot(tenant);
  std::lock_guard<std::mutex> lock(t.mu);
  ++t.requests;
  if (!ok) {
    ++t.errors;
    if (code == StatusCode::kDeadlineExceeded) ++t.deadline_exceeded;
    if (code == StatusCode::kCancelled) ++t.cancelled;
  } else if (!complete) {
    ++t.degraded;
  }
  t.metered_cost += metered_cost;
  t.latency_ms.Observe(latency_ms);
  t.window[t.window_next] = ok ? 0 : 1;
  t.window_next = (t.window_next + 1) % kErrorWindow;
  if (t.window_filled < kErrorWindow) ++t.window_filled;
}

void SloRegistry::RecordShed(const std::string& tenant) {
  Tenant& t = Slot(tenant);
  std::lock_guard<std::mutex> lock(t.mu);
  ++t.shed;
}

std::vector<TenantSloSnapshot> SloRegistry::Snapshot() const {
  std::vector<TenantSloSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {  // map order: sorted by tenant
    std::lock_guard<std::mutex> tenant_lock(t->mu);
    TenantSloSnapshot snap;
    snap.tenant = name;
    snap.requests = t->requests;
    snap.errors = t->errors;
    snap.shed = t->shed;
    snap.deadline_exceeded = t->deadline_exceeded;
    snap.cancelled = t->cancelled;
    snap.degraded = t->degraded;
    snap.metered_cost = t->metered_cost;
    uint64_t window_errors = 0;
    for (size_t i = 0; i < t->window_filled; ++i) {
      window_errors += t->window[i];
    }
    snap.error_rate =
        t->window_filled == 0
            ? 0.0
            : static_cast<double>(window_errors) /
                  static_cast<double>(t->window_filled);
    snap.latency_ms = t->latency_ms.Snapshot();
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace fusion
