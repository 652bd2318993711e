#include "protocol/chaos.h"

#include <chrono>
#include <thread>

#include "common/rng.h"
#include "obs/metrics.h"

namespace fusion {
namespace {

/// Global injected-fault totals. Plain atomics (not only the metrics
/// registry) so tests can assert exact deltas without snapshot plumbing.
std::atomic<uint64_t> g_drops{0};
std::atomic<uint64_t> g_torn_writes{0};
std::atomic<uint64_t> g_delays{0};
std::atomic<uint64_t> g_hangs{0};
std::atomic<uint64_t> g_refusals{0};

void CountFault(std::atomic<uint64_t>& local, const char* metric) {
  local.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global().counter(metric).Increment();
}

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

double ChaosDecider::NextUniform() {
  const uint64_t n = counter_.fetch_add(1, std::memory_order_relaxed);
  // splitmix64 over (seed, event index): the k-th decision of a run is a
  // pure function of the seed, independent of which thread draws it.
  const uint64_t bits = MixSeed(policy_.seed, n);
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

Status ChaosSocket::Send(const std::string& message) {
  if (chaos_ != nullptr && chaos_->policy().enabled()) {
    const ChaosPolicy& policy = chaos_->policy();
    if (chaos_->Fire(policy.delay_rate)) {
      CountFault(g_delays, metrics::kChaosDelaysTotal);
      SleepMs(policy.delay_ms);
    }
    if (chaos_->Fire(policy.hang_rate)) {
      CountFault(g_hangs, metrics::kChaosHangsTotal);
      SleepMs(policy.hang_ms);
    }
    if (chaos_->Fire(policy.drop_rate)) {
      CountFault(g_drops, metrics::kChaosDropsTotal);
      socket_.Shutdown();
      return Status::Unavailable("chaos: connection reset before send");
    }
    if (message.size() > 1 && chaos_->Fire(policy.torn_write_rate)) {
      CountFault(g_torn_writes, metrics::kChaosTornWritesTotal);
      // Ship a strict prefix so the peer holds half a frame, then shut down:
      // the peer's next Receive sees "connection closed mid-message".
      const Status sent = socket_.Send(message.substr(0, message.size() / 2));
      socket_.Shutdown();
      return sent.ok() ? Status::Unavailable("chaos: torn write") : sent;
    }
  }
  return socket_.Send(message);
}

Result<std::string> ChaosSocket::Receive() {
  if (chaos_ != nullptr && chaos_->policy().enabled()) {
    const ChaosPolicy& policy = chaos_->policy();
    if (chaos_->Fire(policy.delay_rate)) {
      CountFault(g_delays, metrics::kChaosDelaysTotal);
      SleepMs(policy.delay_ms);
    }
    if (chaos_->Fire(policy.hang_rate)) {
      CountFault(g_hangs, metrics::kChaosHangsTotal);
      SleepMs(policy.hang_ms);
    }
    if (chaos_->Fire(policy.drop_rate)) {
      CountFault(g_drops, metrics::kChaosDropsTotal);
      socket_.Shutdown();
      return Status::Unavailable("chaos: connection reset before receive");
    }
  }
  return socket_.Receive();
}

ChaosCounts GlobalChaosCounts() {
  ChaosCounts counts;
  counts.drops = g_drops.load(std::memory_order_relaxed);
  counts.torn_writes = g_torn_writes.load(std::memory_order_relaxed);
  counts.delays = g_delays.load(std::memory_order_relaxed);
  counts.hangs = g_hangs.load(std::memory_order_relaxed);
  counts.refusals = g_refusals.load(std::memory_order_relaxed);
  return counts;
}

bool ChaosRefuseAccept(ChaosDecider* chaos) {
  if (chaos == nullptr || !chaos->Fire(chaos->policy().accept_refuse_rate)) {
    return false;
  }
  CountFault(g_refusals, metrics::kChaosRefusalsTotal);
  return true;
}

}  // namespace fusion
