#ifndef FUSION_SOURCE_FLAKY_SOURCE_H_
#define FUSION_SOURCE_FLAKY_SOURCE_H_

#include <memory>
#include <mutex>

#include "common/rng.h"
#include "source/source_wrapper.h"

namespace fusion {

/// Failure-injection decorator: wraps any SourceWrapper and makes calls fail
/// transiently — Internet sources time out, rate-limit, and drop
/// connections, and a mediator must cope. Used by tests and robustness
/// benchmarks together with the executor's retry option.
///
/// A failed call still charges the network round-trip overhead to the ledger
/// (the request went out; the answer never came back), so retries are not
/// free — exactly the accounting a real mediator would face.
///
/// Thread-safety: the fail/pass decision (attempt counter + RNG draw) is
/// mutex-guarded, so interleaved attempts from parallel workers neither lose
/// counts nor tear the RNG stream; each call consumes exactly one decision.
/// (The parallel executor additionally serializes same-source ops in plan
/// order, which is what keeps the *assignment* of decisions to calls — and
/// hence the whole execution — deterministic.) The inner source must itself
/// be safe for whatever concurrency the caller applies.
class FlakySource : public SourceWrapper {
 public:
  struct Options {
    /// Probability that any given call fails (after fail_first_k expires).
    double failure_probability = 0.0;
    /// The first k calls fail deterministically (for targeted tests).
    size_t fail_first_k = 0;
    /// Seed of the failure-decision stream. When the FUSION_SEED environment
    /// variable is set (the macro harness's replay knob), the stream is
    /// re-derived as MixSeed(FUSION_SEED, seed): distinct FlakySources keep
    /// distinct streams, but one exported variable replays them all.
    uint64_t seed = 1;
    /// Status code of an injected *transient* failure. kInternal (the
    /// default) is what the executor's retry policy re-attempts; tests use
    /// other codes to assert that only transients are retried.
    StatusCode failure_code = StatusCode::kInternal;
    /// Outage window: calls with index in [outage_start, outage_end) fail
    /// with `outage_code` — a *permanent* failure (retries don't help while
    /// the source is down; the circuit breaker is the right tool). The
    /// default empty window injects no outage.
    size_t outage_start = 0;
    size_t outage_end = 0;
    StatusCode outage_code = StatusCode::kUnavailable;
    /// When non-null, only this operation ("sq", "sjq", "lq", "fetch") is
    /// subject to failure injection and latency; other operations pass
    /// through without consuming a call index or an RNG decision. Must
    /// point at a string with static storage duration.
    const char* target_operation = nullptr;
    /// Wall-clock delay added to every (targeted) call, successful or not —
    /// slow sources are how per-call timeouts get exercised. Applied
    /// outside the decision mutex, so parallel calls still overlap.
    double injected_latency_seconds = 0.0;
  };

  FlakySource(std::unique_ptr<SourceWrapper> inner, const Options& options)
      : inner_(std::move(inner)),
        options_(options),
        rng_(HasGlobalSeed() ? MixSeed(GlobalSeed(0), options.seed)
                             : options.seed) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  const Capabilities& capabilities() const override {
    return inner_->capabilities();
  }
  const SimulatedSource* AsSimulated() const override {
    return inner_->AsSimulated();
  }

  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override;
  Result<ItemSet> SemiJoin(const Condition& cond,
                           const std::string& merge_attribute,
                           const ItemSet& candidates,
                           CostLedger* ledger) override;
  Result<Relation> Load(CostLedger* ledger) override;
  Result<Relation> FetchRecords(const std::string& merge_attribute,
                                const ItemSet& items,
                                CostLedger* ledger) override;

  size_t calls_attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_attempted_;
  }
  size_t calls_failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_failed_;
  }

 private:
  /// Returns non-OK (and meters the wasted round trip) when this call is
  /// chosen to fail — transiently (failure_code), or permanently while
  /// inside the outage window (outage_code). Also applies the injected
  /// latency. Operations not matching `target_operation` pass untouched.
  Status MaybeFail(const char* operation, CostLedger* ledger);

  std::unique_ptr<SourceWrapper> inner_;
  Options options_;
  mutable std::mutex mu_;  // guards rng_ and the counters
  Rng rng_;
  size_t calls_attempted_ = 0;
  size_t calls_failed_ = 0;
};

}  // namespace fusion

#endif  // FUSION_SOURCE_FLAKY_SOURCE_H_
