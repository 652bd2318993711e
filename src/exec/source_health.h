#ifndef FUSION_EXEC_SOURCE_HEALTH_H_
#define FUSION_EXEC_SOURCE_HEALTH_H_

#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fusion {

/// Per-source circuit breakers shared across the queries of a session: one
/// query's pain informs the next. An Internet source that stopped answering
/// should not be charged a full retry ladder on every subsequent call — after
/// `failure_threshold` consecutive failures the breaker *opens* and calls
/// fail fast with kUnavailable, issuing no source round-trip and leaving no
/// ledger charge. After `open_cooldown_rejections` fast-fails the next call
/// is admitted as a *half-open probe*: its success closes the breaker, its
/// failure re-opens it for another cool-down.
///
/// The cool-down is counted in rejected calls, not wall-clock time, so
/// breaker behaviour is deterministic under test and independent of machine
/// speed; an idle breaker simply probes on the next call after its quota of
/// rejections.
///
///   closed ──(failure_threshold consecutive failures)──▶ open
///   open ──(open_cooldown_rejections fast-fails)──▶ half-open (one probe)
///   half-open ──probe ok──▶ closed          half-open ──probe fails──▶ open
///
/// Thread-safety: all methods are internally synchronized; the thread-pool
/// scheduler's workers may Admit/Record concurrently. During half-open,
/// exactly one caller is admitted as the probe — concurrent callers keep
/// fast-failing until the probe settles, so a recovering source is not
/// stampeded.
class SourceHealth {
 public:
  struct Options {
    /// Consecutive failures (across calls and retry attempts, shared by all
    /// queries using this SourceHealth) that open the breaker.
    int failure_threshold = 5;
    /// Fast-failed calls absorbed while open before a half-open probe is
    /// admitted.
    int open_cooldown_rejections = 1;
  };

  enum class BreakerState { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

  struct Admission {
    bool allowed = true;
    /// True when this call is the half-open probe: its outcome decides
    /// whether the breaker closes or re-opens.
    bool probe = false;
  };

  SourceHealth() : SourceHealth(Options()) {}
  explicit SourceHealth(const Options& options) : options_(options) {}

  SourceHealth(const SourceHealth&) = delete;
  SourceHealth& operator=(const SourceHealth&) = delete;

  /// Gate for one source-call attempt. A disallowed admission means the
  /// caller must fail fast with kUnavailable and issue no round-trip.
  /// `source_name`, when given, keeps the breaker_state.<name> gauge fresh.
  Admission Admit(size_t source, const std::string* source_name = nullptr);

  /// Report one attempt's outcome (every attempt, retries included).
  void RecordSuccess(size_t source, const std::string* source_name = nullptr);
  void RecordFailure(size_t source, const std::string* source_name = nullptr);

  BreakerState state(size_t source) const;
  /// Consecutive-failure count while closed (resets on success).
  int consecutive_failures(size_t source) const;
  /// Calls fast-failed by an open breaker, cumulative.
  size_t fast_fails(size_t source) const;

  /// Forgets all breaker state (e.g. between unrelated federations).
  void Reset();

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    int rejections_since_open = 0;
    bool probe_in_flight = false;
    size_t fast_fails = 0;
  };

  /// Requires mu_ held; grows the table on first contact with a source.
  Breaker& BreakerFor(size_t source);
  void PublishState(const Breaker& breaker, const std::string* source_name);

  const Options options_;
  mutable std::mutex mu_;
  std::vector<Breaker> breakers_;
};

}  // namespace fusion

#endif  // FUSION_EXEC_SOURCE_HEALTH_H_
