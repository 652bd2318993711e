#ifndef FUSION_PROTOCOL_CHAOS_H_
#define FUSION_PROTOCOL_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "protocol/socket.h"

namespace fusion {

/// Fault-injection policy for the wire layer: TcpServer (the one server
/// behind fusionqd's FUSIONQ/1 and fusionsd's FUSIONP/1 connections) wraps
/// every accepted socket in a ChaosSocket driven by one of these, so connection
/// resets, torn writes, byte-level delays, accept-time refusals, and
/// mid-stream hangs are injected continuously — in tests (the `chaos` ctest
/// label) and in live daemons (`fusionqd --chaos-drop-rate=...`).
///
/// All decisions come from one seeded splitmix64 stream (see ChaosDecider),
/// so a failing run replays under the same seed (FUSION_SEED / --chaos-seed)
/// with the same injected-fault schedule.
struct ChaosPolicy {
  /// Probability a Send or Receive closes the connection instead (the peer
  /// observes a reset: kUnavailable before a frame, kParseError mid-frame).
  double drop_rate = 0.0;
  /// Probability a Send ships only a prefix of the frame and then closes —
  /// the peer sees a torn (half) message.
  double torn_write_rate = 0.0;
  /// Probability an operation is delayed by delay_ms before proceeding
  /// (byte-level latency jitter; the operation still completes).
  double delay_rate = 0.0;
  double delay_ms = 2.0;
  /// Probability an accepted connection is refused (closed immediately,
  /// before any byte is served). Applied by TcpServer at accept time.
  double accept_refuse_rate = 0.0;
  /// Probability an operation hangs for hang_ms before proceeding — long
  /// enough to trip stall deadlines, bounded so tests stay fast.
  double hang_rate = 0.0;
  double hang_ms = 50.0;
  /// Root seed of the decision stream. Callers building a policy from flags
  /// should resolve it through GlobalSeed() so FUSION_SEED replays the run.
  uint64_t seed = 1;

  /// True when any injection can ever fire; a disabled policy makes
  /// ChaosSocket a zero-cost passthrough.
  bool enabled() const {
    return drop_rate > 0.0 || torn_write_rate > 0.0 || delay_rate > 0.0 ||
           accept_refuse_rate > 0.0 || hang_rate > 0.0;
  }
};

/// The shared, thread-safe decision stream behind a ChaosPolicy: one atomic
/// event counter hashed through splitmix64 (MixSeed) per decision. Every
/// socket wrapped over the same decider draws from the same replayable
/// stream, so a whole daemon's fault schedule is a pure function of the
/// seed and the decision order.
class ChaosDecider {
 public:
  explicit ChaosDecider(const ChaosPolicy& policy) : policy_(policy) {}

  const ChaosPolicy& policy() const { return policy_; }

  /// Next uniform draw in [0, 1).
  double NextUniform();
  /// Bernoulli trial against `probability`, consuming one draw.
  bool Fire(double probability) {
    return probability > 0.0 && NextUniform() < probability;
  }
  /// Decisions drawn so far (diagnostics; the replay cursor).
  uint64_t decisions() const {
    return counter_.load(std::memory_order_relaxed);
  }

 private:
  const ChaosPolicy policy_;
  std::atomic<uint64_t> counter_{0};
};

/// Total faults injected by all ChaosSockets of this process, by kind —
/// surfaced as chaos_* counters in the metrics registry too, so STATS can
/// report how much abuse a run actually absorbed.
struct ChaosCounts {
  uint64_t drops = 0;
  uint64_t torn_writes = 0;
  uint64_t delays = 0;
  uint64_t hangs = 0;
  uint64_t refusals = 0;
};

/// Decorator over MessageSocket with the same Send/Receive/Close surface.
/// Without a decider (or with a disabled policy) every call passes straight
/// through; with one, Send and Receive consult the shared decision stream
/// and may reset the connection, tear a frame, or stall.
///
/// Injected failures surface exactly like real network failures
/// (kUnavailable locally, a reset/torn frame remotely), so recovery code
/// paths cannot tell chaos from a genuine outage — which is the point. An
/// injected reset shuts the connection down but keeps the fd until Close(),
/// so a server's live-connection registry never holds a released fd.
class ChaosSocket {
 public:
  ChaosSocket() = default;
  /// Passthrough wrap (no chaos) — implicit, so serve loops written against
  /// ChaosSocket accept a plain MessageSocket unchanged.
  ChaosSocket(MessageSocket socket)  // NOLINT(google-explicit-constructor)
      : socket_(std::move(socket)) {}
  ChaosSocket(MessageSocket socket, std::shared_ptr<ChaosDecider> chaos)
      : socket_(std::move(socket)), chaos_(std::move(chaos)) {}

  ChaosSocket(ChaosSocket&&) = default;
  ChaosSocket& operator=(ChaosSocket&&) = default;

  bool valid() const { return socket_.valid(); }
  int fd() const { return socket_.fd(); }
  MessageSocket& inner() { return socket_; }

  /// As MessageSocket::Send, possibly injecting a delay, a torn write (a
  /// prefix is shipped, then the connection closes, Status kUnavailable), or
  /// a reset (nothing shipped, kUnavailable).
  Status Send(const std::string& message);

  /// As MessageSocket::Receive, possibly injecting a delay/hang before the
  /// read or a reset instead of it (kUnavailable).
  Result<std::string> Receive();

  void Close() { socket_.Close(); }

 private:
  MessageSocket socket_;
  std::shared_ptr<ChaosDecider> chaos_;
};

/// Process-wide injected-fault totals (all deciders' sockets).
ChaosCounts GlobalChaosCounts();

/// Accept-time refusal decision for TcpServer: true when the freshly
/// accepted connection should be closed immediately, before serving a byte
/// (counted as a chaos refusal). Null/disabled deciders never refuse.
bool ChaosRefuseAccept(ChaosDecider* chaos);

}  // namespace fusion

#endif  // FUSION_PROTOCOL_CHAOS_H_
