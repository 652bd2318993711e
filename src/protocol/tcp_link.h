#ifndef FUSION_PROTOCOL_TCP_LINK_H_
#define FUSION_PROTOCOL_TCP_LINK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"  // RetryPolicy
#include "protocol/client_protocol.h"
#include "protocol/features.h"
#include "protocol/message.h"
#include "protocol/socket.h"

namespace fusion {

class Counter;

/// Transport-level failures a redial (or a failover to another endpoint or
/// shard) can cure. Protocol-level failures (kParseError from a whole but
/// malformed frame, an ERROR response) are final: a fresh connection would
/// get the same answer.
bool IsTransportError(const Status& status);

/// A SUBMIT idempotency key: unique per (process, salt, mint) with
/// overwhelming probability, deterministic under FUSION_SEED (a soak run
/// replays byte-for-byte), never 0 (0 = "no request-id" on the wire).
/// Minters use distinct salts, so the client's and the router's ids cannot
/// collide under one seed.
uint64_t MintRequestId(uint64_t salt);

/// Whether a request whose frame may already have reached the peer may be
/// sent again after the connection failed.
enum class Resend {
  kAlways,        // read-only or idempotent by construction
  kIfIdempotent,  // only if the peer's HELLO negotiated `idempotency`
  kNever,         // at most once: the transport error surfaces instead
};

/// FUSIONQ/1's rule: HELLO, STATUS, CANCEL, STATS and INVALIDATE (version
/// stamped) are safe to repeat; a SUBMIT executes a query, so it is re-sent
/// only when its request-id lets the peer's dedup table replay the first
/// execution. FUSIONP/1 requests are pure reads: always Resend::kAlways.
Resend ResendRule(const ClientRequest& request);

/// The dialing side of both line protocols: fusion::Client's connection to
/// fusionqd or fusionrd, each of the router's links to a shard, and
/// RemoteSource's connection to fusionsd replicas.
///
///  - Endpoints: a list with a sticky cursor. Each attempt dials the
///    endpoint under the cursor; a failed dial, HELLO or exchange moves the
///    cursor to the next endpoint before the next dial, so the link stays
///    on whatever last worked. A call gets max(retry.max_attempts,
///    endpoints) attempts, so every endpoint is tried at least once, with
///    retry.Backoff between attempts.
///  - HELLO: every dial sends the dialect's HELLO frame and hands the reply
///    to the owner's check, which returns the features the peer negotiated
///    (or refuses the peer). A transport error or kParseError (a torn or
///    garbled reply) moves on to the next attempt; any other refusal ends
///    the call.
///  - Resend: a frame that failed to send is sent again on the next
///    connection. A frame that was sent but got no whole reply is sent
///    again only as its Resend says.
///  - Bounds: every dialed socket gets a kMaxReplyBytes receive cap and the
///    TcpServer::kStallDeadlineSeconds mid-frame stall deadline, once per
///    dial, so a peer that streams without an `end` line or stops
///    mid-frame fails the exchange instead of growing the buffer or
///    pinning the caller.
///
/// Not thread-safe: the owner serializes calls (one exchange in flight).
class TcpLink {
 public:
  /// Checks the peer's HELLO reply: the features it negotiated, or the
  /// reason the peer is refused.
  using HelloCheck = std::function<Result<FeatureSet>(const std::string&)>;

  /// Receive cap on a reply, both dialects: a FUSIONQ/1 answer carries one
  /// `item` line per item with no count limit, and FUSIONP/1 ships whole
  /// relations, so both get the source dialect's frame cap.
  static constexpr size_t kMaxReplyBytes = kMaxSourceFrameBytes;

  /// `reconnects` and `failovers`, when given, are the process-wide
  /// counters bumped per redial after the first dial and per cursor move.
  TcpLink(std::vector<std::string> endpoints, const RetryPolicy& retry,
          std::string hello, HelloCheck check_hello,
          Counter* reconnects = nullptr, Counter* failovers = nullptr);

  /// Dials until one endpoint passes HELLO (no frame is sent).
  Status Connect();
  /// Sends `frame` and returns the whole reply frame, redialing on
  /// transport failure as described above. Returns the last error.
  Result<std::string> Exchange(const std::string& frame, Resend resend);

  /// The features the latest successful HELLO negotiated.
  const FeatureSet& features() const { return features_; }
  /// The endpoint under the cursor: the one connected, or the one that
  /// failed last (the next dial moves on from it).
  const std::string& active_endpoint() const { return endpoints_[cursor_]; }
  /// Successful dials after the first.
  size_t reconnects() const { return reconnects_; }
  /// Cursor moves to another endpoint (0 with a single endpoint).
  size_t failovers() const { return failovers_; }

 private:
  /// One attempt loop; a null `frame` stops once connected.
  Result<std::string> Run(const std::string* frame, Resend resend);
  /// Dials the endpoint under the cursor (moving it first if the current
  /// one failed), arms the bounds and runs HELLO.
  Status Dial();
  /// Closes the connection and marks its endpoint as failed.
  void Fail();

  std::vector<std::string> endpoints_;
  RetryPolicy retry_;
  std::string hello_;
  HelloCheck check_hello_;
  Counter* reconnect_metric_;
  Counter* failover_metric_;

  MessageSocket socket_;
  FeatureSet features_;
  size_t cursor_ = 0;
  bool cursor_failed_ = false;
  bool dialed_once_ = false;
  size_t reconnects_ = 0;
  size_t failovers_ = 0;
};

/// A FUSIONQ/1 link: HELLO as `client_id` advertising every feature this
/// build speaks; the peer's server name is written to `*server` when
/// non-null.
TcpLink ClientProtocolLink(std::vector<std::string> endpoints,
                           const RetryPolicy& retry,
                           const std::string& client_id, std::string* server,
                           Counter* reconnects = nullptr);

}  // namespace fusion

#endif  // FUSION_PROTOCOL_TCP_LINK_H_
