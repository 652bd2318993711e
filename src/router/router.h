#ifndef FUSION_ROUTER_ROUTER_H_
#define FUSION_ROUTER_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.h"  // RetryPolicy
#include "protocol/chaos.h"
#include "protocol/client_protocol.h"
#include "protocol/tcp_link.h"
#include "router/shard_map.h"

namespace fusion {

class Counter;

/// The fusionrd query router: the client-facing front of a sharded
/// mediator fleet. Speaks FUSIONQ/1 on both sides — clients connect to it
/// exactly as they would to a single fusionqd (same HELLO, same verbs) and
/// it forwards each request to one of k fusionqd shards over pooled
/// upstream connections.
///
/// Routing discipline:
///
///  - SUBMIT: the sql's canonical query key (shard_map.h) is rendezvous-
///    hashed over the shard map; the owner shard gets the forward. A warm
///    repeated query therefore always lands on the shard whose plan memo
///    and SourceCallCache already hold it — replaying at ~0 metered cost no
///    matter which client connection issued it. If the owner is down
///    (transport-class failure), the next-ranked shard serves instead
///    (failover; queries are read-only, so the worst case is a cold cache,
///    never a wrong answer).
///  - STATUS / CANCEL: tickets returned to clients encode the serving
///    shard in their low byte (shard tickets shifted left 8), so follow-up
///    verbs route straight back to the shard that owns the request.
///  - INVALIDATE: fanned out to *every* shard — the coherence broadcast.
///    The version stamp makes the fan-out idempotent per shard, so a retry
///    after a partial broadcast is safe (already-applied shards answer
///    `stale`). The aggregate state is "applied" if any shard applied.
///  - HELLO: answered locally (the router's name, the full feature set
///    including `sharding`); STATS: the router process's own exposition
///    (per-shard internals are one direct connection away).
///
/// SUBMITs forwarded without a client request-id get one minted by the
/// router, so its own redial-and-resend path never double-executes on a
/// shard that speaks `idempotency`.
///
/// Thread-safe; one QueryRouter serves every connection thread of fusionrd.
class QueryRouter {
 public:
  struct Options {
    /// Router identity reported in the HELLO handshake.
    std::string server_name = "fusionrd";
    /// Dial/redial schedule per forward (attempts × capped backoff).
    RetryPolicy reconnect = DefaultReconnectPolicy();
  };

  /// 4 attempts, 10 ms doubling to a 250 ms cap — a shard mid-restart
  /// costs backoff; a dead shard fails over to the next-ranked in well
  /// under a second.
  static RetryPolicy DefaultReconnectPolicy();

  /// Idle upstream connections kept per shard; extras are closed on
  /// release, so a burst of concurrent forwards leaves at most this many
  /// sockets open once it drains.
  static constexpr size_t kMaxIdleLinksPerShard = 8;
  /// Warm-locality ledger bound: past this many distinct keys the ledger is
  /// cleared (stats restart cold; routing is stateless and unaffected).
  static constexpr size_t kMaxWarmEntries = 64 * 1024;

  QueryRouter(ShardMap shards, const Options& options);
  ~QueryRouter();

  QueryRouter(const QueryRouter&) = delete;
  QueryRouter& operator=(const QueryRouter&) = delete;

  /// Protocol entry point: one serialized FUSIONQ/1 request in, one
  /// serialized response out (parse and forward failures become ERROR
  /// responses, never malformed text).
  std::string Handle(const std::string& request_text);

  /// The per-connection serve loop, as QueryService::ServeConnection.
  /// fusionrd serves the same loop through TcpServer (FrameHandler).
  void ServeConnection(ChaosSocket socket);

  /// Closes every pooled upstream connection; new forwards redial.
  void Shutdown();

  const ShardMap& shards() const { return shards_; }
  const std::string& server_name() const { return options_.server_name; }

  /// Routing counters, for tests and the bench harness's `shards` block.
  struct Counters {
    size_t forwards = 0;        // SUBMITs forwarded (success or not)
    size_t warm_forwards = 0;   // forwards whose key was seen before
    size_t warm_hits = 0;       // warm forwards served by the same shard
    size_t failovers = 0;       // forwards moved past a dead shard
    size_t invalidate_fanouts = 0;  // INVALIDATE deliveries (shards × verbs)
    uint64_t forward_bytes = 0;     // request bytes forwarded shard-ward
    /// SUBMITs each shard actually served (post-failover), index-aligned
    /// with the shard map — the bench harness's per-shard QPS split.
    std::vector<size_t> per_shard_forwards;
  };
  Counters counters() const;

  /// The router process's STATS exposition (served for the STATS verb).
  std::string StatsText() const;

  /// Upstream connections to `shard` pooled idle right now (for tests).
  size_t idle_links(size_t shard) const;
  /// Keys in the warm-locality ledger right now (for tests).
  size_t warm_entries() const;

 private:
  /// Idle-connection pool per shard: concurrent connection threads each
  /// check out a link (a fresh one when the pool is dry) and return it
  /// after the exchange, so forwards never serialize on one upstream
  /// socket.
  struct ShardPool {
    std::mutex mutex;
    std::vector<std::unique_ptr<TcpLink>> idle;
  };

  std::string ForwardSubmit(const ClientRequest& request);
  std::string ForwardTicketVerb(const ClientRequest& request);
  ClientResponse FanOutInvalidate(const ClientRequest& request);

  /// One request/response against `shard` over a pooled TcpLink (redial
  /// under Options::reconnect, resend per ResendRule); returns the shard's
  /// whole reply frame. Pools the link on success; closes it on failure.
  /// Transport-class failures surface to the caller (who may fail over);
  /// protocol errors are final.
  Result<std::string> Exchange(size_t shard, const ClientRequest& request);

  /// The client's frame for a shard reply: relayed as bytes with the ticket
  /// re-tagged (RelayClientResponse), or a kParseError naming the shard.
  std::string Relay(size_t shard, const std::string& reply) const;
  Status ShardError(size_t shard, const Status& status) const;
  /// Bumps one routing counter and its process-wide metric.
  void Count(size_t Counters::*field, Counter& metric);

  Result<std::unique_ptr<TcpLink>> AcquireLink(size_t shard);
  void ReleaseLink(size_t shard, std::unique_ptr<TcpLink> link);

  ShardMap shards_;
  Options options_;
  std::vector<std::unique_ptr<ShardPool>> pools_;

  mutable std::mutex mutex_;
  bool shutting_down_ = false;
  /// key -> shard that served it last: the warm-locality ledger behind
  /// warm_forwards/warm_hits. Bounded: cleared wholesale past
  /// kMaxWarmEntries keys.
  std::map<std::string, size_t> last_shard_;
  Counters counters_;
  /// SUBMIT sql -> routing key.
  QueryKeyMemo keys_;
};

}  // namespace fusion

#endif  // FUSION_ROUTER_ROUTER_H_
