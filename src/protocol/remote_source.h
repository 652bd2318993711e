#ifndef FUSION_PROTOCOL_REMOTE_SOURCE_H_
#define FUSION_PROTOCOL_REMOTE_SOURCE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "protocol/message.h"
#include "protocol/tcp_link.h"
#include "source/source_wrapper.h"

namespace fusion {

/// The mediator-side endpoint: a SourceWrapper that speaks FUSIONP/1 to
/// fusionsd replicas over a TcpLink. Metadata (name, schema, capabilities)
/// is fetched once via HELLO at connect; every operation round-trips a
/// message and replays the server's charge summaries into the caller's
/// ledger, so cost accounting is identical to in-process wrappers (a
/// property the protocol tests assert).
///
/// Thread-safety: the link is one bidirectional channel, so round trips are
/// serialized under a mutex — parallel plan workers may call any method
/// concurrently and requests simply queue (matching the one-query-at-a-time
/// source model). Metadata is fixed at connect time and read without
/// locking.
class RemoteSource : public SourceWrapper {
 public:
  /// Connects with replica failover: `endpoints` ("host:port") are
  /// replicas of the *same* source (every one must HELLO with the same
  /// source name); fails if none is reachable or speaks FUSIONP/1.
  /// Operations stick to the connected replica while it is healthy; on a
  /// transport failure the link redials, moving to the next replica, with
  /// capped exponential backoff per `policy` (TcpLink's endpoint rule).
  /// FUSIONP/1 requests are pure reads, so re-issuing one against another
  /// replica is always safe; charges replay from the one successful
  /// response only, so a failed attempt is never double-metered. With every
  /// replica exhausted the operation fails kUnavailable — the transient
  /// class the executor's breakers and degraded mode already handle.
  static Result<std::unique_ptr<RemoteSource>> ConnectTcp(
      std::vector<std::string> endpoints) {
    return ConnectTcp(std::move(endpoints), DefaultFailoverPolicy());
  }
  static Result<std::unique_ptr<RemoteSource>> ConnectTcp(
      std::vector<std::string> endpoints, const RetryPolicy& policy);

  /// The default failover schedule: 6 attempts, 5 ms doubling to a 100 ms
  /// cap — a killed replica costs milliseconds, not a failed query.
  static RetryPolicy DefaultFailoverPolicy();

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  const Capabilities& capabilities() const override { return capabilities_; }

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

  /// Replica rotations after a failure, and successful re-dials after the
  /// initial connect.
  size_t failovers() const;
  size_t reconnects() const;
  /// The replica currently connected, or the one that failed last.
  std::string active_endpoint() const;

 private:
  RemoteSource(std::vector<std::string> endpoints, const RetryPolicy& policy);

  /// Ships a request, parses the response, replays charges into `ledger`,
  /// and maps ERROR responses back into Status. Stamps the caller's ambient
  /// trace context onto the request when the server negotiated `trace`
  /// (mutating the request in place — callers pass throwaway locals).
  Result<SourceResponse> RoundTrip(SourceRequest& request, CostLedger* ledger);

  /// The link's HELLO check, run on every dial: the first adopts the
  /// metadata (name, features, capabilities, schema); later ones must name
  /// the same source. Runs under transport_mu_.
  Result<FeatureSet> CheckHello(const std::string& reply);

  mutable std::mutex transport_mu_;  // one request/response in flight at a time
  std::string name_;
  Schema schema_;
  Capabilities capabilities_;
  /// Whether the HELLO response advertised the `trace` feature; only then
  /// does RoundTrip attach trace lines (old servers never see them).
  bool peer_traces_ = false;
  TcpLink link_;  // guarded by transport_mu_; last: its check reads the above
};

}  // namespace fusion

#endif  // FUSION_PROTOCOL_REMOTE_SOURCE_H_
