#include "protocol/remote_source.h"

#include <algorithm>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/relation.h"

namespace fusion {
namespace {

/// Stalled-replica guard: a replica that goes silent mid-frame for this
/// long is treated as dead and failed over, so a hung source cannot pin an
/// executor worker.
constexpr double kTcpStallDeadlineSeconds = 10.0;

/// Span-name suffixes per request kind ("rpc.sjq").
constexpr WireWords<SourceRequest::Kind> kSpanNames[] = {
    {SourceRequest::Kind::kHello, "hello"},
    {SourceRequest::Kind::kSelect, "sq"},
    {SourceRequest::Kind::kSemiJoin, "sjq"},
    {SourceRequest::Kind::kLoad, "lq"},
    {SourceRequest::Kind::kFetch, "fetch"},
};

Result<Relation> RelationFromLines(const std::vector<std::string>& lines) {
  std::string csv;
  for (const std::string& line : lines) {
    csv += line;
    csv += '\n';
  }
  return RelationFromCsv(csv);
}

}  // namespace

Result<SourceResponse> RemoteSource::RoundTrip(SourceRequest& request,
                                               CostLedger* ledger) {
  ScopedSpan span(SpanCategory::kRpc,
                  std::string("rpc.") + WireWordFor(request.kind, kSpanNames));
  if (peer_traces_) {
    // Forward the ambient context (which the rpc span just joined/extended
    // when tracing is on, and which a TraceContextScope upstream installed
    // even when it is off) so the server's spans stitch into one trace.
    const TraceContext context = Tracer::CurrentContext();
    request.trace_id = context.trace_id;
    request.parent_span = context.span_id;
  }
  const std::string request_text = SerializeRequest(request);
  std::string response_text;
  {
    // The transport is a single channel: concurrent workers' requests queue
    // here rather than interleaving bytes on the wire.
    std::lock_guard<std::mutex> lock(transport_mu_);
    if (tcp_mode_) {
      FUSION_ASSIGN_OR_RETURN(response_text, TcpExchangeLocked(request_text));
    } else {
      response_text = transport_(request_text);
    }
  }
  {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static Counter& requests = registry.counter(metrics::kRpcRequests);
    static Counter& bytes_sent = registry.counter(metrics::kRpcBytesSent);
    static Counter& bytes_received =
        registry.counter(metrics::kRpcBytesReceived);
    requests.Increment();
    bytes_sent.Increment(request_text.size());
    bytes_received.Increment(response_text.size());
  }
  if (span.active()) {
    if (!name_.empty()) span.AddAttr("source", name_);
    span.AddAttr("bytes_sent", request_text.size());
    span.AddAttr("bytes_received", response_text.size());
  }
  FUSION_ASSIGN_OR_RETURN(SourceResponse response,
                          ParseResponse(response_text));
  if (ledger != nullptr) {
    for (const ChargeSummary& summary : response.charges) {
      Charge charge;
      charge.source = name_.empty() ? response.name : name_;
      // Charge kinds survive as their display names; the enum value is only
      // cosmetic on the mediator side, so map the common ones.
      charge.kind = summary.kind == "sjq" ? ChargeKind::kSemiJoin
                    : summary.kind == "lq" ? ChargeKind::kLoad
                    : summary.kind == "fetch" ? ChargeKind::kFetchRecords
                        : ChargeKind::kSelect;
      charge.detail = "remote " + summary.kind;
      charge.items_sent = summary.items_sent;
      charge.items_received = summary.items_received;
      charge.tuples_scanned = summary.tuples_scanned;
      charge.cost = summary.cost;
      ledger->Add(std::move(charge));
    }
  }
  if (!response.ok) {
    return Status(response.error_code,
                  "remote source '" + (name_.empty() ? "?" : name_) +
                      "': " + response.error_message);
  }
  return response;
}

Status RemoteSource::AdoptHello(const SourceResponse& response) {
  if (response.name.empty()) {
    return Status::ParseError("HELLO response carries no source name");
  }
  name_ = response.name;
  peer_traces_ = false;
  for (const std::string& feature : response.features) {
    if (feature == "trace") peer_traces_ = true;
  }
  FUSION_RETURN_IF_ERROR(ParseWireWord(response.semijoin_support,
                                       kSemijoinWireWords, "semijoin capability",
                                       &capabilities_.semijoin));
  capabilities_.supports_load = response.supports_load;
  FUSION_ASSIGN_OR_RETURN(const Relation schema_relation,
                          RelationFromLines(response.relation_lines));
  schema_ = schema_relation.schema();
  return Status::Ok();
}

Result<std::unique_ptr<RemoteSource>> RemoteSource::Connect(
    ProtocolTransport transport) {
  auto source = std::unique_ptr<RemoteSource>(
      new RemoteSource(std::move(transport)));
  SourceRequest hello;
  hello.kind = SourceRequest::Kind::kHello;
  FUSION_ASSIGN_OR_RETURN(const SourceResponse response,
                          source->RoundTrip(hello, nullptr));
  FUSION_RETURN_IF_ERROR(source->AdoptHello(response));
  return source;
}

RetryPolicy RemoteSource::DefaultFailoverPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_seconds = 0.005;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.1;
  return policy;
}

Result<std::unique_ptr<RemoteSource>> RemoteSource::ConnectTcp(
    std::vector<std::string> endpoints, const RetryPolicy& policy) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("ConnectTcp: no endpoints");
  }
  auto source = std::unique_ptr<RemoteSource>(new RemoteSource(nullptr));
  source->tcp_mode_ = true;
  source->endpoints_ = std::move(endpoints);
  source->failover_ = policy;
  {
    std::lock_guard<std::mutex> lock(source->transport_mu_);
    // Initial connect rotates across the replicas like any failover: the
    // catalog stays loadable while any one replica is up.
    const int attempts =
        std::max(std::max(1, policy.max_attempts),
                 static_cast<int>(source->endpoints_.size()));
    Status dialed = Status::Unavailable("never dialed");
    for (int attempt = 1; attempt <= attempts; ++attempt) {
      if (attempt > 1) policy.Backoff(attempt - 1);
      dialed = source->TcpDialActiveLocked();
      if (dialed.ok()) break;
      source->TcpAdvanceReplicaLocked();
    }
    FUSION_RETURN_IF_ERROR(dialed);
    FUSION_RETURN_IF_ERROR(source->AdoptHello(source->last_hello_));
  }
  return source;
}

Status RemoteSource::TcpDialActiveLocked() {
  socket_.Close();
  Result<MessageSocket> dialed = DialTcp(endpoints_[active_]);
  if (!dialed.ok()) return dialed.status();
  socket_ = std::move(dialed).value();
  (void)socket_.SetStallDeadline(kTcpStallDeadlineSeconds);
  socket_.SetReceiveLimit(kMaxSourceFrameBytes);
  // Validate the replica via HELLO before trusting it with a query — and,
  // after the first connect, that it really is a replica of the same
  // source (same name) rather than a misconfigured endpoint.
  SourceRequest hello;
  hello.kind = SourceRequest::Kind::kHello;
  Result<SourceResponse> parsed = [&]() -> Result<SourceResponse> {
    FUSION_RETURN_IF_ERROR(socket_.Send(SerializeRequest(hello)));
    FUSION_ASSIGN_OR_RETURN(const std::string reply, socket_.Receive());
    FUSION_ASSIGN_OR_RETURN(SourceResponse response, ParseResponse(reply));
    if (!response.ok) {
      return Status(response.error_code,
                    "replica hello: " + response.error_message);
    }
    if (!name_.empty() && response.name != name_) {
      return Status::Internal("replica " + endpoints_[active_] +
                              " serves source '" + response.name +
                              "', expected '" + name_ + "'");
    }
    return response;
  }();
  if (!parsed.ok()) {
    socket_.Close();
    return parsed.status();
  }
  last_hello_ = std::move(parsed).value();
  if (dialed_once_) ++reconnects_;
  dialed_once_ = true;
  return Status::Ok();
}

void RemoteSource::TcpAdvanceReplicaLocked() {
  if (endpoints_.size() <= 1) return;
  active_ = (active_ + 1) % endpoints_.size();
  ++failovers_;
  static Counter& failovers =
      MetricsRegistry::Global().counter(metrics::kSourceFailoversTotal);
  failovers.Increment();
}

Result<std::string> RemoteSource::TcpExchangeLocked(
    const std::string& request_text) {
  const int attempts = std::max(std::max(1, failover_.max_attempts),
                                static_cast<int>(endpoints_.size()));
  Status last_error = Status::Unavailable("never sent");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) failover_.Backoff(attempt - 1);
    if (!socket_.valid()) {
      const Status dialed = TcpDialActiveLocked();
      if (!dialed.ok()) {
        last_error = dialed;
        TcpAdvanceReplicaLocked();
        continue;
      }
    }
    const Status sent = socket_.Send(request_text);
    if (sent.ok()) {
      Result<std::string> reply = socket_.Receive();
      if (reply.ok()) return reply;
      last_error = reply.status();
    } else {
      last_error = sent;
    }
    // Transport failure: this replica is suspect. FUSIONP/1 requests are
    // pure reads, so re-issuing against the next replica is always safe —
    // and the failed attempt replayed no charges, so nothing is metered
    // twice.
    socket_.Close();
    TcpAdvanceReplicaLocked();
  }
  return Status::Unavailable("source '" + (name_.empty() ? "?" : name_) +
                             "': all replicas failed: " + last_error.message());
}

size_t RemoteSource::failovers() const {
  std::lock_guard<std::mutex> lock(transport_mu_);
  return failovers_;
}

size_t RemoteSource::reconnects() const {
  std::lock_guard<std::mutex> lock(transport_mu_);
  return reconnects_;
}

std::string RemoteSource::active_endpoint() const {
  std::lock_guard<std::mutex> lock(transport_mu_);
  return tcp_mode_ ? endpoints_[active_] : std::string();
}

Result<ItemSet> RemoteSource::Select(const Condition& cond,
                                     const std::string& merge_attribute,
                                     CostLedger* ledger) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSelect;
  request.merge_attribute = merge_attribute;
  request.condition_text = cond.ToString();
  FUSION_ASSIGN_OR_RETURN(SourceResponse response, RoundTrip(request, ledger));
  return ItemSet(std::move(response.items));
}

Result<ItemSet> RemoteSource::SemiJoin(const Condition& cond,
                                       const std::string& merge_attribute,
                                       const ItemSet& candidates,
                                       CostLedger* ledger) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSemiJoin;
  request.merge_attribute = merge_attribute;
  request.condition_text = cond.ToString();
  request.bindings.assign(candidates.begin(), candidates.end());
  FUSION_ASSIGN_OR_RETURN(SourceResponse response, RoundTrip(request, ledger));
  return ItemSet(std::move(response.items));
}

Result<Relation> RemoteSource::Load(CostLedger* ledger) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kLoad;
  FUSION_ASSIGN_OR_RETURN(const SourceResponse response,
                          RoundTrip(request, ledger));
  return RelationFromLines(response.relation_lines);
}

Result<Relation> RemoteSource::FetchRecords(const std::string& merge_attribute,
                                            const ItemSet& items,
                                            CostLedger* ledger) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kFetch;
  request.merge_attribute = merge_attribute;
  request.bindings.assign(items.begin(), items.end());
  FUSION_ASSIGN_OR_RETURN(const SourceResponse response,
                          RoundTrip(request, ledger));
  return RelationFromLines(response.relation_lines);
}

}  // namespace fusion
