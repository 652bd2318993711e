#include "protocol/remote_source.h"

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/relation.h"

namespace fusion {
namespace {

/// Span-name suffixes per request kind ("rpc.sjq").
constexpr WireWords<SourceRequest::Kind> kSpanNames[] = {
    {SourceRequest::Kind::kHello, "hello"},
    {SourceRequest::Kind::kSelect, "sq"},
    {SourceRequest::Kind::kSemiJoin, "sjq"},
    {SourceRequest::Kind::kLoad, "lq"},
    {SourceRequest::Kind::kFetch, "fetch"},
};

SourceRequest HelloRequest() {
  SourceRequest hello;
  hello.kind = SourceRequest::Kind::kHello;
  return hello;
}

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
    // The link is a single channel: concurrent workers' requests queue here
    // rather than interleaving bytes on the wire. FUSIONP/1 requests are
    // pure reads, so re-issuing one against another replica is always safe,
    // and a failed attempt replayed no charges.
    std::lock_guard<std::mutex> lock(transport_mu_);
    Result<std::string> reply = link_.Exchange(request_text, Resend::kAlways);
    if (!reply.ok()) {
      return Status::Unavailable("source '" + name_ +
                                 "': all replicas failed: " +
                                 reply.status().message());
    }
    response_text = std::move(reply).value();
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
    span.AddAttr("source", name_);
    span.AddAttr("bytes_sent", request_text.size());
    span.AddAttr("bytes_received", response_text.size());
  }
  FUSION_ASSIGN_OR_RETURN(SourceResponse response,
                          ParseResponse(response_text));
  if (ledger != nullptr) {
    for (const ChargeSummary& summary : response.charges) {
      Charge charge;
      charge.source = name_;
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
                  "remote source '" + name_ +
                      "': " + response.error_message);
  }
  return response;
}

Result<FeatureSet> RemoteSource::CheckHello(const std::string& reply) {
  FUSION_ASSIGN_OR_RETURN(const SourceResponse response, ParseResponse(reply));
  if (!response.ok) {
    return Status(response.error_code,
                  "replica hello: " + response.error_message);
  }
  const FeatureSet features = FeatureSet::FromNames(response.features);
  if (!name_.empty()) {
    // A redial must reach a replica of the same source (same name), not a
    // misconfigured endpoint.
    if (response.name == name_) return features;
    return Status::Internal("replica " + link_.active_endpoint() +
                            " serves source '" + response.name +
                            "', expected '" + name_ + "'");
  }
  // The first dial adopts the metadata; the name goes last, so a HELLO
  // that fails to parse adopts nothing.
  if (response.name.empty()) {
    return Status::ParseError("HELLO response carries no source name");
  }
  FUSION_RETURN_IF_ERROR(ParseWireWord(response.semijoin_support,
                                       kSemijoinWireWords, "semijoin capability",
                                       &capabilities_.semijoin));
  capabilities_.supports_load = response.supports_load;
  FUSION_ASSIGN_OR_RETURN(const Relation schema_relation,
                          RelationFromLines(response.relation_lines));
  schema_ = schema_relation.schema();
  peer_traces_ = features.Has(Feature::kTrace);
  name_ = response.name;
  return features;
}

RetryPolicy RemoteSource::DefaultFailoverPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_seconds = 0.005;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.1;
  return policy;
}

RemoteSource::RemoteSource(std::vector<std::string> endpoints,
                           const RetryPolicy& policy)
    : link_(std::move(endpoints), policy, SerializeRequest(HelloRequest()),
            [this](const std::string& reply) { return CheckHello(reply); },
            /*reconnects=*/nullptr,
            &MetricsRegistry::Global().counter(
                metrics::kSourceFailoversTotal)) {}

Result<std::unique_ptr<RemoteSource>> RemoteSource::ConnectTcp(
    std::vector<std::string> endpoints, const RetryPolicy& policy) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("ConnectTcp: no endpoints");
  }
  auto source = std::unique_ptr<RemoteSource>(
      new RemoteSource(std::move(endpoints), policy));
  std::lock_guard<std::mutex> lock(source->transport_mu_);
  // The initial connect walks the replicas like any failover: the catalog
  // stays loadable while any one replica is up.
  FUSION_RETURN_IF_ERROR(source->link_.Connect());
  return source;
}

size_t RemoteSource::failovers() const {
  std::lock_guard<std::mutex> lock(transport_mu_);
  return link_.failovers();
}

size_t RemoteSource::reconnects() const {
  std::lock_guard<std::mutex> lock(transport_mu_);
  return link_.reconnects();
}

std::string RemoteSource::active_endpoint() const {
  std::lock_guard<std::mutex> lock(transport_mu_);
  return link_.active_endpoint();
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
