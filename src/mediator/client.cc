#include "mediator/client.h"

#include "cli/catalog_config.h"
#include "common/str_util.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/classifier.h"
#include "query/parser.h"

namespace fusion {
namespace {

/// Salt of the client's request-id mint (the router mints with another).
constexpr uint64_t kClientRequestIdSalt = 0x1de9;

const char* CacheProvenanceName(char provenance) {
  switch (provenance) {
    case 'h':
      return "hit";
    case 'c':
      return "containment";
    case 'm':
      return "miss";
    default:
      return "-";
  }
}

}  // namespace

std::vector<std::string> RenderExplainLines(const QueryAnswer& answer,
                                            const PlanPrintNames& names) {
  const OptimizedPlan& optimized = answer.optimized;
  const ExecutionReport& report = answer.execution;
  std::vector<std::string> lines;
  lines.push_back(StrFormat(
      "plan %s (%s), estimated cost %.3f, measured cost %.3f",
      optimized.algorithm.c_str(), PlanClassName(optimized.plan_class),
      optimized.estimated_cost, report.ledger.total()));
  const std::vector<std::string> plan_lines =
      StrSplit(optimized.plan.ToString(names), '\n');
  // Plan::ToString prints exactly one line per op, so line k annotates with
  // op k's measurements.
  for (size_t k = 0; k < plan_lines.size(); ++k) {
    if (plan_lines[k].empty()) continue;
    std::string line = plan_lines[k];
    if (k < optimized.plan.num_ops()) {
      const double cost =
          k < report.per_op_cost.size() ? report.per_op_cost[k] : 0.0;
      const double ms = k < report.per_op_seconds.size()
                            ? report.per_op_seconds[k] * 1e3
                            : 0.0;
      const char provenance =
          k < report.per_op_cache.size() ? report.per_op_cache[k] : '-';
      line += StrFormat("   [cost %.3f, %.3f ms, cache %s]", cost, ms,
                        CacheProvenanceName(provenance));
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

Result<Client> Client::Builder::Build() {
  const int modes = (target_.have_catalog_ ? 1 : 0) +
                    (target_.catalog_file_.empty() ? 0 : 1) +
                    (target_.endpoints_.empty() ? 0 : 1);
  if (modes == 0) {
    return Status::InvalidArgument(
        "Client::Builder needs a target: To(Target::Embedded / "
        "Target::EmbeddedFile / Target::Remote)");
  }
  if (targets_set_ > 1) {
    return Status::InvalidArgument(
        "Client::Builder: exactly one target per Build (To called " +
        std::to_string(targets_set_) + " times)");
  }
  Client client;
  if (!target_.endpoints_.empty()) {
    for (const std::string& endpoint : target_.endpoints_) {
      if (endpoint.empty()) {
        return Status::InvalidArgument(
            "Client::Builder: Target::Remote endpoint is empty");
      }
    }
    // Dialing validates that the peer speaks FUSIONQ/1 (HELLO) before the
    // caller trusts the connection, and retries transient failures across
    // the target's endpoints: a daemon mid-restart (or a chaos accept
    // refusal) costs backoff, not a build failure.
    auto remote = std::make_unique<Remote>(target_.endpoints_, client_id_,
                                           reconnect_);
    FUSION_RETURN_IF_ERROR(remote->link.Connect());
    client.remote_ = std::move(remote);
    return client;
  }
  SourceCatalog catalog = std::move(target_.catalog_);
  if (!target_.catalog_file_.empty()) {
    FUSION_ASSIGN_OR_RETURN(catalog,
                            LoadCatalogFromFile(target_.catalog_file_));
  }
  if (catalog.empty()) {
    return Status::InvalidArgument("Client::Builder: catalog has no sources");
  }
  FUSION_RETURN_IF_ERROR(ValidateExecOptions(options_.execution));
  client.session_ = std::make_unique<QuerySession>(
      Mediator(std::move(catalog)), options_);
  return client;
}

RetryPolicy Client::DefaultReconnectPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_seconds = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.25;
  return policy;
}

Client::Remote::Remote(const std::vector<std::string>& endpoints,
                       const std::string& client_id,
                       const RetryPolicy& reconnect)
    : client_id(client_id),
      link(ClientProtocolLink(
          endpoints, reconnect, client_id, &server,
          &MetricsRegistry::Global().counter(
              metrics::kClientReconnectsTotal))) {}

size_t Client::reconnects() const {
  if (remote_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(remote_->mutex);
  return remote_->link.reconnects();
}

const std::string& Client::server() const {
  static const std::string kEmbedded;
  return remote_ == nullptr ? kEmbedded : remote_->server;
}

std::vector<std::string> Client::server_features() const {
  if (remote_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(remote_->mutex);
  return remote_->link.features().Names();
}

Result<ClientResponse> Client::RemoteExchangeLocked(
    const ClientRequest& request) {
  TcpLink& link = remote_->link;
  Result<std::string> reply =
      link.Exchange(SerializeClientRequest(request), ResendRule(request));
  if (!reply.ok()) {
    return Status(reply.status().code(),
                  reply.status().message() + " (endpoint " +
                      link.active_endpoint() + ")");
  }
  return ParseClientResponse(*reply);
}

ClientAnswer SummarizeAnswer(QueryAnswer answer, bool keep_detail) {
  ClientAnswer out;
  out.items = keep_detail ? answer.items : std::move(answer.items);
  out.cost = answer.execution.ledger.total();
  out.source_queries = answer.execution.ledger.num_queries();
  out.cache_hits = answer.execution.cache_hits;
  out.cache_misses = answer.execution.cache_misses;
  out.cache_containment_hits = answer.execution.cache_containment_hits;
  out.items_sent = answer.execution.ledger.total_items_sent();
  out.items_received = answer.execution.ledger.total_items_received();
  out.calibration_cost = answer.calibration_cost;
  out.complete = answer.execution.completeness.answer_complete;
  if (keep_detail) {
    out.detail = std::make_shared<const QueryAnswer>(std::move(answer));
  }
  return out;
}

PlanPrintNames ExplainNames(const FusionQuery& query,
                            const SourceCatalog& catalog) {
  PlanPrintNames names;
  for (const Condition& c : query.conditions()) {
    names.conditions.push_back(c.ToString());
  }
  for (size_t j = 0; j < catalog.size(); ++j) {
    names.sources.push_back(catalog.source(j).name());
  }
  return names;
}

Result<ClientAnswer> Client::Query(const FusionQuery& query,
                                   const CallControls& controls) {
  if (remote_ != nullptr) return RemoteQuery(query.ToSql(), controls);
  FUSION_ASSIGN_OR_RETURN(QueryAnswer answer,
                          session_->Answer(query, controls));
  return SummarizeAnswer(std::move(answer));
}

Result<ClientAnswer> Client::QuerySql(const std::string& sql,
                                      const CallControls& controls) {
  if (remote_ != nullptr) return RemoteQuery(sql, controls);
  FUSION_ASSIGN_OR_RETURN(FusionQuery query, ParseFusionQuery(sql));
  return Query(query, controls);
}

Result<ClientAnswer> Client::RemoteQuery(const std::string& sql,
                                         const CallControls& controls,
                                         bool explain) {
  // Planning/statistics choices are the *service's* configuration — a
  // connected client cannot override them per call (every client shares one
  // session), and silently ignoring the override would be worse than
  // refusing it.
  if (controls.strategy.has_value() || controls.statistics.has_value()) {
    return Status::Unsupported(
        "per-call strategy/statistics overrides are not available over a "
        "fusionqd connection");
  }
  // The client side of the distributed trace: this span is the parent of
  // the daemon's service.request span. With local tracing off the context
  // is still minted and forwarded, so the daemon's trace has a stable root
  // id even when the client keeps no spans itself.
  ScopedSpan span(SpanCategory::kRpc, "client.query");
  std::lock_guard<std::mutex> lock(remote_->mutex);
  ClientRequest request;
  request.kind = ClientRequest::Kind::kSubmit;
  request.client_id = remote_->client_id;
  request.sql = sql;
  request.wait = true;
  request.explain = explain;
  if (remote_->link.features().Has(Feature::kTrace)) {
    const TraceContext context = Tracer::CurrentContext();
    request.trace_id = context.valid() ? context.trace_id : Tracer::MintId();
    request.parent_span = context.span_id;
  }
  if (remote_->link.features().Has(Feature::kIdempotency)) {
    // The idempotency key that makes this SUBMIT replay-safe: if the
    // connection dies mid-exchange, RemoteExchangeLocked reconnects and
    // re-sends the same request-id, and the service's dedup table hands
    // back the original execution's outcome.
    request.request_id = MintRequestId(kClientRequestIdSalt);
  }
  FUSION_ASSIGN_OR_RETURN(ClientResponse response,
                          RemoteExchangeLocked(request));
  if (!response.ok) {
    return Status(response.error_code, response.error_message);
  }
  ClientAnswer out;
  out.items = ItemSet(std::move(response.items));
  out.cost = response.cost;
  out.source_queries = response.source_queries;
  out.cache_hits = response.cache_hits;
  out.cache_misses = response.cache_misses;
  out.cache_containment_hits = response.cache_containment_hits;
  out.items_sent = response.items_sent;
  out.items_received = response.items_received;
  out.calibration_cost = response.calibration_cost;
  out.complete = response.complete;
  out.explain_lines = response.explain_lines;
  return out;
}

Result<ClientAnswer> Client::QuerySqlExplained(const std::string& sql) {
  if (remote_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(remote_->mutex);
      if (!remote_->link.features().Has(Feature::kExplain)) {
        return Status::Unsupported(
            "server '" + remote_->server + "' does not speak the explain feature");
      }
    }
    return RemoteQuery(sql, CallControls{}, /*explain=*/true);
  }
  FUSION_ASSIGN_OR_RETURN(FusionQuery query, ParseFusionQuery(sql));
  FUSION_ASSIGN_OR_RETURN(ClientAnswer answer, Query(query, CallControls{}));
  answer.explain_lines = RenderExplainLines(
      *answer.detail, ExplainNames(query, session_->mediator().catalog()));
  return answer;
}

Result<std::string> Client::Stats() {
  if (remote_ == nullptr) {
    // Embedded: the process metrics are the stats; there is no serving
    // layer, hence no tenant SLO table.
    return RenderStatsText(MetricsRegistry::Global().Snapshot(), {});
  }
  std::lock_guard<std::mutex> lock(remote_->mutex);
  if (!remote_->link.features().Has(Feature::kStats)) {
    return Status::Unsupported(
        "server '" + remote_->server + "' does not speak the stats feature");
  }
  ClientRequest request;
  request.kind = ClientRequest::Kind::kStats;
  request.client_id = remote_->client_id;
  FUSION_ASSIGN_OR_RETURN(const ClientResponse response,
                          RemoteExchangeLocked(request));
  if (!response.ok) {
    return Status(response.error_code, response.error_message);
  }
  std::string text;
  for (const std::string& line : response.stats_lines) {
    text += line;
    text += '\n';
  }
  return text;
}

Result<std::string> Client::InvalidateSource(const std::string& source,
                                             uint64_t version) {
  if (remote_ == nullptr) {
    // Embedded: one session, no fleet, no fan-out — the version stamp has
    // nothing to guard, so every invalidation applies.
    FUSION_ASSIGN_OR_RETURN(
        const size_t index,
        session_->mediator().catalog().IndexOf(source));
    session_->InvalidateSource(index);
    return std::string("applied");
  }
  std::lock_guard<std::mutex> lock(remote_->mutex);
  if (!remote_->link.features().Has(Feature::kSharding)) {
    return Status::Unsupported(
        "server '" + remote_->server + "' does not speak the sharding feature");
  }
  ClientRequest request;
  request.kind = ClientRequest::Kind::kInvalidate;
  request.client_id = remote_->client_id;
  request.source = source;
  request.version = version;
  FUSION_ASSIGN_OR_RETURN(const ClientResponse response,
                          RemoteExchangeLocked(request));
  if (!response.ok) {
    return Status(response.error_code, response.error_message);
  }
  return response.state;
}

}  // namespace fusion
