#include "protocol/source_server.h"

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/condition.h"
#include "relational/relation.h"

namespace fusion {
namespace {

SourceResponse ErrorResponse(const Status& status) {
  SourceResponse response;
  response.ok = false;
  response.error_code = status.code();
  response.error_message = status.message();
  return response;
}

void AttachCharges(const CostLedger& ledger, SourceResponse& response) {
  for (const Charge& c : ledger.charges()) {
    response.charges.push_back({ChargeKindName(c.kind), c.items_sent,
                                c.items_received, c.tuples_scanned, c.cost});
  }
}

void AttachRelation(const Relation& relation, SourceResponse& response) {
  for (const std::string& line : StrSplit(RelationToCsv(relation), '\n')) {
    if (!line.empty()) response.relation_lines.push_back(line);
  }
}

}  // namespace

SourceResponse SourceServer::HandleParsed(const SourceRequest& request) {
  SourceResponse response;
  switch (request.kind) {
    case SourceRequest::Kind::kHello: {
      response.name = impl_->name();
      response.semijoin_support =
          WireWordFor(impl_->capabilities().semijoin, kSemijoinWireWords);
      response.supports_load = impl_->capabilities().supports_load;
      response.features = {"trace"};
      // Ship the schema as a CSV header line.
      Relation empty(impl_->schema());
      AttachRelation(empty, response);
      return response;
    }
    case SourceRequest::Kind::kSelect:
    case SourceRequest::Kind::kSemiJoin: {
      auto cond = ParseCondition(request.condition_text);
      if (!cond.ok()) return ErrorResponse(cond.status());
      CostLedger ledger;
      auto items = request.kind == SourceRequest::Kind::kSelect
                       ? impl_->Select(*cond, request.merge_attribute, &ledger)
                       : impl_->SemiJoin(*cond, request.merge_attribute,
                                         ItemSet(request.bindings), &ledger);
      if (!items.ok()) return ErrorResponse(items.status());
      response.items.assign(items->begin(), items->end());
      AttachCharges(ledger, response);
      return response;
    }
    case SourceRequest::Kind::kLoad:
    case SourceRequest::Kind::kFetch: {
      CostLedger ledger;
      auto relation = request.kind == SourceRequest::Kind::kLoad
                          ? impl_->Load(&ledger)
                          : impl_->FetchRecords(request.merge_attribute,
                                                ItemSet(request.bindings),
                                                &ledger);
      if (!relation.ok()) return ErrorResponse(relation.status());
      AttachRelation(*relation, response);
      AttachCharges(ledger, response);
      return response;
    }
  }
  return ErrorResponse(Status::Internal("unhandled request kind"));
}

std::string SourceServer::Handle(const std::string& request_text) {
  const auto request = ParseRequest(request_text);
  // Adopt the mediator's trace context (when the request carried one)
  // *before* opening the serve span, so this server's spans — in-process or
  // in a separate source daemon — stitch into the client's trace.
  TraceContextScope trace_scope(
      request.ok() ? TraceContext{request->trace_id, request->parent_span}
                   : TraceContext{});
  ScopedSpan span(SpanCategory::kRpc, "rpc.serve");
  static Counter& requests =
      MetricsRegistry::Global().counter(metrics::kRpcServerRequests);
  requests.Increment();
  if (span.active()) {
    span.AddAttr("source", impl_->name());
    span.AddAttr("bytes_received", request_text.size());
  }
  std::string response_text =
      request.ok() ? SerializeResponse(HandleParsed(*request))
                   : SerializeResponse(ErrorResponse(request.status()));
  span.AddAttr("bytes_sent", response_text.size());
  return response_text;
}

}  // namespace fusion
