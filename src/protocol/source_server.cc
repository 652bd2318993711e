#include "protocol/source_server.h"

#include <sys/socket.h>

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

TcpSourceServer::TcpSourceServer(std::unique_ptr<SourceWrapper> impl,
                                 const Options& options)
    : server_(std::move(impl)), options_(options) {
  if (options_.chaos.enabled()) {
    chaos_ = std::make_shared<ChaosDecider>(options_.chaos);
  }
}

Status TcpSourceServer::Start() {
  FUSION_ASSIGN_OR_RETURN(listener_,
                          TcpListener::Bind(options_.host, options_.port));
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpSourceServer::AcceptLoop() {
  while (true) {
    Result<MessageSocket> accepted = listener_.Accept();
    if (!accepted.ok()) return;  // listener closed: shutdown
    MessageSocket socket = std::move(accepted).value();
    if (ChaosRefuseAccept(chaos_.get())) {
      socket.Close();
      continue;
    }
    if (options_.stall_deadline_seconds > 0.0) {
      (void)socket.SetStallDeadline(options_.stall_deadline_seconds);
    }
    socket.SetReceiveLimit(64 * 1024 * 1024);
    ChaosSocket connection(std::move(socket), chaos_);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      connection.Close();
      return;
    }
    const int fd = connection.fd();
    live_fds_.insert(fd);
    serving_.emplace_back(
        [this, fd](ChaosSocket s) {
          ServeConnection(s);
          // Deregister *before* closing, so Stop() can never shutdown(2)
          // a recycled fd number.
          {
            std::lock_guard<std::mutex> inner_lock(mu_);
            live_fds_.erase(fd);
          }
          s.Close();
        },
        std::move(connection));
  }
}

void TcpSourceServer::ServeConnection(ChaosSocket& socket) {
  while (true) {
    Result<std::string> request = socket.Receive();
    // Clean close, reset, stall, oversized garbage — all end the
    // connection the same way; the peer's recovery layer decides whether
    // to redial.
    if (!request.ok()) return;
    const std::string response = server_.Handle(request.value());
    if (!socket.Send(response).ok()) return;
  }
}

void TcpSourceServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Closing the listener unblocks (and ends) the accept loop.
  listener_.Close();
  if (acceptor_.joinable()) acceptor_.join();
  // Reset every live connection so its serve loop's recv returns, then
  // join. No new threads can appear: the acceptor is gone.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& thread : serving_) {
    if (thread.joinable()) thread.join();
  }
  serving_.clear();
}

}  // namespace fusion
