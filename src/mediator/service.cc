#include "mediator/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/str_util.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/tcp_server.h"
#include "query/parser.h"

namespace fusion {
namespace {

void SetQueueGauges(size_t queued, size_t active_clients) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Gauge& depth = registry.gauge(metrics::kServiceQueueDepth);
  static Gauge& clients = registry.gauge(metrics::kServiceActiveClients);
  depth.Set(static_cast<double>(queued));
  clients.Set(static_cast<double>(active_clients));
}

/// Per-request bytes beyond its strings and answer items: the Request
/// itself in its shared_ptr block and the table nodes that point at it.
/// bench_service E22 measures heap growth per outcome ~530 bytes above
/// items and strings.
constexpr size_t kRetainedEntryOverhead = 512;

/// Approximate resident bytes of a finished request's retained state.
size_t RetainedBytesOf(const std::string& client_id, const std::string& sql,
                       const Result<ClientAnswer>& outcome) {
  size_t bytes = kRetainedEntryOverhead + client_id.capacity() +
                 sql.capacity();
  if (!outcome.ok()) return bytes + outcome.status().message().capacity();
  bytes += outcome->items.ApproxBytes();
  for (const std::string& line : outcome->explain_lines) {
    bytes += sizeof(std::string) + line.capacity();
  }
  return bytes;
}

/// The answer fields of a "done" SUBMIT or STATUS response.
void FillAnswer(const ClientAnswer& answer, ClientResponse& response) {
  response.items = answer.items.ToValues();
  response.cost = answer.cost;
  response.source_queries = answer.source_queries;
  response.cache_hits = answer.cache_hits;
  response.cache_misses = answer.cache_misses;
  response.cache_containment_hits = answer.cache_containment_hits;
  response.items_sent = answer.items_sent;
  response.items_received = answer.items_received;
  response.calibration_cost = answer.calibration_cost;
  response.complete = answer.complete;
}

}  // namespace

QueryService::QueryService(Mediator mediator, const Options& options)
    : options_(options),
      session_(std::make_unique<QuerySession>(std::move(mediator),
                                              options.client)),
      pool_(std::make_unique<ThreadPool>(options.workers)) {
  options_.workers = std::max(1, options_.workers);  // as the pool clamps
}

QueryService::~QueryService() {
  Shutdown();
  // With every cancellation token set, running executions abort at their
  // next source-call admission and queued requests finish as cancelled as
  // permits free. Once no permit is held nothing is queued and no task is
  // left, so the pool joins idle.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return running_ == 0; });
  }
  pool_.reset();
}

void QueryService::Shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  shutting_down_ = true;
  for (auto& [ticket, request] : by_ticket_) {
    if (!request->finished) {
      request->cancel.store(true, std::memory_order_relaxed);
    }
  }
}

Result<uint64_t> QueryService::Submit(const std::string& client_id,
                                      const std::string& sql,
                                      const SubmitOptions& submit_options) {
  FUSION_ASSIGN_OR_RETURN(const RequestPtr request,
                          Admit(client_id, sql, submit_options));
  return request->ticket;
}

Result<QueryService::RequestPtr> QueryService::Admit(
    const std::string& client_id, const std::string& sql,
    const SubmitOptions& submit_options, bool* run_here) {
  RequestPtr request;
  size_t tasks = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return Status::Unavailable("service is shutting down");
    }
    if (submit_options.request_id != 0) {
      const auto key = std::make_pair(client_id, submit_options.request_id);
      const auto hit = dedup_.find(key);
      if (hit != dedup_.end()) {
        // Idempotent replay: a client that lost its connection after (or
        // while) submitting re-sends the same request-id; hand back the
        // original ticket so Wait resolves to the first execution's outcome
        // — nothing runs twice, nothing is metered twice.
        const RequestPtr& original = hit->second;
        ++idempotent_replays_;
        static Counter& replays = MetricsRegistry::Global().counter(
            metrics::kIdempotentReplaysTotal);
        replays.Increment();
        // Re-register the ticket if it aged out of by_ticket_, so the
        // replaying caller's Wait/Poll still resolve. (A finished request
        // re-enters the retirement FIFO; double entries there are benign —
        // the second eviction pass finds nothing to erase.)
        if (by_ticket_.find(original->ticket) == by_ticket_.end()) {
          by_ticket_[original->ticket] = original;
          ++original->holders;
          if (original->finished) retired_order_.push_back(original->ticket);
        }
        return original;
      }
    }
    if (queued_ >= options_.max_queue) {
      ++shedded_;
      static Counter& shed =
          MetricsRegistry::Global().counter(metrics::kServiceSheddedTotal);
      shed.Increment();
      slo_.RecordShed(client_id);
      return Status::Unavailable(
          "service saturated (" + std::to_string(queued_) +
          " requests queued); resubmit later");
    }
    request = std::make_shared<Request>();
    request->ticket = ++next_ticket_;
    request->client_id = client_id;
    request->sql = sql;
    request->trace_id = submit_options.trace_id;
    request->parent_span = submit_options.parent_span;
    request->explain = submit_options.explain;
    request->admitted_at = std::chrono::steady_clock::now();
    by_ticket_[request->ticket] = request;
    ++request->holders;
    if (submit_options.request_id != 0) {
      const auto key = std::make_pair(client_id, submit_options.request_id);
      dedup_[key] = request;
      ++request->holders;
      dedup_order_.push_back(key);
      while (dedup_order_.size() > options_.max_dedup) PopDedupLocked();
    }
    static Counter& accepted =
        MetricsRegistry::Global().counter(metrics::kServiceRequestsTotal);
    accepted.Increment();
    // Queued requests go first, so a request may skip the queue only when
    // it is empty.
    if (run_here != nullptr && queued_ == 0 &&
        running_ < options_.workers) {
      ++running_;
      request->state = "running";
      *run_here = true;
      static Counter& inline_runs =
          MetricsRegistry::Global().counter(metrics::kServiceInlineRunsTotal);
      inline_runs.Increment();
      return request;
    }
    std::deque<RequestPtr>& queue = pending_[client_id];
    if (queue.empty()) rotation_.push_back(client_id);
    queue.push_back(request);
    ++queued_;
    SetQueueGauges(queued_, pending_.size());
    tasks = DispatchLocked();
  }
  SubmitTasks(tasks);
  return request;
}

size_t QueryService::DispatchLocked() {
  size_t tasks = 0;
  while (queued_ > dispatched_ && running_ < options_.workers) {
    ++running_;
    ++dispatched_;
    ++tasks;
  }
  return tasks;
}

size_t QueryService::ReleasePermitLocked() {
  --running_;
  const size_t tasks = DispatchLocked();
  if (running_ == 0) idle_cv_.notify_all();
  return tasks;
}

void QueryService::SubmitTasks(size_t tasks) {
  for (; tasks > 0; --tasks) pool_->Submit([this] { PopAndRun(); });
}

QueryService::RequestPtr QueryService::NextLocked() {
  while (!rotation_.empty()) {
    const std::string client = std::move(rotation_.front());
    rotation_.pop_front();
    auto it = pending_.find(client);
    if (it == pending_.end() || it->second.empty()) {
      pending_.erase(client);
      continue;
    }
    RequestPtr request = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) {
      pending_.erase(it);
    } else {
      rotation_.push_back(client);  // more work: back of the rotation
    }
    --queued_;
    SetQueueGauges(queued_, pending_.size());
    return request;
  }
  return nullptr;
}

void QueryService::FinishLocked(const RequestPtr& request, std::string state,
                                Result<ClientAnswer> outcome) {
  request->state = std::move(state);
  request->outcome = std::move(outcome);
  request->finished = true;
  request->retained_bytes =
      RetainedBytesOf(request->client_id, request->sql, request->outcome);
  // An unfinished request is always in by_ticket_, so this one is held.
  retained_bytes_ += request->retained_bytes;
  retired_order_.push_back(request->ticket);
  while (retired_order_.size() > options_.max_retained) PopRetiredLocked();
  EnforceByteBudgetLocked();
  request->finished_cv.notify_all();
}

void QueryService::ReleaseLocked(Request& request) {
  if (--request.holders == 0 && request.finished) {
    retained_bytes_ -= request.retained_bytes;
  }
}

void QueryService::PopRetiredLocked() {
  const auto it = by_ticket_.find(retired_order_.front());
  retired_order_.pop_front();
  if (it == by_ticket_.end()) return;
  ReleaseLocked(*it->second);
  by_ticket_.erase(it);
}

void QueryService::PopDedupLocked() {
  const auto it = dedup_.find(dedup_order_.front());
  dedup_order_.pop_front();
  if (it == dedup_.end()) return;
  ReleaseLocked(*it->second);
  dedup_.erase(it);
}

void QueryService::EnforceByteBudgetLocked() {
  // Oldest first: tickets are minted in submission order, so the window
  // whose front has the smaller ticket holds the older request. A request
  // in both windows leaves the budget when the second one drops it.
  while (retained_bytes_ > kMaxRetainedBytes &&
         !(retired_order_.empty() && dedup_order_.empty())) {
    const bool dedup_older =
        !dedup_order_.empty() &&
        (retired_order_.empty() ||
         dedup_.at(dedup_order_.front())->ticket < retired_order_.front());
    if (dedup_older) {
      PopDedupLocked();
    } else {
      PopRetiredLocked();
    }
  }
}

void QueryService::PopAndRun() {
  RequestPtr request;
  size_t tasks = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --dispatched_;
    // Never null: a task is dispatched only while queued_ > dispatched_.
    request = NextLocked();
    if (!request->cancel.load(std::memory_order_relaxed)) {
      request->state = "running";
    } else {
      static Counter& cancelled = MetricsRegistry::Global().counter(
          metrics::kServiceCancelledTotal);
      cancelled.Increment();
      const Result<ClientAnswer> never_ran =
          Status::Cancelled("cancelled before execution");
      RecordSlo(*request, never_ran);
      FinishLocked(request, "cancelled", never_ran);
      tasks = ReleasePermitLocked();
      request = nullptr;
    }
  }
  if (request != nullptr) {
    Run(request);
  } else {
    SubmitTasks(tasks);
  }
}

void QueryService::Run(const RequestPtr& request) {
  Result<ClientAnswer> outcome = [&]() -> Result<ClientAnswer> {
    // Adopt the client's trace context (no-op when the SUBMIT carried none)
    // so the service/session/exec/source-RPC spans underneath — and the
    // contexts forwarded further to source servers — join the client's
    // trace rather than rooting a local one.
    TraceContextScope trace_scope(
        TraceContext{request->trace_id, request->parent_span});
    ScopedSpan span(SpanCategory::kRpc, "service.request");
    if (span.active()) {
      span.AddAttr("client", request->client_id);
      span.AddAttr("ticket", static_cast<int64_t>(request->ticket));
    }
    CallControls controls;
    controls.cancel = &request->cancel;
    FUSION_ASSIGN_OR_RETURN(QueryAnswer answer,
                            session_->AnswerSql(request->sql, controls));
    // The plan is released with the rest of the execution below, so the
    // explain lines are rendered now, while it is still here. EXPLAIN is
    // rare, so it parses the text again for the condition names.
    std::vector<std::string> explain_lines;
    if (request->explain) {
      FUSION_ASSIGN_OR_RETURN(const FusionQuery query,
                              ParseFusionQuery(request->sql));
      explain_lines = RenderExplainLines(
          answer, ExplainNames(query, session_->mediator().catalog()));
    }
    ClientAnswer summary =
        SummarizeAnswer(std::move(answer), /*keep_detail=*/false);
    summary.explain_lines = std::move(explain_lines);
    return summary;
  }();
  RecordSlo(*request, outcome);
  size_t tasks = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool was_cancelled =
        !outcome.ok() && outcome.status().code() == StatusCode::kCancelled;
    if (was_cancelled) {
      static Counter& cancelled =
          MetricsRegistry::Global().counter(metrics::kServiceCancelledTotal);
      cancelled.Increment();
    }
    FinishLocked(
        request,
        outcome.ok() ? "done" : (was_cancelled ? "cancelled" : "failed"),
        std::move(outcome));
    tasks = ReleasePermitLocked();
  }
  SubmitTasks(tasks);
}

void QueryService::AwaitFinished(Request& request) {
  std::unique_lock<std::mutex> lock(mutex_);
  request.finished_cv.wait(lock, [&] { return request.finished; });
}

Result<ClientAnswer> QueryService::Wait(uint64_t ticket) {
  RequestPtr request;  // keeps the outcome alive across eviction
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_ticket_.find(ticket);
    if (it == by_ticket_.end()) {
      return Status::NotFound("unknown ticket " + std::to_string(ticket));
    }
    request = it->second;
  }
  AwaitFinished(*request);
  return request->outcome;
}

Result<QueryService::RequestStatus> QueryService::Poll(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_ticket_.find(ticket);
  if (it == by_ticket_.end()) {
    return Status::NotFound("unknown ticket " + std::to_string(ticket));
  }
  RequestStatus status;
  status.state = it->second->state;
  if (it->second->finished) status.outcome = it->second->outcome;
  return status;
}

Status QueryService::Cancel(uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_ticket_.find(ticket);
  if (it == by_ticket_.end()) {
    return Status::NotFound("unknown ticket " + std::to_string(ticket));
  }
  // Cooperative: the flag is checked when the request is popped and at
  // every source-call admission of a running execution. Idempotent, and a
  // no-op on finished requests.
  it->second->cancel.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

size_t QueryService::shedded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shedded_;
}

size_t QueryService::idempotent_replays() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idempotent_replays_;
}

size_t QueryService::retained_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retained_bytes_;
}

Result<std::string> QueryService::Invalidate(const std::string& source_name,
                                             uint64_t version) {
  FUSION_ASSIGN_OR_RETURN(
      const size_t index,
      session_->mediator().catalog().IndexOf(source_name));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (version != 0) {
      uint64_t& applied = invalidate_versions_[source_name];
      if (version <= applied) {
        // A fan-out replay (or reordered duplicate) of a version already
        // applied: answering `stale` without touching the cache is what
        // makes router retries and at-least-once delivery safe.
        ++invalidates_stale_;
        static Counter& stale = MetricsRegistry::Global().counter(
            metrics::kInvalidatesStaleTotal);
        stale.Increment();
        return std::string("stale");
      }
      applied = version;
    }
    ++invalidates_applied_;
    static Counter& applied_counter =
        MetricsRegistry::Global().counter(metrics::kInvalidatesAppliedTotal);
    applied_counter.Increment();
  }
  // Outside mutex_: the session's cache has its own locking, and dropping
  // entries can contend with running executions.
  session_->InvalidateSource(index);
  return std::string("applied");
}

size_t QueryService::invalidates_applied() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return invalidates_applied_;
}

size_t QueryService::invalidates_stale() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return invalidates_stale_;
}

void QueryService::RecordSlo(const Request& request,
                             const Result<ClientAnswer>& outcome) {
  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - request.admitted_at)
          .count();
  const bool ok = outcome.ok();
  slo_.RecordCompletion(request.client_id, latency_ms,
                        ok ? outcome->cost : 0.0, ok,
                        ok ? StatusCode::kOk : outcome.status().code(),
                        ok ? outcome->complete : true);
}

std::string QueryService::StatsText() const {
  MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  metrics.counters[metrics::kSloTenantOverflowTotal] = slo_.overflowed();
  return RenderStatsText(metrics, slo_.Snapshot());
}

ClientResponse QueryService::HandleParsed(const ClientRequest& request) {
  const std::string client_id =
      request.client_id.empty() ? "anon" : request.client_id;
  switch (request.kind) {
    case ClientRequest::Kind::kHello: {
      // Registering here (not just at completion) makes a connected-but-idle
      // tenant visible in STATS with zero counts.
      slo_.Register(client_id);
      ClientResponse response;
      response.server = options_.server_name;
      response.features = ClientProtocolFeatures();
      return response;
    }
    case ClientRequest::Kind::kSubmit: {
      if (request.sql.empty()) {
        return ClientErrorResponse(
            Status::InvalidArgument("SUBMIT requires an sql line"));
      }
      SubmitOptions submit_options;
      submit_options.trace_id = request.trace_id;
      submit_options.parent_span = request.parent_span;
      submit_options.request_id = request.request_id;
      submit_options.explain = request.explain;
      bool run_here = false;
      const Result<RequestPtr> admitted =
          Admit(client_id, request.sql, submit_options,
                request.wait ? &run_here : nullptr);
      if (!admitted.ok()) return ClientErrorResponse(admitted.status());
      Request& submitted = **admitted;
      ClientResponse response;
      response.ticket = submitted.ticket;
      if (!request.wait) {
        response.state = "queued";
        return response;
      }
      // Held by pointer, so eviction cannot lose the outcome before it is
      // written out; it no longer changes once finished.
      if (run_here) {
        Run(*admitted);
      } else {
        AwaitFinished(submitted);
      }
      if (!submitted.outcome.ok()) {
        response = ClientErrorResponse(submitted.outcome.status());
        response.ticket = submitted.ticket;
        return response;
      }
      const ClientAnswer& answer = *submitted.outcome;
      response.state = "done";
      FillAnswer(answer, response);
      if (request.explain) response.explain_lines = answer.explain_lines;
      return response;
    }
    case ClientRequest::Kind::kStatus: {
      const Result<RequestStatus> status = Poll(request.ticket);
      if (!status.ok()) return ClientErrorResponse(status.status());
      ClientResponse response;
      if (status->state == "done") {
        FillAnswer(*status->outcome, response);
      } else if (status->state == "failed" || status->state == "cancelled") {
        response = ClientErrorResponse(status->outcome.status());
      }
      response.ticket = request.ticket;
      response.state = status->state;
      return response;
    }
    case ClientRequest::Kind::kCancel: {
      const Status cancelled = Cancel(request.ticket);
      if (!cancelled.ok()) return ClientErrorResponse(cancelled);
      ClientResponse response;
      response.ticket = request.ticket;
      const Result<RequestStatus> status = Poll(request.ticket);
      response.state = status.ok() ? status->state : "cancelled";
      return response;
    }
    case ClientRequest::Kind::kStats: {
      ClientResponse response;
      response.server = options_.server_name;
      for (const std::string& line : StrSplit(StatsText(), '\n')) {
        if (!line.empty()) response.stats_lines.push_back(line);
      }
      return response;
    }
    case ClientRequest::Kind::kInvalidate: {
      if (request.source.empty()) {
        return ClientErrorResponse(
            Status::InvalidArgument("INVALIDATE requires a source line"));
      }
      const Result<std::string> state =
          Invalidate(request.source, request.version);
      if (!state.ok()) return ClientErrorResponse(state.status());
      ClientResponse response;
      response.state = *state;
      return response;
    }
  }
  return ClientErrorResponse(Status::Internal("unknown request kind"));
}

std::string QueryService::Handle(const std::string& request_text) {
  const Result<ClientRequest> request = ParseClientRequest(request_text);
  if (!request.ok()) {
    return SerializeClientResponse(ClientErrorResponse(request.status()));
  }
  return SerializeClientResponse(HandleParsed(*request));
}

void QueryService::ServeConnection(ChaosSocket socket) {
  ServeFrames(socket, kMaxClientFrameBytes,
              [this](const std::string& frame) { return Handle(frame); });
}

}  // namespace fusion
