#include "router/router.h"

#include <utility>

#include "common/str_util.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "protocol/tcp_server.h"

namespace fusion {
namespace {

/// Salt of the router's request-id mint, distinct from the client's.
constexpr uint64_t kRouterRequestIdSalt = 0x50d7;

std::string ErrorFrame(const Status& status) {
  return SerializeClientResponse(ClientErrorResponse(status));
}

}  // namespace

RetryPolicy QueryRouter::DefaultReconnectPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.25;
  return policy;
}

QueryRouter::QueryRouter(ShardMap shards, const Options& options)
    : shards_(std::move(shards)), options_(options) {
  pools_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    pools_.push_back(std::make_unique<ShardPool>());
  }
  counters_.per_shard_forwards.assign(shards_.size(), 0);
}

QueryRouter::~QueryRouter() { Shutdown(); }

void QueryRouter::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  for (const std::unique_ptr<ShardPool>& pool : pools_) {
    std::lock_guard<std::mutex> lock(pool->mutex);
    pool->idle.clear();  // MessageSocket destructors close the fds
  }
}

Result<std::unique_ptr<TcpLink>> QueryRouter::AcquireLink(size_t shard) {
  {
    ShardPool& pool = *pools_[shard];
    std::lock_guard<std::mutex> lock(pool.mutex);
    if (!pool.idle.empty()) {
      std::unique_ptr<TcpLink> link = std::move(pool.idle.back());
      pool.idle.pop_back();
      return link;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return Status::Unavailable("router is shutting down");
    }
  }
  // Not dialed yet: its first Exchange dials and runs HELLO.
  return std::make_unique<TcpLink>(
      ClientProtocolLink({shards_.shard(shard).endpoint}, options_.reconnect,
                         options_.server_name, /*server=*/nullptr));
}

void QueryRouter::ReleaseLink(size_t shard, std::unique_ptr<TcpLink> link) {
  ShardPool& pool = *pools_[shard];
  std::lock_guard<std::mutex> lock(pool.mutex);
  if (pool.idle.size() < kMaxIdleLinksPerShard) {
    pool.idle.push_back(std::move(link));
  }
  // else: dropped — the destructor closes the connection.
}

size_t QueryRouter::idle_links(size_t shard) const {
  ShardPool& pool = *pools_[shard];
  std::lock_guard<std::mutex> lock(pool.mutex);
  return pool.idle.size();
}

size_t QueryRouter::warm_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_shard_.size();
}

void QueryRouter::Count(size_t Counters::*field, Counter& metric) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++(counters_.*field);
  }
  metric.Increment();
}

Status QueryRouter::ShardError(size_t shard, const Status& status) const {
  return Status(status.code(), status.message() + " (shard " +
                                   shards_.shard(shard).name + " at " +
                                   shards_.shard(shard).endpoint + ")");
}

Result<std::string> QueryRouter::Exchange(size_t shard,
                                          const ClientRequest& request) {
  Result<std::unique_ptr<TcpLink>> link = AcquireLink(shard);
  if (!link.ok()) return ShardError(shard, link.status());
  const std::string wire = SerializeClientRequest(request);
  Result<std::string> reply =
      link.value()->Exchange(wire, ResendRule(request));
  // A failed link is dropped (its destructor closes the connection).
  if (!reply.ok()) return ShardError(shard, reply.status());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.forward_bytes += wire.size();
  }
  static Counter& bytes =
      MetricsRegistry::Global().counter(metrics::kRouterForwardBytes);
  bytes.Increment(wire.size());
  ReleaseLink(shard, std::move(link.value()));
  return reply;
}

std::string QueryRouter::Relay(size_t shard, const std::string& reply) const {
  // A whole frame whose header or ticket is malformed is final: the shard
  // answered, so failing over would only hide the fault.
  Result<std::string> relayed =
      RelayClientResponse(reply, static_cast<uint8_t>(shard));
  if (relayed.ok()) return std::move(relayed).value();
  return ErrorFrame(ShardError(shard, relayed.status()));
}

std::string QueryRouter::ForwardSubmit(const ClientRequest& request) {
  if (request.sql.empty()) {
    return ErrorFrame(Status::InvalidArgument("SUBMIT requires an sql line"));
  }
  const std::string key = keys_.Key(request.sql);
  const std::vector<size_t> ranked = shards_.Ranked(key);
  ClientRequest forward = request;
  if (forward.request_id == 0) forward.request_id = MintRequestId(kRouterRequestIdSalt);
  static Counter& forwards =
      MetricsRegistry::Global().counter(metrics::kRouterForwardsTotal);
  Count(&Counters::forwards, forwards);
  Status last_error = Status::Unavailable("no shards");
  for (size_t i = 0; i < ranked.size(); ++i) {
    const size_t shard = ranked[i];
    Result<std::string> reply = Exchange(shard, forward);
    if (!reply.ok()) {
      last_error = reply.status();
      if (!IsTransportError(last_error)) break;
      if (i + 1 < ranked.size()) {
        // Owner down: the next-ranked shard serves this key (cold cache at
        // worst — queries are read-only, so never a wrong answer).
        static Counter& failovers = MetricsRegistry::Global().counter(
            metrics::kRouterFailoversTotal);
        Count(&Counters::failovers, failovers);
      }
      continue;
    }
    {
      // Warm-locality ledger: a repeated key is a warm forward; a warm
      // forward served by the same shard as last time is a warm hit — the
      // property the rendezvous hash exists to deliver.
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.per_shard_forwards[shard];
      const auto seen = last_shard_.find(key);
      if (seen != last_shard_.end()) {
        ++counters_.warm_forwards;
        static Counter& warm = MetricsRegistry::Global().counter(
            metrics::kRouterWarmForwardsTotal);
        warm.Increment();
        if (seen->second == shard) {
          ++counters_.warm_hits;
          static Counter& hits = MetricsRegistry::Global().counter(
              metrics::kRouterWarmHitsTotal);
          hits.Increment();
        }
      }
      if (last_shard_.size() >= kMaxWarmEntries) last_shard_.clear();
      last_shard_[key] = shard;
    }
    // Re-ticket for the client: shard index in the low byte, so STATUS and
    // CANCEL route straight back to the shard that owns the request.
    return Relay(shard, reply.value());
  }
  return ErrorFrame(last_error);
}

std::string QueryRouter::ForwardTicketVerb(const ClientRequest& request) {
  const size_t shard = static_cast<size_t>(request.ticket & 0xff);
  const uint64_t upstream_ticket = request.ticket >> 8;
  if (shard >= shards_.size() || upstream_ticket == 0) {
    return ErrorFrame(
        Status::NotFound("unknown ticket " + std::to_string(request.ticket)));
  }
  ClientRequest forward = request;
  forward.ticket = upstream_ticket;
  const Result<std::string> reply = Exchange(shard, forward);
  return reply.ok() ? Relay(shard, reply.value()) : ErrorFrame(reply.status());
}

ClientResponse QueryRouter::FanOutInvalidate(const ClientRequest& request) {
  if (request.source.empty()) {
    return ClientErrorResponse(
        Status::InvalidArgument("INVALIDATE requires a source line"));
  }
  // Broadcast to every shard — coherence is fleet-wide. The version stamp
  // makes delivery idempotent per shard, so a retry after a partial
  // broadcast (one shard down) re-applies nowhere it already landed.
  bool any_applied = false;
  Status first_error = Status::Ok();
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const Result<std::string> reply = Exchange(shard, request);
    Result<ClientResponse> response = reply.status();
    if (reply.ok()) {
      response = ParseClientResponse(reply.value());
      if (!response.ok()) response = ShardError(shard, response.status());
    }
    if (response.ok() && !response->ok) {
      response = Status(response->error_code, response->error_message);
    }
    if (!response.ok()) {
      if (first_error.ok()) first_error = response.status();
      continue;
    }
    static Counter& fanouts = MetricsRegistry::Global().counter(
        metrics::kRouterInvalidateFanoutsTotal);
    Count(&Counters::invalidate_fanouts, fanouts);
    if (response.value().state == "applied") any_applied = true;
  }
  if (!first_error.ok()) return ClientErrorResponse(first_error);
  ClientResponse response;
  response.state = any_applied ? "applied" : "stale";
  return response;
}

std::string QueryRouter::Handle(const std::string& request_text) {
  const Result<ClientRequest> request = ParseClientRequest(request_text);
  ClientResponse response;
  if (!request.ok()) {
    response = ClientErrorResponse(request.status());
  } else if (request->kind == ClientRequest::Kind::kSubmit) {
    return ForwardSubmit(*request);
  } else if (request->kind == ClientRequest::Kind::kStatus ||
             request->kind == ClientRequest::Kind::kCancel) {
    return ForwardTicketVerb(*request);
  } else if (request->kind == ClientRequest::Kind::kInvalidate) {
    response = FanOutInvalidate(*request);
  } else if (request->kind == ClientRequest::Kind::kHello) {
    response.server = options_.server_name;
    response.features = ClientProtocolFeatures();
  } else {  // kStats
    response.server = options_.server_name;
    for (const std::string& line : StrSplit(StatsText(), '\n')) {
      if (!line.empty()) response.stats_lines.push_back(line);
    }
  }
  return SerializeClientResponse(response);
}

void QueryRouter::ServeConnection(ChaosSocket socket) {
  ServeFrames(socket, kMaxClientFrameBytes,
              [this](const std::string& frame) { return Handle(frame); });
}

QueryRouter::Counters QueryRouter::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::string QueryRouter::StatsText() const {
  // The router has no tenant SLO table (it does not execute queries); its
  // exposition is the process metrics — the router_* counters included.
  return RenderStatsText(MetricsRegistry::Global().Snapshot(), {});
}

}  // namespace fusion
