// serve_bench — one trial of the serving benchmark.
//
// A trial stands up the real serving path (QueryService, or a QueryRouter
// over two shard services, on loopback TCP), connects fusion::Client
// connections to it, warms it with a seeded replay, then times one fixed,
// seeded request list (closed loop) or Poisson schedule (open loop). After
// the timed phase it reads peak RSS, checks the outputs (a sample of served
// answers against a fresh serial uncached Mediator; the server's metered
// cost against the clients' sum; no closed-loop errors) and prints one JSON
// line of raw measurements: wall and process CPU time of the set-up and the
// timed phase, and per request its latency and, with one client, its CPU
// time. run.py runs several trials per benchmark run and turns them into
// the reported metrics.
//
// Usage:
//   serve_bench --workload=NAME --seed=N [--traced] [--tiny]
//               [--trace-out=PATH]
//
// --traced records spans for the timed phase and adds the per-layer
// breakdown ("layers") to the output; --trace-out writes those spans as a
// Chrome trace. --tiny shrinks the request lists for the benchmark's tests.
// Exit status: 0 when every check passed, 1 on a correctness failure,
// 2 on a usage or set-up error.
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "common/str_util.h"
#include "mediator/client.h"
#include "mediator/mediator.h"
#include "mediator/service.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "perfbench/layers.h"
#include "perfbench/replay.h"
#include "protocol/client_protocol.h"
#include "protocol/socket.h"
#include "query/parser.h"
#include "relational/columnar.h"
#include "router/router.h"
#include "router/shard_map.h"

namespace fusion {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The dataset every workload draws from is fixed; --seed varies only the
/// traffic (see README.md, "Design rules").
constexpr uint64_t kDatasetSeed = 1;

struct WorkloadConfig {
  std::string name;
  bench::MacroWorkloadSpec dataset;
  TrafficSpec traffic;
  size_t shards = 1;
  int workers = 1;  // per service
  /// SourceCallCache byte budget per service (0 = unbounded).
  size_t cache_max_bytes = 0;
};

bench::MacroWorkloadSpec ZipfDataset() {
  bench::MacroWorkloadSpec spec;
  spec.universe_size = 20000;
  spec.num_sources = 8;
  spec.condition_overlap = 0.7;
  spec.seed = kDatasetSeed;
  return spec;
}

TrafficSpec ZipfTraffic() {
  TrafficSpec traffic;
  traffic.pool_size = 64;
  traffic.zipf_theta = 1.1;
  traffic.clients = 1;
  traffic.warm_covers_pool = true;
  traffic.warmup_per_client = 150;
  traffic.fresh_per_client = 48;
  traffic.timed_per_client = 1200;
  traffic.oracle_share = 0.05;
  return traffic;
}

/// The four traffic shapes (README.md says why each was chosen). The closed
/// loops run one client, so one request is in flight and the process's CPU
/// time in a request's round trip is that request's alone; one worker per
/// service. The open loop runs 3 connections and 2 workers. No STATS poller.
std::optional<WorkloadConfig> FindWorkload(const std::string& name) {
  WorkloadConfig config;
  config.name = name;
  config.dataset = ZipfDataset();
  config.traffic = ZipfTraffic();
  if (name == "cold_budget") {
    config.dataset.universe_size = 32000;
    config.dataset.condition_overlap = 0.2;
    config.traffic.pool_size = 340;
    config.traffic.zipf_theta = 0.0;
    config.traffic.warm_covers_pool = false;
    config.traffic.warmup_per_client = 60;
    config.traffic.fresh_per_client = 0;
    config.traffic.timed_per_client = 1020;
    config.cache_max_bytes = 4 << 20;
  } else if (name == "fleet_churn") {
    config.traffic.invalidate_every = 75;
    config.traffic.fresh_per_client = 0;  // refills keep the cost above 0
    config.shards = 2;
  } else if (name == "open_poisson") {
    config.traffic.clients = 3;
    config.traffic.warmup_per_client = 50;
    config.traffic.fresh_per_client = 16;
    config.traffic.open_rate_qps = 150.0;
    config.traffic.open_requests = 1050;
    config.workers = 2;
  } else if (name != "zipf_warm") {
    return std::nullopt;
  }
  // The dataset's pool holds the popular queries and, after them, the
  // fresh ones.
  config.dataset.pool_size = config.traffic.pool_size +
                             config.traffic.clients *
                                 config.traffic.fresh_per_client;
  config.traffic.num_sources = config.dataset.num_sources;
  return config;
}

/// Shrinks a workload to a few dozen requests (the benchmark's tests).
void MakeTiny(WorkloadConfig& config) {
  TrafficSpec& t = config.traffic;
  t.warmup_per_client = 10;
  t.timed_per_client = t.open_rate_qps > 0.0 ? 0 : 30;
  t.fresh_per_client = std::min<size_t>(t.fresh_per_client, 1);
  if (t.invalidate_every > 0) t.invalidate_every = 10;
  if (t.open_rate_qps > 0.0) t.open_requests = 60;
  t.oracle_share = 0.5;
}

/// CPU time of the whole process: every client, connection, worker and
/// router thread. Unlike wall time it leaves out the time the host gave
/// the CPU to someone else (steal) and the time a thread waited to run.
double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The serving side of a trial: services (one per shard), their TCP
/// listeners and acceptor/connection threads, and on a fleet the router.
/// Clients must be closed before Stop(), so every connection thread sees
/// EOF.
class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Stop(); }

  Status Start(bench::MacroWorkload& workload, const WorkloadConfig& config) {
    QueryService::Options options;
    options.server_name = "perfbench";
    options.workers = config.workers;
    options.client.cache.max_bytes = config.cache_max_bytes;
    std::vector<Shard> shard_specs;
    for (size_t s = 0; s < config.shards; ++s) {
      SourceCatalog catalog;
      if (s == 0) {
        catalog = std::move(workload.catalog());
      } else {
        FUSION_ASSIGN_OR_RETURN(catalog, workload.MakeOracleCatalog());
      }
      services_.push_back(
          std::make_unique<QueryService>(Mediator(std::move(catalog)), options));
      FUSION_ASSIGN_OR_RETURN(TcpListener listener,
                              TcpListener::Bind("127.0.0.1", 0));
      Shard spec;
      spec.name = StrFormat("shard-%zu", s);
      spec.endpoint = "127.0.0.1:" + std::to_string(listener.port());
      shard_specs.push_back(spec);
      listeners_.push_back(std::make_unique<TcpListener>(std::move(listener)));
    }
    endpoint_ = shard_specs[0].endpoint;
    if (config.shards > 1) {
      FUSION_ASSIGN_OR_RETURN(ShardMap map, ShardMap::Make(shard_specs));
      QueryRouter::Options router_options;
      router_options.server_name = "perfbench-router";
      router_ = std::make_unique<QueryRouter>(std::move(map), router_options);
      FUSION_ASSIGN_OR_RETURN(TcpListener listener,
                              TcpListener::Bind("127.0.0.1", 0));
      endpoint_ = "127.0.0.1:" + std::to_string(listener.port());
      listeners_.push_back(std::make_unique<TcpListener>(std::move(listener)));
    }
    for (size_t l = 0; l < listeners_.size(); ++l) {
      acceptors_.emplace_back([this, l] { AcceptLoop(l); });
    }
    return Status::Ok();
  }

  /// Shuts the listeners (waking blocked accepts), the router's upstream
  /// links, and joins every thread. Idempotent.
  void Stop() {
    for (auto& listener : listeners_) {
      ::shutdown(listener->fd(), SHUT_RDWR);
      listener->Close();
    }
    for (std::thread& acceptor : acceptors_) acceptor.join();
    acceptors_.clear();
    if (router_ != nullptr) router_->Shutdown();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::thread& connection : connections_) connection.join();
    connections_.clear();
  }

  const std::string& endpoint() const { return endpoint_; }
  std::vector<std::unique_ptr<QueryService>>& services() { return services_; }
  QueryRouter* router() { return router_.get(); }

 private:
  void AcceptLoop(size_t l) {
    for (;;) {
      Result<MessageSocket> accepted = listeners_[l]->Accept();
      if (!accepted.ok()) return;  // listener shut down
      std::lock_guard<std::mutex> lock(mutex_);
      if (l < services_.size()) {
        QueryService* service = services_[l].get();
        connections_.emplace_back(
            [service, socket = std::move(accepted).value()]() mutable {
              service->ServeConnection(std::move(socket));
            });
      } else {
        QueryRouter* router = router_.get();
        connections_.emplace_back(
            [router, socket = std::move(accepted).value()]() mutable {
              router->ServeConnection(std::move(socket));
            });
      }
    }
  }

  std::vector<std::unique_ptr<QueryService>> services_;
  std::unique_ptr<QueryRouter> router_;
  std::vector<std::unique_ptr<TcpListener>> listeners_;
  std::string endpoint_;
  std::mutex mutex_;
  std::vector<std::thread> connections_;  // guarded by mutex_
  std::vector<std::thread> acceptors_;
};

/// Everything one client (or the open loop) measured in the timed phase.
struct Tally {
  std::vector<double> latency_ms;
  /// Process CPU time of each completed request; only on the closed loop,
  /// where one request is in flight, so the whole process works on that
  /// request alone.
  bool cpu_per_request = false;
  std::vector<double> cpu_ms;
  std::vector<double> sched_lag_ms;  // open loop only
  size_t attempted = 0;
  size_t errors = 0;
  size_t shed = 0;
  size_t invalidate_errors = 0;
  double cost = 0.0;
  size_t items_sent = 0;
  size_t items_received = 0;
  std::vector<std::pair<size_t, ItemSet>> oracle;  // (pool index, answer)
  std::string first_error;
  // Traced trials only.
  std::vector<RequestTiming> timings;
  std::vector<size_t> served;  // pool index of every completed request
  std::map<size_t, ClientAnswer> answers;  // first answer per pool index
  double queue_depth_sum = 0.0;
  double cache_bytes_peak = 0.0;

  void Merge(Tally&& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    cpu_ms.insert(cpu_ms.end(), other.cpu_ms.begin(), other.cpu_ms.end());
    sched_lag_ms.insert(sched_lag_ms.end(), other.sched_lag_ms.begin(),
                        other.sched_lag_ms.end());
    attempted += other.attempted;
    errors += other.errors;
    shed += other.shed;
    invalidate_errors += other.invalidate_errors;
    cost += other.cost;
    items_sent += other.items_sent;
    items_received += other.items_received;
    for (auto& entry : other.oracle) oracle.push_back(std::move(entry));
    if (first_error.empty()) first_error = other.first_error;
    timings.insert(timings.end(), other.timings.begin(), other.timings.end());
    served.insert(served.end(), other.served.begin(), other.served.end());
    for (auto& [index, answer] : other.answers) {
      answers.try_emplace(index, std::move(answer));
    }
    queue_depth_sum += other.queue_depth_sum;
    cache_bytes_peak = std::max(cache_bytes_peak, other.cache_bytes_peak);
  }
};

/// Sends one timed request and books its outcome. `due` is when the
/// request was due to be sent (open loop) or was sent (closed loop).
void SendTimed(Client& client, const std::string& sql, size_t index,
               bool to_oracle, bool traced, Clock::time_point due,
               Tally& tally) {
  ++tally.attempted;
  uint64_t trace_id = 0;
  std::optional<TraceContextScope> scope;
  if (traced) {
    // Layer gauges as this request arrives, then a trace of its own so the
    // spans it causes can be matched to the round trip timed here.
    static Gauge& depth =
        MetricsRegistry::Global().gauge(metrics::kServiceQueueDepth);
    static Gauge& cache_bytes =
        MetricsRegistry::Global().gauge(metrics::kCacheBytes);
    tally.queue_depth_sum += depth.value();
    tally.cache_bytes_peak = std::max(tally.cache_bytes_peak,
                                      cache_bytes.value());
    trace_id = Tracer::MintId();
    scope.emplace(TraceContext{trace_id, 0});
  }
  const double cpu_before = tally.cpu_per_request ? ProcessCpuSeconds() : 0.0;
  const Result<ClientAnswer> answer = client.QuerySql(sql);
  const Clock::time_point done = Clock::now();
  const double cpu_s =
      tally.cpu_per_request ? ProcessCpuSeconds() - cpu_before : 0.0;
  if (!answer.ok()) {
    if (answer.status().code() == StatusCode::kUnavailable) {
      ++tally.shed;
    } else {
      ++tally.errors;
    }
    if (tally.first_error.empty()) {
      tally.first_error = answer.status().ToString();
    }
    return;
  }
  const double latency_ms =
      std::chrono::duration<double, std::milli>(done - due).count();
  tally.latency_ms.push_back(latency_ms);
  if (tally.cpu_per_request) tally.cpu_ms.push_back(cpu_s * 1000.0);
  tally.cost += answer->cost;
  tally.items_sent += answer->items_sent;
  tally.items_received += answer->items_received;
  if (to_oracle) tally.oracle.emplace_back(index, answer->items);
  if (traced) {
    tally.timings.push_back({trace_id, latency_ms * 1000.0});
    tally.served.push_back(index);
    tally.answers.try_emplace(index, *answer);
  }
}

/// Closed-loop warm-up: every client replays its list concurrently.
Status Warm(std::vector<Client>& clients, const Traffic& traffic,
            const std::vector<std::string>& pool) {
  std::vector<std::string> errors(clients.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (const size_t index : traffic.warmup[c]) {
        const Result<ClientAnswer> answer = clients[c].QuerySql(pool[index]);
        if (!answer.ok()) {
          errors[c] = answer.status().ToString();
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) return Status::Internal("warm-up: " + error);
  }
  return Status::Ok();
}

/// Closed loop: one client sends its timed list, one request in flight.
/// Each block of `invalidate_every` requests starts with the block's
/// INVALIDATE and the refill of the block's distinct queries. Version 0
/// applies unconditionally.
Tally RunClosed(Client& client, const Traffic& traffic, const TrafficSpec& spec,
                const std::vector<std::string>& pool,
                const std::vector<std::string>& source_names, bool traced) {
  const ClientPlan& plan = traffic.timed[0];
  Tally tally;
  tally.cpu_per_request = true;
  tally.latency_ms.reserve(plan.requests.size());
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    const size_t block =
        spec.invalidate_every > 0 ? i / spec.invalidate_every : 0;
    if (spec.invalidate_every > 0 && i % spec.invalidate_every == 0 &&
        block < traffic.invalidate_sources.size()) {
      const std::string& source =
          source_names[traffic.invalidate_sources[block]];
      if (!client.InvalidateSource(source, 0).ok()) {
        ++tally.invalidate_errors;
      }
      for (const size_t index : traffic.refill) {
        SendTimed(client, pool[index], index, false, traced, Clock::now(),
                  tally);
      }
    }
    const size_t index = plan.requests[i];
    SendTimed(client, pool[index], index, plan.oracle[i] != 0, traced,
              Clock::now(), tally);
  }
  return tally;
}

/// Open loop: one scheduler thread releases requests at their due times to
/// a queue that one sender thread per connection drains. Latency runs from
/// the due time, so waiting for a free connection or a service worker
/// counts; the scheduler's own lateness is recorded as sched lag.
Tally RunOpen(std::vector<Client>& clients, const Traffic& traffic,
              const std::vector<std::string>& pool, bool traced) {
  const OpenPlan& plan = traffic.open;
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::deque<size_t> ready;  // guarded by mutex
  bool released_all = false;  // guarded by mutex
  std::vector<Tally> tallies(clients.size());
  const Clock::time_point start = Clock::now();
  auto due_at = [&](size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan.due_s[k]));
  };
  std::vector<std::thread> senders;
  for (size_t c = 0; c < clients.size(); ++c) {
    senders.emplace_back([&, c] {
      for (;;) {
        size_t k = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          ready_cv.wait(lock, [&] { return !ready.empty() || released_all; });
          if (ready.empty()) return;
          k = ready.front();
          ready.pop_front();
        }
        const size_t index = plan.requests[k];
        SendTimed(clients[c], pool[index], index, plan.oracle[k] != 0, traced,
                  due_at(k), tallies[c]);
      }
    });
  }
  std::vector<double> lag_ms;
  lag_ms.reserve(plan.requests.size());
  for (size_t k = 0; k < plan.requests.size(); ++k) {
    std::this_thread::sleep_until(due_at(k));
    lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due_at(k))
            .count());
    {
      std::lock_guard<std::mutex> lock(mutex);
      ready.push_back(k);
    }
    ready_cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    released_all = true;
  }
  ready_cv.notify_all();
  for (std::thread& sender : senders) sender.join();
  Tally total;
  for (Tally& tally : tallies) total.Merge(std::move(tally));
  total.sched_lag_ms = std::move(lag_ms);
  return total;
}

/// Process-wide counters and per-service figures the trial reports as
/// deltas across the timed phase.
struct Snapshot {
  MetricsSnapshot metrics;
  SourceCallCache::Stats cache{};
  ColumnarEvalStats columnar{};
  QueryRouter::Counters router{};
  double server_cost = 0.0;
};

Result<Snapshot> TakeSnapshot(Deployment& deployment, size_t clients) {
  Snapshot snap;
  snap.metrics = MetricsRegistry::Global().Snapshot();
  snap.columnar = GetColumnarEvalStats();
  if (deployment.router() != nullptr) {
    snap.router = deployment.router()->counters();
  }
  for (const auto& service : deployment.services()) {
    const SourceCallCache::Stats s = service->session().cache().StatsSnapshot();
    snap.cache.hits += s.hits;
    snap.cache.misses += s.misses;
    snap.cache.containment_hits += s.containment_hits;
    snap.cache.evictions += s.evictions;
    snap.cache.flights_deduplicated += s.flights_deduplicated;
    // The server's own account of metered cost: the STATS exposition's
    // per-tenant totals, one tenant per client connection.
    FUSION_ASSIGN_OR_RETURN(const StatsExposition stats,
                            ParseStatsText(service->StatsText()));
    for (size_t c = 0; c < clients; ++c) {
      const StatsSample* sample = stats.Find("tenant_metered_cost_total",
                                             StrFormat("c%zu", c));
      if (sample != nullptr) snap.server_cost += sample->value;
    }
  }
  return snap;
}

double CounterDelta(const Snapshot& before, const Snapshot& after,
                    const std::string& name) {
  const auto value = [&name](const Snapshot& s) -> double {
    const auto it = s.metrics.counters.find(name);
    return it == s.metrics.counters.end() ? 0.0
                                          : static_cast<double>(it->second);
  };
  return value(after) - value(before);
}

/// Times `fn` once per element of `served` and returns the mean in µs.
template <typename Fn>
double MeanMicros(const std::vector<size_t>& served, Fn fn) {
  if (served.empty()) return 0.0;
  const Clock::time_point t0 = Clock::now();
  for (const size_t index : served) fn(index);
  return Seconds(t0, Clock::now()) * 1e6 / static_cast<double>(served.size());
}

/// The per-layer figures of a traced trial (see README.md for the table of
/// which end-to-end metric each should move).
std::map<std::string, double> LayerMetrics(
    const WorkloadConfig& config, Deployment& deployment, const Tally& tally,
    const std::vector<SpanRecord>& spans, const Snapshot& before,
    const Snapshot& after, const std::vector<std::string>& pool,
    size_t* unmatched) {
  std::map<std::string, double> out;
  const double queries = std::max<double>(1.0, tally.latency_ms.size());

  const LayerBreakdown breakdown = AccountLayers(spans, tally.timings);
  *unmatched = breakdown.unmatched;
  double parts = 0.0;
  for (const auto& [key, value] : breakdown.mean_us) {
    if (key == "latency_us") continue;
    out[key] = value;
  }
  for (const char* leaf :
       {"edge.overhead_us", "session.other_us", "session.optimize_us",
        "session.learn_us", "exec.op_us.sq", "exec.op_us.sjq",
        "exec.op_us.lq", "exec.op_us.select", "exec.op_us.setop",
        "cache.span_us", "source.call_us", "exec.other_us"}) {
    parts += out[leaf];
  }
  const auto latency = breakdown.mean_us.find("latency_us");
  out["trace.latency_us"] =
      latency == breakdown.mean_us.end() ? 0.0 : latency->second;
  out["accounting.residual_us"] = out["trace.latency_us"] - parts;
  out["router.hop_us"] = config.shards > 1 ? out["edge.overhead_us"] : 0.0;

  // Replays of pure per-request functions over what was served.
  out["query.parse_us"] = MeanMicros(tally.served, [&](size_t index) {
    (void)ParseFusionQuery(pool[index]);
  });
  double response_bytes = 0.0;
  out["protocol.codec_us"] = MeanMicros(tally.served, [&](size_t index) {
    ClientRequest request;
    request.kind = ClientRequest::Kind::kSubmit;
    request.client_id = "c0";
    request.sql = pool[index];
    request.trace_id = 1;
    request.request_id = 1;
    (void)ParseClientRequest(SerializeClientRequest(request));
    const ClientAnswer& answer = tally.answers.at(index);
    ClientResponse response;
    response.ticket = 1;
    response.state = "done";
    for (const Value& v : answer.items) response.items.push_back(v);
    response.cost = answer.cost;
    response.source_queries = answer.source_queries;
    response.cache_hits = answer.cache_hits;
    response.cache_misses = answer.cache_misses;
    response.cache_containment_hits = answer.cache_containment_hits;
    response.items_sent = answer.items_sent;
    response.items_received = answer.items_received;
    response.complete = answer.complete;
    const std::string text = SerializeClientResponse(response);
    response_bytes += static_cast<double>(text.size());
    (void)ParseClientResponse(text);
  });
  out["protocol.response_bytes"] =
      tally.served.empty() ? 0.0
                           : response_bytes / static_cast<double>(
                                                  tally.served.size());
  out["router.key_us"] = 0.0;
  if (QueryRouter* router = deployment.router()) {
    out["router.key_us"] = MeanMicros(tally.served, [&](size_t index) {
      (void)router->shards().Owner(CanonicalQueryKey(pool[index]));
    });
  }

  out["service.queue_depth_mean"] = tally.queue_depth_sum / queries;
  out["service.shed"] =
      CounterDelta(before, after, metrics::kServiceSheddedTotal);
  out["optimizer.plans_per_query"] =
      CounterDelta(before, after, metrics::kOptimizerPlansConsidered) /
      queries;

  const double hits =
      static_cast<double>(after.cache.hits - before.cache.hits);
  const double contained = static_cast<double>(
      after.cache.containment_hits - before.cache.containment_hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  const double lookups = std::max(1.0, hits + contained + misses);
  out["cache.hit_rate"] = hits / lookups;
  out["cache.containment_rate"] = contained / lookups;
  out["cache.flight_waits"] = static_cast<double>(
      after.cache.flights_deduplicated - before.cache.flights_deduplicated);
  out["cache.evictions"] =
      static_cast<double>(after.cache.evictions - before.cache.evictions);
  out["cache.bytes_peak"] = tally.cache_bytes_peak;

  double calls = 0.0;
  for (const auto& [kind, name] :
       std::vector<std::pair<std::string, const char*>>{
           {"sq", metrics::kSourceCallsSq},
           {"sjq", metrics::kSourceCallsSjq},
           {"probe", metrics::kSourceCallsProbe},
           {"lq", metrics::kSourceCallsLq}}) {
    const double delta = CounterDelta(before, after, name);
    out["source.calls." + kind] = delta / queries;
    calls += delta;
  }
  calls += CounterDelta(before, after, metrics::kSourceCallsFetch);
  out["source.calls_per_query"] = calls / queries;
  out["source.items_received_per_query"] =
      static_cast<double>(tally.items_received) / queries;
  out["source.emulated_semijoins"] =
      CounterDelta(before, after, metrics::kEmulatedSemijoins);
  out["relational.batch_rows_per_query"] =
      static_cast<double>(after.columnar.rows_evaluated -
                          before.columnar.rows_evaluated) /
      queries;

  const double warm = static_cast<double>(after.router.warm_forwards -
                                          before.router.warm_forwards);
  out["router.warm_locality"] =
      warm > 0 ? static_cast<double>(after.router.warm_hits -
                                     before.router.warm_hits) /
                     warm
               : 0.0;
  out["router.forward_bytes_per_query"] =
      static_cast<double>(after.router.forward_bytes -
                          before.router.forward_bytes) /
      queries;
  out["router.invalidate_fanouts"] =
      static_cast<double>(after.router.invalidate_fanouts -
                          before.router.invalidate_fanouts);
  return out;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%.9g", values[i]);
  }
  return out + "]";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool seed_given = false;
  bool traced = false;
  bool tiny = false;
  std::string trace_out;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&a](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (a.rfind(prefix, 0) != 0) return std::nullopt;
      return a.substr(prefix.size());
    };
    if (auto v = value("--workload")) {
      args.workload = *v;
    } else if (auto v = value("--seed")) {
      if (v->empty() || v->find_first_not_of("0123456789") != std::string::npos) {
        return Status::InvalidArgument("--seed must be a number");
      }
      args.seed = std::strtoull(v->c_str(), nullptr, 10);
      args.seed_given = true;
    } else if (auto v = value("--trace-out")) {
      args.trace_out = *v;
    } else if (a == "--traced") {
      args.traced = true;
    } else if (a == "--tiny") {
      args.tiny = true;
    } else {
      return Status::InvalidArgument("unknown argument: " + a);
    }
  }
  if (args.workload.empty() || !args.seed_given) {
    return Status::InvalidArgument("--workload and --seed are required");
  }
  return args;
}

int RunTrial(const Args& args) {
  std::optional<WorkloadConfig> found = FindWorkload(args.workload);
  if (!found.has_value()) {
    std::fprintf(stderr, "serve_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  WorkloadConfig config = std::move(*found);
  if (args.tiny) MakeTiny(config);
  const Traffic traffic = MakeTraffic(config.traffic, args.seed);
  const auto fail = [](const std::string& what, const Status& status) {
    std::fprintf(stderr, "serve_bench: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    return 2;
  };

  // ---- Set-up: what a deployment pays before it serves its first request.
  const Clock::time_point t_setup = Clock::now();
  const double cpu_setup = ProcessCpuSeconds();
  auto generated = bench::MacroWorkload::Generate(config.dataset);
  if (!generated.ok()) return fail("generate", generated.status());
  bench::MacroWorkload workload = std::move(generated).value();
  const std::vector<std::string> source_names = workload.catalog().Names();
  const double cpu_generated = ProcessCpuSeconds();

  std::vector<Client> clients;
  Deployment deployment;
  const Status started = deployment.Start(workload, config);
  if (!started.ok()) return fail("start", started);
  for (size_t c = 0; c < config.traffic.clients; ++c) {
    auto client = Client::Builder()
                      .To(Client::Target::Remote(deployment.endpoint()))
                      .ClientId(StrFormat("c%zu", c))
                      .Build();
    if (!client.ok()) return fail("connect", client.status());
    clients.push_back(std::move(client).value());
  }
  const double cpu_started = ProcessCpuSeconds();
  const Status warmed = Warm(clients, traffic, workload.pool());
  if (!warmed.ok()) return fail("warm-up", warmed);
  const Clock::time_point t_warmed = Clock::now();
  const double cpu_warmed = ProcessCpuSeconds();

  // ---- Timed phase.
  auto before = TakeSnapshot(deployment, clients.size());
  if (!before.ok()) return fail("stats", before.status());
  if (args.traced) {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
  }
  const Clock::time_point t_timed = Clock::now();
  const double cpu_timed = ProcessCpuSeconds();
  Tally tally = config.traffic.open_rate_qps > 0.0
                    ? RunOpen(clients, traffic, workload.pool(), args.traced)
                    : RunClosed(clients[0], traffic, config.traffic,
                                workload.pool(), source_names, args.traced);
  const Clock::time_point t_done = Clock::now();
  const double timed_cpu_s = ProcessCpuSeconds() - cpu_timed;
  const double peak_rss_mib = PeakRssMiB();
  std::vector<SpanRecord> spans;
  if (args.traced) {
    Tracer::Global().Disable();
    spans = Tracer::Global().Drain();
  }
  auto after = TakeSnapshot(deployment, clients.size());
  if (!after.ok()) return fail("stats", after.status());

  std::map<std::string, double> layers;
  size_t unmatched = 0;
  if (args.traced) {
    layers = LayerMetrics(config, deployment, tally, spans, *before, *after,
                          workload.pool(), &unmatched);
    if (!args.trace_out.empty()) {
      const Status written = WriteChromeTrace(spans, args.trace_out);
      if (!written.ok()) return fail("trace", written);
    }
  }
  clients.clear();
  deployment.Stop();

  // ---- Checks (counted in no metric).
  std::vector<std::string> problems;
  const bool open_loop = config.traffic.open_rate_qps > 0.0;
  if (!open_loop && (tally.errors > 0 || tally.shed > 0)) {
    problems.push_back(StrFormat("%zu closed-loop requests failed (first: %s)",
                                 tally.errors + tally.shed,
                                 tally.first_error.c_str()));
  }
  if (tally.invalidate_errors > 0) {
    problems.push_back(
        StrFormat("%zu INVALIDATEs failed", tally.invalidate_errors));
  }
  const double server_cost = after->server_cost - before->server_cost;
  const double drift = server_cost - tally.cost;
  if (std::abs(drift) > 1e-6 * std::max(1.0, tally.cost)) {
    problems.push_back(StrFormat("server metered cost %.6f != client sum %.6f",
                                 server_cost, tally.cost));
  }
  if (unmatched > 0) {
    problems.push_back(
        StrFormat("%zu traced requests have no service.request span",
                  unmatched));
  }
  size_t divergences = 0;
  std::map<size_t, ItemSet> reference;
  if (!tally.oracle.empty()) {
    auto oracle_catalog = workload.MakeOracleCatalog();
    if (!oracle_catalog.ok()) return fail("oracle", oracle_catalog.status());
    Mediator oracle(std::move(oracle_catalog).value());
    for (const auto& [index, served] : tally.oracle) {
      auto it = reference.find(index);
      if (it == reference.end()) {
        // Serial, uncached, fresh statistics.
        Result<QueryAnswer> truth =
            oracle.AnswerSql(workload.pool()[index], MediatorOptions{});
        if (!truth.ok()) return fail("oracle", truth.status());
        it = reference.emplace(index, truth->items).first;
      }
      if (!(served == it->second)) ++divergences;
    }
  }
  if (divergences > 0) {
    problems.push_back(StrFormat("%zu of %zu sampled answers differ from the "
                                 "serial uncached mediator",
                                 divergences, tally.oracle.size()));
  }
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "serve_bench: INCORRECT: %s\n", problem.c_str());
  }

  std::string json = StrFormat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
      "\"correct\": %s, \"attempted\": %zu, \"completed\": %zu, "
      "\"errors\": %zu, \"shed\": %zu, \"timed_s\": %.6f, "
      "\"timed_cpu_s\": %.6f, "
      "\"setup_wall_s\": %.6f, \"setup_cpu_s\": %.6f, "
      "\"generate_cpu_s\": %.6f, \"start_cpu_s\": %.6f, "
      "\"warmup_cpu_s\": %.6f, \"peak_rss_mb\": %.3f, \"cost\": %.6f, "
      "\"items_sent\": %zu, \"items_received\": %zu, "
      "\"oracle_sampled\": %zu, \"oracle_distinct\": %zu, "
      "\"divergences\": %zu, \"cost_drift\": %.9f, ",
      config.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.traced ? "true" : "false", problems.empty() ? "true" : "false",
      tally.attempted, tally.latency_ms.size(), tally.errors, tally.shed,
      Seconds(t_timed, t_done), timed_cpu_s, Seconds(t_setup, t_warmed),
      cpu_warmed - cpu_setup, cpu_generated - cpu_setup,
      cpu_started - cpu_generated, cpu_warmed - cpu_started, peak_rss_mib, tally.cost, tally.items_sent,
      tally.items_received, tally.oracle.size(), reference.size(),
      divergences, drift);
  json += "\"layers\": {";
  bool first = true;
  for (const auto& [name, value] : layers) {
    json += StrFormat("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(),
                      value);
    first = false;
  }
  json += "}, \"latency_ms\": " + JsonList(tally.latency_ms) +
          ", \"cpu_ms\": " + JsonList(tally.cpu_ms) +
          ", \"sched_lag_ms\": " + JsonList(tally.sched_lag_ms) + "}";
  std::printf("%s\n", json.c_str());
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace fusion

int main(int argc, char** argv) {
  const auto args = fusion::perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "serve_bench: %s\n",
                 args.status().ToString().c_str());
    return 2;
  }
  return fusion::perfbench::RunTrial(*args);
}
