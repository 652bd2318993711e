// E14 — the serving layer: many concurrent clients multiplexed onto one
// shared QuerySession through the fusionqd request driver (the same
// FUSIONQ/1 Handle() path every daemon connection runs).
//
// The experiment behind the serving design's headline claim: once any
// client has paid a query's source traffic, every other client asking the
// same (or an overlapping) question rides the shared cache — the second
// client is metered at a few percent of the first, and concurrent
// duplicates collapse into one execution via single-flight.
//
// Sweeps the concurrent-client count and reports, per round:
//   cold      — metered cost of the first (cache-miss) execution
//   warm max  — the most expensive of the k concurrent warm clients
//   ratio     — warm max / cold (the acceptance bound is <= 0.10)
//   combined  — total metered cost across all k clients
//
// E22 — retained bytes per served outcome: an in-process QueryService over
// the zipf_warm dataset serves its pool warm, then a few hundred more
// queries with request ids (so both the ticket and the dedup table hold
// them). Per outcome it reports the answer's ItemSet bytes, the service's
// own retained-bytes figure, and the process heap growth, which counts
// whatever the outcome really keeps alive. `--smoke` asserts both stay
// within a small multiple of the answer, which a return to retaining whole
// executions (plan, ledger, per-source witness sets) would break.
//
// E25 — the CPU of a warm SUBMIT through QueryService::Handle, in-process
// on the zipf_warm dataset (1 worker, as perfbench runs it): process CPU
// µs per wait=yes SUBMIT (serialize, Handle, parse the RESULT) once the
// pool is warm, next to the router's routing key — CanonicalQueryKey, a
// full parse, and its QueryKeyMemo hit. Every timed SUBMIT must be answered
// at cost 0 on the calling thread (service_inline_runs_total counts each).
//
// E19 — the FUSIONQ/1 answer codec, the layer under every served answer:
// microseconds per answer of ~650, ~950 and ~5000 int items to serialize
// (from the session's ItemSet), parse (into the client's ItemSet), and
// relay (the router's ticket rewrite of a shard frame), with round-trip
// and byte equality asserted on every size.
//
//   bench_service           E14, E22, E25, then E19
//   bench_service --smoke   E22, E25, then E19 at few repetitions (the
//                           ctest entry)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <cstring>
#include <string>
#include <thread>
#include <vector>
#if defined(__GLIBC__)  // defined by the standard headers above
#include <malloc.h>
#endif

#include "bench/workload.h"
#include "bench_util.h"
#include "common/item_set.h"
#include "common/logging.h"
#include "common/rng.h"
#include "mediator/service.h"
#include "obs/metrics.h"
#include "protocol/client_protocol.h"
#include "router/shard_map.h"
#include "workload/dmv.h"

namespace fusion {
namespace {

constexpr char kDuiAndSp[] =
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'";

/// One client exchange over the daemon's wire driver: serialize a SUBMIT
/// (wait=yes), Handle it, parse the RESULT — exactly what a fusionq
/// --connect client costs the service, minus the TCP hop.
ClientResponse SubmitOverWire(QueryService& service,
                              const std::string& client_id,
                              const std::string& sql) {
  ClientRequest request;
  request.kind = ClientRequest::Kind::kSubmit;
  request.client_id = client_id;
  request.sql = sql;
  request.wait = true;
  auto response =
      ParseClientResponse(service.Handle(SerializeClientRequest(request)));
  FUSION_CHECK(response.ok());
  return std::move(response).value();
}

void RunSharedService() {
  bench::Banner(
      "E14: concurrent clients on one fusionqd service (shared session)");

  DmvSpec spec;
  spec.num_states = 20;
  spec.num_drivers = 4000;
  spec.violation_weights = {0.2, 6.0, 1.0, 6.0, 2.0};
  spec.seed = 4631;

  std::printf("%8s | %12s %12s %8s | %12s %12s\n", "clients", "cold",
              "warm max", "ratio", "combined", "independent");
  for (const int clients : {1, 2, 4, 8, 16}) {
    // Fresh federation and service per round: each round's cold cost is a
    // genuine cache miss, not the previous round's warm session.
    auto instance = GenerateDmv(spec);
    FUSION_CHECK(instance.ok());
    QueryService::Options options;
    options.workers = 8;
    options.max_queue = 64;
    options.client.statistics = StatisticsMode::kOracle;
    QueryService service(Mediator(std::move(instance->catalog)), options);

    const ClientResponse cold = SubmitOverWire(service, "first", kDuiAndSp);
    FUSION_CHECK(cold.ok);
    FUSION_CHECK(cold.cost > 0.0);

    std::vector<double> costs(static_cast<size_t>(clients), 0.0);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&service, &costs, c] {
        const ClientResponse warm = SubmitOverWire(
            service, "client-" + std::to_string(c), kDuiAndSp);
        FUSION_CHECK(warm.ok);
        costs[static_cast<size_t>(c)] = warm.cost;
      });
    }
    for (auto& t : threads) t.join();

    double warm_max = 0.0, combined = cold.cost;
    for (const double cost : costs) {
      warm_max = std::max(warm_max, cost);
      combined += cost;
    }
    // k independent mediators (no shared session) would each pay cold.
    const double independent = cold.cost * (1 + clients);
    std::printf("%8d | %12.1f %12.1f %7.1f%% | %12.1f %12.1f\n", clients,
                cold.cost, warm_max, 100.0 * warm_max / cold.cost, combined,
                independent);
    FUSION_CHECK(warm_max <= 0.1 * cold.cost);
  }
  std::printf(
      "\nEvery warm client is metered <= 10%% of the cold execution: the\n"
      "service's shared session turns k clients' identical questions into\n"
      "one set of source calls (cache + single-flight), where independent\n"
      "per-client mediators would pay the full cost k+1 times.\n");
}

/// Heap bytes in use (glibc's allocator statistics); 0 where unavailable.
size_t HeapInUse() {
#if defined(__GLIBC__)
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

void RunRetention(bool smoke) {
  bench::Banner("E22: retained bytes per served outcome");
  // The zipf_warm dataset shape (perfbench/serve_bench.cc).
  bench::MacroWorkloadSpec spec;
  spec.universe_size = 20000;
  spec.num_sources = 8;
  spec.condition_overlap = 0.7;
  spec.pool_size = 64;
  spec.seed = 4631;
  auto workload = bench::MacroWorkload::Generate(spec);
  FUSION_CHECK(workload.ok()) << workload.status().ToString();
  const std::vector<std::string> pool = workload->pool();
  QueryService::Options options;
  options.workers = 1;
  QueryService service(Mediator(std::move(workload->catalog())), options);

  // Warm: the first pass fills the cache, the learned statistics and the
  // plan memo, so the measured pass adds retained outcomes and little else.
  for (const std::string& sql : pool) {
    FUSION_CHECK(service.Wait(*service.Submit("warm", sql)).ok());
  }
  // Every measured outcome stays in both windows: no eviction.
  const size_t served = options.max_retained - pool.size();
  FUSION_CHECK(served <= options.max_dedup);
  const size_t heap_before = HeapInUse();
  const size_t retained_before = service.retained_bytes();
  size_t answer_bytes = 0;
  QueryService::SubmitOptions submit;
  for (size_t i = 0; i < served; ++i) {
    submit.request_id = i + 1;
    const auto answer =
        service.Wait(*service.Submit("served", pool[i % pool.size()], submit));
    FUSION_CHECK(answer.ok()) << answer.status().ToString();
    FUSION_CHECK(answer->detail == nullptr);
    answer_bytes += answer->items.ApproxBytes();
  }
  const size_t heap_after = HeapInUse();
  const double n = static_cast<double>(served);
  const double items_per = static_cast<double>(answer_bytes) / n;
  const double retained_per =
      static_cast<double>(service.retained_bytes() - retained_before) / n;
  const double heap_per =
      heap_after > heap_before
          ? static_cast<double>(heap_after - heap_before) / n
          : 0.0;
  std::printf("%8s | %14s %14s %8s %14s %8s\n", "outcomes", "answer B",
              "retained B", "ratio", "heap growth B", "ratio");
  std::printf("%8zu | %14.0f %14.0f %8.2f ", served, items_per, retained_per,
              retained_per / items_per);
  if (heap_after == 0) {
    std::printf("%14s %8s\n", "n/a", "n/a");  // no allocator statistics
  } else {
    std::printf("%14.0f %8.2f\n", heap_per, heap_per / items_per);
  }
  // Each outcome keeps its answer items plus the sql, the client id and a
  // fixed overhead; a retained execution would add its plan, ledger and
  // per-source witness sets, several times the answer.
  if (smoke) {
    FUSION_CHECK(retained_per <= 1.5 * items_per) << retained_per;
    FUSION_CHECK(heap_per <= 2.0 * items_per) << heap_per;
  }
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time: work handed to another thread counts too.
double CpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Median over `rounds` of the mean microseconds per `op()` over `iters`,
/// read on `clock` (seconds).
template <typename Op>
double MedianMicros(double (*clock)(), int rounds, int iters, Op&& op) {
  std::vector<double> means;
  for (int r = 0; r < rounds; ++r) {
    const double start = clock();
    for (int i = 0; i < iters; ++i) op();
    means.push_back((clock() - start) * 1e6 / iters);
  }
  std::sort(means.begin(), means.end());
  return means[means.size() / 2];
}

void RunWarmSubmit(bool smoke) {
  bench::Banner("E25: CPU of a warm SUBMIT through QueryService::Handle");
  bench::MacroWorkloadSpec spec;  // the zipf_warm dataset, as in E22
  spec.universe_size = 20000;
  spec.num_sources = 8;
  spec.condition_overlap = 0.7;
  spec.pool_size = 64;
  spec.seed = 4631;
  auto workload = bench::MacroWorkload::Generate(spec);
  FUSION_CHECK(workload.ok()) << workload.status().ToString();
  const std::vector<std::string> pool = workload->pool();
  QueryService::Options options;
  options.workers = 1;
  QueryService service(Mediator(std::move(workload->catalog())), options);
  // Two warm passes: the first fills the cache, the second replays each
  // remembered plan once the cache answers all of it.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& sql : pool) {
      FUSION_CHECK(SubmitOverWire(service, "warm", sql).ok);
    }
  }
  std::vector<std::string> requests;
  for (const std::string& sql : pool) {
    ClientRequest request;
    request.kind = ClientRequest::Kind::kSubmit;
    request.client_id = "timed";
    request.sql = sql;
    request.wait = true;
    requests.push_back(SerializeClientRequest(request));
  }
  const Counter& inline_runs =
      MetricsRegistry::Global().counter(metrics::kServiceInlineRunsTotal);
  const uint64_t inline_before = inline_runs.value();
  const int rounds = smoke ? 3 : 15;
  const int iters = smoke ? 64 : 640;
  size_t next = 0;
  size_t submits = 0;
  double cost = 0.0;
  const double submit_us = MedianMicros(CpuSeconds, rounds, iters, [&] {
    const auto response = ParseClientResponse(
        service.Handle(requests[next++ % requests.size()]));
    FUSION_CHECK(response.ok() && response->ok);
    cost += response->cost;
    ++submits;
  });
  FUSION_CHECK(cost == 0.0) << cost;
  FUSION_CHECK(inline_runs.value() - inline_before == submits)
      << inline_runs.value() - inline_before << " of " << submits;

  QueryKeyMemo keys;
  size_t sink = 0;
  next = 0;
  const double key_us = MedianMicros(CpuSeconds, rounds, iters, [&] {
    sink += CanonicalQueryKey(pool[next++ % pool.size()]).size();
  });
  for (const std::string& sql : pool) {
    FUSION_CHECK(keys.Key(sql) == CanonicalQueryKey(sql));
  }
  const double memo_us = MedianMicros(CpuSeconds, rounds, iters, [&] {
    sink += keys.Key(pool[next++ % pool.size()]).size();
  });
  FUSION_CHECK(sink > 0);
  std::printf("%10s | %16s %18s %16s\n", "submits", "warm SUBMIT us",
              "CanonicalQueryKey", "key memo hit us");
  std::printf("%10zu | %16.2f %18.2f %16.2f\n", submits, submit_us, key_us,
              memo_us);
}

void RunCodec(bool smoke) {
  bench::Banner("E19: FUSIONQ/1 answer codec (serialize, parse, relay)");
  std::printf("%8s %8s | %14s %14s %14s\n", "items", "bytes", "serialize us",
              "parse us", "relay us");
  size_t sink = 0;
  for (const size_t n : {650, 950, 5000}) {
    // An answer like the serving workloads': ascending int ids, spread out.
    Rng rng(n);
    std::vector<int64_t> ids;
    int64_t id = rng.Uniform(0, 1000);
    for (size_t i = 0; i < n; ++i) ids.push_back(id += rng.Uniform(1, 400));
    const ItemSet answer = ItemSet::FromInts(ids);
    ClientResponse response;
    response.ticket = 4631;
    response.state = "done";
    response.cost = 412.25;
    response.source_queries = 3;
    response.cache_hits = 2;
    response.items_sent = 120;
    response.items_received = 2 * n;
    response.items = answer.ToValues();
    const std::string wire = SerializeClientResponse(response);

    auto parsed = ParseClientResponse(wire);
    FUSION_CHECK(parsed.ok());
    FUSION_CHECK(SerializeClientResponse(*parsed) == wire);
    FUSION_CHECK(ItemSet(parsed->items) == answer);
    const auto relayed = RelayClientResponse(wire, 3);
    FUSION_CHECK(relayed.ok());
    response.ticket = (4631 << 8) | 3;
    FUSION_CHECK(*relayed == SerializeClientResponse(response));

    const int rounds = smoke ? 3 : 15;
    const int iters = smoke ? 3 : (n > 1000 ? 100 : 500);
    const double serialize_us = MedianMicros(WallSeconds, rounds, iters, [&] {
      response.items = answer.ToValues();
      sink += SerializeClientResponse(response).size();
    });
    const double parse_us = MedianMicros(WallSeconds, rounds, iters, [&] {
      auto p = ParseClientResponse(wire);
      sink += ItemSet(std::move(p->items)).size();
    });
    const double relay_us = MedianMicros(WallSeconds, rounds, iters, [&] {
      sink += RelayClientResponse(wire, 3)->size();
    });
    std::printf("%8zu %8zu | %14.2f %14.2f %14.2f\n", n, wire.size(),
                serialize_us, parse_us, relay_us);
  }
  FUSION_CHECK(sink > 0);
  if (smoke) std::printf("bench_service codec: ok\n");
}

}  // namespace
}  // namespace fusion

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (!smoke) fusion::RunSharedService();
  fusion::RunRetention(smoke);
  fusion::RunWarmSubmit(smoke);
  fusion::RunCodec(smoke);
}
