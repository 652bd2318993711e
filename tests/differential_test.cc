// Property-style differential test of the serving path: randomized fusion
// queries answered by a concurrent QueryService (shared cache, learned
// statistics, plan memo, churn invalidations) must be byte-identical to a
// fresh, serial, cache-less Mediator over an identical federation. The
// service may pick different plans than the reference — the answers must
// not differ. The same run is made in-process, over TCP to one service, and
// over TCP through a router to 2 shards.
//
// Seeded and deterministic (honors FUSION_SEED for replay); part of the
// TSan matrix via the concurrency label.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "common/rng.h"
#include "mediator/client.h"
#include "mediator/mediator.h"
#include "mediator/service.h"
#include "obs/exposition.h"
#include "protocol/client_protocol.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "test_daemon.h"

namespace fusion {
namespace {

using bench::MacroWorkload;
using bench::MacroWorkloadSpec;

MacroWorkloadSpec SmallSpec(uint64_t seed) {
  MacroWorkloadSpec spec;
  spec.universe_size = 1500;
  spec.num_sources = 5;
  spec.num_conditions = 5;
  spec.pool_size = 40;
  spec.coverage = 0.3;
  spec.selectivity = 0.1;
  spec.seed = GlobalSeed(seed);
  return spec;
}

/// One tenant's link to the serving side: in-process, SUBMITs go through
/// the full wire path (serialize → QueryService::Handle → parse); over TCP,
/// a fusion::Client on its own connection.
struct TenantLink {
  std::string id;
  QueryService* service = nullptr;  // in-process
  std::optional<Client> client;     // over TCP

  Result<ClientAnswer> QuerySql(const std::string& sql) {
    if (client) return client->QuerySql(sql);
    ClientRequest request;
    request.kind = ClientRequest::Kind::kSubmit;
    request.client_id = id;
    request.sql = sql;
    request.wait = true;
    FUSION_ASSIGN_OR_RETURN(
        const ClientResponse response,
        ParseClientResponse(service->Handle(SerializeClientRequest(request))));
    if (!response.ok) {
      return Status(response.error_code, response.error_message);
    }
    ClientAnswer answer;
    for (const Value& v : response.items) answer.items.Insert(v);
    answer.cost = response.cost;
    return answer;
  }

  Result<std::string> InvalidateSource(const std::string& source,
                                       uint64_t version) {
    if (client) return client->InvalidateSource(source, version);
    return service->Invalidate(source, version);
  }
};

/// How the tenants reach the served answers: in-process through
/// QueryService::Handle, over TCP to one QueryService, or over TCP to a
/// QueryRouter in front of 2 shards.
enum class Transport { kInProcess, kTcpService, kTcpFleet };

class DifferentialTransportTest : public testing::TestWithParam<Transport> {};

// 200 randomized queries from 4 concurrent tenants — with churn
// invalidations interleaved — against services with 4 workers and a shared
// session each, then every answer re-derived on a serial uncached mediator.
TEST_P(DifferentialTransportTest,
       ServiceMatchesSerialMediatorUnderConcurrency) {
  const Transport transport = GetParam();
  const MacroWorkloadSpec spec = SmallSpec(7);
  auto workload_or = MacroWorkload::Generate(spec);
  ASSERT_TRUE(workload_or.ok()) << workload_or.status().ToString();
  MacroWorkload workload = std::move(workload_or).value();
  const std::vector<std::string> source_names = workload.catalog().Names();

  // Shard 0 serves the generated federation; the fleet's second shard
  // serves a byte-identical replica.
  QueryService::Options options;
  options.workers = 4;
  const size_t num_shards = transport == Transport::kTcpFleet ? 2 : 1;
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<TcpServer>> daemons;
  std::vector<Shard> shards;
  for (size_t s = 0; s < num_shards; ++s) {
    Result<SourceCatalog> catalog =
        s == 0 ? Result<SourceCatalog>(std::move(workload.catalog()))
               : workload.MakeOracleCatalog();
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    services.push_back(std::make_unique<QueryService>(
        Mediator(std::move(catalog).value()), options));
    if (transport == Transport::kInProcess) continue;
    daemons.push_back(
        std::make_unique<TcpServer>(
            FrameHandler(services.back().get(), kMaxClientFrameBytes)));
    ASSERT_TRUE(daemons.back()->Start().ok());
    shards.push_back(
        {"shard-" + std::to_string(s), Endpoint(daemons.back()->port())});
  }
  std::string endpoint = shards.empty() ? "" : shards[0].endpoint;
  std::unique_ptr<QueryRouter> router;
  std::unique_ptr<TcpServer> router_daemon;
  if (transport == Transport::kTcpFleet) {
    auto map = ShardMap::Make(shards);
    ASSERT_TRUE(map.ok()) << map.status().ToString();
    router = std::make_unique<QueryRouter>(std::move(map).value(),
                                           QueryRouter::Options{});
    router_daemon = std::make_unique<TcpServer>(
        FrameHandler(router.get(), kMaxClientFrameBytes));
    ASSERT_TRUE(router_daemon->Start().ok());
    endpoint = Endpoint(router_daemon->port());
  }

  constexpr size_t kTenants = 4;
  constexpr size_t kQueriesPerTenant = 50;
  constexpr size_t kChurnEvery = 25;
  std::mutex mutex;
  std::vector<std::pair<size_t, std::string>> served;  // (pool idx, answer)
  std::vector<std::string> failures;
  size_t completed = 0;
  double client_cost = 0.0;
  std::vector<std::thread> tenants;
  for (size_t t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      TenantLink link{"tenant-" + std::to_string(t), services[0].get(), {}};
      if (!endpoint.empty()) {
        auto client = Client::Builder()
                          .To(Client::Target::Remote(endpoint))
                          .ClientId(link.id)
                          .Build();
        if (!client.ok()) {
          std::lock_guard<std::mutex> lock(mutex);
          failures.push_back(client.status().ToString());
          return;
        }
        link.client = std::move(client).value();
      }
      MacroWorkload::TenantStream stream = workload.StreamFor(t, kTenants);
      for (size_t i = 0; i < kQueriesPerTenant; ++i) {
        const size_t index = stream.NextIndex();
        const Result<ClientAnswer> answer =
            link.QuerySql(workload.pool()[index]);
        std::lock_guard<std::mutex> lock(mutex);
        if (!answer.ok()) {
          failures.push_back(answer.status().ToString());
          continue;
        }
        served.emplace_back(index, answer->items.ToString());
        client_cost += answer->cost;
        // Deterministic churn: every 25th completion invalidates a source
        // (over TCP, with the INVALIDATE verb), so reuse must survive cache
        // wipes mid-run. Sent under the lock, the completion-count versions
        // reach every service in increasing order.
        if (++completed % kChurnEvery == 0) {
          const Result<std::string> state = link.InvalidateSource(
              source_names[MixSeed(spec.seed, completed) % spec.num_sources],
              completed);
          if (!state.ok()) failures.push_back(state.status().ToString());
        }
      }
    });
  }
  for (std::thread& tenant : tenants) tenant.join();
  ASSERT_TRUE(failures.empty()) << failures.front();
  ASSERT_EQ(served.size(), kTenants * kQueriesPerTenant);
  for (const auto& service : services) {
    EXPECT_EQ(service->invalidates_applied(), served.size() / kChurnEvery);
  }
  if (router != nullptr) {
    const QueryRouter::Counters counters = router->counters();
    EXPECT_GT(counters.forwards, 0u);
    EXPECT_GT(counters.invalidate_fanouts, 0u);
  }

  // The services' own account of the run: the metered cost summed over the
  // tenant rows of each one's STATS, fetched over the wire, must equal what
  // the tenants summed from their answers. STATS prints 10 significant
  // digits, hence the tolerance.
  if (!daemons.empty()) {
    double server_cost = 0.0;
    for (const auto& daemon : daemons) {
      auto stats_client = Client::Builder()
                              .To(Client::Target::Remote(
                                  Endpoint(daemon->port())))
                              .ClientId("stats")
                              .Build();
      ASSERT_TRUE(stats_client.ok()) << stats_client.status().ToString();
      const Result<std::string> text = stats_client->Stats();
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      const Result<StatsExposition> stats = ParseStatsText(*text);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      for (const StatsSample& sample : stats->samples) {
        if (sample.name == "tenant_metered_cost_total") {
          server_cost += sample.value;
        }
      }
    }
    ASSERT_GT(client_cost, 0.0);
    EXPECT_NEAR(server_cost, client_cost, 1e-8 * client_cost);
  }

  // Reference: same federation, fresh build, serial execution, no cache,
  // no session statistics — the simplest trustworthy evaluator.
  auto oracle_catalog = workload.MakeOracleCatalog();
  ASSERT_TRUE(oracle_catalog.ok()) << oracle_catalog.status().ToString();
  Mediator oracle(std::move(oracle_catalog).value());
  const MediatorOptions serial;
  std::map<size_t, std::string> reference;
  size_t divergences = 0;
  for (const auto& [index, answer] : served) {
    auto it = reference.find(index);
    if (it == reference.end()) {
      auto truth = oracle.AnswerSql(workload.pool()[index], serial);
      ASSERT_TRUE(truth.ok()) << truth.status().ToString();
      it = reference.emplace(index, truth->items.ToString()).first;
    }
    if (answer != it->second) {
      ++divergences;
      ADD_FAILURE() << "pool[" << index << "] diverged\n  sql:    "
                    << workload.pool()[index] << "\n  served: " << answer
                    << "\n  oracle: " << it->second;
      if (divergences >= 3) break;  // enough detail to debug
    }
  }
  EXPECT_EQ(divergences, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, DifferentialTransportTest,
    testing::Values(Transport::kInProcess, Transport::kTcpService,
                    Transport::kTcpFleet),
    [](const testing::TestParamInfo<Transport>& info) {
      switch (info.param) {
        case Transport::kInProcess: return "InProcess";
        case Transport::kTcpService: return "TcpService";
        case Transport::kTcpFleet: return "TcpFleet";
      }
      return "";
    });

// The workload generator itself must be replayable: the same spec yields
// the same pool and the same per-tenant request streams, and distinct
// tenants get distinct streams.
TEST(DifferentialTest, WorkloadStreamsAreDeterministic) {
  const MacroWorkloadSpec spec = SmallSpec(11);
  auto a = MacroWorkload::Generate(spec);
  auto b = MacroWorkload::Generate(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->pool(), b->pool());

  MacroWorkload::TenantStream s1 = a->StreamFor(0, 4);
  MacroWorkload::TenantStream s2 = b->StreamFor(0, 4);
  MacroWorkload::TenantStream other = a->StreamFor(1, 4);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const size_t expected = s1.NextIndex();
    EXPECT_EQ(expected, s2.NextIndex());
    if (other.NextIndex() != expected) differs = true;
  }
  EXPECT_TRUE(differs) << "tenant streams should not be identical";
}

// Embedded path sanity: the same pool through a local uncached session must
// equal the serial mediator too (catches bugs that the cached service path
// could mask by construction).
TEST(DifferentialTest, UncachedSessionMatchesSerialMediator) {
  const MacroWorkloadSpec spec = SmallSpec(13);
  auto workload_or = MacroWorkload::Generate(spec);
  ASSERT_TRUE(workload_or.ok());
  MacroWorkload workload = std::move(workload_or).value();

  QuerySession::Options options;
  options.use_cache = false;
  QuerySession session(Mediator(std::move(workload.catalog())), options);
  auto oracle_catalog = workload.MakeOracleCatalog();
  ASSERT_TRUE(oracle_catalog.ok());
  Mediator oracle(std::move(oracle_catalog).value());
  const MediatorOptions serial;
  for (size_t index = 0; index < workload.pool().size(); ++index) {
    const std::string& sql = workload.pool()[index];
    auto served = session.AnswerSql(sql);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto truth = oracle.AnswerSql(sql, serial);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_EQ(served->items.ToString(), truth->items.ToString()) << sql;
  }
}

}  // namespace
}  // namespace fusion
