// A federation behind the wire: every source sits behind the FUSIONP/1
// wrapper protocol on its own loopback TCP server (as fusionsd serves it),
// so the client has no oracle access at all. Its
// session plans from priors, learns statistics from execution feedback, and
// reuses cached answers — the full production configuration behind the one
// fusion::Client surface.
#include <cstdio>
#include <memory>

#include "mediator/client.h"
#include "protocol/remote_source.h"
#include "protocol/source_server.h"
#include "protocol/tcp_server.h"
#include "workload/dmv.h"

using namespace fusion;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  // "Deploy" 12 state DMVs as protocol servers.
  DmvSpec spec;
  spec.num_states = 12;
  spec.num_drivers = 2500;
  spec.violation_weights = {0.3, 6.0, 1.0, 6.0, 2.0};  // dui rare, sp common
  spec.seed = 99;
  auto instance = GenerateDmv(spec);
  if (!instance.ok()) return Fail(instance.status());

  // Servers before listeners: the listeners stop (and join their
  // connections) before the servers they call go away.
  std::vector<std::unique_ptr<SourceServer>> servers;
  std::vector<std::unique_ptr<TcpServer>> listeners;
  SourceCatalog remote_catalog;
  for (const SimulatedSource* sim : instance->simulated) {
    servers.push_back(std::make_unique<SourceServer>(
        std::make_unique<SimulatedSource>(*sim)));
    listeners.push_back(std::make_unique<TcpServer>(
        FrameHandler(servers.back().get(), kMaxSourceFrameBytes)));
    if (Status s = listeners.back()->Start(); !s.ok()) return Fail(s);
    auto remote = RemoteSource::ConnectTcp(
        {"127.0.0.1:" + std::to_string(listeners.back()->port())});
    if (!remote.ok()) return Fail(remote.status());
    if (Status s = remote_catalog.Add(std::move(remote).value()); !s.ok()) {
      return Fail(s);
    }
  }
  std::printf("connected to %zu sources over FUSIONP/1\n\n",
              remote_catalog.size());

  // A client in its default statistics mode: no oracle anywhere — priors,
  // then execution feedback (Builder::Statistics(std::nullopt) is the
  // session-learned default).
  ClientOptions options;
  options.strategy = OptimizerStrategy::kGreedySjaPlus;
  options.default_cardinality = 2000;
  options.default_universe = 3000;
  auto client = Client::Builder()
                    .To(Client::Target::Embedded(std::move(remote_catalog)))
                    .Options(options)
                    .Build();
  if (!client.ok()) return Fail(client.status());

  const char* queries[] = {
      // The investigation escalates; conditions overlap across queries.
      "SELECT u1.L FROM U u1, U u2 "
      "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'",
      "SELECT u1.L FROM U u1, U u2 "
      "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'reckless'",
      "SELECT u1.L FROM U u1, U u2, U u3 WHERE u1.L = u2.L AND u2.L = u3.L "
      "AND u1.V = 'dui' AND u2.V = 'sp' AND u3.V = 'redlight'",
      // Re-run of the first query: cache should make it nearly free.
      "SELECT u1.L FROM U u1, U u2 "
      "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'",
  };

  std::printf("%4s %10s %10s %10s %12s  %s\n", "#", "answers", "queries",
              "cost", "cache hits", "plan class");
  for (size_t i = 0; i < 4; ++i) {
    const auto answer = client->QuerySql(queries[i]);
    if (!answer.ok()) return Fail(answer.status());
    std::printf("%4zu %10zu %10zu %10.0f %12zu  %s\n", i + 1,
                answer->items.size(), answer->source_queries, answer->cost,
                client->session()->cache().hits(),
                PlanClassName(answer->detail->optimized.plan_class));
  }
  std::printf(
      "\nsession learned %zu (source, condition) statistics; query 4 reused "
      "query 1's answers from the cache.\n",
      client->session()->observed_conditions());
  return 0;
}
