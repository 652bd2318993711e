// fusiontop — live text dashboard over a fusionqd's STATS exposition.
//
// One-shot by default: connect, fetch STATS (FUSIONQ/1), render the service
// counters and the per-tenant SLO table, exit. With --interval=N it
// refreshes every N seconds until interrupted (or --count renders elapse).
// --raw skips rendering and prints the exposition text verbatim — handy for
// piping into files or diffing two snapshots.
//
// Usage:
//   fusiontop --connect=HOST:PORT [--interval=SECONDS] [--count=N] [--raw]
//   fusiontop --catalog=FILE --sql=QUERY --smoke   # in-process self-test
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli/catalog_config.h"
#include "cli/client_flags.h"
#include "mediator/client.h"
#include "mediator/service.h"
#include "obs/exposition.h"
#include "protocol/tcp_server.h"

namespace fusion {
namespace {

struct Args {
  std::string connect;
  std::string client_id = "fusiontop";
  int interval = 0;  // seconds between refreshes; 0 = one shot
  int count = 0;     // renders before exiting; 0 = until interrupted
  bool raw = false;
  std::string catalog_path;  // --smoke
  std::string sql;           // --smoke
  bool smoke = false;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "fusiontop — live dashboard over a fusionqd's STATS\n\n"
      "usage: fusiontop --connect=HOST:PORT [options]\n\n"
      "  --connect=H:P    the fusionqd to watch\n"
      "  --client-id=S    identity for the STATS requests\n"
      "                   (default 'fusiontop')\n"
      "  --interval=N     refresh every N seconds (default: one shot)\n"
      "  --count=N        exit after N renders (default: until ^C;\n"
      "                   meaningful with --interval)\n"
      "  --raw            print the exposition text verbatim, no rendering\n"
      "  --smoke          in-process self-test: serve a catalog on an\n"
      "                   ephemeral port, run one query (requires --sql),\n"
      "                   then render the dashboard against it\n"
      "  --catalog=FILE   --smoke's catalog config\n"
      "  --sql=QUERY      --smoke's warm-up query\n");
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlagValue(a, "--connect", &args.connect)) continue;
    if (ParseFlagValue(a, "--client-id", &args.client_id)) continue;
    if (ParseFlagValue(a, "--catalog", &args.catalog_path)) continue;
    if (ParseFlagValue(a, "--sql", &args.sql)) continue;
    Status number_error;
    if (ConsumeNumberFlag(a, "--interval", 0, &args.interval,
                          &number_error) ||
        ConsumeNumberFlag(a, "--count", 0, &args.count, &number_error)) {
      FUSION_RETURN_IF_ERROR(number_error);
      continue;
    }
    if (std::strcmp(a, "--raw") == 0) {
      args.raw = true;
      continue;
    }
    if (std::strcmp(a, "--smoke") == 0) {
      args.smoke = true;
      continue;
    }
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      args.help = true;
      continue;
    }
    return Status::InvalidArgument(std::string("unknown argument: ") + a);
  }
  return args;
}

double Value(const StatsExposition& stats, const std::string& name) {
  const StatsSample* sample = stats.Find(name);
  return sample == nullptr ? 0.0 : sample->value;
}

double TenantValue(const StatsExposition& stats, const std::string& name,
                   const std::string& tenant) {
  const StatsSample* sample = stats.Find(name, tenant);
  return sample == nullptr ? 0.0 : sample->value;
}

double TenantQuantile(const StatsExposition& stats, const std::string& tenant,
                      const char* quantile) {
  for (const StatsSample& sample : stats.samples) {
    if (sample.name != "tenant_latency_ms") continue;
    const std::string* t = sample.Label("tenant");
    const std::string* q = sample.Label("quantile");
    if (t != nullptr && *t == tenant && q != nullptr && *q == quantile) {
      return sample.value;
    }
  }
  return 0.0;
}

/// Every tenant named anywhere in the exposition, in first-seen (i.e.
/// lexicographic, since samples are sorted) order.
std::vector<std::string> Tenants(const StatsExposition& stats) {
  std::vector<std::string> tenants;
  for (const StatsSample& sample : stats.samples) {
    if (sample.name != "tenant_requests_total") continue;
    const std::string* tenant = sample.Label("tenant");
    if (tenant != nullptr) tenants.push_back(*tenant);
  }
  return tenants;
}

void Render(const std::string& server, const StatsExposition& stats) {
  std::printf("== %s — fusionq-stats schema %d ==\n", server.c_str(),
              stats.schema);
  std::printf(
      "service: requests=%.0f shed=%.0f cancelled=%.0f queue=%.0f "
      "clients=%.0f\n",
      Value(stats, "service_requests_total"),
      Value(stats, "service_shedded_total"),
      Value(stats, "service_cancelled_total"),
      Value(stats, "service_queue_depth"),
      Value(stats, "service_active_clients"));
  std::printf(
      "cache:   hits=%.0f misses=%.0f containment=%.0f entries=%.0f "
      "bytes=%.0f\n",
      Value(stats, "cache_hits_total"), Value(stats, "cache_misses_total"),
      Value(stats, "cache_containment_hits_total"),
      Value(stats, "cache_entries"), Value(stats, "cache_bytes"));
  std::printf(
      "rpc:     requests=%.0f served=%.0f bytes_out=%.0f bytes_in=%.0f\n",
      Value(stats, "rpc_requests_total"),
      Value(stats, "rpc_server_requests_total"),
      Value(stats, "rpc_bytes_sent"), Value(stats, "rpc_bytes_received"));
  const std::vector<std::string> tenants = Tenants(stats);
  if (tenants.empty()) {
    std::printf("tenants: none\n");
    return;
  }
  std::printf("%-16s %7s %5s %5s %5s %6s %8s %8s %8s %10s\n", "TENANT", "REQ",
              "ERR", "SHED", "DEGR", "ERR%", "P50ms", "P95ms", "P99ms",
              "COST");
  for (const std::string& tenant : tenants) {
    std::printf(
        "%-16s %7.0f %5.0f %5.0f %5.0f %5.1f%% %8.2f %8.2f %8.2f %10.3f\n",
        tenant.c_str(), TenantValue(stats, "tenant_requests_total", tenant),
        TenantValue(stats, "tenant_errors_total", tenant),
        TenantValue(stats, "tenant_shed_total", tenant),
        TenantValue(stats, "tenant_degraded_total", tenant),
        100.0 * TenantValue(stats, "tenant_error_rate", tenant),
        TenantQuantile(stats, tenant, "0.5"),
        TenantQuantile(stats, tenant, "0.95"),
        TenantQuantile(stats, tenant, "0.99"),
        TenantValue(stats, "tenant_metered_cost_total", tenant));
  }
}

int Watch(const Args& args, Client& client) {
  int renders = 0;
  for (;;) {
    const Result<std::string> text = client.Stats();
    if (!text.ok()) {
      std::fprintf(stderr, "stats: %s\n", text.status().ToString().c_str());
      return 1;
    }
    if (args.raw) {
      std::printf("%s", text->c_str());
    } else {
      const Result<StatsExposition> stats = ParseStatsText(*text);
      if (!stats.ok()) {
        std::fprintf(stderr, "stats: %s\n",
                     stats.status().ToString().c_str());
        return 1;
      }
      Render(client.server(), *stats);
    }
    ++renders;
    if (args.interval == 0) return 0;
    if (args.count > 0 && renders >= args.count) return 0;
    std::printf("\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(args.interval));
  }
}

/// --smoke: stand up a QueryService on an ephemeral port in this process,
/// warm it with one query, and render the dashboard against it — proves the
/// STATS verb, the exposition parser, and the renderer end to end over real
/// sockets.
int Smoke(const Args& args) {
  if (args.catalog_path.empty() || args.sql.empty()) {
    std::fprintf(stderr, "--smoke requires --catalog and --sql\n");
    return 2;
  }
  auto catalog = LoadCatalogFromFile(args.catalog_path);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog: %s\n", catalog.status().ToString().c_str());
    return 1;
  }
  QueryService::Options options;
  options.client.use_cache = true;
  QueryService service(Mediator(std::move(catalog).value()), options);
  TcpServer server(FrameHandler(&service, kMaxClientFrameBytes));
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bind: %s\n", started.ToString().c_str());
    return 1;
  }
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());

  auto querier = Client::Builder()
                     .To(Client::Target::Remote(endpoint))
                     .ClientId("smoke-tenant")
                     .Build();
  auto watcher = Client::Builder()
                     .To(Client::Target::Remote(endpoint))
                     .ClientId(args.client_id)
                     .Build();
  if (!querier.ok() || !watcher.ok()) {
    std::fprintf(stderr, "smoke: connect failed\n");
    return 1;
  }
  const auto answer = querier->QuerySql(args.sql);
  if (!answer.ok()) {
    std::fprintf(stderr, "smoke: query: %s\n",
                 answer.status().ToString().c_str());
    return 1;
  }
  Args once = args;
  once.interval = 0;
  const int exit_code = Watch(once, *watcher);
  if (exit_code == 0) std::printf("fusiontop smoke: ok\n");
  return exit_code;
}

int Run(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (args->help || (args->connect.empty() && !args->smoke)) {
    PrintUsage();
    return args->help ? 0 : 2;
  }
  if (args->smoke) return Smoke(*args);
  auto client_or = Client::Builder()
                       .To(Client::Target::Remote(args->connect))
                       .ClientId(args->client_id)
                       .Build();
  if (!client_or.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  Client client = std::move(client_or).value();
  return Watch(*args, client);
}

}  // namespace
}  // namespace fusion

int main(int argc, char** argv) { return fusion::Run(argc, argv); }
