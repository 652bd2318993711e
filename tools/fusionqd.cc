// fusionqd — the fusion query service daemon.
//
// Loads a catalog once, builds ONE shared QuerySession (result cache,
// circuit breakers, learned statistics), and serves concurrent FUSIONQ/1
// clients over TCP: a TcpServer gives every accepted connection a thread
// running the service's receive → dispatch → reply loop, and every query funnels
// through the same admission queue, fair per-client scheduler, and executor
// pool. Point `fusionq --connect=host:port` (or any FUSIONQ/1 speaker) at
// it.
//
// Usage:
//   fusionqd --catalog=<config.ini> [--host=127.0.0.1] [--port=4631]
//            [--workers=N] [--max-queue=N] [--name=fusionqd]
//            [client flags: --strategy/--stats/--cache/...]
//   fusionqd --catalog=... --sql=QUERY --smoke   # in-process self-test
//
// --port=0 binds an ephemeral port; the actual port is printed on the
// "listening on" line, so scripts can parse it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli/catalog_config.h"
#include "cli/client_flags.h"
#include "cli/flags.h"
#include "mediator/client.h"
#include "mediator/service.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "protocol/chaos.h"
#include "protocol/tcp_server.h"

namespace fusion {
namespace {

struct Args {
  std::string catalog_path;
  ListenFlags listen;
  int workers = 4;
  int max_queue = 64;
  std::string name = "fusionqd";
  std::string sql;   // --smoke's test query
  /// Record spans for every served request; write Chrome trace-event JSON
  /// here at shutdown. Served spans carry the client's trace ids, so this
  /// file merges with client-side exports (tools/trace_merge.py) into one
  /// stitched distributed trace.
  std::string trace_out;
  /// Fault injection at the daemon's own edge (--chaos-* flags): every
  /// accepted connection may be refused, reset, torn, delayed, or hung per
  /// this seeded policy — the daemon abuses itself so operators can drill
  /// client recovery against a real deployment.
  ChaosFlags chaos;
  bool smoke = false;
  bool help = false;
  ClientFlags client;

  Args() {
    listen.port = 4631;
    // Daemon defaults differ from the one-shot CLI: a long-lived service
    // exists to amortize — result cache on, session-learned statistics.
    client.cache = true;
    client.stats = "session";
  }
};

void PrintUsage() {
  std::printf(
      "fusionqd — fusion query service daemon (FUSIONQ/1 over TCP)\n\n"
      "usage: fusionqd --catalog=FILE [options]\n\n"
      "  --catalog=FILE   INI catalog config (see examples/data/)\n"
      "  --host=H         listen address (default 127.0.0.1)\n"
      "  --port=P         listen port; 0 = ephemeral, printed on startup\n"
      "                   (default 4631)\n"
      "  --workers=N      concurrently running queries (default 4)\n"
      "  --max-queue=N    admission bound: queued requests beyond this are\n"
      "                   shed with Unavailable (default 64)\n"
      "  --name=S         server name reported in the HELLO handshake\n"
      "  --port-file=PATH write the bound port here once listening (the\n"
      "                   readiness hook for scripts using --port=0)\n"
      "  --trace=FILE     record spans for every served request; write\n"
      "                   Chrome trace-event JSON to FILE at shutdown.\n"
      "                   Spans keep the submitting client's trace ids, so\n"
      "                   tools/trace_merge.py can stitch this file with\n"
      "                   client-side exports into one distributed trace\n"
      "%s"
      "  --smoke          in-process self-test: serve on an ephemeral port,\n"
      "                   run two concurrent clients over real sockets\n"
      "                   (requires --sql), verify identical answers and a\n"
      "                   warm second query, then exit\n"
      "  --sql=QUERY      the query --smoke submits\n"
      "\nshared client flags (same meanings as fusionq; defaults here:\n"
      "--cache on, --stats=session):\n%s",
      ChaosFlags::Help(), ClientFlags::Help());
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    Status flag_error = Status::Ok();
    if (args.client.Consume(a, &flag_error) ||
        args.listen.Consume(a, &flag_error) ||
        args.chaos.Consume(a, &flag_error)) {
      FUSION_RETURN_IF_ERROR(flag_error);
      continue;
    }
    if (ParseFlagValue(a, "--catalog", &args.catalog_path)) continue;
    if (ParseFlagValue(a, "--name", &args.name)) continue;
    if (ParseFlagValue(a, "--sql", &args.sql)) continue;
    if (ParseFlagValue(a, "--trace", &args.trace_out)) continue;
    if (ConsumeNumberFlag(a, "--workers", 1, &args.workers, &flag_error) ||
        ConsumeNumberFlag(a, "--max-queue", 1, &args.max_queue,
                          &flag_error)) {
      FUSION_RETURN_IF_ERROR(flag_error);
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

Result<QueryService::Options> ServiceOptionsFromArgs(const Args& args) {
  QueryService::Options options;
  options.server_name = args.name;
  options.workers = args.workers;
  options.max_queue = static_cast<size_t>(args.max_queue);
  FUSION_ASSIGN_OR_RETURN(options.client, args.client.ToClientOptions());
  return options;
}

int Serve(const Args& args, QueryService& service, size_t num_sources) {
  if (!args.trace_out.empty()) Tracer::Global().Enable();
  const std::shared_ptr<ChaosDecider> chaos = args.chaos.Decider();
  TcpServer server(FrameHandler(&service, kMaxClientFrameBytes), chaos);
  const Status listening = args.listen.Start(server);
  if (!listening.ok()) {
    std::fprintf(stderr, "%s\n", listening.message().c_str());
    return 1;
  }

  std::printf("%s: listening on %s:%d (%zu sources, workers=%d, queue=%d)\n",
              args.name.c_str(), args.listen.host.c_str(), server.port(),
              num_sources, args.workers, args.max_queue);
  if (chaos != nullptr) {
    const ChaosPolicy& policy = chaos->policy();
    std::printf(
        "%s: chaos enabled (drop=%.3g torn=%.3g delay=%.3g refuse=%.3g "
        "hang=%.3g seed=%llu)\n",
        args.name.c_str(), policy.drop_rate, policy.torn_write_rate,
        policy.delay_rate, policy.accept_refuse_rate, policy.hang_rate,
        static_cast<unsigned long long>(policy.seed));
  }
  std::fflush(stdout);

  server.Wait();  // until SIGINT/SIGTERM
  std::printf("%s: shutting down\n", args.name.c_str());
  service.Shutdown();
  server.Stop();
  if (!args.trace_out.empty()) {
    const std::vector<SpanRecord> spans = Tracer::Global().Drain();
    const Status written = WriteChromeTrace(spans, args.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("%s: trace: %zu spans -> %s\n", args.name.c_str(),
                spans.size(), args.trace_out.c_str());
  }
  return 0;
}

/// --smoke: the daemon exercises its own serving path end to end, over real
/// sockets, inside one process — two concurrent clients submit the same
/// query, answers must match byte for byte, and a repeat query must be
/// answered warm (metered cost an order of magnitude below the first).
int Smoke(const Args& args, QueryService& service) {
  TcpServer server(FrameHandler(&service, kMaxClientFrameBytes));
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bind: %s\n", started.ToString().c_str());
    return 1;
  }
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());

  auto first_or = Client::Builder()
                      .To(Client::Target::Remote(endpoint))
                      .ClientId("smoke-0")
                      .Build();
  if (!first_or.ok()) {
    std::fprintf(stderr, "smoke: connect: %s\n",
                 first_or.status().ToString().c_str());
    return 1;
  }
  Client first = std::move(first_or).value();
  // Phase 1: one cold query pays the full metered cost.
  Result<ClientAnswer> cold = first.QuerySql(args.sql);
  if (!cold.ok()) {
    std::fprintf(stderr, "smoke: cold query failed: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }
  if (cold->cost <= 0.0) {
    std::fprintf(stderr, "smoke: cold query was free (cost %.3f) — "
                 "cannot demonstrate cache sharing\n", cold->cost);
    return 1;
  }
  // Phase 2: the same query from the *same* client and from a *different*
  // client, concurrently. Both must be answered warm — the second client
  // never asked anything before, so a cheap answer proves the cache is
  // shared across clients through the service path.
  Result<ClientAnswer> warm_same = Status::Unavailable("not run");
  Result<ClientAnswer> warm_other = Status::Unavailable("not run");
  std::thread same([&] { warm_same = first.QuerySql(args.sql); });
  std::thread other([&] {
    auto second = Client::Builder()
                      .To(Client::Target::Remote(endpoint))
                      .ClientId("smoke-1")
                      .Build();
    if (!second.ok()) {
      warm_other = second.status();
      return;
    }
    warm_other = second->QuerySql(args.sql);
  });
  same.join();
  other.join();

  for (const auto* run : {&warm_same, &warm_other}) {
    if (!run->ok()) {
      std::fprintf(stderr, "smoke: warm query failed: %s\n",
                   run->status().ToString().c_str());
      return 1;
    }
  }
  const std::string answer = cold->items.ToString();
  if (warm_same->items.ToString() != answer ||
      warm_other->items.ToString() != answer) {
    std::fprintf(stderr, "smoke: answers diverge: %s / %s / %s\n",
                 answer.c_str(), warm_same->items.ToString().c_str(),
                 warm_other->items.ToString().c_str());
    return 1;
  }
  if (warm_same->cost > 0.1 * cold->cost ||
      warm_other->cost > 0.1 * cold->cost) {
    std::fprintf(stderr,
                 "smoke: no cache sharing across clients (cold %.3f, "
                 "warm %.3f and %.3f)\n",
                 cold->cost, warm_same->cost, warm_other->cost);
    return 1;
  }
  std::printf(
      "smoke: ok (answer %s; cold cost %.3f; warm costs %.3f / %.3f; "
      "second client shared the first's cache)\n",
      answer.c_str(), cold->cost, warm_same->cost, warm_other->cost);
  return 0;
}

int Run(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (args->help || args->catalog_path.empty()) {
    PrintUsage();
    return args->help ? 0 : 2;
  }
  if (args->smoke && args->sql.empty()) {
    std::fprintf(stderr, "--smoke requires --sql\n");
    return 2;
  }
  auto catalog = LoadCatalogFromFile(args->catalog_path);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog: %s\n", catalog.status().ToString().c_str());
    return 1;
  }
  const size_t num_sources = catalog->size();
  const auto options = ServiceOptionsFromArgs(*args);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 2;
  }
  QueryService service(Mediator(std::move(catalog).value()), *options);
  return args->smoke ? Smoke(*args, service)
                     : Serve(*args, service, num_sources);
}

}  // namespace
}  // namespace fusion

int main(int argc, char** argv) { return fusion::Run(argc, argv); }
