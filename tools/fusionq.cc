// fusionq — command-line fusion query processor.
//
// Two modes behind one fusion::Client facade:
//
//  - embedded (default): loads a catalog of sources from an INI-style
//    config (each source a CSV file plus capability/network profiles),
//    optimizes the fusion query written in the paper's SQL form, and
//    executes it in-process, printing the chosen plan, the answer, and a
//    metered cost report;
//  - connected (--connect=host:port): submits the query to a running
//    fusionqd over FUSIONQ/1 and prints the served answer — sharing that
//    daemon's result cache, breakers, and learned statistics with every
//    other connected client.
//
// Usage:
//   fusionq --catalog=<config.ini> --sql="SELECT u1.L FROM U u1, U u2
//           WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
//           [--strategy=...] [--stats=...] [--cache] [--repeat=N]
//           [--lazy] [--explain] [--ledger] [--parallelism=N]
//           [--trace=FILE] [--trace-summary] [--metrics]
//   fusionq --connect=127.0.0.1:4631 --sql="..." [--client-id=me]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cli/client_flags.h"
#include "common/file_util.h"
#include "common/str_util.h"
#include "mediator/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "plan/plan.h"
#include "plan/plan_serde.h"
#include "query/parser.h"

namespace fusion {
namespace {

struct Args {
  std::string catalog_path;
  std::string connect;      // fusionqd endpoint (connected mode)
  std::string client_id = "fusionq";
  std::string sql;
  bool explain = false;
  bool ledger = false;
  bool help = false;
  std::string plan_out;    // write the chosen plan in FPLAN/1 format
  std::string trace_out;   // write Chrome trace-event JSON file(s)
  bool trace_summary = false;  // print the per-category span rollup
  bool metrics = false;        // print the process metrics dump
  bool stats = false;          // print the live STATS exposition
  int repeat = 1;              // execute the query N times (cache demo)
  ClientFlags client;
};

void PrintUsage() {
  std::printf(
      "fusionq — fusion queries over autonomous sources (EDBT'98 repro)\n\n"
      "usage: fusionq --catalog=FILE --sql=QUERY [options]\n"
      "       fusionq --connect=HOST:PORT --sql=QUERY [options]\n\n"
      "  --catalog=FILE   INI catalog config (see examples/data/) —\n"
      "                   embedded mode: the full mediator runs in-process\n"
      "  --connect=H:P    connected mode: submit to a running fusionqd and\n"
      "                   share its session (cache, breakers, statistics);\n"
      "                   planning flags and --cache are the daemon's\n"
      "                   configuration and cannot be set per client\n"
      "  --client-id=S    fair-scheduling identity at the daemon\n"
      "                   (default 'fusionq')\n"
      "  --sql=QUERY      fusion query in the paper's SQL form\n"
      "%s"
      "  --explain        print the executed plan annotated with per-op\n"
      "                   metered cost, wall-clock time, and cache\n"
      "                   provenance (both modes; a connected server\n"
      "                   renders it from its own execution)\n"
      "  --stats          print the live STATS exposition — connected mode\n"
      "                   fetches the daemon's (per-tenant SLO table\n"
      "                   included); embedded mode renders this process's\n"
      "                   metrics. With --connect, works without --sql\n"
      "  --ledger         print the per-query cost ledger (embedded mode)\n"
      "  --plan-out=FILE  write the chosen plan in FPLAN/1 format\n"
      "  --repeat=N       run the query N times against the same session —\n"
      "                   shows the warm-cache cost drop (default 1)\n"
      "  --trace=FILE     record spans; write Chrome trace-event JSON to\n"
      "                   FILE (open in chrome://tracing or Perfetto).\n"
      "                   With --repeat=N (N > 1), each run's spans are\n"
      "                   exported separately to FILE.run1, FILE.run2, ...\n"
      "                   (suffix before the extension) so one run's spans\n"
      "                   never bleed into another's timeline\n"
      "  --trace-summary  record spans; print a per-category rollup over\n"
      "                   all runs\n"
      "  --metrics        print the process-wide metrics dump\n",
      ClientFlags::Help());
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    Status client_error = Status::Ok();
    if (args.client.Consume(a, &client_error)) {
      FUSION_RETURN_IF_ERROR(client_error);
      continue;
    }
    if (ParseFlagValue(a, "--catalog", &args.catalog_path)) continue;
    if (ParseFlagValue(a, "--connect", &args.connect)) continue;
    if (ParseFlagValue(a, "--client-id", &args.client_id)) continue;
    if (ParseFlagValue(a, "--sql", &args.sql)) continue;
    if (ParseFlagValue(a, "--plan-out", &args.plan_out)) continue;
    if (ParseFlagValue(a, "--trace", &args.trace_out)) continue;
    if (ConsumeNumberFlag(a, "--repeat", 1, &args.repeat, &client_error)) {
      FUSION_RETURN_IF_ERROR(client_error);
      continue;
    }
    if (std::strcmp(a, "--trace-summary") == 0) {
      args.trace_summary = true;
      continue;
    }
    if (std::strcmp(a, "--metrics") == 0) {
      args.metrics = true;
      continue;
    }
    if (std::strcmp(a, "--stats") == 0) {
      args.stats = true;
      continue;
    }
    if (std::strcmp(a, "--explain") == 0) {
      args.explain = true;
      continue;
    }
    if (std::strcmp(a, "--ledger") == 0) {
      args.ledger = true;
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

/// "trace.json" + run 2 -> "trace.run2.json" (suffix before the extension).
std::string PerRunTracePath(const std::string& base, int run) {
  const size_t dot = base.rfind('.');
  const size_t slash = base.rfind('/');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  const std::string stem = has_ext ? base.substr(0, dot) : base;
  const std::string ext = has_ext ? base.substr(dot) : "";
  return stem + ".run" + std::to_string(run) + ext;
}

/// Condition and source display names for the plan / completeness printers
/// (embedded mode only: re-parses the query and reads the local catalog).
Result<PlanPrintNames> PrintNames(const std::string& sql, Client& client) {
  FUSION_ASSIGN_OR_RETURN(FusionQuery query, ParseFusionQuery(sql));
  PlanPrintNames names;
  for (const Condition& c : query.conditions()) {
    names.conditions.push_back(c.ToString());
  }
  const SourceCatalog& catalog = client.session()->mediator().catalog();
  for (size_t j = 0; j < catalog.size(); ++j) {
    names.sources.push_back(catalog.source(j).name());
  }
  return names;
}

void PrintAnswer(const Args& args, const ClientAnswer& answer) {
  std::printf("answer (%zu items): %s\n", answer.items.size(),
              answer.items.ToString().c_str());
  std::printf("cost: %.3f over %zu source queries", answer.cost,
              answer.source_queries);
  if (answer.detail != nullptr) {
    const ExecutionReport& report = answer.detail->execution;
    if (report.emulated_semijoins > 0) {
      std::printf(" (%zu semijoins emulated)", report.emulated_semijoins);
    }
    if (report.skipped_ops > 0) {
      std::printf(" (%zu ops short-circuited)", report.skipped_ops);
    }
    if (report.retries_total > 0) {
      std::printf(" (%zu retries)", report.retries_total);
    }
    if (report.breaker_fast_fails > 0) {
      std::printf(" (%zu breaker fast-fails)", report.breaker_fast_fails);
    }
  }
  std::printf("\n");
  if (answer.calibration_cost > 0.0) {
    std::printf("calibration cost: %.3f\n", answer.calibration_cost);
  }
}

int Run(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  const bool connected = !args->connect.empty();
  const bool stats_only = args->stats && connected && args->sql.empty();
  if (args->help || (args->sql.empty() && !stats_only) ||
      (args->catalog_path.empty() && !connected)) {
    PrintUsage();
    return args->help ? 0 : 2;
  }
  if (connected && !args->catalog_path.empty()) {
    std::fprintf(stderr, "--catalog and --connect are mutually exclusive\n");
    return 2;
  }
  if (connected && (args->ledger || !args->plan_out.empty())) {
    std::fprintf(stderr,
                 "--ledger/--plan-out need the in-process plan and "
                 "report; they are not available with --connect\n");
    return 2;
  }

  Client::Builder builder;
  if (connected) {
    builder.To(Client::Target::Remote(args->connect)).ClientId(args->client_id);
  } else {
    const auto options = args->client.ToClientOptions();
    if (!options.ok()) {
      std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
      return 2;
    }
    builder.To(Client::Target::EmbeddedFile(args->catalog_path))
        .Options(*options);
  }
  auto client_or = builder.Build();
  if (!client_or.ok()) {
    std::fprintf(stderr, "client: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  Client client = std::move(client_or).value();

  if (stats_only) {
    const auto stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", stats->c_str());
    return 0;
  }

  const bool tracing = !args->trace_out.empty() || args->trace_summary;
  if (tracing) Tracer::Global().Enable();

  Result<ClientAnswer> answer = Status::Internal("no runs");
  std::vector<SpanRecord> all_spans;
  for (int run = 1; run <= args->repeat; ++run) {
    // Explain rides on the first run only: warm repeats would annotate an
    // all-hit plan, which is the cache demo's job (--repeat) not explain's.
    answer = (run == 1 && args->explain)
                 ? client.QuerySqlExplained(args->sql)
                 : client.QuerySql(args->sql);
    if (!answer.ok()) {
      std::fprintf(stderr, "query: %s\n", answer.status().ToString().c_str());
      return 1;
    }
    if (run == 1 && args->explain) {
      std::printf("-- explain --\n");
      for (const std::string& line : answer->explain_lines) {
        std::printf("%s\n", line.c_str());
      }
    }
    if (run == 1 && !args->plan_out.empty() && answer->detail != nullptr) {
      const Status written = WriteStringToFile(
          args->plan_out, SerializePlan(answer->detail->optimized.plan));
      if (!written.ok()) {
        std::fprintf(stderr, "plan-out: %s\n", written.ToString().c_str());
        return 1;
      }
    }
    if (args->repeat > 1) {
      std::printf("run %d: cost %.3f (%zu cache hits, %zu misses, "
                  "%zu containment)\n",
                  run, answer->cost, answer->cache_hits, answer->cache_misses,
                  answer->cache_containment_hits);
    }
    if (tracing) {
      // Per-run scope: drain the tracer after every run so one run's spans
      // never leak into the next run's export (the old behavior wrote one
      // file mixing every repeat's spans).
      std::vector<SpanRecord> spans = Tracer::Global().Drain();
      if (!args->trace_out.empty()) {
        const std::string path = args->repeat > 1
                                     ? PerRunTracePath(args->trace_out, run)
                                     : args->trace_out;
        const Status written = WriteChromeTrace(spans, path);
        if (!written.ok()) {
          std::fprintf(stderr, "trace: %s\n", written.ToString().c_str());
          return 1;
        }
        std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
      }
      all_spans.insert(all_spans.end(),
                       std::make_move_iterator(spans.begin()),
                       std::make_move_iterator(spans.end()));
    }
  }

  if (tracing) {
    Tracer::Global().Disable();
    if (args->trace_summary) {
      std::printf("%s", FlameSummary(all_spans).c_str());
    }
  }

  PrintAnswer(*args, *answer);
  if (connected) {
    // The daemon's view of this query: its shared cross-client cache did
    // the work, so the counters are the server's, not ours.
    std::printf(
        "server cache: %zu hits, %zu misses (%zu answered by containment)\n",
        answer->cache_hits, answer->cache_misses,
        answer->cache_containment_hits);
  }
  if (args->client.cache && client.session() != nullptr) {
    const SourceCallCache::Stats cs =
        client.session()->cache().StatsSnapshot();
    std::printf(
        "cache: %zu hits, %zu misses (%zu answered by containment), "
        "%zu evictions, %zu entries, %zu bytes\n",
        cs.hits, cs.misses, cs.containment_hits, cs.evictions, cs.entries,
        cs.bytes);
  }
  if (!answer->complete) {
    const auto names = answer->detail != nullptr
                           ? PrintNames(args->sql, client)
                           : Result<PlanPrintNames>(Status::Unavailable(""));
    if (answer->detail != nullptr && names.ok()) {
      std::printf("%s",
                  answer->detail->execution.completeness
                      .ToString(names->conditions, names->sources)
                      .c_str());
    } else {
      std::printf("answer incomplete: sources were excluded (degraded "
                  "mode at the service)\n");
    }
  }
  if (args->ledger && answer->detail != nullptr) {
    std::printf("\n%s", answer->detail->execution.ledger.Report().c_str());
  }
  if (args->metrics) {
    std::printf("\n-- metrics --\n%s",
                MetricsRegistry::Global().DumpText().c_str());
  }
  if (args->stats) {
    const auto stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf("\n-- stats --\n%s", stats->c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fusion

int main(int argc, char** argv) { return fusion::Run(argc, argv); }
