// fusionsd — the fusion source daemon.
//
// Serves ONE source from a catalog config over FUSIONP/1 TCP: the
// wrapper-side endpoint a mediator's RemoteSource dials. Run one fusionsd
// per source (or several per source, on different ports, for replica
// failover — every replica of a source serves the same data under the same
// name), then point a mediator catalog at them with `endpoint = host:port`
// lines instead of `csv = ...`.
//
// Usage:
//   fusionsd --catalog=<config.ini> --source=NAME
//            [--host=127.0.0.1] [--port=0] [--port-file=PATH]
//            [--chaos-drop-rate=P ... --chaos-seed=N]
//
// --port=0 (the default) binds an ephemeral port; the actual port is
// printed on the "serving" line and written to --port-file, so harnesses
// can spawn replicas without port bookkeeping. The --chaos-* flags inject
// seeded faults at this replica's edge (see protocol/chaos.h) — the way
// the chaos tests and drills abuse a "real" networked source.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "cli/catalog_config.h"
#include "cli/flags.h"
#include "common/file_util.h"
#include "protocol/source_server.h"
#include "protocol/tcp_server.h"

namespace fusion {
namespace {

struct Args {
  std::string catalog_path;
  std::string source;  // which [source NAME] section to serve
  ListenFlags listen;
  ChaosFlags chaos;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "fusionsd — fusion source daemon (FUSIONP/1 over TCP)\n\n"
      "usage: fusionsd --catalog=FILE --source=NAME [options]\n\n"
      "  --catalog=FILE   INI catalog config naming the source's data\n"
      "  --source=NAME    which [source NAME] section to serve (may be\n"
      "                   omitted when the catalog has exactly one source)\n"
      "  --host=H         listen address (default 127.0.0.1)\n"
      "  --port=P         listen port; 0 = ephemeral (default), printed on\n"
      "                   startup\n"
      "  --port-file=PATH write the bound port here once serving (the\n"
      "                   readiness hook for replica-spawning scripts)\n"
      "seeded fault injection at this replica's edge:\n%s",
      ChaosFlags::Help());
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    Status flag_error = Status::Ok();
    if (args.listen.Consume(a, &flag_error) ||
        args.chaos.Consume(a, &flag_error)) {
      FUSION_RETURN_IF_ERROR(flag_error);
      continue;
    }
    if (ParseFlagValue(a, "--catalog", &args.catalog_path)) continue;
    if (ParseFlagValue(a, "--source", &args.source)) continue;
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      args.help = true;
      continue;
    }
    return Status::InvalidArgument(std::string("unknown argument: ") + a);
  }
  return args;
}

int Serve(const Args& args) {
  auto text = ReadFileToString(args.catalog_path);
  if (!text.ok()) {
    std::fprintf(stderr, "catalog: %s\n", text.status().ToString().c_str());
    return 1;
  }
  auto specs = ParseCatalogConfig(text.value());
  if (!specs.ok()) {
    std::fprintf(stderr, "catalog: %s\n", specs.status().ToString().c_str());
    return 1;
  }
  const SourceSpecConfig* spec = nullptr;
  if (args.source.empty()) {
    if (specs->size() != 1) {
      std::fprintf(stderr,
                   "catalog defines %zu sources; pick one with --source\n",
                   specs->size());
      return 2;
    }
    spec = &specs->front();
  } else {
    for (const SourceSpecConfig& s : *specs) {
      if (s.name == args.source) spec = &s;
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "catalog has no source '%s'\n",
                   args.source.c_str());
      return 2;
    }
  }
  const size_t slash = args.catalog_path.rfind('/');
  const std::string base_dir =
      slash == std::string::npos ? "." : args.catalog_path.substr(0, slash);
  auto wrapper = LoadSourceWrapper(*spec, base_dir);
  if (!wrapper.ok()) {
    std::fprintf(stderr, "source: %s\n", wrapper.status().ToString().c_str());
    return 1;
  }

  SourceServer source(std::move(wrapper).value());
  const std::shared_ptr<ChaosDecider> chaos = args.chaos.Decider();
  TcpServer server(FrameHandler(&source, kMaxSourceFrameBytes), chaos);
  const Status listening = args.listen.Start(server);
  if (!listening.ok()) {
    std::fprintf(stderr, "%s\n", listening.message().c_str());
    return 1;
  }

  std::printf("fusionsd: serving source '%s' on %s:%d%s\n",
              spec->name.c_str(), args.listen.host.c_str(), server.port(),
              chaos != nullptr ? " (chaos enabled)" : "");
  std::fflush(stdout);

  server.Wait();  // until SIGINT/SIGTERM
  std::printf("fusionsd: shutting down\n");
  server.Stop();
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
  return Serve(*args);
}

}  // namespace
}  // namespace fusion

int main(int argc, char** argv) { return fusion::Run(argc, argv); }
