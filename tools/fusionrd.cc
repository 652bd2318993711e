// fusionrd — the fusion query router daemon: the front door of a sharded
// mediator fleet.
//
// Speaks FUSIONQ/1 to clients exactly like fusionqd (same HELLO, same
// verbs), but owns no catalog: every SUBMIT is rendezvous-hashed on its
// canonical query key and forwarded to the owning fusionqd shard over a
// pooled upstream connection, so a repeated query always lands on the shard
// whose plan memo and source-call cache already hold it — warm at ~0
// metered cost no matter which client connection asked. Dead shards fail
// over to the next-ranked; INVALIDATE broadcasts to the whole fleet with
// version-stamped idempotence.
//
// Usage:
//   fusionrd --shard=host:port --shard=host:port ...
//            [--host=127.0.0.1] [--port=4630] [--name=fusionrd]
//            [--port-file=PATH]
//
// --port=0 binds an ephemeral port; the actual port is printed on the
// "listening on" line and written to --port-file (atomically) when given.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cli/flags.h"
#include "protocol/tcp_server.h"
#include "router/router.h"
#include "router/shard_map.h"

namespace fusion {
namespace {

struct Args {
  std::vector<Shard> shards;
  ListenFlags listen;
  std::string name = "fusionrd";
  bool help = false;

  Args() { listen.port = 4630; }
};

void PrintUsage() {
  std::printf(
      "fusionrd — fusion query router daemon (FUSIONQ/1 over TCP)\n\n"
      "usage: fusionrd --shard=HOST:PORT [--shard=HOST:PORT ...] [options]\n\n"
      "  --shard=H:P      a fusionqd shard endpoint; repeat once per shard.\n"
      "                   NAME=H:P names the shard (default shard-<i>);\n"
      "                   names feed the rendezvous hash, so keep them\n"
      "                   stable across restarts to keep caches warm\n"
      "  --host=H         listen address (default 127.0.0.1)\n"
      "  --port=P         listen port; 0 = ephemeral, printed on startup\n"
      "                   (default 4630)\n"
      "  --name=S         router name reported in the HELLO handshake\n"
      "  --port-file=PATH write the bound port here once listening\n");
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    Status listen_error = Status::Ok();
    if (args.listen.Consume(a, &listen_error)) {
      FUSION_RETURN_IF_ERROR(listen_error);
      continue;
    }
    std::string value;
    if (ParseFlagValue(a, "--shard", &value)) {
      Shard shard;
      // NAME=HOST:PORT names the shard; bare HOST:PORT gets a default name
      // in ShardMap::Make. The '=' test must dodge the ':' of the endpoint.
      const size_t eq = value.find('=');
      if (eq != std::string::npos && eq < value.find(':')) {
        shard.name = value.substr(0, eq);
        shard.endpoint = value.substr(eq + 1);
      } else {
        shard.endpoint = value;
      }
      args.shards.push_back(std::move(shard));
      continue;
    }
    if (ParseFlagValue(a, "--name", &args.name)) continue;
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      args.help = true;
      continue;
    }
    return Status::InvalidArgument(std::string("unknown argument: ") + a);
  }
  return args;
}

int Serve(const Args& args) {
  auto shard_map = ShardMap::Make(args.shards);
  if (!shard_map.ok()) {
    std::fprintf(stderr, "shards: %s\n",
                 shard_map.status().ToString().c_str());
    return 2;
  }
  QueryRouter::Options options;
  options.server_name = args.name;
  QueryRouter router(std::move(shard_map).value(), options);
  TcpServer server(FrameHandler(&router, kMaxClientFrameBytes));
  const Status listening = args.listen.Start(server);
  if (!listening.ok()) {
    std::fprintf(stderr, "%s\n", listening.message().c_str());
    return 1;
  }

  std::printf("%s: listening on %s:%d (routing to %zu shards)\n",
              args.name.c_str(), args.listen.host.c_str(), server.port(),
              router.shards().size());
  for (size_t i = 0; i < router.shards().size(); ++i) {
    const Shard& shard = router.shards().shard(i);
    std::printf("%s:   shard %s at %s\n", args.name.c_str(),
                shard.name.c_str(), shard.endpoint.c_str());
  }
  std::fflush(stdout);

  server.Wait();  // until SIGINT/SIGTERM
  std::printf("%s: shutting down\n", args.name.c_str());
  router.Shutdown();
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
  if (args->help || args->shards.empty()) {
    PrintUsage();
    return args->help ? 0 : 2;
  }
  return Serve(*args);
}

}  // namespace
}  // namespace fusion

int main(int argc, char** argv) { return fusion::Run(argc, argv); }
