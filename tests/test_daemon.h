// In-process twins of the daemons for the socket suites, each a TcpServer
// on an ephemeral loopback port. fusionqd/fusionrd's twin is
// `TcpServer(FrameHandler(&server, kMaxClientFrameBytes))` over a
// QueryService or QueryRouter; fusionsd's is TcpSourceServer below.
#ifndef FUSION_TESTS_TEST_DAEMON_H_
#define FUSION_TESTS_TEST_DAEMON_H_

#include <memory>
#include <string>

#include "protocol/client_protocol.h"
#include "protocol/source_server.h"
#include "protocol/tcp_server.h"

namespace fusion {

inline std::string Endpoint(int port) {
  return "127.0.0.1:" + std::to_string(port);
}

/// One SourceServer over FUSIONP/1, optionally with seeded chaos on every
/// connection. Replica tests run two per source and "kill" one with Stop().
class TcpSourceServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = pick an ephemeral port
    ChaosPolicy chaos;
  };

  TcpSourceServer(std::unique_ptr<SourceWrapper> impl, const Options& options)
      : server_(std::move(impl)),
        options_(options),
        tcp_(FrameHandler(&server_, kMaxSourceFrameBytes),
             options.chaos.enabled()
                 ? std::make_shared<ChaosDecider>(options.chaos)
                 : nullptr) {}

  Status Start() { return tcp_.Start(options_.host, options_.port); }
  void Stop() { tcp_.Stop(); }
  int port() const { return tcp_.port(); }

 private:
  SourceServer server_;
  Options options_;
  TcpServer tcp_;  // last: stopped before server_ goes
};

}  // namespace fusion

#endif  // FUSION_TESTS_TEST_DAEMON_H_
