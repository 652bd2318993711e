#ifndef FUSION_PROTOCOL_TCP_SERVER_H_
#define FUSION_PROTOCOL_TCP_SERVER_H_

#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "protocol/chaos.h"
#include "protocol/socket.h"

namespace fusion {

/// The one TCP server behind fusionqd, fusionrd, fusionsd and their
/// in-process twins: it binds, accepts (with chaos refusals and a
/// ChaosSocket wrap when given a decider) and runs the handler on one
/// thread per connection. A reaper joins each thread soon after its
/// handler returns, so the threads held are the live connections plus the
/// acceptor and the reaper.
///
/// The handler must neither close nor move its socket: when it returns,
/// the server deregisters the fd and closes it in one step, so Stop()
/// never shuts down a recycled fd number. To end a connection early,
/// MessageSocket::Shutdown() it.
class TcpServer {
 public:
  using Handler = std::function<void(ChaosSocket&)>;

  /// ServeFrames' mid-frame stall guard (an idle peer never times out).
  static constexpr double kStallDeadlineSeconds = 10.0;

  explicit TcpServer(Handler handler,
                     std::shared_ptr<ChaosDecider> chaos = nullptr);
  ~TcpServer() { Stop(); }
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds host:port (0 = ephemeral; see port()) and starts accepting.
  Status Start(const std::string& host = "127.0.0.1", int port = 0);
  /// Blocks until the accept loop ends: Stop(), or a signal after
  /// StopAcceptingOnSignals().
  void Wait();
  /// Shuts the listener and every live connection down and joins every
  /// thread. Idempotent.
  void Stop();
  /// SIGINT/SIGTERM shut this server's listener down (shutdown(2) is
  /// async-signal-safe), so Wait() returns. One such server per process.
  void StopAcceptingOnSignals() const;

  int port() const { return listener_.port(); }
  size_t live_connections() const;
  /// Connection threads not yet joined.
  size_t held_threads() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };
  using ConnectionList = std::list<Connection>;

  void AcceptLoop();
  void Serve(ConnectionList::iterator self, ChaosSocket socket);
  void ReapLoop();

  const Handler handler_;
  const std::shared_ptr<ChaosDecider> chaos_;
  TcpListener listener_;
  std::thread acceptor_;
  std::thread reaper_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool accepting_ = false;   // guarded by mu_
  bool stopping_ = false;    // guarded by mu_
  ConnectionList live_;      // guarded by mu_; every fd here is open
  ConnectionList finished_;  // guarded by mu_; to be joined
  size_t reaping_ = 0;       // guarded by mu_; being joined
};

/// The receive → handle → send loop of both dialects, with the dialect's
/// frame limit (kMaxClientFrameBytes or kMaxSourceFrameBytes) and the
/// stall deadline armed; runs until the peer closes or the transport fails.
template <typename Handle>
void ServeFrames(ChaosSocket& socket, size_t receive_limit, Handle&& handle) {
  if (socket.valid()) {
    socket.inner().SetReceiveLimit(receive_limit);
    (void)socket.inner().SetStallDeadline(TcpServer::kStallDeadlineSeconds);
  }
  for (;;) {
    const Result<std::string> frame = socket.Receive();
    if (!frame.ok()) return;
    if (!socket.Send(handle(*frame)).ok()) return;
  }
}

/// A handler serving `server->Handle(frame)` per frame.
template <typename Server>
TcpServer::Handler FrameHandler(Server* server, size_t receive_limit) {
  return [server, receive_limit](ChaosSocket& socket) {
    ServeFrames(socket, receive_limit, [server](const std::string& frame) {
      return server->Handle(frame);
    });
  };
}

}  // namespace fusion

#endif  // FUSION_PROTOCOL_TCP_SERVER_H_
