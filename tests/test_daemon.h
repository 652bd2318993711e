// Test-side serve loop shared by the socket suites: one QueryService (or
// QueryRouter, or any type with ServeConnection(ChaosSocket)) behind a TCP
// listener on an ephemeral loopback port — the in-process twin of
// fusionqd/fusionrd. Header-only; chaos_test keeps its own fault-injecting
// daemon.
#ifndef FUSION_TESTS_TEST_DAEMON_H_
#define FUSION_TESTS_TEST_DAEMON_H_

#include <sys/socket.h>

#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "protocol/chaos.h"
#include "protocol/socket.h"

namespace fusion {

inline std::string Endpoint(int port) {
  return "127.0.0.1:" + std::to_string(port);
}

/// Minimal serve loop for one server over TCP: one thread per accepted
/// connection, each handed to `server->ServeConnection`. Stop() (and the
/// destructor) closes the listener and shuts every live connection down.
template <typename Server>
class Daemon {
 public:
  explicit Daemon(Server* server) : server_(server) {}
  ~Daemon() { Stop(); }

  Status Start() {
    FUSION_ASSIGN_OR_RETURN(listener_, TcpListener::Bind("127.0.0.1", 0));
    acceptor_ = std::thread([this] { AcceptLoop(); });
    return Status::Ok();
  }

  int port() const { return listener_.port(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      stopping_ = true;
    }
    listener_.Close();
    if (acceptor_.joinable()) acceptor_.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& thread : serving_) {
      if (thread.joinable()) thread.join();
    }
    serving_.clear();
  }

 private:
  void AcceptLoop() {
    while (true) {
      auto accepted = listener_.Accept();
      if (!accepted.ok()) return;
      MessageSocket socket = std::move(accepted).value();
      const int fd = socket.fd();
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        socket.Close();
        return;
      }
      live_fds_.insert(fd);
      serving_.emplace_back(
          [this, fd](MessageSocket s) {
            server_->ServeConnection(ChaosSocket(std::move(s)));
            std::lock_guard<std::mutex> inner(mu_);
            live_fds_.erase(fd);
          },
          std::move(socket));
    }
  }

  Server* server_;
  TcpListener listener_;
  std::thread acceptor_;
  std::mutex mu_;
  bool stopping_ = false;
  std::set<int> live_fds_;
  std::vector<std::thread> serving_;
};

}  // namespace fusion

#endif  // FUSION_TESTS_TEST_DAEMON_H_
