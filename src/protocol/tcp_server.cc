#include "protocol/tcp_server.h"

#include <sys/socket.h>

#include <atomic>
#include <csignal>
#include <utility>

namespace fusion {
namespace {

/// What SIGINT/SIGTERM shut down; Stop() clears it before closing.
std::atomic<int> g_signal_listener_fd{-1};

void ShutDownListenerOnSignal(int) {
  const int fd = g_signal_listener_fd.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace

TcpServer::TcpServer(Handler handler, std::shared_ptr<ChaosDecider> chaos)
    : handler_(std::move(handler)), chaos_(std::move(chaos)) {}

Status TcpServer::Start(const std::string& host, int port) {
  FUSION_ASSIGN_OR_RETURN(listener_, TcpListener::Bind(host, port));
  accepting_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  reaper_ = std::thread([this] { ReapLoop(); });
  return Status::Ok();
}

void TcpServer::AcceptLoop() {
  for (;;) {
    Result<MessageSocket> accepted = listener_.Accept();
    if (!accepted.ok()) break;  // listener shut down: Stop() or a signal
    if (ChaosRefuseAccept(chaos_.get())) continue;  // closes unserved
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) break;
    Connection& connection = live_.emplace_back();
    connection.fd = accepted->fd();
    // The thread touches its node only under mu_, held until it owns it.
    connection.thread =
        std::thread(&TcpServer::Serve, this, std::prev(live_.end()),
                    ChaosSocket(std::move(accepted).value(), chaos_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  accepting_ = false;
  cv_.notify_all();
}

void TcpServer::Serve(ConnectionList::iterator self, ChaosSocket socket) {
  handler_(socket);
  std::lock_guard<std::mutex> lock(mu_);
  // Deregister and close in one step: Stop() only ever sees open fds.
  socket.Close();
  finished_.splice(finished_.end(), live_, self);
  cv_.notify_all();
}

void TcpServer::ReapLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] {
      return !finished_.empty() || (stopping_ && live_.empty());
    });
    if (finished_.empty()) return;  // stopping, every thread joined
    ConnectionList done;
    done.swap(finished_);
    reaping_ = done.size();
    lock.unlock();
    for (Connection& connection : done) connection.thread.join();
    lock.lock();
    reaping_ = 0;
  }
}

void TcpServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !accepting_; });
}

void TcpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  int listener_fd = listener_.fd();
  g_signal_listener_fd.compare_exchange_strong(listener_fd, -1);
  listener_.Close();
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);  // the acceptor is gone
    for (const Connection& connection : live_) {
      ::shutdown(connection.fd, SHUT_RDWR);
    }
    cv_.notify_all();
  }
  if (reaper_.joinable()) reaper_.join();
}

void TcpServer::StopAcceptingOnSignals() const {
  g_signal_listener_fd.store(listener_.fd());
  std::signal(SIGINT, ShutDownListenerOnSignal);
  std::signal(SIGTERM, ShutDownListenerOnSignal);
}

size_t TcpServer::live_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

size_t TcpServer::held_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size() + finished_.size() + reaping_;
}

}  // namespace fusion
