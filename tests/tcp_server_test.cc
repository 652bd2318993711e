// TcpServer, the one accept loop behind every daemon: finished connections
// release their threads and fds while the server runs, Stop() wakes idle
// connections blocked in Receive(), and Stop() never shuts down an fd
// number that a closed connection gave back to the process.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "protocol/socket.h"
#include "protocol/tcp_server.h"

namespace fusion {
namespace {

constexpr char kPing[] = "PING\nend\n";
constexpr size_t kFrameLimit = 64 * 1024;

struct Echo {
  std::string Handle(const std::string& frame) { return frame; }
};

std::string Endpoint(const TcpServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

/// One request/reply over a fresh connection; the connection stays open.
MessageSocket DialAndPing(const TcpServer& server) {
  auto socket = DialTcp(Endpoint(server));
  EXPECT_TRUE(socket.ok()) << socket.status().ToString();
  if (!socket.ok()) return MessageSocket();
  EXPECT_TRUE(socket->Send(kPing).ok());
  const auto reply = socket->Receive();
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  if (reply.ok()) {
    EXPECT_EQ(*reply, kPing);
  }
  return std::move(socket).value();
}

/// Polls `done` every millisecond for up to 10 s.
template <typename Pred>
bool Eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

size_t OpenFds() {
  size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

TEST(TcpServerTest, FinishedConnectionsReleaseTheirThreadsAndFds) {
  Echo echo;
  TcpServer server(FrameHandler(&echo, kFrameLimit));
  ASSERT_TRUE(server.Start().ok());
  const size_t fds_before = OpenFds();
  size_t max_held = 0;
  for (int i = 0; i < 500; ++i) {
    DialAndPing(server).Close();
    max_held = std::max(max_held, server.held_threads());
  }
  // A joinable thread per served connection would hold 500 here.
  EXPECT_LE(max_held, 32u);
  EXPECT_TRUE(Eventually([&] {
    return server.held_threads() == 0 && server.live_connections() == 0;
  })) << "held " << server.held_threads() << ", live "
      << server.live_connections();
  EXPECT_EQ(OpenFds(), fds_before);
}

TEST(TcpServerTest, StopWakesIdleConnectionsPromptly) {
  Echo echo;
  TcpServer server(FrameHandler(&echo, kFrameLimit));
  ASSERT_TRUE(server.Start().ok());
  // Each connection answered once, so its handler is blocked in Receive().
  std::vector<MessageSocket> idle;
  for (int i = 0; i < 3; ++i) idle.push_back(DialAndPing(server));
  ASSERT_EQ(server.live_connections(), 3u);

  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_EQ(server.live_connections(), 0u);
  EXPECT_EQ(server.held_threads(), 0u);
  for (MessageSocket& socket : idle) EXPECT_FALSE(socket.Receive().ok());
  server.Stop();  // idempotent
}

TEST(TcpServerTest, StopLeavesARecycledFdNumberAlone) {
  std::atomic<int> served_fd{-1};
  Echo echo;
  const TcpServer::Handler echo_frames = FrameHandler(&echo, kFrameLimit);
  TcpServer server([&](ChaosSocket& socket) {
    served_fd.store(socket.fd());
    echo_frames(socket);
  });
  ASSERT_TRUE(server.Start().ok());
  // One connection stays live, so Stop() has fds to shut down.
  MessageSocket idle = DialAndPing(server);
  const int idle_fd = served_fd.load();
  DialAndPing(server).Close();
  const int closed_fd = served_fd.load();
  ASSERT_NE(closed_fd, idle_fd);
  ASSERT_TRUE(Eventually([&] { return server.live_connections() == 1; }));

  // Linux hands out the lowest free fd numbers, so the pair reuses the
  // closed connection's number (and the client side's).
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_TRUE(pair[0] == closed_fd || pair[1] == closed_fd)
      << "closed fd " << closed_fd << ", pair " << pair[0] << "/" << pair[1];
  MessageSocket left(pair[0]);
  MessageSocket right(pair[1]);

  server.Stop();
  EXPECT_FALSE(idle.Receive().ok());
  ASSERT_TRUE(left.Send(kPing).ok());
  const auto received = right.Receive();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(*received, kPing);
}

TEST(TcpServerTest, ChaosRefusalsNeverReachTheHandler) {
  ChaosPolicy refuse_all;
  refuse_all.accept_refuse_rate = 1.0;
  std::atomic<int> handled{0};
  TcpServer server([&](ChaosSocket&) { ++handled; },
                   std::make_shared<ChaosDecider>(refuse_all));
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 3; ++i) {
    auto socket = DialTcp(Endpoint(server));
    ASSERT_TRUE(socket.ok()) << socket.status().ToString();
    EXPECT_FALSE(socket->Receive().ok());  // closed before a byte
  }
  server.Stop();
  EXPECT_EQ(handled.load(), 0);
  EXPECT_EQ(server.held_threads(), 0u);
}

}  // namespace
}  // namespace fusion
