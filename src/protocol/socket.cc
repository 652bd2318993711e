#include "protocol/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "protocol/wire.h"

namespace fusion {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Finds the end of the first complete message in `buffer`: the offset one
/// past its "end\n" terminator line, or npos. Messages start with a magic
/// line, so a terminator is either "...\nend\n" or the whole buffer "end\n"
/// (degenerate, tolerated). The first `from` bytes are known to hold no
/// terminator, so each byte of a message is searched about once however
/// many reads it arrives in.
size_t FindMessageEnd(const std::string& buffer, size_t from) {
  if (from == 0 && buffer.rfind("end\n", 0) == 0) return 4;
  const size_t pos = buffer.find("\nend\n", from < 4 ? 0 : from - 4);
  return pos == std::string::npos ? pos : pos + 5;
}

Result<sockaddr_in> ResolveV4(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 host: " + host);
  }
  return addr;
}

}  // namespace

MessageSocket::MessageSocket(MessageSocket&& other) noexcept
    : fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      stall_deadline_seconds_(other.stall_deadline_seconds_),
      receive_limit_(other.receive_limit_) {
  other.fd_ = -1;
}

MessageSocket& MessageSocket::operator=(MessageSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    stall_deadline_seconds_ = other.stall_deadline_seconds_;
    receive_limit_ = other.receive_limit_;
    other.fd_ = -1;
  }
  return *this;
}

Status MessageSocket::SetStallDeadline(double seconds) {
  if (!valid()) return Status::Internal("deadline on closed socket");
  if (seconds < 0.0) {
    return Status::InvalidArgument("stall deadline must be >= 0");
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  stall_deadline_seconds_ = seconds;
  return Status::Ok();
}

void MessageSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void MessageSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status MessageSocket::Send(const std::string& message) {
  if (!valid()) return Status::Internal("send on closed socket");
  size_t sent = 0;
  while (sent < message.size()) {
    const ssize_t n = ::send(fd_, message.data() + sent, message.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> MessageSocket::Receive() {
  if (!valid()) return Status::Internal("receive on closed socket");
  char chunk[64 * 1024];
  size_t scanned = 0;  // bytes of buffer_ known to hold no terminator
  for (;;) {
    const size_t end = FindMessageEnd(buffer_, scanned);
    if (end == buffer_.size()) return std::exchange(buffer_, std::string());
    if (end != std::string::npos) {
      std::string message = buffer_.substr(0, end);
      buffer_.erase(0, end);
      return message;
    }
    if (receive_limit_ > 0 && buffer_.size() > receive_limit_) {
      return Status::ParseError(
          "oversized message: " + std::to_string(buffer_.size()) +
          " bytes without a terminator (limit " +
          std::to_string(receive_limit_) + ")");
    }
    scanned = buffer_.size();
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired. Idle between frames is fine — keep waiting.
        // Silent *mid-frame* is a stalled (or torn-write) peer: give up so
        // the serving thread is not pinned holding half a message forever.
        if (buffer_.empty()) continue;
        return Status::DeadlineExceeded(
            "peer stalled mid-message (" +
            std::to_string(buffer_.size()) + " bytes buffered)");
      }
      return Errno("recv");
    }
    if (n == 0) {
      if (buffer_.empty()) {
        return Status::Unavailable("connection closed");
      }
      return Status::ParseError("connection closed mid-message");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<HostPort> ParseEndpoint(const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("endpoint must be host:port, got '" +
                                   endpoint + "'");
  }
  HostPort out;
  out.host = endpoint.substr(0, colon);
  if (out.host.empty()) {
    return Status::InvalidArgument("endpoint has an empty host: '" +
                                   endpoint + "'");
  }
  if (endpoint.find_first_of(" \t\r\n") != std::string::npos) {
    return Status::InvalidArgument("endpoint contains whitespace: '" +
                                   endpoint + "'");
  }
  const std::string_view port(endpoint.data() + colon + 1,
                              endpoint.size() - colon - 1);
  if (!ParseWireNumber(port, &out.port) || out.port < 1 || out.port > 65535) {
    return Status::InvalidArgument(
        "endpoint port must be a number in [1, 65535]: '" + endpoint + "'");
  }
  return out;
}

Result<MessageSocket> DialTcp(const std::string& endpoint) {
  FUSION_ASSIGN_OR_RETURN(const HostPort parsed, ParseEndpoint(endpoint));
  FUSION_ASSIGN_OR_RETURN(const sockaddr_in addr,
                          ResolveV4(parsed.host, parsed.port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status =
        Status::Unavailable("connect " + endpoint + ": " +
                            std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return MessageSocket(fd);
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_.exchange(-1)), port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1));
    port_ = other.port_;
  }
  return *this;
}

void TcpListener::Close() {
  // exchange() makes Close race-free against a concurrent Accept (which
  // loads fd_ fresh per iteration) and idempotent against double closes.
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // close(2) alone does not wake a thread already blocked in accept(2) on
    // this fd (the fd lookup happened before the close); shutdown(2) on the
    // listening socket does — accept returns EINVAL and the loop exits.
    // Both calls are async-signal-safe, so the daemon signal path may still
    // run this directly.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Result<TcpListener> TcpListener::Bind(const std::string& host, int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("bad listen port");
  }
  FUSION_ASSIGN_OR_RETURN(const sockaddr_in addr, ResolveV4(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Errno("bind " + host + ":" + std::to_string(port));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    const Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  TcpListener listener;
  listener.fd_ = fd;
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    listener.port_ = ntohs(bound.sin_port);
  } else {
    listener.port_ = port;
  }
  return listener;
}

Result<MessageSocket> TcpListener::Accept() {
  for (;;) {
    const int listen_fd = fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return Status::Unavailable("listener closed");
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return MessageSocket(fd);
    }
    // A connection reset while still queued is the peer's business, not
    // the listener's.
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Out of fds or memory: connections that finish give them back, and
      // the pending one waits in the backlog. Ending the accept loop here
      // would stop the daemon as if it had been signalled.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    // EBADF/EINVAL after Close() or shutdown(2): the shutdown path, not an
    // error worth a scary message.
    return Status::Unavailable("listener closed");
  }
}

}  // namespace fusion
