#ifndef FUSION_PROTOCOL_SOCKET_H_
#define FUSION_PROTOCOL_SOCKET_H_

#include <atomic>
#include <string>

#include "common/status.h"

namespace fusion {

/// Minimal blocking TCP transport for the line protocols. Both dialects
/// frame every message with a terminating `end` line, so the socket layer
/// needs no length prefixes: Send ships the serialized text verbatim and
/// Receive reads until it has one whole `end`-terminated message, buffering
/// any bytes that follow for the next call.
///
/// POSIX sockets only. Every server side runs under TcpServer
/// (protocol/tcp_server.h), every dialing side (`fusion::Client`, the
/// router's shard links, RemoteSource) under TcpLink (protocol/tcp_link.h);
/// each arms the receive limit and the stall deadline on its sockets.
class MessageSocket {
 public:
  MessageSocket() = default;
  /// Takes ownership of a connected socket fd.
  explicit MessageSocket(int fd) : fd_(fd) {}
  ~MessageSocket() { Close(); }

  MessageSocket(MessageSocket&& other) noexcept;
  MessageSocket& operator=(MessageSocket&& other) noexcept;
  MessageSocket(const MessageSocket&) = delete;
  MessageSocket& operator=(const MessageSocket&) = delete;

  bool valid() const { return fd_ >= 0; }

  /// Writes the whole message (which must already carry its `end` line).
  /// SIGPIPE-safe: sends use MSG_NOSIGNAL, so a peer that hung up yields a
  /// clean kInternal(EPIPE) status instead of killing the process.
  Status Send(const std::string& message);

  /// Reads one `end`-terminated message (terminator included). A clean
  /// peer close before any bytes of a message yields kUnavailable
  /// ("connection closed"); mid-message, kParseError. With a stall deadline
  /// set, a peer that goes silent *mid-frame* for longer than the deadline
  /// yields kDeadlineExceeded — an idle peer between frames waits forever.
  Result<std::string> Receive();

  /// Arms the stalled-peer guard: if a frame has started arriving and the
  /// peer then sends nothing for `seconds`, Receive fails with
  /// kDeadlineExceeded instead of pinning the calling thread forever. An
  /// *idle* connection (no frame in progress) is never timed out — a quiet
  /// client holding a connection open is normal. 0 disables (default).
  Status SetStallDeadline(double seconds);

  /// Bounds the bytes buffered while assembling one message: a peer
  /// streaming more than `bytes` without an `end` terminator gets
  /// kParseError ("oversized message") instead of growing the buffer
  /// without limit. 0 = unbounded (default).
  void SetReceiveLimit(size_t bytes) { receive_limit_ = bytes; }

  void Close();

  /// Ends the connection both ways (the peer sees it closed, a blocked
  /// Receive() returns) but keeps the fd until Close(), so its number
  /// cannot be reused while a server still tracks it.
  void Shutdown();

  /// The connected fd, for out-of-band shutdown paths (a server calling
  /// shutdown(2) to wake a Receive() blocked on another thread).
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received past the last returned message
  double stall_deadline_seconds_ = 0.0;
  size_t receive_limit_ = 0;
};

/// A parsed "host:port" endpoint.
struct HostPort {
  std::string host;
  int port = 0;
};

/// The one "host:port" parser (DialTcp, the catalog's `endpoint =` lines):
/// a non-empty host, no whitespace, and a port that is a plain decimal
/// number in [1, 65535] — "127.0.0.1:4631x" is refused, not read as 4631.
/// kInvalidArgument naming the value otherwise.
Result<HostPort> ParseEndpoint(const std::string& endpoint);

/// Connects to "host:port" (e.g. "127.0.0.1:4631"). Numeric IPv4 hosts and
/// "localhost" only — the serving layer is a daemon on one machine, not a
/// name-resolution exercise.
Result<MessageSocket> DialTcp(const std::string& endpoint);

/// Listening endpoint; TcpServer owns the one accept loop over it. Bind
/// with port 0 to let the kernel pick an ephemeral port (read it back via
/// port()).
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  static Result<TcpListener> Bind(const std::string& host, int port);

  bool valid() const { return fd() >= 0; }
  int port() const { return port_; }

  /// Blocks for the next connection. Returns kUnavailable once the
  /// listener has been Close()d or shut down (the daemons' signal path
  /// shuts the fd down to unblock the accept loop).
  Result<MessageSocket> Accept();

  void Close();

  /// The listening fd, for shutdown paths that run in a signal handler
  /// (shutdown(2) is async-signal-safe).
  int fd() const { return fd_.load(std::memory_order_acquire); }

 private:
  /// Atomic because Close() runs from the stopping thread (or a signal
  /// handler) while the acceptor thread is blocked in Accept() reading it.
  std::atomic<int> fd_{-1};
  int port_ = 0;
};

}  // namespace fusion

#endif  // FUSION_PROTOCOL_SOCKET_H_
