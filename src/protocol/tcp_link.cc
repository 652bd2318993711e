#include "protocol/tcp_link.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/rng.h"
#include "obs/metrics.h"
#include "protocol/tcp_server.h"

namespace fusion {

bool IsTransportError(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kInternal;
}

uint64_t MintRequestId(uint64_t salt) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t seed =
      GlobalSeed(0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(getpid()));
  const uint64_t id = MixSeed(MixSeed(seed, salt), n);
  return id == 0 ? 1 : id;
}

Resend ResendRule(const ClientRequest& request) {
  if (request.kind != ClientRequest::Kind::kSubmit) return Resend::kAlways;
  return request.request_id != 0 ? Resend::kIfIdempotent : Resend::kNever;
}

TcpLink::TcpLink(std::vector<std::string> endpoints, const RetryPolicy& retry,
                 std::string hello, HelloCheck check_hello,
                 Counter* reconnects, Counter* failovers)
    : endpoints_(std::move(endpoints)),
      retry_(retry),
      hello_(std::move(hello)),
      check_hello_(std::move(check_hello)),
      reconnect_metric_(reconnects),
      failover_metric_(failovers) {}

Status TcpLink::Connect() { return Run(nullptr, Resend::kAlways).status(); }

Result<std::string> TcpLink::Exchange(const std::string& frame,
                                      Resend resend) {
  return Run(&frame, resend);
}

Result<std::string> TcpLink::Run(const std::string* frame, Resend resend) {
  const int attempts = std::max(
      {1, retry_.max_attempts, static_cast<int>(endpoints_.size())});
  if (endpoints_.empty()) return Status::InvalidArgument("no endpoints");
  Status last_error = Status::Ok();
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) retry_.Backoff(attempt - 1);
    if (!socket_.valid()) {
      last_error = Dial();
      if (!last_error.ok()) {
        if (!IsTransportError(last_error) &&
            last_error.code() != StatusCode::kParseError) {
          return last_error;
        }
        continue;
      }
    }
    if (frame == nullptr) return std::string();
    const Status sent = socket_.Send(*frame);
    if (sent.ok()) {
      Result<std::string> reply = socket_.Receive();
      if (reply.ok()) return reply;
      // A failed Receive is a transport event, including the kParseError
      // of a torn or oversized frame: this connection is done.
      last_error = reply.status();
    } else {
      last_error = sent;
    }
    Fail();
    const bool replay_safe =
        resend == Resend::kAlways ||
        (resend == Resend::kIfIdempotent &&
         features_.Has(Feature::kIdempotency));
    if (sent.ok() && !replay_safe) break;
  }
  return last_error;
}

Status TcpLink::Dial() {
  if (cursor_failed_ && endpoints_.size() > 1) {
    cursor_ = (cursor_ + 1) % endpoints_.size();
    ++failovers_;
    if (failover_metric_ != nullptr) failover_metric_->Increment();
  }
  // Pessimistic until HELLO passes: any early return leaves the cursor
  // marked, so the next dial moves on.
  cursor_failed_ = true;
  FUSION_ASSIGN_OR_RETURN(socket_, DialTcp(endpoints_[cursor_]));
  socket_.SetReceiveLimit(kMaxReplyBytes);
  Result<FeatureSet> features = [&]() -> Result<FeatureSet> {
    FUSION_RETURN_IF_ERROR(
        socket_.SetStallDeadline(TcpServer::kStallDeadlineSeconds));
    FUSION_RETURN_IF_ERROR(socket_.Send(hello_));
    FUSION_ASSIGN_OR_RETURN(const std::string reply, socket_.Receive());
    return check_hello_(reply);
  }();
  if (!features.ok()) {
    socket_.Close();
    return features.status();
  }
  features_ = *features;
  cursor_failed_ = false;
  if (dialed_once_) {
    ++reconnects_;
    if (reconnect_metric_ != nullptr) reconnect_metric_->Increment();
  }
  dialed_once_ = true;
  return Status::Ok();
}

void TcpLink::Fail() {
  socket_.Close();
  cursor_failed_ = true;
}

TcpLink ClientProtocolLink(std::vector<std::string> endpoints,
                           const RetryPolicy& retry,
                           const std::string& client_id, std::string* server,
                           Counter* reconnects) {
  ClientRequest hello;
  hello.kind = ClientRequest::Kind::kHello;
  hello.client_id = client_id;
  hello.features = ClientProtocolFeatures();
  return TcpLink(
      std::move(endpoints), retry, SerializeClientRequest(hello),
      [server](const std::string& reply) -> Result<FeatureSet> {
        FUSION_ASSIGN_OR_RETURN(const ClientResponse response,
                                ParseClientResponse(reply));
        if (!response.ok) {
          return Status(response.error_code,
                        "hello: " + response.error_message);
        }
        if (server != nullptr) *server = response.server;
        return FeatureSet::FromNames(response.features);
      },
      reconnects);
}

}  // namespace fusion
