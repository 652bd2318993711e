#ifndef FUSION_COMMON_STATUS_H_
#define FUSION_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace fusion {

/// Error categories used across the library. Mirrors the usual database-system
/// Status idiom (exceptions are not used anywhere in this codebase).
///
/// This is the **one** error taxonomy of the system: local library calls,
/// the wrapper protocol (FUSIONP/1), and the client protocol (FUSIONQ/1)
/// all carry exactly these codes, serialized by StatusCodeName and parsed
/// back by StatusCodeFromName — no dialect re-codes errors at its boundary.
/// Tests iterate kAllStatusCodes to pin that every code survives a
/// serialize→parse round trip through both dialects.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kUnsupported,     // e.g. a source that cannot answer a semijoin query at all
  kOutOfRange,
  kInternal,
  kParseError,
  kAlreadyExists,
  kUnavailable,       // source down / circuit open / service saturated
  kDeadlineExceeded,  // per-call timeout or per-query deadline
  kCancelled,         // the client withdrew the request (service CANCEL)
};

/// Every StatusCode, for exhaustive round-trip tests. Keep in sync with the
/// enum (StatusCodeName's switch triggers -Wswitch when a code is added).
inline constexpr StatusCode kAllStatusCodes[] = {
    StatusCode::kOk,           StatusCode::kInvalidArgument,
    StatusCode::kNotFound,     StatusCode::kUnsupported,
    StatusCode::kOutOfRange,   StatusCode::kInternal,
    StatusCode::kParseError,   StatusCode::kAlreadyExists,
    StatusCode::kUnavailable,  StatusCode::kDeadlineExceeded,
    StatusCode::kCancelled,
};

/// Returns a human-readable name for `code` ("OK", "InvalidArgument", ...).
/// The names double as the wire encoding of error codes in both protocol
/// dialects; StatusCodeFromName is the inverse.
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error result, cheap to copy on the OK path.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of an
/// errored Result is a programming error (aborts in debug via assert-style
/// check in value()).
template <typename T>
class Result {
 public:
  /// Implicit from value and from Status so `return value;` / `return status;`
  /// both work, matching the familiar StatusOr ergonomics.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {}     // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Parses a StatusCodeName back into its code ("Cancelled" →
/// StatusCode::kCancelled); the inverse both protocol dialects use to
/// decode error lines. kParseError for unknown names.
Result<StatusCode> StatusCodeFromName(const std::string& name);

}  // namespace fusion

/// Propagates a non-OK Status out of the current function.
#define FUSION_RETURN_IF_ERROR(expr)              \
  do {                                            \
    ::fusion::Status fusion_status_ = (expr);     \
    if (!fusion_status_.ok()) return fusion_status_; \
  } while (false)

/// Evaluates a Result<T> expression, propagating errors; on success assigns
/// the unwrapped value to `lhs`.
#define FUSION_ASSIGN_OR_RETURN(lhs, expr)             \
  FUSION_ASSIGN_OR_RETURN_IMPL_(                       \
      FUSION_STATUS_CONCAT_(result_, __LINE__), lhs, expr)

#define FUSION_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

#define FUSION_STATUS_CONCAT_(a, b) FUSION_STATUS_CONCAT_IMPL_(a, b)
#define FUSION_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // FUSION_COMMON_STATUS_H_
