#ifndef FUSION_CLI_FLAGS_H_
#define FUSION_CLI_FLAGS_H_

#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/str_util.h"
#include "protocol/chaos.h"
#include "protocol/tcp_server.h"
#include "protocol/wire.h"

namespace fusion {

/// `--flag=value` splitter shared by the fusion command-line tools.
inline bool ParseFlagValue(const char* arg, const char* name,
                           std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

/// `--name=N` with N a strict number (ParseWireNumber: no sign-less
/// garbage, no trailing characters, doubles finite) of at least `min`.
/// True when `arg` is that flag; *error is then kInvalidArgument unless N
/// parsed, in which case *out holds it.
template <typename T>
bool ConsumeNumberFlag(const char* arg, const char* name, T min, T* out,
                       Status* error) {
  std::string value;
  if (!ParseFlagValue(arg, name, &value)) return false;
  T parsed{};
  // NaN fails the first comparison, infinity the second.
  if (!ParseWireNumber(value, &parsed) || !(parsed >= min) ||
      !(parsed <= std::numeric_limits<T>::max())) {
    *error = Status::InvalidArgument(
        StrFormat("%s must be a number >= %g, got '%s'", name,
                  static_cast<double>(min), value.c_str()));
  } else {
    *out = parsed;
    *error = Status::Ok();
  }
  return true;
}

/// The listening flags every daemon takes: --host, --port (0 = ephemeral)
/// and --port-file, the readiness hook harnesses on --port=0 poll.
struct ListenFlags {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string port_file;

  /// As ChaosFlags::Consume; --port must be a number in [0, 65535].
  bool Consume(const char* arg, Status* error);
  /// Starts `server` on --host/--port, lets SIGINT/SIGTERM end its accept
  /// loop, then writes the bound port to --port-file atomically (a polling
  /// reader sees the whole port or no file). The error names the step.
  Status Start(TcpServer& server) const;
};

/// The `--chaos-*` fault-injection flags of fusionqd and fusionsd. Values
/// are strict numbers (ParseWireNumber): `--chaos-drop-rate=abc` is an
/// error, never a silently disabled policy.
struct ChaosFlags {
  ChaosPolicy policy;
  bool seed_set = false;  // --chaos-seed given: FUSION_SEED does not apply

  /// True when `arg` is a chaos flag, with *error set to kInvalidArgument
  /// if its value is not a number in range; false for any other flag.
  bool Consume(const char* arg, Status* error);
  /// Help text covering exactly the flags Consume handles.
  static const char* Help();
  /// The decider to serve with, null when no fault is enabled. FUSION_SEED
  /// replays the fault schedule unless --chaos-seed pinned one.
  std::shared_ptr<ChaosDecider> Decider() const;
};

}  // namespace fusion

#endif  // FUSION_CLI_FLAGS_H_
