#ifndef FUSION_CLI_CLIENT_FLAGS_H_
#define FUSION_CLI_CLIENT_FLAGS_H_

#include <optional>
#include <string>

#include "cli/flags.h"  // ParseFlagValue
#include "common/status.h"
#include "mediator/client.h"

namespace fusion {

Result<OptimizerStrategy> StrategyFromName(const std::string& name);

/// Maps a --stats value to a statistics mode: "session" (the learned
/// feedback loop) maps to nullopt, the fixed modes to their enum.
Result<std::optional<StatisticsMode>> StatisticsFromName(
    const std::string& name);

/// The client-configuration flags shared verbatim by fusionq and fusionqd —
/// one parser, one help block, one mapping onto the one ClientOptions
/// struct, so the embedded CLI and the daemon cannot drift in what they
/// accept or how they interpret it.
struct ClientFlags {
  std::string strategy = "sja+";
  /// oracle | parametric | calibrated | session.
  std::string stats = "oracle";
  bool lazy = false;
  int parallelism = 1;
  std::string on_failure = "fail";  // fail | degrade
  int max_attempts = 1;
  double deadline_ms = 0.0;
  double retry_backoff_ms = 0.0;
  double call_timeout_ms = 0.0;
  bool cache = false;
  double cache_mb = 0.0;
  double cache_ttl_ms = 0.0;

  /// Tries to consume one argv token. Returns true when the token was one
  /// of the client flags (with *error set if its value was invalid);
  /// false lets the caller try its tool-specific flags.
  bool Consume(const char* arg, Status* error);

  /// Help text covering exactly the flags Consume handles.
  static const char* Help();

  /// Maps the parsed flags onto ClientOptions (validating names/ranges).
  Result<ClientOptions> ToClientOptions() const;
};

}  // namespace fusion

#endif  // FUSION_CLI_CLIENT_FLAGS_H_
