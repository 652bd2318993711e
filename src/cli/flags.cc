#include "cli/flags.h"

#include <cstdint>
#include <limits>

#include "common/file_util.h"
#include "common/rng.h"
#include "protocol/wire.h"

namespace fusion {

bool ListenFlags::Consume(const char* arg, Status* error) {
  *error = Status::Ok();
  if (ParseFlagValue(arg, "--host", &host)) return true;
  if (ParseFlagValue(arg, "--port-file", &port_file)) return true;
  std::string value;
  if (!ParseFlagValue(arg, "--port", &value)) return false;
  int parsed = 0;
  if (!ParseWireNumber(value, &parsed) || parsed < 0 || parsed > 65535) {
    *error = Status::InvalidArgument("--port must be in [0, 65535]");
  } else {
    port = parsed;
  }
  return true;
}

Status ListenFlags::Start(TcpServer& server) const {
  const Status started = server.Start(host, port);
  if (!started.ok()) {
    return Status(started.code(), "bind: " + started.ToString());
  }
  server.StopAcceptingOnSignals();
  if (port_file.empty()) return Status::Ok();
  const Status wrote =
      WriteFileAtomic(port_file, std::to_string(server.port()) + "\n");
  if (!wrote.ok()) {
    return Status(wrote.code(), "port-file: " + wrote.message());
  }
  return Status::Ok();
}

bool ChaosFlags::Consume(const char* arg, Status* error) {
  *error = Status::Ok();
  constexpr double kRate = 1.0;
  constexpr double kMs = std::numeric_limits<double>::max();
  static constexpr struct {
    const char* name;
    double ChaosPolicy::*field;
    double max;
  } kNumbers[] = {{"--chaos-drop-rate", &ChaosPolicy::drop_rate, kRate},
                  {"--chaos-torn-rate", &ChaosPolicy::torn_write_rate, kRate},
                  {"--chaos-delay-rate", &ChaosPolicy::delay_rate, kRate},
                  {"--chaos-refuse-rate", &ChaosPolicy::accept_refuse_rate,
                   kRate},
                  {"--chaos-hang-rate", &ChaosPolicy::hang_rate, kRate},
                  {"--chaos-delay-ms", &ChaosPolicy::delay_ms, kMs},
                  {"--chaos-hang-ms", &ChaosPolicy::hang_ms, kMs}};
  std::string value;
  for (const auto& number : kNumbers) {
    if (!ParseFlagValue(arg, number.name, &value)) continue;
    double parsed = 0.0;
    // NaN fails both comparisons; infinity fails the second.
    if (!ParseWireNumber(value, &parsed) || !(parsed >= 0.0) ||
        !(parsed <= number.max)) {
      *error = Status::InvalidArgument(
          std::string(arg) +
          ": chaos rates must be numbers in [0, 1], delays finite and >= 0");
    } else {
      policy.*number.field = parsed;
    }
    return true;
  }
  if (!ParseFlagValue(arg, "--chaos-seed", &value)) return false;
  uint64_t seed = 0;
  if (!ParseWireNumber(value, &seed)) {
    *error = Status::InvalidArgument(
        std::string(arg) + ": --chaos-seed must be an unsigned integer");
  } else {
    policy.seed = seed;
    seed_set = true;
  }
  return true;
}

const char* ChaosFlags::Help() {
  return
      "  --chaos-drop-rate=P    probability a send/receive resets the\n"
      "                         connection instead (default 0)\n"
      "  --chaos-torn-rate=P    probability a send ships half the frame and\n"
      "                         closes (default 0)\n"
      "  --chaos-delay-rate=P   probability an operation is delayed\n"
      "  --chaos-delay-ms=MS    the injected delay (default 2)\n"
      "  --chaos-refuse-rate=P  probability an accepted connection is closed\n"
      "                         before serving a byte (default 0)\n"
      "  --chaos-hang-rate=P    probability an operation hangs hang-ms\n"
      "  --chaos-hang-ms=MS     the injected hang (default 50)\n"
      "  --chaos-seed=N         fault-schedule seed (default: FUSION_SEED,\n"
      "                         else 1) — same seed, same fault schedule\n";
}

std::shared_ptr<ChaosDecider> ChaosFlags::Decider() const {
  if (!policy.enabled()) return nullptr;
  ChaosPolicy resolved = policy;
  if (!seed_set) resolved.seed = GlobalSeed(resolved.seed);
  return std::make_shared<ChaosDecider>(resolved);
}

}  // namespace fusion
