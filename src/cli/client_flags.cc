#include "cli/client_flags.h"

#include "common/str_util.h"

namespace fusion {

Result<OptimizerStrategy> StrategyFromName(const std::string& name) {
  const std::string s = ToLower(name);
  if (s == "filter") return OptimizerStrategy::kFilter;
  if (s == "sj") return OptimizerStrategy::kSj;
  if (s == "sja") return OptimizerStrategy::kSja;
  if (s == "sja+") return OptimizerStrategy::kSjaPlus;
  if (s == "greedy") return OptimizerStrategy::kGreedySja;
  if (s == "greedy+") return OptimizerStrategy::kGreedySjaPlus;
  return Status::InvalidArgument("unknown strategy: " + name);
}

Result<std::optional<StatisticsMode>> StatisticsFromName(
    const std::string& name) {
  const std::string s = ToLower(name);
  if (s == "oracle") return std::optional<StatisticsMode>(
      StatisticsMode::kOracle);
  if (s == "parametric") return std::optional<StatisticsMode>(
      StatisticsMode::kOracleParametric);
  if (s == "calibrated") return std::optional<StatisticsMode>(
      StatisticsMode::kCalibrated);
  if (s == "session") return std::optional<StatisticsMode>();
  return Status::InvalidArgument(
      "unknown statistics mode: " + name +
      " (expected oracle | parametric | calibrated | session)");
}

bool ClientFlags::Consume(const char* arg, Status* error) {
  *error = Status::Ok();
  if (ParseFlagValue(arg, "--strategy", &strategy)) return true;
  if (ParseFlagValue(arg, "--stats", &stats)) return true;
  if (ConsumeNumberFlag(arg, "--parallelism", 1, &parallelism, error) ||
      ConsumeNumberFlag(arg, "--max-attempts", 1, &max_attempts, error) ||
      ConsumeNumberFlag(arg, "--deadline-ms", 0.0, &deadline_ms, error) ||
      ConsumeNumberFlag(arg, "--retry-backoff", 0.0, &retry_backoff_ms,
                        error) ||
      ConsumeNumberFlag(arg, "--call-timeout-ms", 0.0, &call_timeout_ms,
                        error)) {
    return true;
  }
  if (ConsumeNumberFlag(arg, "--cache-mb", 0.0, &cache_mb, error) ||
      ConsumeNumberFlag(arg, "--cache-ttl-ms", 0.0, &cache_ttl_ms, error)) {
    cache = true;
    return true;
  }
  if (ParseFlagValue(arg, "--on-failure", &on_failure)) {
    if (on_failure != "fail" && on_failure != "degrade") {
      *error = Status::InvalidArgument(
          "--on-failure must be 'fail' or 'degrade'");
    }
    return true;
  }
  if (std::strcmp(arg, "--cache") == 0) {
    cache = true;
    return true;
  }
  if (std::strcmp(arg, "--lazy") == 0) {
    lazy = true;
    return true;
  }
  return false;
}

const char* ClientFlags::Help() {
  return
      "  --strategy=S     filter | sj | sja | sja+ | greedy | greedy+\n"
      "                   (default sja+)\n"
      "  --stats=S        oracle | parametric | calibrated | session\n"
      "                   (session = learned statistics with execution\n"
      "                   feedback; calibrated pays metered probe traffic)\n"
      "  --lazy           lazy short-circuit execution\n"
      "  --parallelism=N  parallel plan execution with N workers (default 1)\n"
      "  --on-failure=P   fail | degrade — what to do when a source is\n"
      "                   exhausted: fail the query (default) or return a\n"
      "                   sound partial answer excluding the dead source\n"
      "  --max-attempts=N retry transient source failures up to N attempts\n"
      "  --retry-backoff=MS  initial exponential-backoff sleep, in ms\n"
      "  --call-timeout-ms=MS  per-source-call timeout (0 = none)\n"
      "  --deadline-ms=MS per-query deadline; with --on-failure=degrade the\n"
      "                   partial answer gathered in time is returned\n"
      "  --cache          attach a source-call result cache (sq/sjq/lq memo\n"
      "                   with containment reuse) and print its statistics\n"
      "  --cache-mb=MB    cache byte budget in MiB, LRU-evicted (implies\n"
      "                   --cache; 0 = unbounded)\n"
      "  --cache-ttl-ms=MS  cache entry time-to-live (implies --cache;\n"
      "                   0 = never expires)\n";
}

Result<ClientOptions> ClientFlags::ToClientOptions() const {
  ClientOptions options;
  FUSION_ASSIGN_OR_RETURN(options.strategy, StrategyFromName(strategy));
  FUSION_ASSIGN_OR_RETURN(options.statistics, StatisticsFromName(stats));
  options.execution.lazy_short_circuit = lazy;
  options.execution.parallelism = parallelism;
  options.execution.retry.max_attempts = max_attempts;
  options.execution.retry.initial_backoff_seconds = retry_backoff_ms / 1e3;
  options.execution.retry.call_timeout_seconds = call_timeout_ms / 1e3;
  options.execution.deadline_seconds = deadline_ms / 1e3;
  if (on_failure == "degrade") {
    options.execution.on_source_failure = SourceFailurePolicy::kDegrade;
  }
  options.use_cache = cache;
  options.cache.max_bytes = static_cast<size_t>(cache_mb * 1024.0 * 1024.0);
  options.cache.ttl_seconds = cache_ttl_ms / 1e3;
  return options;
}

}  // namespace fusion
