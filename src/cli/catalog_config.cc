#include "cli/catalog_config.h"

#include <cstdlib>
#include <limits>
#include <memory>

#include "common/file_util.h"
#include "common/str_util.h"
#include "protocol/remote_source.h"
#include "protocol/socket.h"
#include "relational/relation.h"
#include "source/flaky_source.h"
#include "source/simulated_source.h"

namespace fusion {
namespace {

/// Strips an inline `# comment` (outside of any quoting; the config format
/// has no quoted strings) and trims whitespace.
std::string StripComment(std::string_view line) {
  const size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  return std::string(StrTrim(line));
}

Result<double> ParseDouble(const std::string& value, const std::string& key) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || value.empty()) {
    return Status::ParseError("bad numeric value for '" + key + "': " + value);
  }
  if (v < 0) {
    return Status::ParseError("'" + key + "' must be non-negative");
  }
  return v;
}

Status ApplyKeyValue(SourceSpecConfig& spec, const std::string& key,
                     const std::string& value) {
  if (key == "csv") {
    spec.csv_path = value;
    return Status::Ok();
  }
  if (key == "semijoin") {
    if (EqualsIgnoreCase(value, "native")) {
      spec.capabilities.semijoin = SemijoinSupport::kNative;
    } else if (EqualsIgnoreCase(value, "bindings")) {
      spec.capabilities.semijoin = SemijoinSupport::kPassedBindingsOnly;
    } else if (EqualsIgnoreCase(value, "none")) {
      spec.capabilities.semijoin = SemijoinSupport::kUnsupported;
    } else {
      return Status::ParseError("semijoin must be native|bindings|none, got " +
                                value);
    }
    return Status::Ok();
  }
  if (key == "load") {
    if (EqualsIgnoreCase(value, "yes")) {
      spec.capabilities.supports_load = true;
    } else if (EqualsIgnoreCase(value, "no")) {
      spec.capabilities.supports_load = false;
    } else {
      return Status::ParseError("load must be yes|no, got " + value);
    }
    return Status::Ok();
  }
  if (key == "overhead") {
    FUSION_ASSIGN_OR_RETURN(spec.network.query_overhead,
                            ParseDouble(value, key));
    return Status::Ok();
  }
  if (key == "send") {
    FUSION_ASSIGN_OR_RETURN(spec.network.cost_per_item_sent,
                            ParseDouble(value, key));
    return Status::Ok();
  }
  if (key == "recv") {
    FUSION_ASSIGN_OR_RETURN(spec.network.cost_per_item_received,
                            ParseDouble(value, key));
    return Status::Ok();
  }
  if (key == "proc") {
    FUSION_ASSIGN_OR_RETURN(spec.network.processing_per_tuple,
                            ParseDouble(value, key));
    return Status::Ok();
  }
  if (key == "width") {
    FUSION_ASSIGN_OR_RETURN(spec.network.record_width_factor,
                            ParseDouble(value, key));
    return Status::Ok();
  }
  if (key == "outage") {
    if (EqualsIgnoreCase(value, "yes")) {
      spec.outage = true;
    } else if (EqualsIgnoreCase(value, "no")) {
      spec.outage = false;
    } else {
      return Status::ParseError("outage must be yes|no, got " + value);
    }
    return Status::Ok();
  }
  if (key == "flaky") {
    FUSION_ASSIGN_OR_RETURN(spec.flaky_probability, ParseDouble(value, key));
    if (spec.flaky_probability > 1.0) {
      return Status::ParseError("flaky must be in [0, 1], got " + value);
    }
    return Status::Ok();
  }
  if (key == "flaky_seed") {
    FUSION_ASSIGN_OR_RETURN(const double seed, ParseDouble(value, key));
    spec.flaky_seed = static_cast<uint64_t>(seed);
    return Status::Ok();
  }
  if (key == "endpoint") {
    // The fleet's bootstrap path: every replica line must be a usable
    // host:port *now*, not at first dial. Stray whitespace (a config edited
    // by hand) is trimmed; whatever ParseEndpoint (the dialer's own parser)
    // refuses is a parse error naming the value; and a duplicate of an earlier replica line is dropped silently — dialing
    // the same address twice only doubles the failover latency.
    const std::string endpoint(StrTrim(value));
    const Result<HostPort> parsed = ParseEndpoint(endpoint);
    if (!parsed.ok()) return Status::ParseError(parsed.status().message());
    for (const std::string& existing : spec.endpoints) {
      if (existing == endpoint) return Status::Ok();  // duplicate replica
    }
    spec.endpoints.push_back(endpoint);
    return Status::Ok();
  }
  return Status::ParseError("unknown key '" + key + "' in source section");
}

}  // namespace

Result<std::vector<SourceSpecConfig>> ParseCatalogConfig(
    const std::string& text) {
  std::vector<SourceSpecConfig> specs;
  bool in_source = false;
  size_t line_no = 0;
  for (const std::string& raw : StrSplit(text, '\n')) {
    ++line_no;
    const std::string line = StripComment(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        return Status::ParseError(
            StrFormat("line %zu: unterminated section header", line_no));
      }
      const std::string header(StrTrim(line.substr(1, line.size() - 2)));
      if (!StartsWith(ToLower(header), "source ")) {
        return Status::ParseError(
            StrFormat("line %zu: only [source <name>] sections are "
                      "supported, got [%s]",
                      line_no, header.c_str()));
      }
      SourceSpecConfig spec;
      spec.name = std::string(StrTrim(header.substr(7)));
      if (spec.name.empty()) {
        return Status::ParseError(
            StrFormat("line %zu: source section needs a name", line_no));
      }
      specs.push_back(std::move(spec));
      in_source = true;
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError(
          StrFormat("line %zu: expected key = value, got '%s'", line_no,
                    line.c_str()));
    }
    if (!in_source) {
      return Status::ParseError(
          StrFormat("line %zu: key outside a [source ...] section", line_no));
    }
    const std::string key = ToLower(StrTrim(line.substr(0, eq)));
    const std::string value(StrTrim(line.substr(eq + 1)));
    FUSION_RETURN_IF_ERROR(ApplyKeyValue(specs.back(), key, value));
  }
  if (specs.empty()) {
    return Status::ParseError("config defines no sources");
  }
  for (const SourceSpecConfig& spec : specs) {
    if (spec.csv_path.empty() && spec.endpoints.empty()) {
      return Status::ParseError("source '" + spec.name +
                                "' has no csv path (and no endpoints)");
    }
    if (!spec.csv_path.empty() && !spec.endpoints.empty()) {
      return Status::ParseError(
          "source '" + spec.name +
          "': csv and endpoint are mutually exclusive (remote sources serve "
          "their own data)");
    }
  }
  return specs;
}

Result<std::unique_ptr<SourceWrapper>> LoadSourceWrapper(
    const SourceSpecConfig& spec, const std::string& base_dir) {
  std::unique_ptr<SourceWrapper> source;
  if (!spec.endpoints.empty()) {
    // Remote source: the data (and its metering) lives behind the
    // endpoints; failover across the replicas is RemoteSource's job.
    auto remote = RemoteSource::ConnectTcp(spec.endpoints);
    if (!remote.ok()) {
      return Status(remote.status().code(),
                    "source '" + spec.name +
                        "': " + remote.status().message());
    }
    if (remote.value()->name() != spec.name) {
      return Status::InvalidArgument(
          "source '" + spec.name + "': endpoints serve source '" +
          remote.value()->name() + "'");
    }
    source = std::move(remote).value();
  } else {
    std::string path = spec.csv_path;
    if (!path.empty() && path.front() != '/' && !base_dir.empty()) {
      path = base_dir + "/" + path;
    }
    FUSION_ASSIGN_OR_RETURN(const std::string csv, ReadFileToString(path));
    auto relation = RelationFromCsv(csv);
    if (!relation.ok()) {
      return Status(relation.status().code(),
                    "source '" + spec.name + "' (" + path +
                        "): " + relation.status().message());
    }
    source = std::make_unique<SimulatedSource>(
        spec.name, std::move(relation).value(), spec.capabilities,
        spec.network);
  }
  if (spec.outage || spec.flaky_probability > 0.0) {
    FlakySource::Options flaky;
    flaky.failure_probability = spec.flaky_probability;
    flaky.seed = spec.flaky_seed;
    if (spec.outage) {
      // The source is down for good: every call, from the first on.
      flaky.outage_start = 0;
      flaky.outage_end = std::numeric_limits<size_t>::max();
    }
    source = std::make_unique<FlakySource>(std::move(source), flaky);
  }
  return source;
}

Result<SourceCatalog> LoadCatalog(const std::vector<SourceSpecConfig>& specs,
                                  const std::string& base_dir) {
  SourceCatalog catalog;
  for (const SourceSpecConfig& spec : specs) {
    FUSION_ASSIGN_OR_RETURN(std::unique_ptr<SourceWrapper> source,
                            LoadSourceWrapper(spec, base_dir));
    FUSION_RETURN_IF_ERROR(catalog.Add(std::move(source)));
  }
  return catalog;
}

Result<SourceCatalog> LoadCatalogFromFile(const std::string& path) {
  FUSION_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  FUSION_ASSIGN_OR_RETURN(const std::vector<SourceSpecConfig> specs,
                          ParseCatalogConfig(text));
  const size_t slash = path.rfind('/');
  const std::string base_dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  return LoadCatalog(specs, base_dir);
}

}  // namespace fusion
