#include "protocol/features.h"

#include "protocol/wire.h"

namespace fusion {
namespace {

/// Registry order: also the order Names() emits, so HELLO lines are stable
/// across builds and tests can match them verbatim.
constexpr WireWords<Feature> kFeatureWords[] = {
    {Feature::kTrace, "trace"},
    {Feature::kStats, "stats"},
    {Feature::kExplain, "explain"},
    {Feature::kIdempotency, "idempotency"},
    {Feature::kSharding, "sharding"},
};

}  // namespace

const char* FeatureName(Feature feature) {
  return WireWordFor(feature, kFeatureWords);
}

bool ParseFeatureName(const std::string& name, Feature* out) {
  return ParseWireWord(name, kFeatureWords, "feature", out).ok();
}

FeatureSet FeatureSet::All() {
  FeatureSet set;
  for (const auto& [f, name] : kFeatureWords) set.Add(f);
  return set;
}

FeatureSet FeatureSet::FromNames(const std::vector<std::string>& names) {
  FeatureSet set;
  for (const std::string& name : names) {
    Feature f;
    if (ParseFeatureName(name, &f)) set.Add(f);
  }
  return set;
}

std::vector<std::string> FeatureSet::Names() const {
  std::vector<std::string> out;
  for (const auto& [f, name] : kFeatureWords) {
    if (Has(f)) out.push_back(name);
  }
  return out;
}

}  // namespace fusion
