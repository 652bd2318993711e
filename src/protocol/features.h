#ifndef FUSION_PROTOCOL_FEATURES_H_
#define FUSION_PROTOCOL_FEATURES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fusion {

/// The FUSIONQ/1 capability registry. Every optional behaviour a peer may
/// act on — joining a distributed trace, issuing STATS, asking for EXPLAIN
/// annotations, replay-safe SUBMIT request-ids, router-aware sharding — is
/// negotiated on HELLO by exchanging feature tokens. This enum is the one
/// place those tokens live; client, service, and router all negotiate
/// through FeatureSet instead of comparing raw string literals.
enum class Feature {
  /// SUBMIT may carry trace-id/parent-span; server spans join the trace.
  kTrace,
  /// The STATS verb returns the versioned metrics exposition.
  kStats,
  /// SUBMIT explain=yes annotates the response with the executed plan.
  kExplain,
  /// SUBMIT request-id dedup: re-SUBMITs replay the original outcome.
  kIdempotency,
  /// The peer is (or fronts) a sharded fleet: INVALIDATE is accepted and
  /// fanned out, and repeated queries are routed for memo/cache locality.
  kSharding,
};

/// Wire token for `feature` ("trace", "stats", ...).
const char* FeatureName(Feature feature);

/// Parses a wire token; returns false for tokens this build does not know
/// (unknown tokens are ignored at negotiation sites, never an error).
bool ParseFeatureName(const std::string& name, Feature* out);

/// A small value-type bitmask over Feature, the currency of negotiation:
/// HELLO carries FeatureSet::All().Names(), the receiving side rebuilds a
/// set with FromNames, and every "may I send this optional field?" check
/// is a typed Has() instead of a string compare.
class FeatureSet {
 public:
  FeatureSet() = default;

  /// Every feature this build speaks — what HELLO advertises.
  static FeatureSet All();

  /// Rebuilds a set from wire tokens, silently dropping unknown ones so a
  /// newer peer's extra tokens degrade gracefully.
  static FeatureSet FromNames(const std::vector<std::string>& names);

  void Add(Feature feature) { bits_ |= Bit(feature); }
  bool Has(Feature feature) const { return (bits_ & Bit(feature)) != 0; }
  bool empty() const { return bits_ == 0; }

  /// Wire tokens for every member, in registry order (deterministic).
  std::vector<std::string> Names() const;

  friend bool operator==(const FeatureSet& a, const FeatureSet& b) {
    return a.bits_ == b.bits_;
  }

 private:
  static uint32_t Bit(Feature feature) {
    return 1u << static_cast<uint32_t>(feature);
  }

  uint32_t bits_ = 0;
};

}  // namespace fusion

#endif  // FUSION_PROTOCOL_FEATURES_H_
