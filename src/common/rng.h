#ifndef FUSION_COMMON_RNG_H_
#define FUSION_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace fusion {

/// Deterministic random source used by workload generators and tests.
/// Every experiment in this repository takes an explicit seed so results are
/// reproducible run-to-run.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  size_t Discrete(const std::vector<double>& weights);

  /// Exposes the engine for use with standard distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// splitmix64 finalizer mixing `seed` and `salt` into one well-distributed
/// stream seed. Deriving per-component seeds this way (instead of seed + i)
/// keeps the component streams statistically independent, so the macro
/// harness can hand every tenant / source / sampler its own Rng from one
/// root seed and still replay the whole run bit-for-bit.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// True iff the FUSION_SEED environment variable is set to a number.
bool HasGlobalSeed();

/// The process-wide replay seed: the value of FUSION_SEED when set (read
/// once, cached), else `fallback`. Every seeded component of the macro
/// harness (workload generator, tenants, FlakySource failure streams)
/// resolves its seed through this, so exporting FUSION_SEED replays a
/// harness-found divergence exactly — flaky streams included.
uint64_t GlobalSeed(uint64_t fallback);

/// Zipf-distributed sampler over {0, 1, ..., n-1} with exponent `theta`
/// (theta = 0 is uniform; larger values are more skewed). Uses the
/// precomputed-CDF method: O(n) setup, O(log n) per sample.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);

  /// Returns a rank in [0, n).
  size_t Sample(Rng& rng) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace fusion

#endif  // FUSION_COMMON_RNG_H_
