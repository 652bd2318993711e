#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>

namespace fusion {
namespace {

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::optional<uint64_t> ReadGlobalSeed() {
  const char* env = std::getenv("FUSION_SEED");
  if (env == nullptr || *env == '\0') return std::nullopt;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return std::nullopt;
  return static_cast<uint64_t>(value);
}

const std::optional<uint64_t>& CachedGlobalSeed() {
  static const std::optional<uint64_t> seed = ReadGlobalSeed();
  return seed;
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  // One splitmix64 round per input, then a finalizing round.
  return SplitMix64(SplitMix64(seed) ^ SplitMix64(~salt));
}

bool HasGlobalSeed() { return CachedGlobalSeed().has_value(); }

uint64_t GlobalSeed(uint64_t fallback) {
  return CachedGlobalSeed().value_or(fallback);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::NextDouble() {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += (w > 0 ? w : 0);
  double r = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0 ? weights[i] : 0;
    if (r < w) return i;
    r -= w;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

ZipfSampler::ZipfSampler(size_t n, double theta) {
  cdf_.resize(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (size_t i = 0; i < n; ++i) cdf_[i] /= sum;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double r = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace fusion
