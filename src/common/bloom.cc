#include "common/bloom.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace fusion {

BloomFilter::BloomFilter(size_t expected_items, double target_fpp) {
  const double n = std::max<double>(1.0, static_cast<double>(expected_items));
  const double ln2 = 0.6931471805599453;
  const double m = std::ceil(-n * std::log(target_fpp) / (ln2 * ln2));
  num_bits_ = std::max<size_t>(64, static_cast<size_t>(m));
  const double k = std::round(static_cast<double>(num_bits_) / n * ln2);
  num_hashes_ = std::min<size_t>(16, std::max<size_t>(1, static_cast<size_t>(k)));
  words_.assign((num_bits_ + 63) / 64, 0);
}

void BloomFilter::InsertHash(uint64_t hash) {
  if (num_bits_ == 0) return;
  // The double-hashing pair, derived from one 64-bit key.
  const uint64_t h1 = SplitMix64(hash);
  const uint64_t h2 = SplitMix64(h1) | 1;  // odd → probes cover the bit space
  for (size_t i = 0; i < num_hashes_; ++i) {
    const uint64_t bit = (h1 + i * h2) % num_bits_;
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
}

bool BloomFilter::MayContainHash(uint64_t hash) const {
  if (num_bits_ == 0) return false;
  const uint64_t h1 = SplitMix64(hash);
  const uint64_t h2 = SplitMix64(h1) | 1;
  for (size_t i = 0; i < num_hashes_; ++i) {
    const uint64_t bit = (h1 + i * h2) % num_bits_;
    if (((words_[bit >> 6] >> (bit & 63)) & 1) == 0) return false;
  }
  return true;
}

}  // namespace fusion
