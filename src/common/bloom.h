#ifndef FUSION_COMMON_BLOOM_H_
#define FUSION_COMMON_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/value.h"

namespace fusion {

/// A classic blocked-free Bloom filter over Value hashes, used to pre-filter
/// semijoin probe candidates: a mediator holding a source's merge-column
/// filter can skip probes for bindings the source cannot possibly contain.
///
/// The one property the data plane relies on: NO FALSE NEGATIVES. If a value
/// was inserted, MayContain returns true — so skipping MayContain()==false
/// probes never changes an answer, only saves work. False positives merely
/// cost a wasted probe (bounded by `target_fpp`).
///
/// Keys are Value::Hash(), which hashes every int64 through its double
/// form, exactly as Value::Compare compares it with a double — so
/// cross-type numeric equality (int64 5 vs double 5.0, or int64 2^53 + 1 vs
/// the double 2^53 it rounds to) cannot produce a false negative either.
class BloomFilter {
 public:
  /// An empty filter over nothing: MayContain is false for everything.
  BloomFilter() = default;

  /// Sizes the filter for `expected_items` at ~`target_fpp` false-positive
  /// rate (standard m = -n·ln p / ln²2, k = m/n·ln 2 formulas).
  BloomFilter(size_t expected_items, double target_fpp);

  void Insert(const Value& v) { InsertHash(v.Hash()); }
  void InsertHash(uint64_t hash);

  /// True if `v` may have been inserted; false means definitely not.
  bool MayContain(const Value& v) const { return MayContainHash(v.Hash()); }
  bool MayContainHash(uint64_t hash) const;

  size_t num_bits() const { return num_bits_; }
  size_t num_hashes() const { return num_hashes_; }
  size_t ApproxBytes() const {
    return sizeof(BloomFilter) + words_.capacity() * sizeof(uint64_t);
  }

 private:
  size_t num_bits_ = 0;
  size_t num_hashes_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace fusion

#endif  // FUSION_COMMON_BLOOM_H_
