#ifndef FUSION_COMMON_ITEM_SET_H_
#define FUSION_COMMON_ITEM_SET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/value.h"

namespace fusion {

/// A set of *items* — merge-attribute values — as manipulated by mediators in
/// simple plans (Section 2 of the paper). Stored as a sorted, deduplicated
/// vector, which makes the mediator-local operations (union, intersection,
/// difference) linear merges and keeps iteration deterministic.
class ItemSet {
 public:
  ItemSet() = default;
  /// Builds a set from arbitrary (possibly unsorted / duplicated) values.
  explicit ItemSet(std::vector<Value> values);

  /// Creates a set from an initializer-like vector without checking order.
  /// Precondition: `sorted_unique` is strictly increasing. Used internally
  /// by the merge algorithms.
  static ItemSet FromSortedUnique(std::vector<Value> sorted_unique);

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const Value& operator[](size_t i) const { return values_[i]; }

  std::vector<Value>::const_iterator begin() const { return values_.begin(); }
  std::vector<Value>::const_iterator end() const { return values_.end(); }
  const std::vector<Value>& values() const { return values_; }

  bool Contains(const Value& v) const;

  /// Inserts one value, keeping the representation sorted-unique.
  /// Returns true if the value was newly inserted.
  bool Insert(const Value& v);

  /// Set algebra; all O(|a| + |b|) merges. When both sets hold one scalar
  /// type, the merge compares natively instead of through the Value
  /// variant's cross-type order.
  static ItemSet Union(const ItemSet& a, const ItemSet& b);
  static ItemSet Intersect(const ItemSet& a, const ItemSet& b);
  static ItemSet Difference(const ItemSet& a, const ItemSet& b);

  /// Union of any number of sets: each input is decoded once (to raw
  /// scalars when all share one type), the runs are merged pairwise in
  /// log2(k) passes over two buffers, and the result is encoded once —
  /// instead of the k intermediate sets that k successive Union or
  /// UnionInPlace calls build. Equal to folding Union over `inputs`.
  static ItemSet UnionAll(const std::vector<const ItemSet*>& inputs);

  /// Merges `other` into this set. When `other` sorts entirely after the
  /// current contents — the shape of per-probe accumulation over sorted
  /// candidates — this is an O(|other|) append, so accumulating k disjoint
  /// ordered pieces is O(n) total instead of the O(k·n) that repeated
  /// `a = Union(a, b)` rebuilds cost. Otherwise only the suffix at or above
  /// other.front() is merged, in place, with the same typed comparators as
  /// Union.
  void UnionInPlace(const ItemSet& other);

  bool operator==(const ItemSet& other) const {
    return values_ == other.values_;
  }
  bool operator!=(const ItemSet& other) const { return !(*this == other); }

  /// True if every element of this set is in `other`.
  bool IsSubsetOf(const ItemSet& other) const;

  /// Renders "{J55, T21}" style output (elements in sorted order).
  std::string ToString() const;

  /// Approximate resident size in bytes (vector capacity plus string
  /// payloads). Used by byte-budgeted caches.
  size_t ApproxBytes() const;

 private:
  std::vector<Value> values_;  // sorted, unique
};

}  // namespace fusion

#endif  // FUSION_COMMON_ITEM_SET_H_
