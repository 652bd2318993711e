#ifndef FUSION_COMMON_ITEM_SET_H_
#define FUSION_COMMON_ITEM_SET_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/value.h"

namespace fusion {

/// A set of *items* — merge-attribute values — as manipulated by mediators in
/// simple plans (Section 2 of the paper). Stored sorted and deduplicated,
/// which makes the mediator-local operations (union, intersection,
/// difference) at most linear merges and keeps iteration deterministic.
///
/// The storage has one canonical form per content: a set whose items are all
/// int64 (the empty set included) holds them as a sorted `int64_t` vector,
/// so copies, merges and hashing move raw 8-byte integers; any other set
/// (strings, doubles, NULL, mixed int64/double) holds sorted `Value`s. Every
/// constructor and operation restores the canonical form, so the
/// representation is a function of the items alone and never observable
/// through equality, ordering or iteration.
class ItemSet {
 public:
  /// Random-access iterator yielding each item as a Value (by value: an
  /// int-form set has no Value objects to refer to).
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using reference = Value;
    using pointer = void;

    const_iterator() = default;
    const_iterator(const ItemSet* set, difference_type i) : set_(set), i_(i) {}

    Value operator*() const { return (*set_)[static_cast<size_t>(i_)]; }
    Value operator[](difference_type n) const { return *(*this + n); }

    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    const_iterator& operator--() {
      --i_;
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator old = *this;
      --i_;
      return old;
    }
    const_iterator& operator+=(difference_type n) {
      i_ += n;
      return *this;
    }
    const_iterator& operator-=(difference_type n) {
      i_ -= n;
      return *this;
    }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return a.i_ - b.i_;
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }
    std::strong_ordering operator<=>(const const_iterator& other) const {
      return i_ <=> other.i_;
    }

   private:
    const ItemSet* set_ = nullptr;
    difference_type i_ = 0;
  };

  ItemSet() = default;
  /// Builds a set from arbitrary (possibly unsorted / duplicated) values.
  /// Of items that compare equal (int64 2 and double 2.0), the first one in
  /// `values` is kept.
  explicit ItemSet(std::vector<Value> values);

  /// Builds a set from arbitrary (possibly unsorted / duplicated) int64s.
  static ItemSet FromInts(std::vector<int64_t> values);

  /// Creates a set from a vector without checking order. Precondition:
  /// `sorted_unique` is strictly increasing. Used by the merge algorithms.
  /// All-int64 Values are adopted in int form (the canonical-form rule).
  static ItemSet FromSortedUnique(std::vector<Value> sorted_unique);
  static ItemSet FromSortedUnique(std::vector<int64_t> sorted_unique);

  size_t size() const { return is_int64() ? ints_.size() : values_.size(); }
  bool empty() const { return size() == 0; }
  Value operator[](size_t i) const {
    return is_int64() ? Value(ints_[i]) : values_[i];
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, static_cast<std::ptrdiff_t>(size()));
  }

  /// True when every item is an int64 (vacuously for the empty set); the
  /// items are then available raw through ints().
  bool is_int64() const { return values_.empty(); }
  /// The sorted items of an int-form set. Precondition: is_int64().
  const std::vector<int64_t>& ints() const { return ints_; }
  /// Every item as a Value, in sorted order.
  std::vector<Value> ToValues() const;

  bool Contains(const Value& v) const;

  /// Inserts one value, keeping the representation sorted-unique.
  /// Returns true if the value was newly inserted.
  bool Insert(const Value& v);

  /// Set algebra. Int-form operands go through integer kernels that pick
  /// their method from the inputs: galloping search when one side is 8× or
  /// more smaller, a bitmap over [min, max] when that span in 64-bit words
  /// is at most twice the items read, else a merge that does not branch on
  /// its compares. IsSubsetOf uses the same kernels. Other
  /// sets merge as Values; when both hold one scalar type, the merge
  /// compares natively instead of through the Value variant's cross-type
  /// order. Every result is exact-size (no spare vector capacity), so its
  /// ApproxBytes is a function of its items.
  static ItemSet Union(const ItemSet& a, const ItemSet& b);
  static ItemSet Intersect(const ItemSet& a, const ItemSet& b);
  static ItemSet Difference(const ItemSet& a, const ItemSet& b);

  /// Union of any number of sets, built once at exact size instead of the
  /// k intermediate sets that k successive Union or UnionInPlace calls
  /// build. All-int-form inputs whose [min, max] span in 64-bit words is at
  /// most twice their total item count go through one bitmap over that
  /// span; other int-form inputs are unioned pairwise in log2(k) passes of
  /// the integer merge. Value runs are decoded once to scalars or string
  /// pointers when all share one type and merged the same way. Equal to
  /// folding Union over `inputs`.
  static ItemSet UnionAll(const std::vector<const ItemSet*>& inputs);

  /// Merges `other` into this set. When `other` sorts entirely after the
  /// current contents — the shape of per-probe accumulation over sorted
  /// candidates — this is an O(|other|) append, so accumulating k disjoint
  /// ordered pieces is O(n) total instead of the O(k·n) that repeated
  /// `a = Union(a, b)` rebuilds cost. Otherwise only the suffix at or above
  /// other.front() is merged, in place, with the same kernels as Union.
  /// Unlike the other operations it keeps the vector's geometric growth
  /// (spare capacity), which is what makes the appends amortized O(1); use
  /// UnionAll for a result that is kept.
  void UnionInPlace(const ItemSet& other);

  /// Item-wise equality under Value order: {int64 2} == {double 2.0}.
  bool operator==(const ItemSet& other) const;
  bool operator!=(const ItemSet& other) const { return !(*this == other); }

  /// True if every element of this set is in `other`.
  bool IsSubsetOf(const ItemSet& other) const;

  /// Renders "{J55, T21}" style output (elements in sorted order).
  std::string ToString() const;

  /// Approximate resident size in bytes (vector capacity plus string
  /// payloads): 8 bytes per int-form item. Used by byte-budgeted caches.
  size_t ApproxBytes() const;

 private:
  /// The items as a Value run: the stored Values of a Value-form set, or
  /// `scratch` filled from the integers of an int-form one.
  std::span<const Value> ValueRun(std::vector<Value>& scratch) const;

  /// Runs a two-set std:: merge algorithm `kernel` (set_union, …) over the
  /// sets' Values with the cheapest exact comparator; the int-form-only
  /// case never gets here. `reserve` bounds the result size.
  template <typename Kernel>
  static ItemSet Merge(const ItemSet& a, const ItemSet& b, size_t reserve,
                       Kernel kernel);

  // Exactly one representation is in use: `values_` is empty iff the set is
  // int-form, and then `ints_` holds the items. Both sorted, unique.
  std::vector<int64_t> ints_;
  std::vector<Value> values_;
};

}  // namespace fusion

#endif  // FUSION_COMMON_ITEM_SET_H_
