#include "common/item_set.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <span>

namespace fusion {

namespace {

/// One sorted-unique run of values: a whole set, or the suffix of one.
using Run = std::span<const Value>;

/// True when every element of `run` has type `t` (the common case for item
/// sets: one merge attribute, one type).
bool AllOfType(Run run, ValueType t) {
  for (const Value& x : run) {
    if (x.type() != t) return false;
  }
  return true;
}

/// The single uniform scalar type of a list of non-empty runs, or kNull when
/// they mix types (then only the generic Value order is exact: int64/double
/// cross-compare numerically, everything else by type rank).
ValueType CommonScalarType(std::span<const Run> runs) {
  const ValueType t = runs[0][0].type();
  if (t == ValueType::kNull) return ValueType::kNull;
  for (const Run run : runs) {
    if (!AllOfType(run, t)) return ValueType::kNull;
  }
  return t;
}

// Typed orders. Over values of one scalar type, Value's order restricts to
// the native scalar order (int64 via <, double via < with the same NaN
// behavior, string lexicographic), so merging with these is exactly
// equivalent to merging with Value::operator< — without dispatching through
// the variant's type rank on every comparison.
struct Int64Less {
  bool operator()(const Value& x, const Value& y) const {
    return x.int64() < y.int64();
  }
};
struct DoubleLess {
  bool operator()(const Value& x, const Value& y) const {
    return x.dbl() < y.dbl();
  }
};
struct StringLess {
  bool operator()(const Value& x, const Value& y) const {
    return x.str() < y.str();
  }
  bool operator()(const std::string* x, const std::string* y) const {
    return *x < *y;
  }
};

/// Calls `merge(less)` with the cheapest comparator that is exact for every
/// value of `runs`: a typed order when they share one scalar type, else
/// the generic Value order.
template <typename Merge>
auto WithLess(std::span<const Run> runs, Merge merge) {
  switch (CommonScalarType(runs)) {
    case ValueType::kInt64:
      return merge(Int64Less());
    case ValueType::kDouble:
      return merge(DoubleLess());
    case ValueType::kString:
      return merge(StringLess());
    default:
      return merge(std::less<Value>());
  }
}

enum class SetOp { kUnion, kIntersect, kDifference };

/// One two-run set operation over non-empty sorted runs. The result is
/// right-sized, so overlapping merges do not keep |a| + |b| capacity.
std::vector<Value> ApplySetOp(SetOp op, Run a, Run b) {
  const Run runs[] = {a, b};
  return WithLess(runs, [&](auto less) {
    std::vector<Value> out;
    switch (op) {
      case SetOp::kUnion:
        out.reserve(a.size() + b.size());
        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(out), less);
        break;
      case SetOp::kIntersect:
        out.reserve(std::min(a.size(), b.size()));
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(out), less);
        break;
      case SetOp::kDifference:
        out.reserve(a.size());
        std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(out), less);
        break;
    }
    out.shrink_to_fit();
    return out;
  });
}

/// Bottom-up union of the sorted runs stored back to back in `flat` (run i
/// is [bounds[i], bounds[i+1])): each pass merges neighbouring runs into
/// the other buffer, so k runs take ceil(log2 k) passes over two buffers.
template <typename T, typename Less>
std::vector<T> UnionFlatRuns(std::vector<T> flat, std::vector<size_t> bounds,
                             Less less) {
  std::vector<T> other(flat.size());
  std::vector<size_t> next_bounds;
  while (bounds.size() > 2) {
    next_bounds.assign(1, 0);
    auto out = other.begin();
    for (size_t r = 0; r + 1 < bounds.size(); r += 2) {
      const auto a = flat.begin() + static_cast<ptrdiff_t>(bounds[r]);
      const auto mid = flat.begin() + static_cast<ptrdiff_t>(bounds[r + 1]);
      const auto b =
          r + 2 < bounds.size()
              ? flat.begin() + static_cast<ptrdiff_t>(bounds[r + 2])
              : mid;
      out = std::set_union(a, mid, mid, b, out, less);
      next_bounds.push_back(static_cast<size_t>(out - other.begin()));
    }
    flat.swap(other);
    bounds.swap(next_bounds);
  }
  flat.resize(bounds.back());
  return flat;
}

/// n-ary union kernel: decodes every run once into one flat scalar array,
/// merges there, and encodes the survivors once, at exact size.
template <typename T, typename Decode, typename Encode, typename Less>
std::vector<Value> UnionDecoded(std::span<const Run> runs, Decode decode,
                                Encode encode, Less less) {
  std::vector<T> flat;
  std::vector<size_t> bounds = {0};
  size_t total = 0;
  for (const Run run : runs) total += run.size();
  flat.reserve(total);
  for (const Run run : runs) {
    for (const Value& x : run) flat.push_back(decode(x));
    bounds.push_back(flat.size());
  }
  const std::vector<T> merged =
      UnionFlatRuns(std::move(flat), std::move(bounds), less);
  std::vector<Value> out;
  out.reserve(merged.size());
  for (const T& x : merged) out.push_back(encode(x));
  return out;
}

std::vector<Value> UnionRuns(std::span<const Run> runs) {
  switch (CommonScalarType(runs)) {
    case ValueType::kInt64:
      return UnionDecoded<int64_t>(
          runs, [](const Value& x) { return x.int64(); },
          [](int64_t x) { return Value(x); }, std::less<int64_t>());
    case ValueType::kDouble:
      return UnionDecoded<double>(
          runs, [](const Value& x) { return x.dbl(); },
          [](double x) { return Value(x); }, std::less<double>());
    case ValueType::kString:
      // Strings merge as pointers; only survivors' payloads are copied.
      return UnionDecoded<const std::string*>(
          runs, [](const Value& x) { return &x.str(); },
          [](const std::string* x) { return Value(*x); }, StringLess());
    default:
      return UnionDecoded<Value>(
          runs, [](const Value& x) { return x; },
          [](const Value& x) { return x; }, std::less<Value>());
  }
}

}  // namespace

ItemSet::ItemSet(std::vector<Value> values) : values_(std::move(values)) {
  std::sort(values_.begin(), values_.end());
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
}

ItemSet ItemSet::FromSortedUnique(std::vector<Value> sorted_unique) {
  ItemSet out;
  out.values_ = std::move(sorted_unique);
  return out;
}

bool ItemSet::Contains(const Value& v) const {
  return std::binary_search(values_.begin(), values_.end(), v);
}

bool ItemSet::Insert(const Value& v) {
  auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it != values_.end() && *it == v) return false;
  values_.insert(it, v);
  return true;
}

ItemSet ItemSet::Union(const ItemSet& a, const ItemSet& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return FromSortedUnique(ApplySetOp(SetOp::kUnion, a.values_, b.values_));
}

ItemSet ItemSet::Intersect(const ItemSet& a, const ItemSet& b) {
  if (a.empty() || b.empty()) return ItemSet();
  return FromSortedUnique(ApplySetOp(SetOp::kIntersect, a.values_, b.values_));
}

ItemSet ItemSet::Difference(const ItemSet& a, const ItemSet& b) {
  if (a.empty()) return ItemSet();
  if (b.empty()) return a;
  return FromSortedUnique(ApplySetOp(SetOp::kDifference, a.values_, b.values_));
}

ItemSet ItemSet::UnionAll(const std::vector<const ItemSet*>& inputs) {
  std::vector<Run> runs;
  runs.reserve(inputs.size());
  for (const ItemSet* input : inputs) {
    if (!input->empty()) runs.emplace_back(input->values_);
  }
  if (runs.empty()) return ItemSet();
  if (runs.size() == 1) {
    return FromSortedUnique(std::vector<Value>(runs[0].begin(), runs[0].end()));
  }
  return FromSortedUnique(UnionRuns(runs));
}

void ItemSet::UnionInPlace(const ItemSet& other) {
  if (other.empty()) return;
  if (values_.empty()) {
    values_ = other.values_;
    return;
  }
  if (values_.back() < other.values_.front()) {
    values_.insert(values_.end(), other.begin(), other.end());
    return;
  }
  // General (interleaved) case: a single backward in-place merge touching
  // only the suffix that can interact with `other`. Elements before
  // `prefix` are strictly below other.front() and never move.
  const size_t prefix = static_cast<size_t>(
      std::lower_bound(values_.begin(), values_.end(), other.values_.front()) -
      values_.begin());
  const Run runs[] = {Run(values_).subspan(prefix), Run(other.values_)};
  WithLess(runs, [&](auto less) {
    // Two-pointer pass over the affected suffix: count elements of `other`
    // not already present.
    size_t fresh = 0;
    {
      size_t i = prefix, j = 0;
      while (j < other.size()) {
        if (i == values_.size()) {
          fresh += other.size() - j;
          break;
        }
        const Value& x = values_[i];
        const Value& y = other.values_[j];
        if (less(x, y)) {
          ++i;
        } else if (less(y, x)) {
          ++fresh;
          ++j;
        } else {
          ++i;
          ++j;
        }
      }
    }
    if (fresh == 0) return;
    const size_t old_size = values_.size();
    values_.resize(old_size + fresh);
    // Backward three-way merge. Invariant: w - i == fresh elements still to
    // place. Once w == i every remaining slot already holds its final value
    // (any leftover `other` elements are duplicates), so the loop stops
    // there — this also rules out self-move assignments.
    size_t i = old_size;
    size_t j = other.size();
    size_t w = values_.size();
    while (w > i && j > 0 && i > prefix) {
      const Value& x = values_[i - 1];
      const Value& y = other.values_[j - 1];
      if (less(x, y)) {
        values_[--w] = y;
        --j;
      } else if (less(y, x)) {
        values_[--w] = std::move(values_[i - 1]);
        --i;
      } else {
        values_[--w] = std::move(values_[i - 1]);
        --i;
        --j;
      }
    }
    // If i hit the prefix with fresh elements outstanding, everything left
    // in `other` is fresh: it sorts at or above values_[prefix] and cannot
    // equal a prefix element (those are strictly below other.front()).
    while (w > i && j > 0) {
      values_[--w] = other.values_[--j];
    }
  });
}

bool ItemSet::IsSubsetOf(const ItemSet& other) const {
  return std::includes(other.begin(), other.end(), begin(), end());
}

size_t ItemSet::ApproxBytes() const {
  size_t bytes = sizeof(ItemSet) + values_.capacity() * sizeof(Value);
  for (const Value& v : values_) {
    if (v.type() == ValueType::kString) bytes += v.str().capacity();
  }
  return bytes;
}

std::string ItemSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace fusion
