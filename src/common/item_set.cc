#include "common/item_set.h"

#include <algorithm>
#include <functional>
#include <iterator>

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
// the native scalar order (double via < with the same NaN behavior, string
// lexicographic), so merging with these is exactly equivalent to merging
// with Value::operator< — without dispatching through the variant's type
// rank on every comparison. All-int64 runs never reach them: those sets are
// int-form and merge as raw integers.
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
    case ValueType::kDouble:
      return merge(DoubleLess());
    case ValueType::kString:
      return merge(StringLess());
    default:
      return merge(std::less<Value>());
  }
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

/// n-ary union kernel over Value runs: decodes every run once into one flat
/// scalar array, merges there, and encodes the survivors once, at exact
/// size.
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

/// Merges sorted-unique `src` into `dst` in place, touching only dst's
/// suffix from `prefix` on. Precondition: every element of dst before
/// `prefix` is strictly below src.front().
template <typename T, typename Less>
void MergeSuffixInPlace(std::vector<T>& dst, size_t prefix,
                        std::span<const T> src, Less less) {
  // Two-pointer pass over the affected suffix: count elements of `src` not
  // already present.
  size_t fresh = 0;
  {
    size_t i = prefix, j = 0;
    while (j < src.size()) {
      if (i == dst.size()) {
        fresh += src.size() - j;
        break;
      }
      if (less(dst[i], src[j])) {
        ++i;
      } else if (less(src[j], dst[i])) {
        ++fresh;
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
  }
  if (fresh == 0) return;
  const size_t old_size = dst.size();
  dst.resize(old_size + fresh);
  // Backward three-way merge. Invariant: w - i == fresh elements still to
  // place. Once w == i every remaining slot already holds its final value
  // (any leftover `src` elements are duplicates), so the loop stops there —
  // this also rules out self-move assignments.
  size_t i = old_size;
  size_t j = src.size();
  size_t w = dst.size();
  while (w > i && j > 0 && i > prefix) {
    const T& x = dst[i - 1];
    const T& y = src[j - 1];
    if (less(x, y)) {
      dst[--w] = y;
      --j;
    } else if (less(y, x)) {
      dst[--w] = std::move(dst[i - 1]);
      --i;
    } else {
      dst[--w] = std::move(dst[i - 1]);
      --i;
      --j;
    }
  }
  // If i hit the prefix with fresh elements outstanding, everything left in
  // `src` is fresh: it sorts at or above dst[prefix] and cannot equal a
  // prefix element (those are strictly below src.front()).
  while (w > i && j > 0) {
    dst[--w] = src[--j];
  }
}

}  // namespace

ItemSet::ItemSet(std::vector<Value> values) {
  if (AllOfType(values, ValueType::kInt64)) {
    std::vector<int64_t> ints;
    ints.reserve(values.size());
    for (const Value& v : values) ints.push_back(v.int64());
    *this = FromInts(std::move(ints));
    return;
  }
  // Stable, so of items that compare equal the first one in `values` wins.
  std::stable_sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  *this = FromSortedUnique(std::move(values));
}

ItemSet ItemSet::FromInts(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return FromSortedUnique(std::move(values));
}


ItemSet ItemSet::FromSortedUnique(std::vector<int64_t> sorted_unique) {
  ItemSet out;
  out.ints_ = std::move(sorted_unique);
  return out;
}

ItemSet ItemSet::FromSortedUnique(std::vector<Value> sorted_unique) {
  ItemSet out;
  if (AllOfType(sorted_unique, ValueType::kInt64)) {
    out.ints_.reserve(sorted_unique.size());
    for (const Value& v : sorted_unique) out.ints_.push_back(v.int64());
  } else {
    out.values_ = std::move(sorted_unique);
  }
  return out;
}

std::vector<Value> ItemSet::ToValues() const {
  if (!is_int64()) return values_;
  std::vector<Value> out;
  out.reserve(ints_.size());
  for (const int64_t x : ints_) out.emplace_back(x);
  return out;
}

std::span<const Value> ItemSet::ValueRun(std::vector<Value>& scratch) const {
  if (!is_int64()) return values_;
  scratch = ToValues();
  return scratch;
}

bool ItemSet::Contains(const Value& v) const {
  if (!is_int64()) return std::binary_search(values_.begin(), values_.end(), v);
  if (v.type() == ValueType::kInt64) {
    return std::binary_search(ints_.begin(), ints_.end(), v.int64());
  }
  // A double can equal an int64 item (2.0 == 2): search under Value order.
  return std::binary_search(begin(), end(), v);
}

bool ItemSet::Insert(const Value& v) {
  if (is_int64()) {
    if (v.type() == ValueType::kInt64) {
      const auto it = std::lower_bound(ints_.begin(), ints_.end(), v.int64());
      if (it != ints_.end() && *it == v.int64()) return false;
      ints_.insert(it, v.int64());
      return true;
    }
    if (Contains(v)) return false;
    // A new non-int64 item: the set leaves int form for good (it never
    // drops the item again).
    values_ = ToValues();
    ints_ = {};
  }
  const auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it != values_.end() && *it == v) return false;
  values_.insert(it, v);
  return true;
}

template <typename Kernel>
ItemSet ItemSet::Merge(const ItemSet& a, const ItemSet& b, size_t reserve,
                       Kernel kernel) {
  if (a.is_int64() && b.is_int64()) {
    std::vector<int64_t> out;
    out.reserve(reserve);
    kernel(a.ints_.begin(), a.ints_.end(), b.ints_.begin(), b.ints_.end(),
           std::back_inserter(out), std::less<int64_t>());
    out.shrink_to_fit();
    return FromSortedUnique(std::move(out));
  }
  std::vector<Value> a_scratch, b_scratch;
  const Run runs[] = {a.ValueRun(a_scratch), b.ValueRun(b_scratch)};
  return FromSortedUnique(WithLess(runs, [&](auto less) {
    std::vector<Value> out;
    out.reserve(reserve);
    kernel(runs[0].begin(), runs[0].end(), runs[1].begin(), runs[1].end(),
           std::back_inserter(out), less);
    out.shrink_to_fit();
    return out;
  }));
}

ItemSet ItemSet::Union(const ItemSet& a, const ItemSet& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return Merge(a, b, a.size() + b.size(), [](auto... args) {
    return std::set_union(args...);
  });
}

ItemSet ItemSet::Intersect(const ItemSet& a, const ItemSet& b) {
  if (a.empty() || b.empty()) return ItemSet();
  return Merge(a, b, std::min(a.size(), b.size()), [](auto... args) {
    return std::set_intersection(args...);
  });
}

ItemSet ItemSet::Difference(const ItemSet& a, const ItemSet& b) {
  if (a.empty()) return ItemSet();
  if (b.empty()) return a;
  return Merge(a, b, a.size(), [](auto... args) {
    return std::set_difference(args...);
  });
}

ItemSet ItemSet::UnionAll(const std::vector<const ItemSet*>& inputs) {
  std::vector<const ItemSet*> sets;
  sets.reserve(inputs.size());
  bool all_int = true;
  for (const ItemSet* input : inputs) {
    if (input->empty()) continue;
    sets.push_back(input);
    all_int = all_int && input->is_int64();
  }
  if (sets.empty()) return ItemSet();
  if (sets.size() == 1) return *sets[0];
  if (all_int) {
    std::vector<int64_t> flat;
    std::vector<size_t> bounds = {0};
    size_t total = 0;
    for (const ItemSet* s : sets) total += s->ints_.size();
    flat.reserve(total);
    for (const ItemSet* s : sets) {
      flat.insert(flat.end(), s->ints_.begin(), s->ints_.end());
      bounds.push_back(flat.size());
    }
    std::vector<int64_t> merged = UnionFlatRuns(
        std::move(flat), std::move(bounds), std::less<int64_t>());
    merged.shrink_to_fit();
    return FromSortedUnique(std::move(merged));
  }
  std::vector<std::vector<Value>> scratch(sets.size());
  std::vector<Run> runs;
  runs.reserve(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    runs.push_back(sets[i]->ValueRun(scratch[i]));
  }
  return FromSortedUnique(UnionRuns(runs));
}

void ItemSet::UnionInPlace(const ItemSet& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  if (is_int64() && other.is_int64()) {
    if (ints_.back() < other.ints_.front()) {
      ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
      return;
    }
    const size_t prefix = static_cast<size_t>(
        std::lower_bound(ints_.begin(), ints_.end(), other.ints_.front()) -
        ints_.begin());
    MergeSuffixInPlace<int64_t>(ints_, prefix, other.ints_,
                                std::less<int64_t>());
    return;
  }
  std::vector<Value> scratch;
  const Run src = other.ValueRun(scratch);
  if (is_int64()) {
    values_ = ToValues();
    ints_ = {};
  }
  if (values_.back() < src.front()) {
    values_.insert(values_.end(), src.begin(), src.end());
  } else {
    // Elements before `prefix` are strictly below src.front() and never
    // move; the merge comparator is picked from the suffix that does.
    const size_t prefix = static_cast<size_t>(
        std::lower_bound(values_.begin(), values_.end(), src.front()) -
        values_.begin());
    const Run runs[] = {Run(values_).subspan(prefix), src};
    WithLess(runs, [&](auto less) {
      MergeSuffixInPlace<Value>(values_, prefix, src, less);
    });
  }
  // An int-form `other` can leave only int64s behind when this set's
  // non-int64 items all equal them numerically ({2.0} ∪ {2} keeps 2.0, but
  // {2} ∪ {2.0} keeps 2).
  if (AllOfType(values_, ValueType::kInt64)) *this = FromSortedUnique(std::move(values_));
}

bool ItemSet::operator==(const ItemSet& other) const {
  if (is_int64() && other.is_int64()) return ints_ == other.ints_;
  if (!is_int64() && !other.is_int64()) return values_ == other.values_;
  // Mixed forms can still be equal item-wise: {2} == {2.0}.
  return size() == other.size() && std::equal(begin(), end(), other.begin());
}

bool ItemSet::IsSubsetOf(const ItemSet& other) const {
  if (is_int64() && other.is_int64()) {
    return std::includes(other.ints_.begin(), other.ints_.end(),
                         ints_.begin(), ints_.end());
  }
  std::vector<Value> scratch, other_scratch;
  const Run mine = ValueRun(scratch);
  const Run theirs = other.ValueRun(other_scratch);
  return std::includes(theirs.begin(), theirs.end(), mine.begin(), mine.end());
}

size_t ItemSet::ApproxBytes() const {
  size_t bytes = sizeof(ItemSet) + ints_.capacity() * sizeof(int64_t) +
                 values_.capacity() * sizeof(Value);
  for (const Value& v : values_) {
    if (v.type() == ValueType::kString) bytes += v.str().capacity();
  }
  return bytes;
}

std::string ItemSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += (*this)[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace fusion
