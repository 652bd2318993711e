#include "common/item_set.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <iterator>
#include <memory>

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

// ---------------------------------------------------------------------------
// Int-form kernels. Each picks its method from what it sees in its sorted-
// unique int64 runs, with fixed constants:
//  1. skewed sizes gallop: each item of the short run is found in the long
//     one by exponential search, O(s log(l/s)) instead of O(s + l)
//     (Baeza-Yates, CPM 2004);
//  2. dense spans go through a bitmap over [min, max]: setting and testing
//     bits are independent steps, where each step of a merge waits on the
//     compare before it;
//  3. everything else merges with cursors advanced by compare results used
//     as integers, so no compare outcome is a branch. A std::set_* merge
//     branches on every compare, and on real data the predictor guesses
//     about half of them wrong.
// Only the merge takes wide spans such as INT64_MIN..INT64_MAX.

using IntRun = std::span<const int64_t>;

/// One run at least this many times longer than the other: gallop.
constexpr size_t kGallopRatio = 8;

/// A span is dense when its bitmap needs at most this many 64-bit words per
/// item the operation reads: the bitmap then costs about what reading the
/// items does.
constexpr uint64_t kDenseWordsPerItem = 2;

/// Scratch buffers above this many items are freed after use rather than
/// kept for the thread's next call.
constexpr size_t kMaxRetainedScratch = size_t{1} << 15;

bool Skewed(size_t small, size_t large) {
  return small <= large / kGallopRatio;
}

/// A bitmap over the items [lo, hi]: the dense-span method.
class SpanBitmap {
 public:
  /// True when a bitmap over [lo, hi] is worth it for an operation reading
  /// `items` items. The span is measured in uint64_t, where hi − lo cannot
  /// overflow (the whole int64 range would take 2^58 words).
  static bool Dense(int64_t lo, int64_t hi, size_t items) {
    return Words(lo, hi) <= kDenseWordsPerItem * items;
  }

  /// Precondition: Dense(lo, hi, ·) held, so the words fit in memory.
  SpanBitmap(int64_t lo, int64_t hi)
      : base_(static_cast<uint64_t>(lo)),
        bits_(static_cast<size_t>(Words(lo, hi))) {}

  /// Precondition: every item of `run` lies in [lo, hi].
  void Set(IntRun run) {
    for (const int64_t x : run) {
      const uint64_t offset = static_cast<uint64_t>(x) - base_;
      bits_[offset / 64] |= uint64_t{1} << (offset % 64);
    }
  }

  /// 1 if `x` is set, else 0; items outside the span read 0 without a
  /// branch (their lookup is redirected to bit 0 and masked off).
  uint64_t Test(int64_t x) const {
    const uint64_t offset = static_cast<uint64_t>(x) - base_;
    const uint64_t inside = offset / 64 < bits_.size() ? 1 : 0;
    const uint64_t at = offset & (0 - inside);
    return (bits_[at / 64] >> (at % 64)) & inside;
  }

  /// The set items in increasing order, at exact size.
  std::vector<int64_t> Items() const {
    size_t count = 0;
    for (const uint64_t word : bits_) {
      count += static_cast<size_t>(std::popcount(word));
    }
    std::vector<int64_t> out(count);
    int64_t* w = out.data();
    for (size_t i = 0; i < bits_.size(); ++i) {
      for (uint64_t word = bits_[i]; word != 0; word &= word - 1) {
        *w++ = static_cast<int64_t>(
            base_ + 64 * i + static_cast<uint64_t>(std::countr_zero(word)));
      }
    }
    return out;
  }

 private:
  static uint64_t Words(int64_t lo, int64_t hi) {
    return (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 64 + 1;
  }

  uint64_t base_;
  std::vector<uint64_t> bits_;
};

/// First index in [lo, hi) whose item is >= x, or hi: a binary search whose
/// halving step is a conditional move, not a branch.
size_t LowerBound(const int64_t* a, size_t lo, size_t hi, int64_t x) {
  if (lo == hi) return lo;
  const int64_t* base = a + lo;
  size_t len = hi - lo;
  while (len > 1) {
    const size_t half = len / 2;
    base = base[half] < x ? base + half : base;
    len -= half;
  }
  return static_cast<size_t>(base - a) + (*base < x ? 1 : 0);
}

/// First index i >= lo with a[i] >= x, or a.size(): probes lo, lo+1, lo+3,
/// lo+7, … until one reaches x, then binary-searches that bracket, so a
/// target d places ahead costs O(log d).
size_t Gallop(IntRun a, size_t lo, int64_t x) {
  size_t hi = lo;
  size_t step = 1;
  while (hi < a.size() && a[hi] < x) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  return LowerBound(a.data(), lo, std::min(hi, a.size()), x);
}

/// Runs `kernel(out)`, which writes at most `bound` items through `out` and
/// returns how many it wrote, and returns them at exact size (capacity ==
/// size): byte-budgeted caches charge a set's ApproxBytes, so a result must
/// not carry the slack of its worst-case bound. The bound-sized buffer is
/// per-thread scratch, reused across calls.
template <typename Kernel>
std::vector<int64_t> ExactResult(size_t bound, Kernel kernel) {
  thread_local std::unique_ptr<int64_t[]> scratch;
  thread_local size_t capacity = 0;
  if (capacity < bound) {
    capacity = std::bit_ceil(bound);
    scratch.reset(new int64_t[capacity]);
  }
  const size_t n = kernel(scratch.get());
  std::vector<int64_t> out(scratch.get(), scratch.get() + n);
  if (capacity > kMaxRetainedScratch) {
    scratch.reset();
    capacity = 0;
  }
  return out;
}

/// a ∪ b into `out` (room for |a| + |b|) by galloping or merging; returns
/// the item count. Dense pairs go through IntUnionAll's bitmap instead.
size_t IntUnion(IntRun a, IntRun b, int64_t* out) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter run
  int64_t* w = out;
  size_t i = 0;
  if (Skewed(b.size(), a.size())) {
    for (const int64_t y : b) {
      const size_t p = Gallop(a, i, y);
      w = std::copy(a.begin() + static_cast<ptrdiff_t>(i),
                    a.begin() + static_cast<ptrdiff_t>(p), w);
      i = p;
      *w = y;
      w += (i == a.size() || a[i] != y) ? 1 : 0;
    }
  } else {
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
      const int64_t x = a[i];
      const int64_t y = b[j];
      const size_t lt = x < y;
      const size_t gt = y < x;
      *w++ = gt != 0 ? y : x;
      i += 1 - gt;
      j += 1 - lt;
    }
    w = std::copy(b.begin() + static_cast<ptrdiff_t>(j), b.end(), w);
  }
  return static_cast<size_t>(
      std::copy(a.begin() + static_cast<ptrdiff_t>(i), a.end(), w) - out);
}

/// Union of two or more non-empty runs, at exact size.
std::vector<int64_t> IntUnionAll(std::vector<IntRun> runs) {
  int64_t lo = runs[0].front();
  int64_t hi = runs[0].back();
  size_t total = 0;
  for (const IntRun run : runs) {
    lo = std::min(lo, run.front());
    hi = std::max(hi, run.back());
    total += run.size();
  }
  const bool pair = runs.size() == 2;
  if (!(pair && Skewed(std::min(runs[0].size(), runs[1].size()),
                       std::max(runs[0].size(), runs[1].size()))) &&
      SpanBitmap::Dense(lo, hi, total)) {
    SpanBitmap bits(lo, hi);
    for (const IntRun run : runs) bits.Set(run);
    return bits.Items();
  }
  if (pair) {
    return ExactResult(total, [&](int64_t* out) {
      return IntUnion(runs[0], runs[1], out);
    });
  }
  // Sparse: each pass unions neighbouring runs into one of two buffers, so
  // k runs take ceil(log2 k) passes.
  std::vector<int64_t> buffers[2] = {std::vector<int64_t>(total),
                                     std::vector<int64_t>(total)};
  for (size_t pass = 0; runs.size() > 1; ++pass) {
    int64_t* out = buffers[pass % 2].data();
    size_t next = 0;
    for (size_t r = 0; r < runs.size(); r += 2) {
      // An odd run out is copied too: the next pass writes over the buffer
      // it may live in.
      const size_t n =
          r + 1 < runs.size()
              ? IntUnion(runs[r], runs[r + 1], out)
              : static_cast<size_t>(
                    std::copy(runs[r].begin(), runs[r].end(), out) - out);
      runs[next++] = IntRun(out, n);
      out += n;
    }
    runs.resize(next);
  }
  return std::vector<int64_t>(runs[0].begin(), runs[0].end());
}

/// |a ∩ b|, and with kEmit the items themselves into `out` (room for
/// min(|a|, |b|)).
template <bool kEmit>
size_t IntIntersect(IntRun a, IntRun b, int64_t* out) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter run
  size_t k = 0;
  if (Skewed(a.size(), b.size())) {
    size_t j = 0;
    for (const int64_t x : a) {
      j = Gallop(b, j, x);
      if (j == b.size()) break;
      if constexpr (kEmit) out[k] = x;
      k += b[j] == x ? 1 : 0;
    }
    return k;
  }
  if (SpanBitmap::Dense(b.front(), b.back(), a.size() + b.size())) {
    SpanBitmap bits(b.front(), b.back());
    bits.Set(b);
    for (const int64_t x : a) {
      if constexpr (kEmit) out[k] = x;
      k += bits.Test(x);
    }
    return k;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t x = a[i];
    const int64_t y = b[j];
    const size_t lt = x < y;
    const size_t gt = y < x;
    if constexpr (kEmit) out[k] = x;
    k += 1 - (lt | gt);
    i += 1 - gt;
    j += 1 - lt;
  }
  return k;
}

/// a − b into `out` (room for |a|); returns the item count.
size_t IntDifference(IntRun a, IntRun b, int64_t* out) {
  int64_t* w = out;
  size_t i = 0;
  if (Skewed(b.size(), a.size())) {
    // Few removals (SJA+'s pending − y_k): copy the stretches between them.
    for (const int64_t y : b) {
      const size_t p = Gallop(a, i, y);
      w = std::copy(a.begin() + static_cast<ptrdiff_t>(i),
                    a.begin() + static_cast<ptrdiff_t>(p), w);
      i = p + ((p < a.size() && a[p] == y) ? 1 : 0);
    }
  } else if (Skewed(a.size(), b.size())) {
    size_t j = 0;
    for (; i < a.size(); ++i) {
      const int64_t x = a[i];
      j = Gallop(b, j, x);
      if (j == b.size()) break;
      *w = x;
      w += b[j] != x ? 1 : 0;
    }
  } else if (SpanBitmap::Dense(b.front(), b.back(), a.size() + b.size())) {
    SpanBitmap bits(b.front(), b.back());
    bits.Set(b);
    for (; i < a.size(); ++i) {
      *w = a[i];
      w += 1 - bits.Test(a[i]);
    }
  } else {
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
      const int64_t x = a[i];
      const int64_t y = b[j];
      const size_t lt = x < y;
      const size_t gt = y < x;
      *w = x;
      w += lt;
      i += 1 - gt;
      j += 1 - lt;
    }
  }
  return static_cast<size_t>(
      std::copy(a.begin() + static_cast<ptrdiff_t>(i), a.end(), w) - out);
}

/// True if every item of `sub` is in `super`.
bool IntIncludes(IntRun super, IntRun sub) {
  if (sub.empty()) return true;
  if (sub.size() > super.size() || sub.front() < super.front() ||
      sub.back() > super.back()) {
    return false;
  }
  // Equal sizes: a subset only if the same set (an exact cache hit).
  if (sub.size() == super.size()) {
    return std::equal(sub.begin(), sub.end(), super.begin());
  }
  return IntIntersect<false>(sub, super, nullptr) == sub.size();
}

/// Int-form MergeSuffixInPlace: merges `src` into `dst` from `prefix` on
/// (every item before it is below src.front()). Counts the fresh items with
/// IntIntersect, grows `dst` by exactly that many — the same vector growth
/// as the generic path, so the accumulator keeps its amortized appends — and
/// fills it back to front with the branch-free merge step.
void IntMergeSuffixInPlace(std::vector<int64_t>& dst, size_t prefix,
                           IntRun src) {
  const size_t fresh =
      src.size() -
      IntIntersect<false>(IntRun(dst).subspan(prefix), src, nullptr);
  if (fresh == 0) return;
  const size_t old_size = dst.size();
  dst.resize(old_size + fresh);
  int64_t* d = dst.data();
  // w - i == fresh items still to place; at w == i the rest is in place.
  size_t i = old_size;
  size_t j = src.size();
  size_t w = dst.size();
  while (w > i && j > 0 && i > prefix) {
    const int64_t x = d[i - 1];
    const int64_t y = src[j - 1];
    const size_t lt = x < y;
    const size_t gt = y < x;
    d[--w] = lt != 0 ? y : x;
    i -= 1 - lt;
    j -= 1 - gt;
  }
  while (w > i && j > 0) d[--w] = src[--j];
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
  // Gathers in row order are often already strictly ascending (sources
  // clustered on the merge attribute); one linear check skips the sort.
  if (std::adjacent_find(values.begin(), values.end(),
                         std::greater_equal<int64_t>()) != values.end()) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
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
  if (a.is_int64() && b.is_int64()) {
    return FromSortedUnique(IntUnionAll({a.ints_, b.ints_}));
  }
  return Merge(a, b, a.size() + b.size(), [](auto... args) {
    return std::set_union(args...);
  });
}

ItemSet ItemSet::Intersect(const ItemSet& a, const ItemSet& b) {
  if (a.empty() || b.empty()) return ItemSet();
  if (a.is_int64() && b.is_int64()) {
    return FromSortedUnique(
        ExactResult(std::min(a.size(), b.size()), [&](int64_t* out) {
          return IntIntersect<true>(a.ints_, b.ints_, out);
        }));
  }
  return Merge(a, b, std::min(a.size(), b.size()), [](auto... args) {
    return std::set_intersection(args...);
  });
}

ItemSet ItemSet::Difference(const ItemSet& a, const ItemSet& b) {
  if (a.empty()) return ItemSet();
  if (b.empty()) return a;
  if (a.is_int64() && b.is_int64()) {
    return FromSortedUnique(ExactResult(a.size(), [&](int64_t* out) {
      return IntDifference(a.ints_, b.ints_, out);
    }));
  }
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
    std::vector<IntRun> runs;
    runs.reserve(sets.size());
    for (const ItemSet* s : sets) runs.emplace_back(s->ints_);
    return FromSortedUnique(IntUnionAll(std::move(runs)));
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
    IntMergeSuffixInPlace(ints_, prefix, other.ints_);
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
  if (is_int64() && other.is_int64()) return IntIncludes(other.ints_, ints_);
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
