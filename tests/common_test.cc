#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/item_set.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/value.h"

namespace fusion {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  FUSION_ASSIGN_OR_RETURN(const int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> odd = Quarter(6);  // 6/2 = 3, odd
  ASSERT_FALSE(odd.ok());
  EXPECT_EQ(odd.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{7}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(3.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("hi").type(), ValueType::kString);
  EXPECT_EQ(Value(int64_t{7}).int64(), 7);
  EXPECT_DOUBLE_EQ(Value(3.5).dbl(), 3.5);
  EXPECT_EQ(Value("hi").str(), "hi");
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("dui").ToString(), "'dui'");
}

TEST(ValueTest, OrderingWithinType) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(1.5), Value(2.5));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, CrossNumericComparison) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(3.5), Value(int64_t{3}));
}

TEST(ValueTest, CrossTypeOrderingByRank) {
  EXPECT_LT(Value(), Value(int64_t{0}));       // null < numbers
  EXPECT_LT(Value(int64_t{99}), Value("a"));   // numbers < strings
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{2}).Hash(), Value(2.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  // Above 2^53 an int64 compares equal to the double it rounds to, so it
  // must hash like that double too.
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  for (const int64_t sign : {int64_t{1}, int64_t{-1}}) {
    const Value big(sign * (kTwo53 + 1));
    const Value rounded(static_cast<double>(sign * kTwo53));
    ASSERT_EQ(big, rounded);
    EXPECT_EQ(big.Hash(), rounded.Hash());
  }
}

TEST(ValueTest, CheckedAccessors) {
  EXPECT_TRUE(Value(int64_t{1}).AsInt64().ok());
  EXPECT_TRUE(Value(1.0).AsInt64().ok());
  EXPECT_FALSE(Value("x").AsInt64().ok());
  EXPECT_FALSE(Value(int64_t{1}).AsString().ok());
  EXPECT_TRUE(Value("x").AsString().ok());
}

// ---------------------------------------------------------------------------
// ItemSet
// ---------------------------------------------------------------------------

ItemSet Ints(std::initializer_list<int64_t> xs) {
  std::vector<Value> v;
  for (int64_t x : xs) v.push_back(Value(x));
  return ItemSet(std::move(v));
}

TEST(ItemSetTest, DeduplicatesAndSorts) {
  const ItemSet s = Ints({3, 1, 2, 3, 1});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ToString(), "{1, 2, 3}");
}

TEST(ItemSetTest, ContainsAndInsert) {
  ItemSet s = Ints({1, 3});
  EXPECT_TRUE(s.Contains(Value(int64_t{1})));
  EXPECT_FALSE(s.Contains(Value(int64_t{2})));
  EXPECT_TRUE(s.Insert(Value(int64_t{2})));
  EXPECT_FALSE(s.Insert(Value(int64_t{2})));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.Contains(Value(int64_t{2})));
}

TEST(ItemSetTest, UnionIntersectDifference) {
  const ItemSet a = Ints({1, 2, 3});
  const ItemSet b = Ints({2, 3, 4});
  EXPECT_EQ(ItemSet::Union(a, b), Ints({1, 2, 3, 4}));
  EXPECT_EQ(ItemSet::Intersect(a, b), Ints({2, 3}));
  EXPECT_EQ(ItemSet::Difference(a, b), Ints({1}));
  EXPECT_EQ(ItemSet::Difference(b, a), Ints({4}));
}

TEST(ItemSetTest, EmptySetIdentities) {
  const ItemSet e;
  const ItemSet a = Ints({1, 2});
  EXPECT_EQ(ItemSet::Union(a, e), a);
  EXPECT_EQ(ItemSet::Intersect(a, e), e);
  EXPECT_EQ(ItemSet::Difference(a, e), a);
  EXPECT_EQ(ItemSet::Difference(e, a), e);
  EXPECT_TRUE(e.empty());
}

TEST(ItemSetTest, SubsetChecks) {
  EXPECT_TRUE(Ints({1, 2}).IsSubsetOf(Ints({1, 2, 3})));
  EXPECT_TRUE(ItemSet().IsSubsetOf(Ints({1})));
  EXPECT_FALSE(Ints({1, 4}).IsSubsetOf(Ints({1, 2, 3})));
}

TEST(ItemSetTest, UnionInPlaceMatchesUnion) {
  ItemSet acc = Ints({1, 3, 5});
  acc.UnionInPlace(Ints({2, 3, 4}));
  EXPECT_EQ(acc, Ints({1, 2, 3, 4, 5}));
  // Disjoint tail: the append fast path must still produce a sorted set.
  acc.UnionInPlace(Ints({6, 7}));
  EXPECT_EQ(acc, Ints({1, 2, 3, 4, 5, 6, 7}));
  // Idempotent.
  acc.UnionInPlace(acc);
  EXPECT_EQ(acc, Ints({1, 2, 3, 4, 5, 6, 7}));
}

TEST(ItemSetTest, UnionInPlaceEmptyIdentities) {
  ItemSet acc;
  acc.UnionInPlace(ItemSet());
  EXPECT_TRUE(acc.empty());
  acc.UnionInPlace(Ints({1, 2}));
  EXPECT_EQ(acc, Ints({1, 2}));
  acc.UnionInPlace(ItemSet());
  EXPECT_EQ(acc, Ints({1, 2}));
}

TEST(ItemSetTest, ApproxBytesGrowsWithContents) {
  const ItemSet small = Ints({1});
  ItemSet big = Ints({1});
  for (int64_t i = 2; i < 100; ++i) big.Insert(Value(i));
  EXPECT_GT(small.ApproxBytes(), 0u);
  EXPECT_GT(big.ApproxBytes(), small.ApproxBytes());
}

TEST(ItemSetTest, MixedTypeElementsKeepTotalOrder) {
  ItemSet s({Value("b"), Value(int64_t{1}), Value("a"), Value(2.5)});
  EXPECT_EQ(s.size(), 4u);
  // ints/doubles before strings.
  EXPECT_EQ(s.ToString(), "{1, 2.5, 'a', 'b'}");
}

// Property: algebra laws on random sets.
class ItemSetAlgebraTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ItemSetAlgebraTest, AlgebraLaws) {
  Rng rng(GetParam());
  auto random_set = [&] {
    std::vector<Value> v;
    const int k = static_cast<int>(rng.Uniform(0, 30));
    for (int i = 0; i < k; ++i) v.push_back(Value(rng.Uniform(0, 20)));
    return ItemSet(std::move(v));
  };
  const ItemSet a = random_set();
  const ItemSet b = random_set();
  const ItemSet c = random_set();
  // Commutativity.
  EXPECT_EQ(ItemSet::Union(a, b), ItemSet::Union(b, a));
  EXPECT_EQ(ItemSet::Intersect(a, b), ItemSet::Intersect(b, a));
  // Associativity.
  EXPECT_EQ(ItemSet::Union(ItemSet::Union(a, b), c),
            ItemSet::Union(a, ItemSet::Union(b, c)));
  // A − B ⊆ A; (A−B) ∩ B = ∅.
  EXPECT_TRUE(ItemSet::Difference(a, b).IsSubsetOf(a));
  EXPECT_TRUE(ItemSet::Intersect(ItemSet::Difference(a, b), b).empty());
  // A = (A∩B) ∪ (A−B).
  EXPECT_EQ(ItemSet::Union(ItemSet::Intersect(a, b), ItemSet::Difference(a, b)),
            a);
  // Distributivity: A ∩ (B ∪ C) = (A∩B) ∪ (A∩C).
  EXPECT_EQ(ItemSet::Intersect(a, ItemSet::Union(b, c)),
            ItemSet::Union(ItemSet::Intersect(a, b), ItemSet::Intersect(a, c)));
}

// Differential check of the int-form kernels (galloping, bitmap, branch-free
// merge) against the std:: algorithms on sorted vectors, over the shapes
// that select each method: size ratios 1:1 to 1:1000, dense and sparse spans
// (INT64_MIN and INT64_MAX together overflow a signed span), and empty,
// equal and nested operands. Every returned set must be exact-size: the
// cache charges ApproxBytes, so spare capacity would change its accounting.
TEST_P(ItemSetAlgebraTest, IntKernelsMatchStdAlgorithms) {
  using Ints64 = std::vector<int64_t>;
  Rng rng(GetParam());
  auto sorted_unique = [](Ints64 v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  auto draw = [&](size_t n, int span_kind) {
    Ints64 v;
    for (size_t i = 0; i < n; ++i) {
      switch (span_kind) {
        case 0:  // dense: about two values per item
          v.push_back(rng.Uniform(-50, static_cast<int64_t>(2 * n) + 50));
          break;
        case 1:  // sparse
          v.push_back(rng.Uniform(-(int64_t{1} << 40), int64_t{1} << 40));
          break;
        default:  // the whole int64 range, both extremes included
          v.push_back(static_cast<int64_t>(rng.engine()()));
          break;
      }
    }
    if (span_kind == 2 && n > 0) {
      v.push_back(std::numeric_limits<int64_t>::min());
      v.push_back(std::numeric_limits<int64_t>::max());
    }
    return sorted_unique(std::move(v));
  };
  auto nested_in = [&](const Ints64& super) {
    Ints64 sub;
    const int64_t keep = rng.Uniform(1, 100);
    for (const int64_t x : super) {
      if (rng.Uniform(1, 100) <= keep) sub.push_back(x);
    }
    return sub;
  };
  auto exact = [](const ItemSet& s) {
    return s.is_int64() &&
           s.ApproxBytes() == sizeof(ItemSet) + s.size() * sizeof(int64_t);
  };
  const size_t ratios[] = {1, 2, 3, 7, 8, 9, 16, 100, 1000};
  for (int trial = 0; trial < 150; ++trial) {
    const int span_kind = static_cast<int>(rng.Uniform(0, 2));
    const size_t ratio = ratios[rng.Uniform(0, 8)];
    const size_t large_n = static_cast<size_t>(rng.Uniform(0, 3000));
    Ints64 a = draw(large_n, span_kind);
    Ints64 b;
    switch (rng.Uniform(0, 4)) {
      case 0:
        b = draw(large_n / ratio, span_kind);
        break;
      case 1:  // y ⊆ P, the SJA+ chain's shape
        b = nested_in(a);
        break;
      case 2:
        b = a;
        break;
      case 3:
        break;  // empty
      default:  // dense operand inside a sparse one's span
        b = draw(large_n / ratio, 0);
        break;
    }
    if (rng.Bernoulli(0.5)) std::swap(a, b);
    const ItemSet sa = ItemSet::FromSortedUnique(a);
    const ItemSet sb = ItemSet::FromSortedUnique(b);
    SCOPED_TRACE(StrFormat("trial %d: |a| = %zu, |b| = %zu, span kind %d",
                           trial, a.size(), b.size(), span_kind));

    Ints64 expected;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(expected));
    const ItemSet u = ItemSet::Union(sa, sb);
    EXPECT_EQ(u.ints(), expected);
    EXPECT_TRUE(exact(u));

    expected.clear();
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    const ItemSet i = ItemSet::Intersect(sa, sb);
    EXPECT_EQ(i.ints(), expected);
    EXPECT_TRUE(exact(i));

    expected.clear();
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
    const ItemSet d = ItemSet::Difference(sa, sb);
    EXPECT_EQ(d.ints(), expected);
    EXPECT_TRUE(exact(d));
    expected.clear();
    std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                        std::back_inserter(expected));
    EXPECT_EQ(ItemSet::Difference(sb, sa).ints(), expected);

    EXPECT_EQ(sa.IsSubsetOf(sb),
              std::includes(b.begin(), b.end(), a.begin(), a.end()));
    EXPECT_EQ(sb.IsSubsetOf(sa),
              std::includes(a.begin(), a.end(), b.begin(), b.end()));

    ItemSet in_place = sa;
    in_place.UnionInPlace(sb);
    EXPECT_EQ(in_place.ints(), u.ints());

    // 1 to 9 inputs of mixed sizes and spans, nested ones included.
    const size_t ways = static_cast<size_t>(rng.Uniform(1, 9));
    std::vector<ItemSet> inputs;
    Ints64 all;
    for (size_t w = 0; w < ways; ++w) {
      Ints64 v = rng.Bernoulli(0.3)
                     ? nested_in(a)
                     : draw(static_cast<size_t>(rng.Uniform(0, 400)),
                            static_cast<int>(rng.Uniform(0, 2)));
      all.insert(all.end(), v.begin(), v.end());
      inputs.push_back(ItemSet::FromSortedUnique(std::move(v)));
    }
    std::vector<const ItemSet*> pointers;
    ItemSet accumulated;
    for (const ItemSet& input : inputs) {
      pointers.push_back(&input);
      accumulated.UnionInPlace(input);
    }
    const Ints64 reference = sorted_unique(std::move(all));
    const ItemSet unioned = ItemSet::UnionAll(pointers);
    EXPECT_EQ(unioned.ints(), reference);
    EXPECT_TRUE(exact(unioned));
    EXPECT_EQ(accumulated.ints(), reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemSetAlgebraTest,
                         ::testing::Range<uint64_t>(0, 20));

// ---------------------------------------------------------------------------
// Rng / Zipf
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(MixSeedTest, GoldenValues) {
  // Seeds derived through MixSeed are replayed across runs and processes;
  // pin the exact mixing so a refactor cannot silently reseed everything.
  EXPECT_EQ(MixSeed(1, 2), 4626852571372329720ull);
  EXPECT_EQ(MixSeed(42, 0), 4281161784462384440ull);
  EXPECT_EQ(MixSeed(0, ~0ull), 16294208416658607535ull);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(7);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, DiscretePicksByWeight) {
  Rng rng(7);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    counts[rng.Discrete({1.0, 2.0, 1.0})]++;
  }
  EXPECT_NEAR(counts[1] / 30000.0, 0.5, 0.02);
  EXPECT_NEAR(counts[0] / 30000.0, 0.25, 0.02);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  Rng rng(9);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) counts[z.Sample(rng)]++;
  for (int c : counts) EXPECT_NEAR(c / 50000.0, 0.1, 0.02);
}

TEST(ZipfTest, HighThetaSkewsToHead) {
  Rng rng(9);
  ZipfSampler z(100, 1.2);
  int head = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (z.Sample(rng) < 5) ++head;
  }
  EXPECT_GT(head, trials / 2);  // top 5 ranks dominate
}

// ---------------------------------------------------------------------------
// StrUtil
// ---------------------------------------------------------------------------

TEST(StrUtilTest, Format) {
  EXPECT_EQ(StrFormat("x=%d y=%s", 3, "ab"), "x=3 y=ab");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
}

TEST(StrUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(StrSplit("", ',').size(), 1u);
  EXPECT_EQ(StrSplit("a", ',')[0], "a");
}

TEST(StrUtilTest, TrimAndJoin) {
  EXPECT_EQ(StrTrim("  x y  "), "x y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrUtilTest, CaseHelpers) {
  EXPECT_TRUE(EqualsIgnoreCase("SeLeCt", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

}  // namespace
}  // namespace fusion
