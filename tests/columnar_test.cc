#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/item_set.h"
#include "common/rng.h"
#include "relational/columnar.h"
#include "relational/relation.h"
#include "source/simulated_source.h"

namespace fusion {
namespace {

// ---------------------------------------------------------------------------
// Random-instance generators for the row-vs-columnar differential tests
// ---------------------------------------------------------------------------

Schema TestSchema() {
  return Schema({{"M", ValueType::kString},
                 {"i", ValueType::kInt64},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString}});
}

Value RandomValueFor(Rng& rng, ValueType type, bool allow_null,
                     bool allow_nan = true) {
  if (allow_null && rng.Bernoulli(0.12)) return Value::Null();
  switch (type) {
    case ValueType::kInt64:
      return Value(rng.Uniform(-20, 20));
    case ValueType::kDouble:
      if (allow_nan && rng.Bernoulli(0.05)) {
        return Value(std::numeric_limits<double>::quiet_NaN());
      }
      // Half-integral values so int64/double cross-equality actually fires.
      return Value(static_cast<double>(rng.Uniform(-40, 40)) / 2.0);
    case ValueType::kString:
      return Value("v" + std::to_string(rng.Uniform(0, 30)));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

Relation RandomRelation(Rng& rng, size_t rows) {
  const Schema schema = TestSchema();
  Relation rel(schema);
  for (size_t r = 0; r < rows; ++r) {
    Tuple t;
    t.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      t.push_back(RandomValueFor(rng, schema.column(c).type, /*allow_null=*/true));
    }
    rel.AppendUnchecked(std::move(t));
  }
  return rel;
}

/// A random constant that may deliberately mismatch the attribute's type —
/// exercising cross-type compare semantics (numeric promotion, type-rank
/// verdicts, NULL constants).
Value RandomConstant(Rng& rng, ValueType attr_type) {
  const double roll = rng.NextDouble();
  if (roll < 0.05) return Value::Null();
  if (roll < 0.25) {
    const ValueType other[] = {ValueType::kInt64, ValueType::kDouble,
                               ValueType::kString};
    return RandomValueFor(rng, other[rng.Uniform(0, 2)], /*allow_null=*/false);
  }
  return RandomValueFor(rng, attr_type, /*allow_null=*/false);
}

Condition RandomCondition(Rng& rng, const Schema& schema, int depth) {
  if (depth > 0 && rng.Bernoulli(0.55)) {
    switch (rng.Uniform(0, 2)) {
      case 0:
        return Condition::And(RandomCondition(rng, schema, depth - 1),
                              RandomCondition(rng, schema, depth - 1));
      case 1:
        return Condition::Or(RandomCondition(rng, schema, depth - 1),
                             RandomCondition(rng, schema, depth - 1));
      default:
        return Condition::Not(RandomCondition(rng, schema, depth - 1));
    }
  }
  const size_t attr_idx =
      static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(schema.num_columns()) - 1));
  const std::string& attr = schema.column(attr_idx).name;
  const ValueType attr_type = schema.column(attr_idx).type;
  switch (rng.Uniform(0, 4)) {
    case 0:
    case 1: {
      const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                               CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
      return Condition::Compare(attr, ops[rng.Uniform(0, 5)],
                                RandomConstant(rng, attr_type));
    }
    case 2:
      return Condition::Between(attr, RandomConstant(rng, attr_type),
                                RandomConstant(rng, attr_type));
    case 3: {
      std::vector<Value> set;
      const int64_t n = rng.Uniform(0, 4);
      for (int64_t i = 0; i < n; ++i) {
        set.push_back(RandomConstant(rng, attr_type));
      }
      return Condition::In(attr, std::move(set));
    }
    default:
      return rng.Bernoulli(0.5) ? Condition::True() : Condition::False();
  }
}

// ---------------------------------------------------------------------------
// Tentpole invariant: the batch evaluator is interchangeable with the row
// interpreter — byte-identical answers on every operation, every tree shape
// ---------------------------------------------------------------------------

TEST(ColumnarTest, RandomConditionsMatchRowPathOnAllOperations) {
  Rng rng(20260809);
  for (int trial = 0; trial < 60; ++trial) {
    const Relation rel = RandomRelation(rng, 40 + trial * 9);
    const Condition cond = RandomCondition(rng, rel.schema(), 3);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + cond.ToString());

    const auto row_sel = rel.Select(cond, EvalPath::kRow);
    const auto col_sel = rel.Select(cond, EvalPath::kColumnar);
    ASSERT_TRUE(row_sel.ok());
    ASSERT_TRUE(col_sel.ok());
    EXPECT_EQ(row_sel->ToString(), col_sel->ToString());

    const auto row_items = rel.SelectItems(cond, "M", EvalPath::kRow);
    const auto col_items = rel.SelectItems(cond, "M", EvalPath::kColumnar);
    ASSERT_TRUE(row_items.ok());
    ASSERT_TRUE(col_items.ok());
    EXPECT_EQ(row_items->ToString(), col_items->ToString());

    const auto row_count = rel.CountWhere(cond, EvalPath::kRow);
    const auto col_count = rel.CountWhere(cond, EvalPath::kColumnar);
    ASSERT_TRUE(row_count.ok());
    ASSERT_TRUE(col_count.ok());
    EXPECT_EQ(row_count.value(), col_count.value());

    // Semijoin with a candidate set drawn from the data (plus misses).
    std::vector<Value> cand;
    for (int i = 0; i < 12; ++i) {
      cand.push_back(rng.Bernoulli(0.7)
                         ? Value("v" + std::to_string(rng.Uniform(0, 30)))
                         : Value("miss" + std::to_string(i)));
    }
    const ItemSet candidates(std::move(cand));
    const auto row_sj = rel.SemiJoinItems(cond, "M", candidates, EvalPath::kRow);
    const auto col_sj =
        rel.SemiJoinItems(cond, "M", candidates, EvalPath::kColumnar);
    ASSERT_TRUE(row_sj.ok());
    ASSERT_TRUE(col_sj.ok());
    EXPECT_EQ(row_sj->ToString(), col_sj->ToString());
  }
}

TEST(ColumnarTest, IntMergeColumnItemsMatchRowPath) {
  // An int64 merge attribute: the batch path gathers raw integers into
  // int-form sets; answers must equal the row path's, for int-form
  // candidates and for Value-form ones whose doubles equal some ints.
  Rng rng(20261017);
  for (int trial = 0; trial < 60; ++trial) {
    const Relation rel = RandomRelation(rng, 40 + trial * 9);
    const Condition cond = RandomCondition(rng, rel.schema(), 3);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + cond.ToString());

    const auto row_items = rel.SelectItems(cond, "i", EvalPath::kRow);
    const auto col_items = rel.SelectItems(cond, "i", EvalPath::kColumnar);
    ASSERT_TRUE(row_items.ok());
    ASSERT_TRUE(col_items.ok());
    EXPECT_EQ(row_items->ToString(), col_items->ToString());
    EXPECT_TRUE(col_items->is_int64());

    std::vector<Value> ints, mixed;
    for (int i = 0; i < 12; ++i) {
      const Value v = RandomValueFor(rng, ValueType::kInt64,
                                     /*allow_null=*/false, /*allow_nan=*/false);
      ints.push_back(v);
      mixed.push_back(i % 3 == 0 ? Value(static_cast<double>(v.int64()))
                                 : v);
    }
    mixed.push_back(Value(0.5));
    for (const ItemSet& candidates :
         {ItemSet(std::move(ints)), ItemSet(std::move(mixed))}) {
      const auto row_sj =
          rel.SemiJoinItems(cond, "i", candidates, EvalPath::kRow);
      const auto col_sj =
          rel.SemiJoinItems(cond, "i", candidates, EvalPath::kColumnar);
      ASSERT_TRUE(row_sj.ok());
      ASSERT_TRUE(col_sj.ok());
      EXPECT_EQ(row_sj->ToString(), col_sj->ToString());
      EXPECT_TRUE(col_sj->is_int64());
    }
  }
}

TEST(ColumnarTest, NumericCrossTypeAndNaNEdgeCases) {
  Schema schema({{"M", ValueType::kString}, {"x", ValueType::kDouble}});
  Relation rel(schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  int id = 0;
  for (const double v : {0.0, -0.0, 1.0, 2.5, -3.0, nan, inf, -inf, 1e308}) {
    rel.AppendUnchecked({Value("m" + std::to_string(id++)), Value(v)});
  }
  rel.AppendUnchecked({Value("mnull"), Value::Null()});
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const Value consts[] = {Value(int64_t{1}),  Value(1.0),  Value(nan),
                          Value(int64_t{-3}), Value(-0.0), Value::Null(),
                          Value("1")};
  for (const CompareOp op : ops) {
    for (const Value& k : consts) {
      const Condition cond = Condition::Compare("x", op, k);
      SCOPED_TRACE(cond.ToString());
      const auto row = rel.SelectItems(cond, "M", EvalPath::kRow);
      const auto col = rel.SelectItems(cond, "M", EvalPath::kColumnar);
      ASSERT_TRUE(row.ok());
      ASSERT_TRUE(col.ok());
      EXPECT_EQ(row->ToString(), col->ToString());
      // NOT flips NULL rows to true in both evaluators.
      const Condition negated = Condition::Not(cond);
      const auto row_n = rel.SelectItems(negated, "M", EvalPath::kRow);
      const auto col_n = rel.SelectItems(negated, "M", EvalPath::kColumnar);
      ASSERT_TRUE(row_n.ok());
      ASSERT_TRUE(col_n.ok());
      EXPECT_EQ(row_n->ToString(), col_n->ToString());
    }
  }
}

TEST(ColumnarTest, StringDictionaryCompareAllOpsAbsentAndPresentConstants) {
  Schema schema({{"M", ValueType::kString}, {"s", ValueType::kString}});
  Relation rel(schema);
  int id = 0;
  for (const char* v : {"apple", "banana", "banana", "cherry", "date"}) {
    rel.AppendUnchecked({Value("m" + std::to_string(id++)), Value(v)});
  }
  rel.AppendUnchecked({Value("mnull"), Value::Null()});
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  // "" sorts before all, "az"/"bz" between dict entries, "zz" after all.
  for (const char* k : {"", "apple", "az", "banana", "bz", "date", "zz"}) {
    for (const CompareOp op : ops) {
      const Condition cond = Condition::Compare("s", op, Value(k));
      SCOPED_TRACE(cond.ToString());
      const auto row = rel.SelectItems(cond, "M", EvalPath::kRow);
      const auto col = rel.SelectItems(cond, "M", EvalPath::kColumnar);
      ASSERT_TRUE(row.ok());
      ASSERT_TRUE(col.ok());
      EXPECT_EQ(row->ToString(), col->ToString());
    }
  }
}

TEST(ColumnarTest, IllTypedRelationFallsBackToRowSemantics) {
  // AppendUnchecked lets a double sneak into a declared-int64 column; the
  // columnar build must fail (cached) and kColumnar silently use the row
  // path — same answers as kRow, no error.
  Schema schema({{"M", ValueType::kString}, {"i", ValueType::kInt64}});
  Relation rel(schema);
  rel.AppendUnchecked({Value("a"), Value(int64_t{1})});
  rel.AppendUnchecked({Value("b"), Value(2.5)});  // ill-typed
  rel.AppendUnchecked({Value("c"), Value(int64_t{3})});
  EXPECT_EQ(rel.columnar(), nullptr);
  const Condition cond = Condition::Compare("i", CompareOp::kGt, Value(1.0));
  const auto row = rel.SelectItems(cond, "M", EvalPath::kRow);
  const auto col = rel.SelectItems(cond, "M", EvalPath::kColumnar);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(row->ToString(), col->ToString());
  EXPECT_EQ(col->ToString(), "{'b', 'c'}");
  EXPECT_EQ(rel.columnar(), nullptr);  // build failure cached, not retried
}

TEST(ColumnarTest, UnknownAttributeErrorsMatchRowPath) {
  Rng rng(7);
  const Relation rel = RandomRelation(rng, 80);
  const Condition cond = Condition::Eq("nope", Value(int64_t{1}));
  const auto row = rel.Select(cond, EvalPath::kRow);
  const auto col = rel.Select(cond, EvalPath::kColumnar);
  ASSERT_FALSE(row.ok());
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(row.status().code(), col.status().code());
}

TEST(ColumnarTest, StalenessDetectedAfterAppend) {
  Rng rng(11);
  Relation rel = RandomRelation(rng, 100);
  const Condition cond = Condition::True();
  ASSERT_TRUE(rel.CountWhere(cond, EvalPath::kColumnar).ok());
  ASSERT_NE(rel.columnar(), nullptr);
  rel.AppendUnchecked({Value("zz"), Value(int64_t{5}), Value(1.0), Value("x")});
  EXPECT_EQ(rel.columnar(), nullptr);  // stale mirror not served
  const auto count = rel.CountWhere(cond, EvalPath::kColumnar);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 101u);  // rebuilt over the new row count
}

TEST(ColumnarTest, ConcurrentLazyBuildIsRaceFree) {
  // 8 threads race the first columnar scan of a shared relation; the build
  // must happen exactly once (or harmlessly more) with every thread seeing
  // the row-path answer. Run under the TSan matrix via the `concurrency`
  // ctest label.
  Rng rng(99);
  const Relation rel = RandomRelation(rng, 500);
  const Condition cond =
      Condition::Compare("i", CompareOp::kGe, Value(int64_t{0}));
  const auto expected = rel.SelectItems(cond, "M", EvalPath::kRow);
  ASSERT_TRUE(expected.ok());
  std::vector<std::thread> threads;
  std::vector<std::string> got(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto items = rel.SelectItems(cond, "M", EvalPath::kColumnar);
      got[t] = items.ok() ? items->ToString() : items.status().ToString();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& s : got) EXPECT_EQ(s, expected->ToString());
}

TEST(ColumnarTest, ApproxBytesGrowsWhenMirrorIsWarm) {
  Rng rng(5);
  const Relation rel = RandomRelation(rng, 200);
  const size_t cold = rel.ApproxBytes();
  rel.WarmColumnar();
  EXPECT_GT(rel.ApproxBytes(), cold);
}

// ---------------------------------------------------------------------------
// Equality-driven evaluation: `attr = k` conjunctions start from the
// constant's memoized row list instead of scanning every row
// ---------------------------------------------------------------------------

/// Low-cardinality flag columns with NULLs — the shape equality-driven
/// evaluation serves — plus an int merge column M (with a few NULLs), a
/// string merge column N and a double column with NaNs.
Schema FlagSchema() {
  return Schema({{"M", ValueType::kInt64},
                 {"N", ValueType::kString},
                 {"f0", ValueType::kInt64},
                 {"f1", ValueType::kInt64},
                 {"g0", ValueType::kString},
                 {"g1", ValueType::kString},
                 {"d", ValueType::kDouble}});
}

Relation RandomFlagRelation(Rng& rng, size_t rows) {
  Relation rel(FlagSchema());
  for (size_t r = 0; r < rows; ++r) {
    auto maybe_null = [&](Value v) {
      return rng.Bernoulli(0.1) ? Value::Null() : std::move(v);
    };
    const char* tags[] = {"a", "b", "c"};
    rel.AppendUnchecked(
        {maybe_null(Value(rng.Uniform(0, 200))),
         Value("n" + std::to_string(rng.Uniform(0, 150))),
         maybe_null(Value(rng.Uniform(0, 2))),
         maybe_null(Value(rng.Uniform(0, 2))),
         maybe_null(Value(tags[rng.Uniform(0, 2)])),
         maybe_null(Value(tags[rng.Uniform(0, 2)])),
         maybe_null(rng.Bernoulli(0.1)
                        ? Value(std::numeric_limits<double>::quiet_NaN())
                        : Value(static_cast<double>(rng.Uniform(0, 2))))});
  }
  return rel;
}

/// An equality atom on a flag column whose constant is present, absent,
/// cross-type (an int column against 1.0 or '1', a string column against
/// 1) or NaN on the double column.
Condition RandomEqualityAtom(Rng& rng) {
  switch (rng.Uniform(0, 7)) {
    case 0:
    case 1:
      return Condition::Eq(rng.Bernoulli(0.5) ? "f0" : "f1",
                           Value(rng.Uniform(0, 2)));
    case 2:
      return Condition::Eq("f0", Value(int64_t{7}));  // absent
    case 3:
      return Condition::Eq(rng.Bernoulli(0.5) ? "g0" : "g1",
                           Value(rng.Bernoulli(0.8) ? "b" : "zz"));
    case 4:
      return Condition::Eq("f1", rng.Bernoulli(0.5) ? Value(1.0) : Value("1"));
    case 5:
      return Condition::Eq("g0", Value(int64_t{1}));
    case 6:
      return Condition::Eq("d", Value(std::numeric_limits<double>::quiet_NaN()));
    default:
      return Condition::Eq("d", Value(1.0));
  }
}

/// Any other conjunct: a range on M, a NOT-equal, BETWEEN, IN, or a small
/// OR/NOT subtree (checked on the row list via a scanned bitmap).
Condition RandomOtherConjunct(Rng& rng) {
  switch (rng.Uniform(0, 5)) {
    case 0:
      return Condition::Compare("M", CompareOp::kLe, Value(rng.Uniform(0, 200)));
    case 1:
      return Condition::Compare("g1", CompareOp::kNe, Value("a"));
    case 2:
      return Condition::Between("M", Value(rng.Uniform(0, 100)),
                                Value(rng.Uniform(100, 200)));
    case 3:
      return Condition::In("f1", {Value(int64_t{0}), Value(2.0)});
    case 4:
      return Condition::Or(RandomEqualityAtom(rng), RandomEqualityAtom(rng));
    default:
      return Condition::Not(RandomEqualityAtom(rng));
  }
}

/// A random AND-tree of 1-4 conjuncts, at least one an equality atom; a
/// fifth of the trees are wrapped in OR/NOT, which must fall back to the
/// scan.
Condition RandomEqualityTree(Rng& rng) {
  Condition cond = RandomEqualityAtom(rng);
  const int64_t extra = rng.Uniform(0, 3);
  for (int64_t i = 0; i < extra; ++i) {
    const Condition next = rng.Bernoulli(0.3) ? RandomEqualityAtom(rng)
                                              : RandomOtherConjunct(rng);
    cond = rng.Bernoulli(0.5) ? Condition::And(cond, next)
                              : Condition::And(next, cond);
  }
  switch (rng.Uniform(0, 9)) {
    case 0:
      return Condition::Not(cond);
    case 1:
      return Condition::Or(cond, RandomEqualityAtom(rng));
    default:
      return cond;
  }
}

TEST(ColumnarTest, EqualityDrivenConjunctionsMatchRowPath) {
  Rng rng(20261019);
  for (int trial = 0; trial < 150; ++trial) {
    const Relation rel = RandomFlagRelation(rng, 64 + trial * 7);
    const Condition cond = RandomEqualityTree(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + cond.ToString());

    const auto row_sel = rel.Select(cond, EvalPath::kRow);
    const auto col_sel = rel.Select(cond, EvalPath::kColumnar);
    ASSERT_TRUE(row_sel.ok());
    ASSERT_TRUE(col_sel.ok());
    EXPECT_EQ(row_sel->ToString(), col_sel->ToString());

    for (const char* merge : {"M", "N"}) {
      const auto row_items = rel.SelectItems(cond, merge, EvalPath::kRow);
      const auto col_items = rel.SelectItems(cond, merge, EvalPath::kColumnar);
      ASSERT_TRUE(row_items.ok());
      ASSERT_TRUE(col_items.ok());
      EXPECT_EQ(row_items->ToString(), col_items->ToString());
    }

    const auto row_count = rel.CountWhere(cond, EvalPath::kRow);
    const auto col_count = rel.CountWhere(cond, EvalPath::kColumnar);
    ASSERT_TRUE(row_count.ok());
    ASSERT_TRUE(col_count.ok());
    EXPECT_EQ(row_count.value(), col_count.value());

    std::vector<int64_t> cand;
    for (int i = 0; i < 40; ++i) cand.push_back(rng.Uniform(0, 260));
    const ItemSet candidates = ItemSet::FromInts(std::move(cand));
    const auto row_sj =
        rel.SemiJoinItems(cond, "M", candidates, EvalPath::kRow);
    const auto col_sj =
        rel.SemiJoinItems(cond, "M", candidates, EvalPath::kColumnar);
    ASSERT_TRUE(row_sj.ok());
    ASSERT_TRUE(col_sj.ok());
    EXPECT_EQ(row_sj->ToString(), col_sj->ToString());
  }
}

TEST(ColumnarTest, EqualityDrivenPathEvaluatesOnlyTheRowList) {
  Rng rng(77);
  const Relation rel = RandomFlagRelation(rng, 2000);
  rel.WarmColumnar();
  const size_t warm_bytes = rel.ApproxBytes();
  const auto rows_for = [&](const Condition& cond) {
    const uint64_t before = GetColumnarEvalStats().rows_evaluated;
    EXPECT_TRUE(rel.CountWhere(cond, EvalPath::kColumnar).ok());
    return GetColumnarEvalStats().rows_evaluated - before;
  };
  for (const Condition& atom :
       {Condition::Eq("f0", Value(int64_t{1})), Condition::Eq("g1", Value("c"))}) {
    SCOPED_TRACE(atom.ToString());
    const size_t list = rel.CountWhere(atom, EvalPath::kRow).value();
    ASSERT_GT(list, 0u);
    ASSERT_LT(list, rel.size());
    // Driven: the row list's length, however many conjuncts follow.
    EXPECT_EQ(rows_for(atom), list);
    EXPECT_EQ(rows_for(Condition::And(
                  Condition::Compare("M", CompareOp::kLe, Value(int64_t{90})),
                  atom)),
              list);
    // An OR or NOT above the atom falls back to the full scan.
    EXPECT_EQ(rows_for(Condition::Not(Condition::Not(atom))), rel.size());
    EXPECT_EQ(rows_for(Condition::Or(atom, Condition::False())), rel.size());
  }
  // Cross-type and double-column equalities scan too.
  EXPECT_EQ(rows_for(Condition::Eq("f0", Value(1.0))), rel.size());
  EXPECT_EQ(rows_for(Condition::Eq("d", Value(1.0))), rel.size());
  // An absent string constant matches nothing and evaluates no row.
  EXPECT_EQ(rows_for(Condition::Eq("g0", Value("zz"))), 0u);
  // The memo grows with query history, so it must not move ApproxBytes
  // (byte-budgeted caches size entries from it).
  EXPECT_EQ(rel.ApproxBytes(), warm_bytes);
}

TEST(ColumnarTest, ConcurrentEqualityDrivenSelectsBuildEachListOnce) {
  // 8 threads query one fresh relation: each its own constant plus one that
  // every thread shares, on an int and a string column. Answers must equal
  // the serial row path's, and each constant's row list is built once. Runs
  // in the TSan matrix via the `concurrency` label.
  Rng rng(4242);
  Schema schema({{"M", ValueType::kInt64},
                 {"k", ValueType::kInt64},
                 {"s", ValueType::kString}});
  Relation rel(schema);
  for (int64_t r = 0; r < 4000; ++r) {
    rel.AppendUnchecked({Value(r), Value(rng.Uniform(0, 15)),
                         Value("s" + std::to_string(rng.Uniform(0, 15)))});
  }
  std::vector<Condition> conds;
  for (int t = 0; t < 8; ++t) {
    conds.push_back(Condition::Eq("k", Value(int64_t{t})));
    conds.push_back(Condition::Eq("s", Value("s" + std::to_string(t))));
  }
  std::vector<std::string> expected;
  for (const Condition& c : conds) {
    expected.push_back(rel.SelectItems(c, "M", EvalPath::kRow)->ToString());
  }
  const uint64_t built_before = GetColumnarEvalStats().row_lists_built;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::string>> got(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        // Own constants (distinct per thread), then the shared ones (k = 0,
        // s = 's0'), each in both columns.
        for (const size_t i : {size_t(2 * t), size_t(2 * t + 1), size_t{0},
                               size_t{1}}) {
          const auto items = rel.SelectItems(conds[i], "M");
          const std::string text =
              items.ok() ? items->ToString() : items.status().ToString();
          if (text != expected[i]) got[t].push_back(conds[i].ToString());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 8; ++t) {
    EXPECT_TRUE(got[t].empty()) << "thread " << t << " diverged on "
                                << got[t].front();
  }
  EXPECT_EQ(GetColumnarEvalStats().row_lists_built - built_before,
            conds.size());
}

// ---------------------------------------------------------------------------
// ItemSet: typed merge kernels vs std::set_* reference (satellite 5), plus
// the right-sizing (satellite 1) and in-place merge (satellite 2) fixes
// ---------------------------------------------------------------------------

/// Item pools exclude NaN: NaN breaks Value's strict weak order, so an
/// ItemSet built over it violates its own sorted-unique invariant (a
/// pre-existing pathology shared with the legacy merges) — set-op inputs are
/// contractually invariant-respecting.
std::vector<Value> RandomPool(Rng& rng, ValueType type, size_t n) {
  std::vector<Value> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(
        RandomValueFor(rng, type, /*allow_null=*/false, /*allow_nan=*/false));
  }
  return out;
}

void CheckSetOpsAgainstReference(const ItemSet& a, const ItemSet& b) {
  std::vector<Value> u, i, d;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(u));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  EXPECT_EQ(ItemSet::Union(a, b).ToString(),
            ItemSet::FromSortedUnique(u).ToString());
  EXPECT_EQ(ItemSet::Intersect(a, b).ToString(),
            ItemSet::FromSortedUnique(i).ToString());
  EXPECT_EQ(ItemSet::Difference(a, b).ToString(),
            ItemSet::FromSortedUnique(d).ToString());
  ItemSet acc = a;
  acc.UnionInPlace(b);
  EXPECT_EQ(acc.ToString(), ItemSet::FromSortedUnique(u).ToString());
}

TEST(ItemSetKernelTest, TypedAndMixedPoolsMatchReference) {
  Rng rng(31337);
  const ValueType types[] = {ValueType::kInt64, ValueType::kDouble,
                             ValueType::kString};
  for (int trial = 0; trial < 40; ++trial) {
    // Same-typed pools hit the decoded kernels...
    for (const ValueType t : types) {
      const ItemSet a(RandomPool(rng, t, 1 + trial % 17));
      const ItemSet b(RandomPool(rng, t, 1 + (trial * 7) % 23));
      CheckSetOpsAgainstReference(a, b);
    }
    // ...mixed pools take the generic path (int64/double cross-order).
    std::vector<Value> mixed_a = RandomPool(rng, ValueType::kInt64, 8);
    std::vector<Value> mixed_b = RandomPool(rng, ValueType::kDouble, 8);
    std::vector<Value> more = RandomPool(rng, ValueType::kDouble, 4);
    mixed_a.insert(mixed_a.end(), more.begin(), more.end());
    CheckSetOpsAgainstReference(ItemSet(std::move(mixed_a)),
                                ItemSet(std::move(mixed_b)));
  }
}

TEST(ItemSetKernelTest, EmptyOperandFastPaths) {
  const ItemSet empty;
  const ItemSet a(
      {Value(int64_t{3}), Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_EQ(ItemSet::Union(empty, a).ToString(), a.ToString());
  EXPECT_EQ(ItemSet::Union(a, empty).ToString(), a.ToString());
  EXPECT_EQ(ItemSet::Intersect(empty, a).ToString(), "{}");
  EXPECT_EQ(ItemSet::Difference(empty, a).ToString(), "{}");
  EXPECT_EQ(ItemSet::Difference(a, empty).ToString(), a.ToString());
}

TEST(ItemSetKernelTest, UnionResultIsRightSized) {
  // Satellite regression: Union used to reserve |a|+|b| and keep that
  // capacity forever, so heavily-overlapping merges wasted ~2x memory and
  // ApproxBytes (the cache's sizing input) over-reported. The merged set's
  // ApproxBytes must now be within one Value of its exact payload.
  std::vector<Value> av, bv;
  for (int64_t i = 0; i < 1000; ++i) {
    av.push_back(Value(i));
    bv.push_back(Value(i + 1));  // 999 shared, 1 fresh
  }
  const ItemSet a(std::move(av)), b(std::move(bv));
  const ItemSet u = ItemSet::Union(a, b);
  ASSERT_EQ(u.size(), 1001u);
  const size_t exact = sizeof(ItemSet) + u.size() * sizeof(Value);
  EXPECT_LE(u.ApproxBytes(), exact + sizeof(Value));
  // Intersect and Difference as well: no inherited over-capacity.
  const ItemSet inter = ItemSet::Intersect(a, b);
  EXPECT_LE(inter.ApproxBytes(),
            sizeof(ItemSet) + (inter.size() + 1) * sizeof(Value));
  const ItemSet diff = ItemSet::Difference(a, b);
  EXPECT_LE(diff.ApproxBytes(),
            sizeof(ItemSet) + (diff.size() + 1) * sizeof(Value));
}

TEST(ItemSetKernelTest, UnionInPlaceInterleavedAccumulation) {
  // Satellite regression: interleaved UnionInPlace used to degrade to a
  // full insert + inplace_merge + unique rebuild per call. Verify the
  // backward-merge rewrite stays correct across an adversarial interleaved
  // accumulation (odd/even stripes, duplicates, overlapping runs).
  ItemSet acc;
  std::set<int64_t> reference;
  Rng rng(404);
  for (int round = 0; round < 50; ++round) {
    std::vector<Value> piece;
    const int64_t start = rng.Uniform(0, 100);
    const int64_t step = 1 + rng.Uniform(0, 3);
    for (int64_t k = 0; k < 20; ++k) {
      const int64_t v = start + k * step;
      piece.push_back(Value(v));
      reference.insert(v);
    }
    acc.UnionInPlace(ItemSet(std::move(piece)));
    ASSERT_EQ(acc.size(), reference.size());
  }
  std::vector<Value> expected;
  for (const int64_t v : reference) expected.push_back(Value(v));
  EXPECT_EQ(acc.ToString(), ItemSet(std::move(expected)).ToString());
}

TEST(ItemSetKernelTest, UnionInPlaceAllDuplicateSuffixNoCorruption) {
  // The backward merge must terminate cleanly when every remaining element
  // of `other` is already present (w catches up to i — the self-move
  // hazard).
  ItemSet acc({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{5})});
  acc.UnionInPlace(ItemSet({Value(int64_t{1}), Value(int64_t{4})}));
  EXPECT_EQ(acc.ToString(), "{1, 2, 4, 5}");
  ItemSet again = acc;
  again.UnionInPlace(acc);  // pure duplicates: no fresh elements at all
  EXPECT_EQ(again.ToString(), "{1, 2, 4, 5}");
}

// ---------------------------------------------------------------------------
// ItemSet: UnionInPlace / UnionAll vs a generic Value reference merge
// ---------------------------------------------------------------------------

/// Value pools for the union differentials. kMixedNumeric draws int64s and
/// half-integral doubles from one range, so integral doubles equal to
/// int64s occur and the pools must take the generic merge.
enum class PoolKind { kInt64, kDouble, kString, kMixedNumeric };

constexpr PoolKind kPoolKinds[] = {PoolKind::kInt64, PoolKind::kDouble,
                                   PoolKind::kString, PoolKind::kMixedNumeric};

/// One value drawn from x in [lo, hi]; the value order follows x.
Value PoolValue(Rng& rng, PoolKind kind, int64_t lo, int64_t hi) {
  const int64_t x = rng.Uniform(lo, hi);
  switch (kind) {
    case PoolKind::kInt64:
      return Value(x);
    case PoolKind::kDouble:
      return Value(static_cast<double>(x) / 2.0);
    case PoolKind::kString: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "v%08lld", static_cast<long long>(x));
      return Value(buf);
    }
    case PoolKind::kMixedNumeric:
      return rng.Bernoulli(0.5) ? Value(x / 2)
                                : Value(static_cast<double>(x) / 2.0);
  }
  return Value::Null();
}

ItemSet PoolSet(Rng& rng, PoolKind kind, size_t n, int64_t lo, int64_t hi) {
  std::vector<Value> values;
  for (size_t i = 0; i < n; ++i) values.push_back(PoolValue(rng, kind, lo, hi));
  return ItemSet(std::move(values));
}

/// The generic reference: std::set_union over Value runs, folded left to
/// right, never touching the typed kernels.
ItemSet ReferenceUnion(const std::vector<ItemSet>& sets) {
  std::vector<Value> acc;
  for (const ItemSet& set : sets) {
    std::vector<Value> next;
    std::set_union(acc.begin(), acc.end(), set.begin(), set.end(),
                   std::back_inserter(next));
    acc = std::move(next);
  }
  return ItemSet::FromSortedUnique(std::move(acc));
}

ItemSet UnionAllOf(const std::vector<ItemSet>& sets) {
  std::vector<const ItemSet*> inputs;
  for (const ItemSet& set : sets) inputs.push_back(&set);
  return ItemSet::UnionAll(inputs);
}

TEST(ItemSetKernelTest, UnionAllMatchesGenericReference) {
  Rng rng(7301);
  for (const PoolKind kind : kPoolKinds) {
    for (int trial = 0; trial < 60; ++trial) {
      // 0..8 inputs of 0..30 items each: empty inputs and empty input
      // lists included.
      std::vector<ItemSet> sets(static_cast<size_t>(rng.Uniform(0, 8)));
      for (ItemSet& set : sets) {
        set = PoolSet(rng, kind, static_cast<size_t>(rng.Uniform(0, 30)), -40,
                      40);
      }
      EXPECT_EQ(UnionAllOf(sets).ToString(), ReferenceUnion(sets).ToString())
          << "kind " << static_cast<int>(kind) << " trial " << trial;
    }
  }
}

TEST(ItemSetKernelTest, UnionAllOfDuplicatesAndEmpties) {
  Rng rng(7302);
  for (const PoolKind kind : kPoolKinds) {
    const ItemSet base = PoolSet(rng, kind, 25, -40, 40);
    // k copies of one set, with empty sets around and between them.
    const std::vector<ItemSet> copies = {ItemSet(), base, base, ItemSet(),
                                         base, ItemSet()};
    EXPECT_EQ(UnionAllOf(copies).ToString(), base.ToString());
    EXPECT_EQ(UnionAllOf({ItemSet(), ItemSet()}).ToString(), "{}");
    EXPECT_EQ(UnionAllOf({}).ToString(), "{}");
    EXPECT_EQ(UnionAllOf({base}).ToString(), base.ToString());
  }
}

TEST(ItemSetKernelTest, UnionInPlaceMatchesGenericReference) {
  Rng rng(7303);
  for (const PoolKind kind : kPoolKinds) {
    for (const bool append_only : {false, true}) {
      // Interleaved pieces overlap one range; append-only pieces occupy
      // rising, disjoint ranges (the per-probe accumulation shape). Every
      // fourth piece repeats the one before it (all duplicates), and some
      // pieces are empty.
      ItemSet acc;
      std::vector<ItemSet> seen;
      for (int round = 0; round < 40; ++round) {
        ItemSet piece;
        if (round % 4 == 3) {
          piece = seen.back();
        } else if (append_only) {
          piece = PoolSet(rng, kind, static_cast<size_t>(rng.Uniform(0, 20)),
                          100 * round, 100 * round + 59);
        } else {
          piece = PoolSet(rng, kind, static_cast<size_t>(rng.Uniform(0, 20)),
                          -60, 60);
        }
        acc.UnionInPlace(piece);
        seen.push_back(std::move(piece));
        ASSERT_EQ(acc.ToString(), ReferenceUnion(seen).ToString())
            << "kind " << static_cast<int>(kind) << " append_only "
            << append_only << " round " << round;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ItemSet: int-form vs Value-form storage
// ---------------------------------------------------------------------------

/// Renders sorted Values the way ItemSet::ToString does, without building
/// an ItemSet: the reference side never picks a storage form.
std::string RenderValues(const std::vector<Value>& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].ToString();
  }
  return out + "}";
}

/// The canonical-form rule: int form exactly when every item is an int64.
bool IsCanonical(const ItemSet& set) {
  bool all_int = true;
  for (const Value& v : set) all_int = all_int && v.type() == ValueType::kInt64;
  return set.is_int64() == all_int;
}

TEST(ItemSetKernelTest, RepresentationDifferentialMatchesValueReference) {
  // Every pair of pool kinds, so int-form ⊕ int-form takes the raw kernels
  // and int-form ⊕ Value-form (strings, doubles, mixed numerics) the generic
  // path; every result must match a std:: algorithm over the Values and be
  // in canonical form.
  Rng rng(7401);
  for (const PoolKind ka : kPoolKinds) {
    for (const PoolKind kb : kPoolKinds) {
      for (int trial = 0; trial < 25; ++trial) {
        const ItemSet a =
            PoolSet(rng, ka, static_cast<size_t>(rng.Uniform(0, 25)), -30, 30);
        const ItemSet b =
            PoolSet(rng, kb, static_cast<size_t>(rng.Uniform(0, 25)), -30, 30);
        SCOPED_TRACE(a.ToString() + " op " + b.ToString());
        ASSERT_TRUE(IsCanonical(a));
        ASSERT_TRUE(IsCanonical(b));
        const std::vector<Value> av = a.ToValues();
        const std::vector<Value> bv = b.ToValues();
        std::vector<Value> u, i, d;
        std::set_union(av.begin(), av.end(), bv.begin(), bv.end(),
                       std::back_inserter(u));
        std::set_intersection(av.begin(), av.end(), bv.begin(), bv.end(),
                              std::back_inserter(i));
        std::set_difference(av.begin(), av.end(), bv.begin(), bv.end(),
                            std::back_inserter(d));

        ItemSet in_place = a;
        in_place.UnionInPlace(b);
        const std::pair<ItemSet, const std::vector<Value>*> results[] = {
            {ItemSet::Union(a, b), &u},
            {ItemSet::Intersect(a, b), &i},
            {ItemSet::Difference(a, b), &d},
            {ItemSet::UnionAll({&a, &b, &a}), &u},
            {std::move(in_place), &u},
        };
        for (const auto& [got, want] : results) {
          EXPECT_EQ(got.ToString(), RenderValues(*want));
          EXPECT_TRUE(IsCanonical(got)) << got.ToString();
        }

        EXPECT_EQ(a.IsSubsetOf(b),
                  std::includes(bv.begin(), bv.end(), av.begin(), av.end()));
        EXPECT_EQ(a == b, av.size() == bv.size() &&
                              std::equal(av.begin(), av.end(), bv.begin()));
        for (const Value& v : bv) {
          EXPECT_EQ(a.Contains(v), std::binary_search(av.begin(), av.end(), v))
              << v.ToString();
        }
      }
    }
  }
}

TEST(ItemSetKernelTest, CanonicalFormPinnedCases) {
  EXPECT_TRUE(ItemSet().is_int64());
  const ItemSet one_a({Value(int64_t{1}), Value("a")});
  EXPECT_FALSE(one_a.is_int64());
  // Dropping the last non-int64 item returns the set to int form.
  const ItemSet one = ItemSet::Difference(one_a, ItemSet({Value("a")}));
  EXPECT_TRUE(one.is_int64());
  EXPECT_EQ(one.ints(), std::vector<int64_t>{1});
  EXPECT_TRUE(ItemSet::Intersect(one_a, one).is_int64());
  // Value-built int sets sort and deduplicate as raw integers.
  const ItemSet built(
      std::vector<Value>{Value(int64_t{3}), Value(int64_t{1}), Value(int64_t{3})});
  EXPECT_TRUE(built.is_int64());
  EXPECT_EQ(built.ints(), (std::vector<int64_t>{1, 3}));
  EXPECT_TRUE(ItemSet::FromSortedUnique(
                  std::vector<Value>{Value(int64_t{1}), Value(int64_t{2})})
                  .is_int64());
  // {2} ∪ {2.0} keeps the int 2 (first operand wins on equal items).
  ItemSet two = ItemSet::FromInts({2});
  two.UnionInPlace(ItemSet({Value(2.0)}));
  EXPECT_TRUE(two.is_int64());
  EXPECT_EQ(two.ToString(), "{2}");
  // Of equal items in a Value vector, the first one is kept.
  EXPECT_TRUE(ItemSet({Value(int64_t{2}), Value(2.0)}).is_int64());
  EXPECT_FALSE(ItemSet({Value(2.0), Value(int64_t{2})}).is_int64());
}

TEST(ItemSetKernelTest, CrossTypeSemanticsPinnedCases) {
  const ItemSet int_two = ItemSet::FromInts({2});
  const ItemSet double_two({Value(2.0)});
  ASSERT_TRUE(int_two.is_int64());
  ASSERT_FALSE(double_two.is_int64());
  EXPECT_EQ(int_two, double_two);
  EXPECT_EQ(double_two, int_two);
  EXPECT_TRUE(int_two.Contains(Value(2.0)));
  EXPECT_FALSE(int_two.Contains(Value(2.5)));
  EXPECT_FALSE(int_two.Contains(Value("2")));
  EXPECT_TRUE(int_two.IsSubsetOf(double_two));

  ItemSet s = int_two;
  EXPECT_FALSE(s.Insert(Value(2.0)));  // equal to 2: unchanged
  EXPECT_TRUE(s.is_int64());
  EXPECT_TRUE(s.Insert(Value(2.5)));
  EXPECT_FALSE(s.is_int64());
  EXPECT_EQ(s.ToString(), "{2, 2.5}");
  EXPECT_TRUE(s.Insert(Value(int64_t{1})));
  EXPECT_FALSE(s.Insert(Value(int64_t{1})));
  EXPECT_EQ(s.ToString(), "{1, 2, 2.5}");
  EXPECT_NE(s, ItemSet::FromInts({1, 2}));
  EXPECT_TRUE(ItemSet::FromInts({1, 2}).IsSubsetOf(s));
}

TEST(ItemSetKernelTest, IntFormApproxBytesIsEightBytesPerItem) {
  for (const size_t n : {0, 1, 100, 5000}) {
    std::vector<int64_t> xs;
    for (size_t k = 0; k < n; ++k) xs.push_back(static_cast<int64_t>(3 * k));
    const ItemSet s = ItemSet::FromInts(xs);
    const ItemSet u = ItemSet::Union(s, ItemSet::FromInts({1, 4}));
    const ItemSet d = ItemSet::Difference(u, ItemSet::FromInts({0, 4}));
    const ItemSet all = ItemSet::UnionAll({&s, &u, &d});
    for (const ItemSet* set : {&s, &u, &d, &all}) {
      ASSERT_TRUE(set->is_int64());
      EXPECT_LE(set->ApproxBytes(),
                sizeof(ItemSet) + sizeof(int64_t) * set->ints().capacity());
    }
  }
  // A Value-form set of the same size is charged per Value.
  const ItemSet ints = ItemSet::FromInts({1, 2, 3});
  const ItemSet values({Value(int64_t{1}), Value(int64_t{2}), Value(3.5)});
  EXPECT_LT(ints.ApproxBytes(), values.ApproxBytes());
}

// ---------------------------------------------------------------------------
// Ledger fidelity: a columnar-warmed source meters exactly the same charges
// as an identical cold (row-path) twin
// ---------------------------------------------------------------------------

TEST(ColumnarTest, WarmedSourceMetersIdenticalCharges) {
  Rng rng(42);
  Relation rel = RandomRelation(rng, 300);
  SimulatedSource cold("s", rel, Capabilities{}, NetworkProfile{});
  SimulatedSource warm("s", rel, Capabilities{}, NetworkProfile{});
  warm.relation().WarmColumnar();

  for (int trial = 0; trial < 20; ++trial) {
    const Condition cond = RandomCondition(rng, rel.schema(), 2);
    SCOPED_TRACE(cond.ToString());
    CostLedger cold_ledger, warm_ledger;
    const auto cold_items = cold.Select(cond, "M", &cold_ledger);
    const auto warm_items = warm.Select(cond, "M", &warm_ledger);
    ASSERT_EQ(cold_items.ok(), warm_items.ok());
    if (!cold_items.ok()) continue;
    EXPECT_EQ(cold_items->ToString(), warm_items->ToString());
    ASSERT_EQ(cold_ledger.charges().size(), warm_ledger.charges().size());
    for (size_t i = 0; i < cold_ledger.charges().size(); ++i) {
      const Charge& a = cold_ledger.charges()[i];
      const Charge& b = warm_ledger.charges()[i];
      EXPECT_EQ(a.items_received, b.items_received);
      EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
      EXPECT_EQ(a.cost, b.cost);
      EXPECT_EQ(a.detail, b.detail);
    }
  }
}

}  // namespace
}  // namespace fusion
