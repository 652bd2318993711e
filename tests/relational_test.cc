#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "relational/column_index.h"
#include "relational/condition.h"
#include "relational/reference_evaluator.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "source/simulated_source.h"

namespace fusion {
namespace {

Schema DmvSchema() {
  return Schema({{"L", ValueType::kString},
                 {"V", ValueType::kString},
                 {"D", ValueType::kInt64}});
}

Relation Figure1R1() {
  Relation r(DmvSchema());
  EXPECT_TRUE(r.Append({Value("J55"), Value("dui"), Value(int64_t{1993})}).ok());
  EXPECT_TRUE(r.Append({Value("T21"), Value("sp"), Value(int64_t{1994})}).ok());
  EXPECT_TRUE(r.Append({Value("T80"), Value("dui"), Value(int64_t{1993})}).ok());
  return r;
}

// ---------------------------------------------------------------------------
// Schema / Tuple
// ---------------------------------------------------------------------------

TEST(SchemaTest, IndexLookup) {
  const Schema s = DmvSchema();
  EXPECT_EQ(*s.IndexOf("L"), 0u);
  EXPECT_EQ(*s.IndexOf("D"), 2u);
  EXPECT_FALSE(s.IndexOf("Z").ok());
  EXPECT_TRUE(s.HasColumn("V"));
  EXPECT_FALSE(s.HasColumn("v"));  // case-sensitive
}

TEST(SchemaTest, EqualityAndToString) {
  EXPECT_EQ(DmvSchema(), DmvSchema());
  EXPECT_NE(DmvSchema(), Schema({{"L", ValueType::kString}}));
  EXPECT_EQ(DmvSchema().ToString(), "(L:string, V:string, D:int64)");
}

TEST(SchemaTest, TupleValidation) {
  const Schema s = DmvSchema();
  EXPECT_TRUE(ValidateTuple(s, {Value("a"), Value("b"), Value(int64_t{1})}).ok());
  // NULLs allowed anywhere.
  EXPECT_TRUE(ValidateTuple(s, {Value(), Value(), Value()}).ok());
  // Arity mismatch.
  EXPECT_FALSE(ValidateTuple(s, {Value("a")}).ok());
  // Type mismatch.
  EXPECT_FALSE(
      ValidateTuple(s, {Value("a"), Value("b"), Value("not-an-int")}).ok());
}

// ---------------------------------------------------------------------------
// Condition construction & evaluation
// ---------------------------------------------------------------------------

TEST(ConditionTest, CompareEvaluation) {
  const Schema s = DmvSchema();
  const Tuple t = {Value("J55"), Value("dui"), Value(int64_t{1993})};
  EXPECT_TRUE(*Condition::Eq("V", Value("dui")).Evaluate(s, t));
  EXPECT_FALSE(*Condition::Eq("V", Value("sp")).Evaluate(s, t));
  EXPECT_TRUE(*Condition::Compare("D", CompareOp::kGe, Value(int64_t{1993}))
                   .Evaluate(s, t));
  EXPECT_FALSE(*Condition::Compare("D", CompareOp::kLt, Value(int64_t{1993}))
                    .Evaluate(s, t));
  EXPECT_TRUE(*Condition::Compare("V", CompareOp::kNe, Value("sp"))
                  .Evaluate(s, t));
}

TEST(ConditionTest, BetweenAndIn) {
  const Schema s = DmvSchema();
  const Tuple t = {Value("J55"), Value("dui"), Value(int64_t{1993})};
  EXPECT_TRUE(*Condition::Between("D", Value(int64_t{1990}),
                                  Value(int64_t{1995}))
                   .Evaluate(s, t));
  EXPECT_FALSE(*Condition::Between("D", Value(int64_t{1994}),
                                   Value(int64_t{1995}))
                    .Evaluate(s, t));
  EXPECT_TRUE(*Condition::In("V", {Value("dui"), Value("sp")}).Evaluate(s, t));
  EXPECT_FALSE(*Condition::In("V", {Value("sp")}).Evaluate(s, t));
}

TEST(ConditionTest, BooleanCombinators) {
  const Schema s = DmvSchema();
  const Tuple t = {Value("J55"), Value("dui"), Value(int64_t{1993})};
  const Condition dui = Condition::Eq("V", Value("dui"));
  const Condition recent =
      Condition::Compare("D", CompareOp::kGe, Value(int64_t{1995}));
  EXPECT_FALSE(*Condition::And(dui, recent).Evaluate(s, t));
  EXPECT_TRUE(*Condition::Or(dui, recent).Evaluate(s, t));
  EXPECT_FALSE(*Condition::Not(dui).Evaluate(s, t));
  EXPECT_TRUE(*Condition::True().Evaluate(s, t));
}

TEST(ConditionTest, NullNeverSatisfiesAtoms) {
  const Schema s = DmvSchema();
  const Tuple t = {Value("J55"), Value(), Value()};
  EXPECT_FALSE(*Condition::Eq("V", Value("dui")).Evaluate(s, t));
  EXPECT_FALSE(
      *Condition::Compare("D", CompareOp::kLt, Value(int64_t{2000}))
           .Evaluate(s, t));
  EXPECT_FALSE(*Condition::In("V", {Value("dui")}).Evaluate(s, t));
  // But NOT flips the false.
  EXPECT_TRUE(*Condition::Not(Condition::Eq("V", Value("dui"))).Evaluate(s, t));
}

TEST(ConditionTest, UnknownAttributeErrors) {
  const Schema s = DmvSchema();
  const Tuple t = {Value("a"), Value("b"), Value(int64_t{1})};
  EXPECT_FALSE(Condition::Eq("NOPE", Value("x")).Evaluate(s, t).ok());
  EXPECT_FALSE(Condition::Eq("NOPE", Value("x")).Validate(s).ok());
  EXPECT_TRUE(Condition::Eq("V", Value("x")).Validate(s).ok());
}

TEST(ConditionTest, ReferencedAttributes) {
  const Condition c = Condition::And(
      Condition::Eq("V", Value("dui")),
      Condition::Or(Condition::Eq("L", Value("x")),
                    Condition::Eq("V", Value("sp"))));
  const std::vector<std::string> attrs = c.ReferencedAttributes();
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0], "V");
  EXPECT_EQ(attrs[1], "L");
}

TEST(ConditionTest, ToStringRendering) {
  EXPECT_EQ(Condition::Eq("V", Value("dui")).ToString(), "V = 'dui'");
  EXPECT_EQ(Condition::Between("D", Value(int64_t{1}), Value(int64_t{2}))
                .ToString(),
            "D BETWEEN 1 AND 2");
  EXPECT_EQ(Condition::And(Condition::Eq("A", Value(int64_t{1})),
                           Condition::Eq("B", Value(int64_t{2})))
                .ToString(),
            "(A = 1 AND B = 2)");
}

TEST(ConditionTest, StructuralEquality) {
  EXPECT_TRUE(Condition::Eq("V", Value("dui"))
                  .Equals(Condition::Eq("V", Value("dui"))));
  EXPECT_FALSE(Condition::Eq("V", Value("dui"))
                   .Equals(Condition::Eq("V", Value("sp"))));
  EXPECT_TRUE(Condition::True().Equals(Condition()));
}

// ---------------------------------------------------------------------------
// Condition parsing
// ---------------------------------------------------------------------------

TEST(ConditionParseTest, SimpleComparisons) {
  const Schema s = DmvSchema();
  const Tuple t = {Value("J55"), Value("dui"), Value(int64_t{1993})};
  EXPECT_TRUE(*ParseCondition("V = 'dui'")->Evaluate(s, t));
  EXPECT_TRUE(*ParseCondition("D >= 1990")->Evaluate(s, t));
  EXPECT_TRUE(*ParseCondition("D <> 2000")->Evaluate(s, t));
  EXPECT_FALSE(*ParseCondition("D < 1993")->Evaluate(s, t));
}

TEST(ConditionParseTest, BetweenInNotParens) {
  const Schema s = DmvSchema();
  const Tuple t = {Value("J55"), Value("dui"), Value(int64_t{1993})};
  EXPECT_TRUE(*ParseCondition("D BETWEEN 1990 AND 1995")->Evaluate(s, t));
  EXPECT_TRUE(*ParseCondition("V IN ('dui', 'sp')")->Evaluate(s, t));
  EXPECT_TRUE(
      *ParseCondition("NOT (V = 'sp') AND (D = 1993 OR D = 1994)")
            ->Evaluate(s, t));
}

TEST(ConditionParseTest, PrecedenceAndBindsTighter) {
  // a OR b AND c parses as a OR (b AND c).
  const Condition c = *ParseCondition("V = 'x' OR V = 'dui' AND D = 1993");
  const Schema s = DmvSchema();
  EXPECT_TRUE(*c.Evaluate(s, {Value("a"), Value("dui"), Value(int64_t{1993})}));
  EXPECT_FALSE(
      *c.Evaluate(s, {Value("a"), Value("dui"), Value(int64_t{1999})}));
  EXPECT_TRUE(*c.Evaluate(s, {Value("a"), Value("x"), Value(int64_t{1999})}));
}

TEST(ConditionParseTest, QuotedStringEscapes) {
  const Condition c = *ParseCondition("V = 'it''s'");
  const Schema s = DmvSchema();
  EXPECT_TRUE(*c.Evaluate(s, {Value("a"), Value("it's"), Value(int64_t{1})}));
}

TEST(ConditionParseTest, NumericLiteralTypes) {
  const Condition ci = *ParseCondition("D = 3");
  const Condition cd = *ParseCondition("D = 3.5");
  EXPECT_EQ(ci.ToString(), "D = 3");
  EXPECT_EQ(cd.ToString(), "D = 3.5");
}

TEST(ConditionParseTest, Errors) {
  EXPECT_FALSE(ParseCondition("").ok());
  EXPECT_FALSE(ParseCondition("V =").ok());
  EXPECT_FALSE(ParseCondition("V = 'unterminated").ok());
  EXPECT_FALSE(ParseCondition("(V = 'x'").ok());
  EXPECT_FALSE(ParseCondition("V = 'x' extra").ok());
  EXPECT_FALSE(ParseCondition("V BETWEEN 1").ok());
  EXPECT_FALSE(ParseCondition("V IN (1,").ok());
}

// ---------------------------------------------------------------------------
// Relation operations
// ---------------------------------------------------------------------------

TEST(RelationTest, AppendValidates) {
  Relation r(DmvSchema());
  EXPECT_TRUE(r.Append({Value("a"), Value("b"), Value(int64_t{1})}).ok());
  EXPECT_FALSE(r.Append({Value("a")}).ok());
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, SelectFiltersTuples) {
  const Relation r1 = Figure1R1();
  const Relation dui = *r1.Select(Condition::Eq("V", Value("dui")));
  EXPECT_EQ(dui.size(), 2u);
  const Relation none = *r1.Select(Condition::Eq("V", Value("zzz")));
  EXPECT_TRUE(none.empty());
}

TEST(RelationTest, SelectItemsProjectsDistinctMergeValues) {
  const Relation r1 = Figure1R1();
  const ItemSet dui = *r1.SelectItems(Condition::Eq("V", Value("dui")), "L");
  EXPECT_EQ(dui.ToString(), "{'J55', 'T80'}");
  const ItemSet all = *r1.SelectItems(Condition::True(), "L");
  EXPECT_EQ(all.size(), 3u);
}

TEST(RelationTest, SelectItemsSkipsNullMergeValues) {
  Relation r(DmvSchema());
  ASSERT_TRUE(r.Append({Value(), Value("dui"), Value(int64_t{1})}).ok());
  ASSERT_TRUE(r.Append({Value("X1"), Value("dui"), Value(int64_t{1})}).ok());
  const ItemSet items = *r.SelectItems(Condition::Eq("V", Value("dui")), "L");
  EXPECT_EQ(items.size(), 1u);
}

TEST(RelationTest, SemiJoinItems) {
  const Relation r1 = Figure1R1();
  ItemSet candidates({Value("J55"), Value("T21"), Value("ZZZ")});
  const ItemSet sp =
      *r1.SemiJoinItems(Condition::Eq("V", Value("sp")), "L", candidates);
  EXPECT_EQ(sp.ToString(), "{'T21'}");
  // Semijoin result is always a subset of the candidates.
  EXPECT_TRUE(sp.IsSubsetOf(candidates));
}

TEST(RelationTest, CountWhere) {
  const Relation r1 = Figure1R1();
  EXPECT_EQ(*r1.CountWhere(Condition::Eq("V", Value("dui"))), 2u);
  EXPECT_EQ(*r1.CountWhere(Condition::True()), 3u);
}

TEST(RelationTest, UnionRequiresSameSchema) {
  const Relation r1 = Figure1R1();
  Relation other{Schema({{"X", ValueType::kInt64}})};
  EXPECT_FALSE(Relation::Union(r1, other).ok());
  const Relation u = *Relation::Union(r1, r1);
  EXPECT_EQ(u.size(), 6u);  // bag semantics
}

TEST(RelationTest, ToStringAligned) {
  const std::string s = Figure1R1().ToString();
  EXPECT_NE(s.find("L"), std::string::npos);
  EXPECT_NE(s.find("'J55'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CSV round trip
// ---------------------------------------------------------------------------

TEST(CsvTest, RoundTripPreservesData) {
  const Relation r1 = Figure1R1();
  const std::string csv = RelationToCsv(r1);
  const Relation back = *RelationFromCsv(csv);
  EXPECT_EQ(back.schema(), r1.schema());
  ASSERT_EQ(back.size(), r1.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(back.tuple(i), r1.tuple(i));
  }
}

TEST(CsvTest, HandlesNullsAndSpecialChars) {
  Relation r{Schema({{"M", ValueType::kInt64}, {"S", ValueType::kString}})};
  ASSERT_TRUE(r.Append({Value(int64_t{1}), Value("a,b")}).ok());
  ASSERT_TRUE(r.Append({Value(), Value("say \"hi\"")}).ok());
  const Relation back = *RelationFromCsv(RelationToCsv(r));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.tuple(0)[1], Value("a,b"));
  EXPECT_TRUE(back.tuple(1)[0].is_null());
  EXPECT_EQ(back.tuple(1)[1], Value("say \"hi\""));
}

TEST(CsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(RelationFromCsv("").ok());
  EXPECT_FALSE(RelationFromCsv("A\n1\n").ok());          // header missing type
  EXPECT_FALSE(RelationFromCsv("A:int64\nxyz\n").ok());  // bad int
  EXPECT_FALSE(RelationFromCsv("A:int64,B:string\n1\n").ok());  // arity
}

// ---------------------------------------------------------------------------
// Reference fusion evaluator
// ---------------------------------------------------------------------------

TEST(ReferenceEvaluatorTest, PaperExampleAnswer) {
  // Figure 1: drivers with both dui and sp across three DMVs -> {J55, T21}.
  const Relation r1 = Figure1R1();
  Relation r2(DmvSchema());
  ASSERT_TRUE(r2.Append({Value("T21"), Value("dui"), Value(int64_t{1996})}).ok());
  ASSERT_TRUE(r2.Append({Value("J55"), Value("sp"), Value(int64_t{1996})}).ok());
  ASSERT_TRUE(r2.Append({Value("T11"), Value("sp"), Value(int64_t{1993})}).ok());
  Relation r3(DmvSchema());
  ASSERT_TRUE(r3.Append({Value("T21"), Value("sp"), Value(int64_t{1993})}).ok());
  ASSERT_TRUE(r3.Append({Value("S07"), Value("sp"), Value(int64_t{1996})}).ok());
  ASSERT_TRUE(r3.Append({Value("S07"), Value("sp"), Value(int64_t{1993})}).ok());

  const ItemSet answer = *ReferenceFusionAnswer(
      {&r1, &r2, &r3}, "L",
      {Condition::Eq("V", Value("dui")), Condition::Eq("V", Value("sp"))});
  EXPECT_EQ(answer.ToString(), "{'J55', 'T21'}");
}

TEST(ReferenceEvaluatorTest, SingleConditionIsUnionOfSources) {
  const Relation r1 = Figure1R1();
  const ItemSet answer = *ReferenceFusionAnswer(
      {&r1}, "L", {Condition::Eq("V", Value("dui"))});
  EXPECT_EQ(answer.ToString(), "{'J55', 'T80'}");
}

TEST(ReferenceEvaluatorTest, ErrorsOnEmptyInputs) {
  const Relation r1 = Figure1R1();
  EXPECT_FALSE(ReferenceFusionAnswer({}, "L", {Condition::True()}).ok());
  EXPECT_FALSE(ReferenceFusionAnswer({&r1}, "L", {}).ok());
}

TEST(ReferenceEvaluatorTest, ConditionsMaySatisfyAtDifferentSources) {
  // Entity 1 satisfies c1 only at rA and c2 only at rB: still an answer.
  const Schema s({{"M", ValueType::kInt64},
                  {"A", ValueType::kInt64},
                  {"B", ValueType::kInt64}});
  Relation ra(s), rb(s);
  ASSERT_TRUE(ra.Append({Value(int64_t{1}), Value(int64_t{1}),
                         Value(int64_t{0})}).ok());
  ASSERT_TRUE(rb.Append({Value(int64_t{1}), Value(int64_t{0}),
                         Value(int64_t{1})}).ok());
  const ItemSet answer = *ReferenceFusionAnswer(
      {&ra, &rb}, "M",
      {Condition::Eq("A", Value(int64_t{1})),
       Condition::Eq("B", Value(int64_t{1}))});
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains(Value(int64_t{1})));
}

// ---------------------------------------------------------------------------
// Condition simplification
// ---------------------------------------------------------------------------

TEST(ConditionSimplifyTest, AtomsPassThrough) {
  EXPECT_EQ(Condition::Eq("V", Value("dui")).Simplified().ToString(),
            "V = 'dui'");
  EXPECT_TRUE(Condition::True().Simplified().IsTrue());
  EXPECT_TRUE(Condition::False().Simplified().IsFalse());
}

TEST(ConditionSimplifyTest, TrueFalsePropagation) {
  const Condition atom = Condition::Eq("V", Value("dui"));
  EXPECT_EQ(Condition::And(atom, Condition::True()).Simplified().ToString(),
            "V = 'dui'");
  EXPECT_TRUE(
      Condition::And(atom, Condition::False()).Simplified().IsFalse());
  EXPECT_TRUE(Condition::Or(atom, Condition::True()).Simplified().IsTrue());
  EXPECT_EQ(Condition::Or(atom, Condition::False()).Simplified().ToString(),
            "V = 'dui'");
}

TEST(ConditionSimplifyTest, NegationRules) {
  const Condition atom = Condition::Eq("V", Value("dui"));
  EXPECT_TRUE(Condition::Not(Condition::True()).Simplified().IsFalse());
  EXPECT_TRUE(Condition::Not(Condition::False()).Simplified().IsTrue());
  EXPECT_EQ(Condition::Not(Condition::Not(atom)).Simplified().ToString(),
            "V = 'dui'");
}

TEST(ConditionSimplifyTest, FlattenDedupAndSort) {
  const Condition a = Condition::Eq("B", Value(int64_t{2}));
  const Condition b = Condition::Eq("A", Value(int64_t{1}));
  const Condition nested =
      Condition::And(Condition::And(a, b), Condition::And(b, a));
  EXPECT_EQ(nested.Simplified().ToString(), "(A = 1 AND B = 2)");
}

TEST(ConditionSimplifyTest, ConjunctionContradictions) {
  // Two different equalities on the same attribute.
  EXPECT_TRUE(Condition::And(Condition::Eq("V", Value("dui")),
                             Condition::Eq("V", Value("sp")))
                  .Simplified()
                  .IsFalse());
  // Equality outside a BETWEEN on the same attribute.
  EXPECT_TRUE(Condition::And(
                  Condition::Eq("D", Value(int64_t{2000})),
                  Condition::Between("D", Value(int64_t{1990}),
                                     Value(int64_t{1995})))
                  .Simplified()
                  .IsFalse());
  // Equality not contained in an IN on the same attribute.
  EXPECT_TRUE(Condition::And(Condition::Eq("V", Value("dui")),
                             Condition::In("V", {Value("sp"), Value("x")}))
                  .Simplified()
                  .IsFalse());
  // Consistent combinations survive.
  EXPECT_FALSE(Condition::And(Condition::Eq("V", Value("dui")),
                              Condition::In("V", {Value("dui"), Value("sp")}))
                   .Simplified()
                   .IsFalse());
}

TEST(ConditionSimplifyTest, DegenerateAtoms) {
  EXPECT_TRUE(Condition::In("V", {}).Simplified().IsFalse());
  EXPECT_EQ(Condition::In("V", {Value("x")}).Simplified().ToString(),
            "V = 'x'");
  EXPECT_TRUE(Condition::Between("D", Value(int64_t{5}), Value(int64_t{1}))
                  .Simplified()
                  .IsFalse());
  EXPECT_EQ(Condition::Between("D", Value(int64_t{5}), Value(int64_t{5}))
                .Simplified()
                .ToString(),
            "D = 5");
  // IN dedups and sorts.
  EXPECT_EQ(Condition::In("V", {Value("b"), Value("a"), Value("b")})
                .Simplified()
                .ToString(),
            "V IN ('a', 'b')");
}

TEST(ConditionSimplifyTest, DisjunctionOfEqualitiesBecomesIn) {
  const Condition c = Condition::Or(
      Condition::Eq("V", Value("sp")),
      Condition::Or(Condition::Eq("V", Value("dui")),
                    Condition::Eq("V", Value("sp"))));
  EXPECT_EQ(c.Simplified().ToString(), "V IN ('dui', 'sp')");
}

TEST(ConditionSimplifyTest, PreservesSemanticsOnRandomData) {
  // Property: simplified conditions evaluate identically on random tuples.
  const Schema s({{"A", ValueType::kInt64}, {"B", ValueType::kInt64}});
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    // Random small condition tree.
    std::function<Condition(int)> random_cond = [&](int depth) -> Condition {
      const int64_t pick = rng.Uniform(0, depth > 2 ? 3 : 5);
      const std::string attr = rng.Bernoulli(0.5) ? "A" : "B";
      switch (pick) {
        case 0:
          return Condition::Eq(attr, Value(rng.Uniform(0, 3)));
        case 1:
          return Condition::Between(attr, Value(rng.Uniform(0, 3)),
                                    Value(rng.Uniform(0, 3)));
        case 2:
          return Condition::In(attr, {Value(rng.Uniform(0, 3)),
                                      Value(rng.Uniform(0, 3))});
        case 3:
          return rng.Bernoulli(0.5) ? Condition::True() : Condition::False();
        case 4:
          return Condition::Not(random_cond(depth + 1));
        default:
          return rng.Bernoulli(0.5)
                     ? Condition::And(random_cond(depth + 1),
                                      random_cond(depth + 1))
                     : Condition::Or(random_cond(depth + 1),
                                     random_cond(depth + 1));
      }
    };
    const Condition original = random_cond(0);
    const Condition simplified = original.Simplified();
    for (int i = 0; i < 10; ++i) {
      const Tuple t = {Value(rng.Uniform(0, 3)), Value(rng.Uniform(0, 3))};
      EXPECT_EQ(*original.Evaluate(s, t), *simplified.Evaluate(s, t))
          << original.ToString() << "  vs  " << simplified.ToString();
    }
  }
}

TEST(ConditionSimplifyTest, CanonicalConditionTextIsItsCacheKey) {
  // The session renders a canonical query's conditions once and uses the
  // text as each condition's cache key, which holds only while a
  // Simplified() condition renders exactly as its CacheKey().
  Rng rng(78);
  const char* const kAttrs[] = {"A", "B", "V"};
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  auto constant = [&]() -> Value {
    switch (rng.Uniform(0, 2)) {
      case 0:
        return Value(rng.Uniform(0, 4));
      case 1:
        return Value(static_cast<double>(rng.Uniform(0, 8)) / 2.0);
      default:
        return Value(
            std::string(1, static_cast<char>('a' + rng.Uniform(0, 3))));
    }
  };
  std::function<Condition(int)> random_cond = [&](int depth) -> Condition {
    const std::string attr = kAttrs[rng.Uniform(0, 2)];
    switch (rng.Uniform(0, depth > 2 ? 3 : 6)) {
      case 0:
        return Condition::Compare(attr, kOps[rng.Uniform(0, 5)], constant());
      case 1:
        return Condition::Between(attr, constant(), constant());
      case 2:
        return Condition::In(attr, {constant(), constant(), constant()});
      case 3:
        return rng.Bernoulli(0.5) ? Condition::True() : Condition::False();
      case 4:
        return Condition::Not(random_cond(depth + 1));
      default:
        return rng.Bernoulli(0.5)
                   ? Condition::And(random_cond(depth + 1),
                                    random_cond(depth + 1))
                   : Condition::Or(random_cond(depth + 1),
                                   random_cond(depth + 1));
    }
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const Condition canonical = random_cond(0).Simplified();
    EXPECT_EQ(canonical.ToString(), canonical.CacheKey());
  }
}

TEST(ConditionSimplifyTest, IdempotentAndParsesFalse) {
  const Condition c =
      Condition::And(Condition::Eq("A", Value(int64_t{1})),
                     Condition::Or(Condition::Eq("B", Value(int64_t{2})),
                                   Condition::Eq("B", Value(int64_t{3}))));
  const Condition once = c.Simplified();
  EXPECT_TRUE(once.Simplified().Equals(once));
  // FALSE round-trips through the parser.
  const auto parsed = ParseCondition("FALSE");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->IsFalse());
}


// ---------------------------------------------------------------------------
// ColumnIndex
// ---------------------------------------------------------------------------

TEST(ColumnIndexTest, LooksUpRowsByValue) {
  const Relation r1 = Figure1R1();
  const auto index = ColumnIndex::Build(r1, "L");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->distinct_values(), 3u);
  const std::vector<size_t>* rows = index->Rows(Value("J55"));
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(*rows, std::vector<size_t>{0});
  EXPECT_EQ(index->Rows(Value("NOPE")), nullptr);
}

TEST(ColumnIndexTest, GroupsDuplicatesAndSkipsNulls) {
  Relation r(DmvSchema());
  ASSERT_TRUE(r.Append({Value("A"), Value("x"), Value(int64_t{1})}).ok());
  ASSERT_TRUE(r.Append({Value(), Value("x"), Value(int64_t{2})}).ok());
  ASSERT_TRUE(r.Append({Value("A"), Value("y"), Value(int64_t{3})}).ok());
  const auto index = ColumnIndex::Build(r, "L");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->distinct_values(), 1u);
  const std::vector<size_t>* rows = index->Rows(Value("A"));
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(*rows, (std::vector<size_t>{0, 2}));
}

TEST(ColumnIndexTest, RejectsUnknownColumn) {
  EXPECT_FALSE(ColumnIndex::Build(Figure1R1(), "Z").ok());
}

TEST(SemiJoinTest, NativeSemijoinMatchesFullScanWithIdenticalCharges) {
  // Property: SimulatedSource::SemiJoin (columnar, equality-driven where
  // the condition allows) returns what a full row scan of
  // Relation::SemiJoinItems returns, and meters the charge that result
  // implies — on relations below and above the columnar threshold, with
  // NULLs in the merge and flag columns.
  Rng rng(123);
  const Schema schema({{"M", ValueType::kInt64}, {"F", ValueType::kInt64}});
  for (int trial = 0; trial < 40; ++trial) {
    Relation r(schema);
    const int rows = static_cast<int>(rng.Uniform(0, 300));
    for (int i = 0; i < rows; ++i) {
      r.AppendUnchecked(
          {rng.Bernoulli(0.05) ? Value::Null() : Value(rng.Uniform(0, 120)),
           rng.Bernoulli(0.05) ? Value::Null() : Value(rng.Uniform(0, 1))});
    }
    std::vector<Value> candidate_values;
    const int k = static_cast<int>(rng.Uniform(0, 60));
    for (int i = 0; i < k; ++i) {
      candidate_values.push_back(Value(rng.Uniform(0, 140)));
    }
    const ItemSet candidates(std::move(candidate_values));
    const Condition flag = Condition::Eq("F", Value(int64_t{1}));
    const Condition cond =
        trial % 3 == 0 ? flag
        : trial % 3 == 1
            ? Condition::And(flag, Condition::Compare("M", CompareOp::kLe,
                                                      Value(int64_t{80})))
            : Condition::Or(flag, Condition::Eq("M", Value(int64_t{3})));
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + cond.ToString());
    const ItemSet scan =
        *r.SemiJoinItems(cond, "M", candidates, EvalPath::kRow);

    Capabilities caps;
    caps.semijoin = SemijoinSupport::kNative;
    SimulatedSource source("R", r, caps, NetworkProfile{});
    CostLedger ledger;
    const auto native = source.SemiJoin(cond, "M", candidates, &ledger);
    ASSERT_TRUE(native.ok());
    EXPECT_EQ(*native, scan);
    ASSERT_EQ(ledger.charges().size(), 1u);
    const Charge& charge = ledger.charges()[0];
    EXPECT_EQ(charge.items_sent, candidates.size());
    EXPECT_EQ(charge.items_received, scan.size());
    EXPECT_EQ(charge.tuples_scanned, r.size());
    EXPECT_EQ(charge.cost, source.SemiJoinCost(candidates.size(), scan.size()));
    EXPECT_EQ(charge.detail, cond.ToString());
  }
}

TEST(ConditionSimplifyTest, RangeFoldingTightensIntervals) {
  // D >= 1990 AND D <= 1995 AND D BETWEEN 1992 AND 1999 → D BETWEEN 1992 AND 1995.
  const Condition c = Condition::And(
      Condition::And(
          Condition::Compare("D", CompareOp::kGe, Value(int64_t{1990})),
          Condition::Compare("D", CompareOp::kLe, Value(int64_t{1995}))),
      Condition::Between("D", Value(int64_t{1992}), Value(int64_t{1999})));
  EXPECT_EQ(c.Simplified().ToString(), "D BETWEEN 1992 AND 1995");
}

TEST(ConditionSimplifyTest, RangeFoldingDetectsEmptyIntervals) {
  // D > 5 AND D < 5 is empty; so is D >= 5 AND D < 5.
  EXPECT_TRUE(Condition::And(
                  Condition::Compare("D", CompareOp::kGt, Value(int64_t{5})),
                  Condition::Compare("D", CompareOp::kLt, Value(int64_t{5})))
                  .Simplified()
                  .IsFalse());
  EXPECT_TRUE(Condition::And(
                  Condition::Compare("D", CompareOp::kGe, Value(int64_t{5})),
                  Condition::Compare("D", CompareOp::kLt, Value(int64_t{5})))
                  .Simplified()
                  .IsFalse());
}

TEST(ConditionSimplifyTest, RangeFoldingCollapsesToEquality) {
  const Condition c = Condition::And(
      Condition::Compare("D", CompareOp::kGe, Value(int64_t{7})),
      Condition::Compare("D", CompareOp::kLe, Value(int64_t{7})));
  EXPECT_EQ(c.Simplified().ToString(), "D = 7");
}

TEST(ConditionSimplifyTest, RangeFoldingKeepsStrictBounds) {
  const Condition c = Condition::And(
      Condition::Compare("D", CompareOp::kGt, Value(int64_t{3})),
      Condition::Compare("D", CompareOp::kLe, Value(int64_t{9})));
  EXPECT_EQ(c.Simplified().ToString(), "(D <= 9 AND D > 3)");
}

TEST(ConditionSimplifyTest, RangeFoldingSkipsMixedTypesAndNe) {
  // Mixed numeric/string constants on one attribute: left untouched.
  const Condition mixed = Condition::And(
      Condition::Compare("V", CompareOp::kGe, Value("a")),
      Condition::Compare("V", CompareOp::kLe, Value(int64_t{5})));
  EXPECT_FALSE(mixed.Simplified().IsFalse());
  // != atoms are preserved verbatim next to a folded range.
  const Condition with_ne = Condition::And(
      Condition::And(
          Condition::Compare("D", CompareOp::kGe, Value(int64_t{1})),
          Condition::Compare("D", CompareOp::kLe, Value(int64_t{9}))),
      Condition::Compare("D", CompareOp::kNe, Value(int64_t{4})));
  const std::string text = with_ne.Simplified().ToString();
  EXPECT_NE(text.find("D != 4"), std::string::npos);
  EXPECT_NE(text.find("D BETWEEN 1 AND 9"), std::string::npos);
}

TEST(ConditionSimplifyTest, RangeFoldingSemanticsPreserved) {
  const Schema s({{"D", ValueType::kInt64}});
  Rng rng(321);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Condition> atoms;
    const int k = 2 + static_cast<int>(rng.Uniform(0, 2));
    for (int i = 0; i < k; ++i) {
      const int64_t v = rng.Uniform(0, 10);
      switch (rng.Uniform(0, 4)) {
        case 0:
          atoms.push_back(Condition::Compare("D", CompareOp::kGe, Value(v)));
          break;
        case 1:
          atoms.push_back(Condition::Compare("D", CompareOp::kLe, Value(v)));
          break;
        case 2:
          atoms.push_back(Condition::Compare("D", CompareOp::kGt, Value(v)));
          break;
        case 3:
          atoms.push_back(Condition::Compare("D", CompareOp::kLt, Value(v)));
          break;
        default:
          atoms.push_back(
              Condition::Between("D", Value(v), Value(v + 3)));
          break;
      }
    }
    Condition all = atoms[0];
    for (size_t i = 1; i < atoms.size(); ++i) {
      all = Condition::And(all, atoms[i]);
    }
    const Condition simplified = all.Simplified();
    for (int64_t d = -1; d <= 11; ++d) {
      const Tuple t = {Value(d)};
      EXPECT_EQ(*all.Evaluate(s, t), *simplified.Evaluate(s, t))
          << all.ToString() << " vs " << simplified.ToString() << " at d="
          << d;
    }
  }
}

}  // namespace
}  // namespace fusion
