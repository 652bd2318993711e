// Golden tests: exact textual form of the plans the structured builder
// produces for the paper's Figure 2 and Figure 5 shapes. These lock both
// the builder's op layout and the printer's paper notation — a change that
// shuffles steps or renames variables should be a conscious decision. The
// ledger goldens lock lazy execution's charge order: a demanded op books
// its charges before the op that demanded it.
#include <gtest/gtest.h>

#include "cost/oracle_cost_model.h"
#include "cost/parametric_cost_model.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "optimizer/postopt.h"
#include "workload/dmv.h"

namespace fusion {
namespace {

ParametricCostModel Model(size_t m, size_t n) {
  SourceParams p;
  p.capabilities.semijoin = SemijoinSupport::kNative;
  p.cardinality = 100;
  p.result_size.assign(m, 10.0);
  std::vector<SourceParams> params(n, p);
  return ParametricCostModel(std::move(params), 1000);
}

TEST(GoldenPlanTest, Figure2aFilterPlan) {
  const ParametricCostModel model = Model(3, 2);
  const ConditionOrderPlan s = MakeStructure({0, 1, 2}, 2);
  const auto built = BuildStructuredPlan(model, s, {}, false);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->plan.ToString(),
            " 1) X11 := sq(c1, R1)\n"
            " 2) X12 := sq(c1, R2)\n"
            " 3) X1 := X11 ∪ X12\n"
            " 4) X21 := sq(c2, R1)\n"
            " 5) X22 := sq(c2, R2)\n"
            " 6) U2 := X21 ∪ X22\n"
            " 7) X2 := X1 ∩ U2\n"
            " 8) X31 := sq(c3, R1)\n"
            " 9) X32 := sq(c3, R2)\n"
            "10) U3 := X31 ∪ X32\n"
            "11) X3 := X2 ∩ U3\n"
            "result: X3\n");
}

TEST(GoldenPlanTest, Figure2bSemijoinPlan) {
  const ParametricCostModel model = Model(3, 2);
  ConditionOrderPlan s = MakeStructure({0, 1, 2}, 2);
  s.use_semijoin[1] = {true, true};
  const auto built = BuildStructuredPlan(model, s, {}, false);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->plan.ToString(),
            " 1) X11 := sq(c1, R1)\n"
            " 2) X12 := sq(c1, R2)\n"
            " 3) X1 := X11 ∪ X12\n"
            " 4) X21 := sjq(c2, R1, X1)\n"
            " 5) X22 := sjq(c2, R2, X1)\n"
            " 6) X2 := X21 ∪ X22\n"
            " 7) X31 := sq(c3, R1)\n"
            " 8) X32 := sq(c3, R2)\n"
            " 9) U3 := X31 ∪ X32\n"
            "10) X3 := X2 ∩ U3\n"
            "result: X3\n");
}

TEST(GoldenPlanTest, Figure2cSemijoinAdaptivePlan) {
  const ParametricCostModel model = Model(3, 2);
  ConditionOrderPlan s = MakeStructure({0, 1, 2}, 2);
  s.use_semijoin[1] = {true, false};  // sjq at R1, sq at R2
  const auto built = BuildStructuredPlan(model, s, {}, false);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->plan.ToString(),
            " 1) X11 := sq(c1, R1)\n"
            " 2) X12 := sq(c1, R2)\n"
            " 3) X1 := X11 ∪ X12\n"
            " 4) X22 := sq(c2, R2)\n"
            " 5) X21 := sjq(c2, R1, X1)\n"
            " 6) U2 := X22 ∪ X21\n"
            " 7) X2 := X1 ∩ U2\n"
            " 8) X31 := sq(c3, R1)\n"
            " 9) X32 := sq(c3, R2)\n"
            "10) U3 := X31 ∪ X32\n"
            "11) X3 := X2 ∩ U3\n"
            "result: X3\n");
}

TEST(GoldenPlanTest, Figure5LoadingAndDifference) {
  const ParametricCostModel model = Model(2, 3);
  ConditionOrderPlan s = MakeStructure({0, 1}, 3);
  s.use_semijoin[1] = {false, true, false};
  const auto built = BuildStructuredPlan(model, s, {false, false, true},
                                         /*use_difference=*/true);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->plan.ToString(),
            " 1) Y3 := lq(R3)\n"
            " 2) X11 := sq(c1, R1)\n"
            " 3) X12 := sq(c1, R2)\n"
            " 4) X13 := sq(c1, Y3)\n"
            " 5) X1 := X11 ∪ X12 ∪ X13\n"
            " 6) X21 := sq(c2, R1)\n"
            " 7) X23 := sq(c2, Y3)\n"
            " 8) U2 := X21 ∪ X23\n"
            " 9) C2 := X1 ∩ U2\n"
            "10) P2 := X1 − C2\n"
            "11) X22 := sjq(c2, R2, P2)\n"
            "12) X2 := C2 ∪ X22\n"
            "result: X2\n");
}

TEST(GoldenPlanTest, PureSemijoinDifferenceChain) {
  const ParametricCostModel model = Model(2, 3);
  ConditionOrderPlan s = MakeStructure({0, 1}, 3);
  s.use_semijoin[1] = {true, true, true};
  const auto built = BuildStructuredPlan(model, s, {}, true);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->plan.ToString(),
            " 1) X11 := sq(c1, R1)\n"
            " 2) X12 := sq(c1, R2)\n"
            " 3) X13 := sq(c1, R3)\n"
            " 4) X1 := X11 ∪ X12 ∪ X13\n"
            " 5) X21 := sjq(c2, R1, X1)\n"
            " 6) P2_2 := X1 − X21\n"
            " 7) X22 := sjq(c2, R2, P2_2)\n"
            " 8) P2_3 := P2_2 − X22\n"
            " 9) X23 := sjq(c2, R3, P2_3)\n"
            "10) X2 := X21 ∪ X22 ∪ X23\n"
            "result: X2\n");
}

TEST(GoldenPlanTest, QueryToSqlGolden) {
  // Printed SQL locks the paper's query form.
  const ParametricCostModel model = Model(1, 1);
  (void)model;
  Plan plan;
  const int a = plan.EmitSelect(0, 0, "X11");
  plan.SetResult(a);
  PlanPrintNames names;
  names.conditions = {"V = 'dui'"};
  names.sources = {"CA"};
  EXPECT_EQ(plan.ToString(names),
            " 1) X11 := sq(V = 'dui', CA)\nresult: X11\n");
}

TEST(GoldenLedgerTest, LazySjaPlusOnDmvFigure1) {
  const auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  ASSERT_TRUE(model.ok());
  const auto sja_plus = OptimizeSjaPlus(*model);
  ASSERT_TRUE(sja_plus.ok());
  ExecOptions options;
  options.lazy_short_circuit = true;
  const auto report = ExecutePlan(sja_plus->plan, instance->catalog,
                                  instance->query, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->answer.ToString(), "{'J55', 'T21'}");
  EXPECT_EQ(report->ledger.Report(), 
            "R1         lq       sent=0      recv=3      scan=3       "
            "cost=19.030     lq(R1)\n"
            "R2         lq       sent=0      recv=3      scan=3       "
            "cost=19.030     lq(R2)\n"
            "R3         lq       sent=0      recv=3      scan=3       "
            "cost=19.030     lq(R3)\n"
            "TOTAL: 3 queries, cost 57.090\n");
}

TEST(GoldenLedgerTest, LazyLoadPlanBooksChargesInDemandOrder) {
  // lq(R3) is op 1 but is first demanded by X13, after the two sq(c1, ·)
  // calls: the lazy ledger lists it third, not first.
  const auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  Plan plan;
  const int y = plan.EmitLoad(2, "Y3");
  const int a0 = plan.EmitSelect(0, 0);
  const int a1 = plan.EmitSelect(0, 1);
  const int a2 = plan.EmitLocalSelect(0, y, "X13");
  const int x1 = plan.EmitUnion({a0, a1, a2}, "X1");
  const int b0 = plan.EmitSemiJoin(1, 0, x1);
  const int b1 = plan.EmitSemiJoin(1, 1, x1);
  const int b2 = plan.EmitLocalSelect(1, y, "X23");
  const int u2 = plan.EmitUnion({b0, b1, b2}, "U2");
  plan.SetResult(plan.EmitIntersect({x1, u2}, "X2"));
  ExecOptions options;
  options.lazy_short_circuit = true;
  const auto report =
      ExecutePlan(plan, instance->catalog, instance->query, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->answer.ToString(), "{'J55', 'T21'}");
  EXPECT_EQ(report->ledger.Report(), 
            "R1         sq       sent=0      recv=2      scan=3       "
            "cost=12.030     V = 'dui'\n"
            "R2         sq       sent=0      recv=1      scan=3       "
            "cost=11.030     V = 'dui'\n"
            "R3         lq       sent=0      recv=3      scan=3       "
            "cost=19.030     lq(R3)\n"
            "R1         sjq      sent=3      recv=1      scan=3       "
            "cost=14.030     V = 'sp'\n"
            "R2         sjq      sent=3      recv=1      scan=3       "
            "cost=14.030     V = 'sp'\n"
            "TOTAL: 5 queries, cost 70.150\n");
}

}  // namespace
}  // namespace fusion
