// Degraded-mode execution tests: sound partial answers when sources are
// exhausted (outages, retries spent, deadlines), the per-condition
// CompletenessReport, the refusal to degrade at non-monotone plan positions,
// deadline termination in both executors, and sequential ↔ parallel
// equivalence of the degraded result.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "source/flaky_source.h"
#include "source/simulated_source.h"

namespace fusion {
namespace {

Schema DmvSchema() {
  return Schema({{"L", ValueType::kString},
                 {"V", ValueType::kString},
                 {"D", ValueType::kInt64}});
}

FusionQuery DuiSpQuery() {
  return FusionQuery("L", {Condition::Eq("V", Value("dui")),
                           Condition::Eq("V", Value("sp"))});
}

Plan FilterPlanFor2x2() {
  Plan plan;
  const int a0 = plan.EmitSelect(0, 0);
  const int a1 = plan.EmitSelect(0, 1);
  const int x1 = plan.EmitUnion({a0, a1});
  const int b0 = plan.EmitSelect(1, 0);
  const int b1 = plan.EmitSelect(1, 1);
  const int u2 = plan.EmitUnion({b0, b1});
  const int x2 = plan.EmitIntersect({x1, u2});
  plan.SetResult(x2);
  return plan;
}

/// Two-source catalog: R1 (index 0) is wrapped in a FlakySource configured by
/// `flaky_options`; R2 (index 1) is reliable. Relations are chosen so losing
/// R1 shrinks the answer: healthy = {J55, T21}, R2-only = {J55}.
SourceCatalog TwoSourceCatalog(const FlakySource::Options& flaky_options,
                               const FlakySource** flaky_out = nullptr) {
  SourceCatalog catalog;
  NetworkProfile net;
  net.query_overhead = 10.0;
  Relation r1(DmvSchema());
  EXPECT_TRUE(
      r1.Append({Value("J55"), Value("dui"), Value(int64_t{1993})}).ok());
  EXPECT_TRUE(
      r1.Append({Value("T21"), Value("sp"), Value(int64_t{1994})}).ok());
  auto flaky = std::make_unique<FlakySource>(
      std::make_unique<SimulatedSource>("R1", std::move(r1), Capabilities{},
                                        net),
      flaky_options);
  if (flaky_out != nullptr) *flaky_out = flaky.get();
  EXPECT_TRUE(catalog.Add(std::move(flaky)).ok());
  Relation r2(DmvSchema());
  EXPECT_TRUE(
      r2.Append({Value("J55"), Value("dui"), Value(int64_t{1995})}).ok());
  EXPECT_TRUE(
      r2.Append({Value("J55"), Value("sp"), Value(int64_t{1996})}).ok());
  EXPECT_TRUE(
      r2.Append({Value("T21"), Value("dui"), Value(int64_t{1997})}).ok());
  EXPECT_TRUE(catalog
                  .Add(std::make_unique<SimulatedSource>(
                      "R2", std::move(r2), Capabilities{}, net))
                  .ok());
  return catalog;
}

FlakySource::Options PermanentOutage() {
  FlakySource::Options options;
  options.outage_end = std::numeric_limits<size_t>::max();
  return options;
}

// ---------------------------------------------------------------------------
// Sound partial answers
// ---------------------------------------------------------------------------

TEST(DegradedTest, PartialAnswerIsSubsetOfHealthyAnswer) {
  const auto healthy =
      ExecutePlan(FilterPlanFor2x2(), TwoSourceCatalog({}), DuiSpQuery());
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->answer.ToString(), "{'J55', 'T21'}");

  const SourceCatalog catalog = TwoSourceCatalog(PermanentOutage());
  ExecOptions exec;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto degraded =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->answer.ToString(), "{'J55'}");
  // Soundness: no false positives — the partial answer is a subset.
  EXPECT_TRUE(
      ItemSet::Difference(degraded->answer, healthy->answer).empty());

  const CompletenessReport& completeness = degraded->completeness;
  EXPECT_FALSE(completeness.answer_complete);
  EXPECT_TRUE(completeness.sound);
  // R1 (index 0) was excluded from both conditions' unions.
  EXPECT_EQ(completeness.ExcludedSources(0), std::vector<int>{0});
  EXPECT_EQ(completeness.ExcludedSources(1), std::vector<int>{0});
  EXPECT_EQ(completeness.degraded_ops.size(), 2u);
  // The exclusion records why.
  ASSERT_FALSE(completeness.excluded.empty());
  EXPECT_NE(completeness.excluded[0].reason.find("down"), std::string::npos);
}

TEST(DegradedTest, FailModeIsUnchangedByDefault) {
  const SourceCatalog catalog = TwoSourceCatalog(PermanentOutage());
  // Default options: the classic behavior — first exhausted source call
  // fails the query.
  const auto report = ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
}

TEST(DegradedTest, CompleteRunReportsComplete) {
  ExecOptions exec;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto report = ExecutePlan(FilterPlanFor2x2(), TwoSourceCatalog({}),
                                  DuiSpQuery(), exec);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completeness.answer_complete);
  EXPECT_TRUE(report->completeness.excluded.empty());
  EXPECT_EQ(report->answer.ToString(), "{'J55', 'T21'}");
}

TEST(DegradedTest, DegradedLoadExcludesItsDependentConditions) {
  // Load-based plan: lq(R1) feeds local selections for both conditions;
  // R2 is queried remotely. When the load degrades, the exclusion fans out
  // to every condition that selected from the loaded relation.
  Plan plan;
  const int y = plan.EmitLoad(0);
  const int a0 = plan.EmitLocalSelect(0, y);
  const int a1 = plan.EmitSelect(0, 1);
  const int x1 = plan.EmitUnion({a0, a1});
  const int b0 = plan.EmitLocalSelect(1, y);
  const int b1 = plan.EmitSelect(1, 1);
  const int u2 = plan.EmitUnion({b0, b1});
  plan.SetResult(plan.EmitIntersect({x1, u2}));

  const SourceCatalog catalog = TwoSourceCatalog(PermanentOutage());
  ExecOptions exec;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto report = ExecutePlan(plan, catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->answer.ToString(), "{'J55'}");
  EXPECT_FALSE(report->completeness.answer_complete);
  EXPECT_EQ(report->completeness.ExcludedSources(0), std::vector<int>{0});
  EXPECT_EQ(report->completeness.ExcludedSources(1), std::vector<int>{0});
}

TEST(DegradedTest, RefusesToDegradeTheRightSideOfADifference) {
  // answer := (sq(c0, R1) ∪ sq(c0, R2)) − sq(c1, R1). Substituting ∅ for
  // the subtrahend would *add* items — unsound — so even in degrade mode
  // the query must fail rather than return a wrong answer.
  Plan plan;
  const int a0 = plan.EmitSelect(0, 0);
  const int a1 = plan.EmitSelect(0, 1);
  const int x1 = plan.EmitUnion({a0, a1});
  const int rhs = plan.EmitSelect(1, 0);
  plan.SetResult(plan.EmitDifference(x1, rhs));

  // R1 fails only its *second* call, so the monotone leaf a0 succeeds and
  // the non-monotone rhs is the one that degrades.
  FlakySource::Options options;
  options.outage_start = 1;
  options.outage_end = std::numeric_limits<size_t>::max();
  const SourceCatalog catalog = TwoSourceCatalog(options);
  ExecOptions exec;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto report = ExecutePlan(plan, catalog, DuiSpQuery(), exec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
}

TEST(DegradedTest, SemiJoinLeafDegradesSoundly) {
  // Semijoin plan: cond 1 over R1 is evaluated by probing with cond-0
  // candidates. With R1 down, both its leaves degrade; the answer shrinks
  // to R2's witnessed items.
  Plan plan;
  const int a0 = plan.EmitSelect(0, 0);
  const int a1 = plan.EmitSelect(0, 1);
  const int x1 = plan.EmitUnion({a0, a1});
  const int b0 = plan.EmitSemiJoin(1, 0, x1);
  const int b1 = plan.EmitSemiJoin(1, 1, x1);
  const int u2 = plan.EmitUnion({b0, b1});
  plan.SetResult(u2);

  const auto healthy = ExecutePlan(plan, TwoSourceCatalog({}), DuiSpQuery());
  ASSERT_TRUE(healthy.ok());
  const SourceCatalog catalog = TwoSourceCatalog(PermanentOutage());
  ExecOptions exec;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto degraded = ExecutePlan(plan, catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(
      ItemSet::Difference(degraded->answer, healthy->answer).empty());
  EXPECT_FALSE(degraded->completeness.answer_complete);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(DegradedTest, DeadlineTerminatesSequentialExecutionInTime) {
  // Every R1 call takes 50 ms; the query deadline is 60 ms. The first slow
  // call fits, later admissions fail fast — wall clock stays bounded by
  // deadline + one call.
  FlakySource::Options options;
  options.injected_latency_seconds = 0.05;
  const SourceCatalog catalog = TwoSourceCatalog(options);
  ExecOptions exec;
  exec.deadline_seconds = 0.06;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto start = std::chrono::steady_clock::now();
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Bounded: deadline + one in-flight call + slack.
  EXPECT_LE(elapsed, 0.06 + 0.05 + 0.25);
  // The deadline cut off at least one R1 call.
  EXPECT_FALSE(report->completeness.answer_complete);
  EXPECT_TRUE(
      ItemSet::Difference(report->answer,
                          ItemSet(std::vector<Value>{Value("J55"),
                                                     Value("T21")}))
          .empty());
}

TEST(DegradedTest, DeadlineTerminatesParallelExecutionInTime) {
  FlakySource::Options options;
  options.injected_latency_seconds = 0.05;
  const SourceCatalog catalog = TwoSourceCatalog(options);
  ExecOptions exec;
  exec.deadline_seconds = 0.06;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  exec.parallelism = 4;
  const auto start = std::chrono::steady_clock::now();
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LE(elapsed, 0.06 + 0.05 + 0.25);
}

TEST(DegradedTest, DeadlineFailsTheQueryInFailMode) {
  FlakySource::Options options;
  options.injected_latency_seconds = 0.05;
  const SourceCatalog catalog = TwoSourceCatalog(options);
  ExecOptions exec;
  exec.deadline_seconds = 0.001;  // expires during the very first call
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DegradedTest, PerCallTimeoutMakesSlowCallsRetriable) {
  // R1's calls take 30 ms against a 5 ms per-call timeout: every attempt
  // converts to kDeadlineExceeded and the retry ladder is spent; in degrade
  // mode the source is excluded instead of failing the query.
  FlakySource::Options options;
  options.injected_latency_seconds = 0.03;
  options.target_operation = "sq";
  const FlakySource* flaky = nullptr;
  const SourceCatalog catalog = TwoSourceCatalog(options, &flaky);
  ExecOptions exec;
  exec.retry.max_attempts = 2;
  exec.retry.call_timeout_seconds = 0.005;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->completeness.answer_complete);
  // Both R1 leaves spent the full ladder: 2 attempts each.
  EXPECT_EQ(report->retries_total, 2u);
  EXPECT_EQ(flaky->calls_attempted(), 4u);
  ASSERT_FALSE(report->completeness.excluded.empty());
  EXPECT_NE(report->completeness.excluded[0].reason.find("per-call timeout"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Sequential ↔ parallel equivalence
// ---------------------------------------------------------------------------

TEST(DegradedTest, SequentialAndParallelDegradeIdentically) {
  const SourceCatalog catalog = TwoSourceCatalog(PermanentOutage());
  ExecOptions exec;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto seq = ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  const SourceCatalog catalog2 = TwoSourceCatalog(PermanentOutage());
  ExecOptions par = exec;
  par.parallelism = 4;
  const auto parallel =
      ExecutePlan(FilterPlanFor2x2(), catalog2, DuiSpQuery(), par);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(parallel->answer, seq->answer);
  EXPECT_EQ(parallel->completeness.answer_complete,
            seq->completeness.answer_complete);
  EXPECT_EQ(parallel->completeness.degraded_ops,
            seq->completeness.degraded_ops);
  EXPECT_EQ(parallel->completeness.ExcludedSources(0),
            seq->completeness.ExcludedSources(0));
  EXPECT_EQ(parallel->completeness.ExcludedSources(1),
            seq->completeness.ExcludedSources(1));
  EXPECT_EQ(parallel->ledger.total(), seq->ledger.total());
}

TEST(DegradedTest, CompletenessToStringNamesTheExcluded) {
  const SourceCatalog catalog = TwoSourceCatalog(PermanentOutage());
  ExecOptions exec;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(report.ok());
  const std::string text = report->completeness.ToString(
      {"V = 'dui'", "V = 'sp'"}, {"R1", "R2"});
  EXPECT_NE(text.find("partial answer"), std::string::npos);
  EXPECT_NE(text.find("R1"), std::string::npos);
  EXPECT_NE(text.find("V = 'dui'"), std::string::npos);
  // And a complete report says so.
  CompletenessReport complete;
  EXPECT_NE(complete.ToString().find("complete answer"), std::string::npos);
}

}  // namespace
}  // namespace fusion
