#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "perfbench/layers.h"
#include "perfbench/replay.h"

namespace fusion {
namespace perfbench {
namespace {

TrafficSpec ClosedSpec() {
  TrafficSpec spec;
  spec.pool_size = 64;
  spec.clients = 3;
  spec.warmup_per_client = 50;
  spec.timed_per_client = 400;
  spec.invalidate_every = 100;
  spec.num_sources = 8;
  return spec;
}

TrafficSpec OpenSpec() {
  TrafficSpec spec = ClosedSpec();
  spec.invalidate_every = 0;
  spec.open_rate_qps = 200.0;
  spec.open_requests = 2000;
  return spec;
}

TEST(ReplayTest, SameSeedGivesSameClosedTraffic) {
  const Traffic a = MakeTraffic(ClosedSpec(), 7);
  const Traffic b = MakeTraffic(ClosedSpec(), 7);
  ASSERT_EQ(a.timed.size(), 3u);
  EXPECT_EQ(a.warmup, b.warmup);
  EXPECT_EQ(a.invalidate_sources, b.invalidate_sources);
  for (size_t c = 0; c < a.timed.size(); ++c) {
    EXPECT_EQ(a.timed[c].requests, b.timed[c].requests);
    EXPECT_EQ(a.timed[c].oracle, b.timed[c].oracle);
  }
}

TEST(ReplayTest, OtherSeedGivesOtherClosedTraffic) {
  const Traffic a = MakeTraffic(ClosedSpec(), 7);
  const Traffic b = MakeTraffic(ClosedSpec(), 8);
  EXPECT_NE(a.warmup, b.warmup);
  EXPECT_NE(a.timed[0].requests, b.timed[0].requests);
  EXPECT_NE(a.invalidate_sources, b.invalidate_sources);
  // Clients draw independent lists under one seed.
  EXPECT_NE(a.timed[0].requests, a.timed[1].requests);
}

TEST(ReplayTest, EverySeedAsksTheSameMultisetInAnotherOrder) {
  const auto all = [](const Traffic& traffic) {
    std::multiset<size_t> asked;
    for (const ClientPlan& plan : traffic.timed) {
      asked.insert(plan.requests.begin(), plan.requests.end());
    }
    return asked;
  };
  const Traffic a = MakeTraffic(ClosedSpec(), 1);
  const Traffic b = MakeTraffic(ClosedSpec(), 2);
  EXPECT_EQ(all(a), all(b));
  // Zipf quotas: rank 0 is asked most, and (1/1)/(1/2)^1.1 ≈ 2.1 times as
  // often as rank 1.
  const std::multiset<size_t> asked = all(a);
  EXPECT_EQ(asked.size(), 1200u);
  EXPECT_GT(asked.count(0), 2 * asked.count(1));
  EXPECT_LT(asked.count(0), 3 * asked.count(1));
}

TEST(ReplayTest, OneInvalidatePerBlockEverySourceOncePerCycle) {
  TrafficSpec spec = ClosedSpec();
  spec.invalidate_every = 25;
  const Traffic traffic = MakeTraffic(spec, 3);
  ASSERT_EQ(traffic.invalidate_sources.size(), 16u);
  for (size_t cycle = 0; cycle < 2; ++cycle) {
    std::vector<size_t> sources(traffic.invalidate_sources.begin() + 8 * cycle,
                                traffic.invalidate_sources.begin() + 8 * cycle + 8);
    std::sort(sources.begin(), sources.end());
    EXPECT_EQ(sources, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  }
  EXPECT_NE(traffic.invalidate_sources,
            MakeTraffic(spec, 4).invalidate_sources);
  // Every block asks the same multiset across the clients.
  std::multiset<size_t> first;
  for (size_t b = 0; b < 16; ++b) {
    std::multiset<size_t> asked;
    for (const ClientPlan& plan : traffic.timed) {
      asked.insert(plan.requests.begin() + 25 * b,
                   plan.requests.begin() + 25 * (b + 1));
    }
    if (b == 0) first = asked;
    EXPECT_EQ(asked, first);
  }
  for (const ClientPlan& plan : traffic.timed) {
    for (const size_t index : plan.requests) EXPECT_LT(index, 64u);
  }
}

TEST(ReplayTest, WarmupCoversThePoolAndFreshQueriesAppearOnce) {
  TrafficSpec spec = ClosedSpec();
  spec.warm_covers_pool = true;
  spec.fresh_per_client = 4;
  const Traffic traffic = MakeTraffic(spec, 9);
  std::set<size_t> warmed;
  size_t warmup_requests = 0;
  for (const auto& list : traffic.warmup) {
    warmup_requests += list.size();
    warmed.insert(list.begin(), list.end());
  }
  EXPECT_EQ(warmup_requests, 64u + 3 * spec.warmup_per_client);
  EXPECT_EQ(warmed.size(), 64u);
  std::multiset<size_t> fresh;
  for (const ClientPlan& plan : traffic.timed) {
    EXPECT_EQ(plan.requests.size(), 400u);
    for (size_t i = 0; i < plan.requests.size(); ++i) {
      if (plan.requests[i] >= 64) {
        fresh.insert(plan.requests[i]);
        EXPECT_EQ(plan.oracle[i], 1);
      }
    }
  }
  EXPECT_EQ(fresh, (std::multiset<size_t>{64, 65, 66, 67, 68, 69, 70, 71, 72,
                                          73, 74, 75}));
}

TEST(ReplayTest, SameSeedGivesSamePoissonSchedule) {
  const Traffic a = MakeTraffic(OpenSpec(), 11);
  const Traffic b = MakeTraffic(OpenSpec(), 11);
  const Traffic c = MakeTraffic(OpenSpec(), 12);
  EXPECT_TRUE(a.timed.empty());
  ASSERT_EQ(a.open.requests.size(), 2000u);
  EXPECT_EQ(a.open.requests, b.open.requests);
  EXPECT_EQ(a.open.due_s, b.open.due_s);
  EXPECT_EQ(a.open.oracle, b.open.oracle);
  EXPECT_NE(a.open.requests, c.open.requests);
  EXPECT_NE(a.open.due_s, c.open.due_s);
}

TEST(ReplayTest, PoissonScheduleAscendsAtExactlyTheRequestedRate) {
  const Traffic traffic = MakeTraffic(OpenSpec(), 5);
  const std::vector<double>& due = traffic.open.due_s;
  for (size_t k = 1; k < due.size(); ++k) EXPECT_GT(due[k], due[k - 1]);
  // Every seed offers exactly the requested mean rate.
  EXPECT_NEAR(due.back(), 2000 / 200.0, 1e-9);
  // The gaps still vary: some bursts are well above the mean rate.
  double shortest = due[0];
  for (size_t k = 1; k < due.size(); ++k) {
    shortest = std::min(shortest, due[k] - due[k - 1]);
  }
  EXPECT_LT(shortest, 0.1 / 200.0);
}

SpanRecord MakeSpan(const char* name, SpanCategory category, uint64_t span,
                    uint64_t parent, double start, double end) {
  SpanRecord record;
  record.name = name;
  record.category = category;
  record.trace_id = 42;
  record.span_id = span;
  record.parent_id = parent;
  record.start_us = start;
  record.end_us = end;
  return record;
}

TEST(LayersTest, SelfTimeSubtractsTheUnionOfChildren) {
  const SpanRecord parent = MakeSpan("p", SpanCategory::kPhase, 1, 0, 0, 100);
  const SpanRecord a = MakeSpan("a", SpanCategory::kPlanOp, 2, 1, 10, 40);
  const SpanRecord b = MakeSpan("b", SpanCategory::kPlanOp, 3, 1, 30, 50);
  const SpanRecord late = MakeSpan("c", SpanCategory::kPlanOp, 4, 1, 90, 120);
  EXPECT_DOUBLE_EQ(SelfTimeUs(parent, {&a, &b, &late}), 100 - 40 - 10);
}

TEST(LayersTest, PartsAddUpToTheClientLatency) {
  const std::vector<SpanRecord> spans = {
      MakeSpan("service.request", SpanCategory::kRpc, 1, 0, 100, 1100),
      MakeSpan("optimize", SpanCategory::kPhase, 2, 1, 110, 300),
      MakeSpan("execute", SpanCategory::kPhase, 3, 1, 300, 1000),
      MakeSpan("sq", SpanCategory::kPlanOp, 4, 3, 310, 600),
      MakeSpan("sq", SpanCategory::kSourceCall, 5, 4, 320, 500),
      MakeSpan("union", SpanCategory::kPlanOp, 6, 3, 600, 700),
      MakeSpan("learn", SpanCategory::kPhase, 7, 1, 1000, 1050)};
  const LayerBreakdown out = AccountLayers(spans, {{42, 1500.0}, {99, 1.0}});
  EXPECT_EQ(out.requests, 1u);
  EXPECT_EQ(out.unmatched, 1u);
  const auto& m = out.mean_us;
  EXPECT_DOUBLE_EQ(m.at("edge.overhead_us"), 500);
  EXPECT_DOUBLE_EQ(m.at("session.optimize_us"), 190);
  EXPECT_DOUBLE_EQ(m.at("session.execute_us"), 700);
  EXPECT_DOUBLE_EQ(m.at("session.learn_us"), 50);
  EXPECT_DOUBLE_EQ(m.at("session.other_us"), 1000 - 190 - 700 - 50);
  EXPECT_DOUBLE_EQ(m.at("exec.op_us.sq"), 290 - 180);
  EXPECT_DOUBLE_EQ(m.at("source.call_us"), 180);
  EXPECT_DOUBLE_EQ(m.at("exec.op_us.setop"), 100);
  EXPECT_DOUBLE_EQ(m.at("exec.other_us"), 700 - 290 - 100);
  double parts = 0.0;
  for (const char* key :
       {"edge.overhead_us", "session.other_us", "session.optimize_us",
        "session.learn_us", "exec.op_us.sq", "exec.op_us.sjq",
        "exec.op_us.lq", "exec.op_us.select", "exec.op_us.setop",
        "cache.span_us", "source.call_us", "exec.other_us"}) {
    parts += m.at(key);
  }
  EXPECT_DOUBLE_EQ(parts, m.at("latency_us"));
}

}  // namespace
}  // namespace perfbench
}  // namespace fusion
