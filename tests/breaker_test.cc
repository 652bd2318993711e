// Circuit-breaker tests: the SourceHealth state machine (closed → open →
// half-open → closed/open), fast-fail accounting, thread-safety under
// concurrent recording, executor integration (fast-fails charge nothing and
// degrade soundly), and session-level breaker sharing across queries.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/source_health.h"
#include "mediator/session.h"
#include "protocol/remote_source.h"
#include "protocol/source_server.h"
#include "source/flaky_source.h"
#include "source/simulated_source.h"
#include "test_daemon.h"
#include "workload/dmv.h"

namespace fusion {
namespace {

using BreakerState = SourceHealth::BreakerState;

// ---------------------------------------------------------------------------
// State machine
// ---------------------------------------------------------------------------

TEST(BreakerTest, OpensAfterConsecutiveFailures) {
  SourceHealth::Options options;
  options.failure_threshold = 3;
  SourceHealth health(options);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(health.Admit(0).allowed);
    health.RecordFailure(0);
    EXPECT_EQ(health.state(0), BreakerState::kClosed);
  }
  EXPECT_EQ(health.consecutive_failures(0), 2);
  health.RecordFailure(0);
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  // Open breaker fast-fails admissions and counts them.
  EXPECT_FALSE(health.Admit(0).allowed);
  EXPECT_EQ(health.fast_fails(0), 1u);
}

TEST(BreakerTest, SuccessResetsConsecutiveFailures) {
  SourceHealth::Options options;
  options.failure_threshold = 2;
  SourceHealth health(options);
  health.RecordFailure(0);
  health.RecordSuccess(0);
  health.RecordFailure(0);
  // Never two *consecutive* failures, so the breaker stays closed.
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(health.consecutive_failures(0), 1);
}

TEST(BreakerTest, CooldownAdmitsExactlyOneProbe) {
  SourceHealth::Options options;
  options.failure_threshold = 1;
  options.open_cooldown_rejections = 2;
  SourceHealth health(options);
  health.RecordFailure(0);
  ASSERT_EQ(health.state(0), BreakerState::kOpen);
  // Two calls absorb the cool-down.
  EXPECT_FALSE(health.Admit(0).allowed);
  EXPECT_FALSE(health.Admit(0).allowed);
  EXPECT_EQ(health.fast_fails(0), 2u);
  // The next call is the half-open probe...
  const SourceHealth::Admission probe = health.Admit(0);
  EXPECT_TRUE(probe.allowed);
  EXPECT_TRUE(probe.probe);
  EXPECT_EQ(health.state(0), BreakerState::kHalfOpen);
  // ...and while it is in flight, everyone else keeps fast-failing (no
  // stampede on a recovering source).
  EXPECT_FALSE(health.Admit(0).allowed);
  // Probe success closes the breaker; normal admissions resume.
  health.RecordSuccess(0);
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  const SourceHealth::Admission normal = health.Admit(0);
  EXPECT_TRUE(normal.allowed);
  EXPECT_FALSE(normal.probe);
}

TEST(BreakerTest, ProbeFailureReopensForAnotherCooldown) {
  SourceHealth::Options options;
  options.failure_threshold = 1;
  options.open_cooldown_rejections = 1;
  SourceHealth health(options);
  health.RecordFailure(0);
  EXPECT_FALSE(health.Admit(0).allowed);  // cool-down
  ASSERT_TRUE(health.Admit(0).probe);
  health.RecordFailure(0);  // probe fails
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  // A fresh cool-down must elapse before the next probe.
  EXPECT_FALSE(health.Admit(0).allowed);
  EXPECT_TRUE(health.Admit(0).probe);
}

TEST(BreakerTest, SourcesAreIndependent) {
  SourceHealth::Options options;
  options.failure_threshold = 1;
  SourceHealth health(options);
  health.RecordFailure(2);
  EXPECT_EQ(health.state(2), BreakerState::kOpen);
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_TRUE(health.Admit(0).allowed);
  EXPECT_TRUE(health.Admit(1).allowed);
  EXPECT_FALSE(health.Admit(2).allowed);
}

TEST(BreakerTest, ResetForgetsAllState) {
  SourceHealth::Options options;
  options.failure_threshold = 1;
  SourceHealth health(options);
  health.RecordFailure(0);
  EXPECT_FALSE(health.Admit(0).allowed);
  health.Reset();
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(health.fast_fails(0), 0u);
  EXPECT_TRUE(health.Admit(0).allowed);
}

TEST(BreakerTest, HalfOpenAdmitsExactlyOneProbeUnderContention) {
  // The open → half-open transition is a check-then-act hazard: many threads
  // absorb the tail of the cool-down and reach for the probe slot at once.
  // Exactly one may win; everyone else must keep fast-failing until the
  // probe resolves. TSan (via the concurrency label) checks the locking;
  // this asserts the invariant itself, repeatedly, with all threads released
  // onto the breaker together.
  for (int round = 0; round < 25; ++round) {
    SourceHealth::Options options;
    options.failure_threshold = 1;
    options.open_cooldown_rejections = 4;
    SourceHealth health(options);
    health.RecordFailure(0);
    ASSERT_EQ(health.state(0), BreakerState::kOpen);

    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::atomic<int> probes{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int i = 0; i < 4; ++i) {
          const SourceHealth::Admission admission = health.Admit(0);
          if (admission.allowed) {
            // Every admission granted while the breaker walks out of open
            // must be flagged as the probe.
            EXPECT_TRUE(admission.probe);
            probes.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    // 32 admissions against a 4-rejection cool-down: the probe slot was
    // certainly reached, and only one thread may have taken it. With the
    // probe unresolved the breaker is still half-open.
    EXPECT_EQ(probes.load(), 1) << "round " << round;
    EXPECT_EQ(health.state(0), BreakerState::kHalfOpen);
  }
}

TEST(BreakerTest, ConcurrentRecordingIsSafe) {
  // Hammer one breaker from many threads; TSan (concurrency label) verifies
  // the synchronization, and the final state must be a legal one.
  SourceHealth::Options options;
  options.failure_threshold = 3;
  SourceHealth health(options);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&health, t] {
      for (int i = 0; i < 200; ++i) {
        const SourceHealth::Admission admission =
            health.Admit(static_cast<size_t>(t % 2));
        if (!admission.allowed) continue;
        if ((t + i) % 3 == 0) {
          health.RecordFailure(static_cast<size_t>(t % 2));
        } else {
          health.RecordSuccess(static_cast<size_t>(t % 2));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t source = 0; source < 2; ++source) {
    const BreakerState state = health.state(source);
    EXPECT_TRUE(state == BreakerState::kClosed ||
                state == BreakerState::kHalfOpen ||
                state == BreakerState::kOpen);
  }
}

// ---------------------------------------------------------------------------
// Executor integration
// ---------------------------------------------------------------------------

Schema DmvSchema() {
  return Schema({{"L", ValueType::kString},
                 {"V", ValueType::kString},
                 {"D", ValueType::kInt64}});
}

FusionQuery DuiSpQuery() {
  return FusionQuery("L", {Condition::Eq("V", Value("dui")),
                           Condition::Eq("V", Value("sp"))});
}

/// Filter plan for two conditions over two sources.
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

/// Catalog of two sources where R1 is wrapped in a FlakySource (so its calls
/// can be counted and failures injected) and R2 answers reliably. The
/// relations are chosen so that losing R1 *shrinks* the answer:
/// healthy = {J55, T21}, R2-only = {J55}.
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

/// Breaker options whose cool-down is effectively infinite: once open, no
/// half-open probe is ever admitted. Keeps pre-opened-breaker tests from
/// accidentally probing (and closing) against a healthy inner source.
SourceHealth::Options NoProbeOptions() {
  SourceHealth::Options options;
  options.open_cooldown_rejections = 1000000;
  return options;
}

/// Opens source 0's breaker by recording `threshold` consecutive failures.
void OpenBreakerForSource0(SourceHealth& health, int threshold) {
  for (int i = 0; i < threshold; ++i) health.RecordFailure(0);
  ASSERT_EQ(health.state(0), BreakerState::kOpen);
}

TEST(BreakerExecutorTest, OpenBreakerFailsFastWithoutRoundTrips) {
  const FlakySource* flaky = nullptr;
  const SourceCatalog catalog = TwoSourceCatalog({}, &flaky);
  SourceHealth health(NoProbeOptions());
  OpenBreakerForSource0(health, SourceHealth::Options{}.failure_threshold);
  ExecOptions exec;
  exec.health = &health;
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
  // Fast-fail means *no* round-trip: the source never saw the call.
  EXPECT_EQ(flaky->calls_attempted(), 0u);
}

TEST(BreakerExecutorTest, DegradeModeTurnsFastFailsIntoPartialAnswer) {
  const FlakySource* flaky = nullptr;
  const SourceCatalog catalog = TwoSourceCatalog({}, &flaky);

  // Healthy baseline for the subset check.
  const auto healthy = ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery());
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->answer.ToString(), "{'J55', 'T21'}");
  const size_t calls_after_baseline = flaky->calls_attempted();

  SourceHealth health(NoProbeOptions());
  OpenBreakerForSource0(health, SourceHealth::Options{}.failure_threshold);
  ExecOptions exec;
  exec.health = &health;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->answer.ToString(), "{'J55'}");
  EXPECT_TRUE(ItemSet::Difference(report->answer, healthy->answer).empty());
  EXPECT_GE(report->breaker_fast_fails, 2u);
  // Fast-fails issued no round-trip: R1 saw nothing beyond the baseline.
  EXPECT_EQ(flaky->calls_attempted(), calls_after_baseline);
  // Fast-failed calls left no ledger charge: only R2's two selections paid.
  EXPECT_EQ(report->ledger.num_queries(), 2u);
  for (const Charge& c : report->ledger.charges()) {
    EXPECT_EQ(c.source, "R2");
  }
  // The completeness report names R1 (index 0) under both conditions.
  EXPECT_FALSE(report->completeness.answer_complete);
  EXPECT_TRUE(report->completeness.sound);
  EXPECT_EQ(report->completeness.ExcludedSources(0), std::vector<int>{0});
  EXPECT_EQ(report->completeness.ExcludedSources(1), std::vector<int>{0});
}

TEST(BreakerExecutorTest, ParallelExecutorSharesTheBreaker) {
  const FlakySource* flaky = nullptr;
  const SourceCatalog catalog = TwoSourceCatalog({}, &flaky);
  SourceHealth health(NoProbeOptions());
  OpenBreakerForSource0(health, SourceHealth::Options{}.failure_threshold);
  ExecOptions exec;
  exec.health = &health;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;
  exec.parallelism = 4;
  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->answer.ToString(), "{'J55'}");
  EXPECT_GE(report->breaker_fast_fails, 2u);
  EXPECT_EQ(flaky->calls_attempted(), 0u);
  EXPECT_FALSE(report->completeness.answer_complete);
  EXPECT_EQ(report->completeness.ExcludedSources(0), std::vector<int>{0});
}

TEST(BreakerExecutorTest, HalfOpenProbeRecoversAfterOutage) {
  // R1 is down for its first two calls, then recovers. With threshold 2 and
  // a 1-rejection cool-down, three degraded executions walk the breaker all
  // the way around: open → fast-fail + probe → closed.
  FlakySource::Options flaky_options;
  flaky_options.outage_end = 2;
  const FlakySource* flaky = nullptr;
  const SourceCatalog catalog = TwoSourceCatalog(flaky_options, &flaky);
  SourceHealth::Options health_options;
  health_options.failure_threshold = 2;
  health_options.open_cooldown_rejections = 1;
  SourceHealth health(health_options);
  ExecOptions exec;
  exec.health = &health;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;

  // Run 1: both R1 selections fail (the outage); the second opens the
  // breaker. The answer degrades to R2's contribution.
  const auto run1 = ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  EXPECT_FALSE(run1->completeness.answer_complete);
  EXPECT_EQ(flaky->calls_attempted(), 2u);

  // Run 2: the first R1 call absorbs the cool-down (fast-fail); the second
  // is the half-open probe — the outage is over, so it succeeds and closes
  // the breaker. Only condition 0 lost R1 this time.
  const auto run2 = ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(run2->breaker_fast_fails, 1u);
  EXPECT_EQ(run2->completeness.ExcludedSources(0), std::vector<int>{0});
  EXPECT_TRUE(run2->completeness.ExcludedSources(1).empty());

  // Run 3: fully healthy again.
  const auto run3 = ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(run3.ok()) << run3.status().ToString();
  EXPECT_TRUE(run3->completeness.answer_complete);
  EXPECT_EQ(run3->answer.ToString(), "{'J55', 'T21'}");
}

// ---------------------------------------------------------------------------
// Replica failover interplay
// ---------------------------------------------------------------------------

Relation ReplicaR1Relation() {
  Relation r1(DmvSchema());
  EXPECT_TRUE(
      r1.Append({Value("J55"), Value("dui"), Value(int64_t{1993})}).ok());
  EXPECT_TRUE(
      r1.Append({Value("T21"), Value("sp"), Value(int64_t{1994})}).ok());
  return r1;
}

/// Adds the reliable in-process R2 (same data as TwoSourceCatalog's) behind
/// an already-added networked R1.
void AddReliableR2(SourceCatalog& catalog) {
  NetworkProfile net;
  net.query_overhead = 10.0;
  Relation r2(DmvSchema());
  ASSERT_TRUE(
      r2.Append({Value("J55"), Value("dui"), Value(int64_t{1995})}).ok());
  ASSERT_TRUE(
      r2.Append({Value("J55"), Value("sp"), Value(int64_t{1996})}).ok());
  ASSERT_TRUE(
      r2.Append({Value("T21"), Value("dui"), Value(int64_t{1997})}).ok());
  ASSERT_TRUE(catalog
                  .Add(std::make_unique<SimulatedSource>(
                      "R2", std::move(r2), Capabilities{}, net))
                  .ok());
}

TEST(BreakerReplicaTest, FailoverMasksReplicaDeathFromTheBreaker) {
  // Source 0 is a RemoteSource over two TCP replicas of R1. Replica death
  // is absorbed one layer *below* the breaker: the failover redial makes
  // the source call succeed, so no failure is ever recorded and a breaker
  // tuned to open on the very first failure stays closed.
  NetworkProfile net;
  net.query_overhead = 10.0;
  std::vector<std::unique_ptr<TcpSourceServer>> replicas;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 2; ++i) {
    auto server = std::make_unique<TcpSourceServer>(
        std::make_unique<SimulatedSource>("R1", ReplicaR1Relation(),
                                          Capabilities{}, net),
        TcpSourceServer::Options{});
    ASSERT_TRUE(server->Start().ok());
    endpoints.push_back("127.0.0.1:" + std::to_string(server->port()));
    replicas.push_back(std::move(server));
  }
  auto connected = RemoteSource::ConnectTcp(endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteSource* remote = connected->get();
  SourceCatalog catalog;
  ASSERT_TRUE(catalog.Add(std::move(connected).value()).ok());
  AddReliableR2(catalog);

  SourceHealth::Options health_options;
  health_options.failure_threshold = 1;  // any recorded failure would open
  SourceHealth health(health_options);
  ExecOptions exec;
  exec.health = &health;

  const auto healthy =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->answer.ToString(), "{'J55', 'T21'}");
  ASSERT_EQ(health.state(0), BreakerState::kClosed);

  // Kill whichever replica the source is currently stuck to.
  const std::string active = remote->active_endpoint();
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (endpoints[i] == active) replicas[i]->Stop();
  }

  const auto failed_over =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(failed_over.ok()) << failed_over.status().ToString();
  EXPECT_EQ(failed_over->answer.ToString(), "{'J55', 'T21'}");
  EXPECT_TRUE(failed_over->completeness.answer_complete);
  EXPECT_GE(remote->failovers(), 1u);
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(health.consecutive_failures(0), 0);
}

TEST(BreakerReplicaTest, ExhaustedReplicasOpenOnlyTheirSourcesBreaker) {
  // With every replica of R1 dead, failover has nothing to rotate to: each
  // R1 call surfaces kUnavailable, the failures land on R1's breaker until
  // it opens — and on R1's breaker *only*. R2 keeps answering and degraded
  // mode still produces its sound partial answer.
  NetworkProfile net;
  net.query_overhead = 10.0;
  TcpSourceServer server(
      std::make_unique<SimulatedSource>("R1", ReplicaR1Relation(),
                                        Capabilities{}, net),
      TcpSourceServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  RetryPolicy fast_failover;  // a dead replica should cost ~nothing here
  fast_failover.max_attempts = 2;
  fast_failover.initial_backoff_seconds = 0.001;
  fast_failover.max_backoff_seconds = 0.01;
  auto connected = RemoteSource::ConnectTcp(
      {"127.0.0.1:" + std::to_string(server.port())}, fast_failover);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  SourceCatalog catalog;
  ASSERT_TRUE(catalog.Add(std::move(connected).value()).ok());
  AddReliableR2(catalog);
  server.Stop();

  SourceHealth::Options health_options;
  health_options.failure_threshold = 2;
  health_options.open_cooldown_rejections = 1000000;  // no probes here
  SourceHealth health(health_options);
  ExecOptions exec;
  exec.health = &health;
  exec.on_source_failure = SourceFailurePolicy::kDegrade;

  const auto report =
      ExecutePlan(FilterPlanFor2x2(), catalog, DuiSpQuery(), exec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->answer.ToString(), "{'J55'}");
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  EXPECT_EQ(health.state(1), BreakerState::kClosed);
  EXPECT_FALSE(report->completeness.answer_complete);
  EXPECT_TRUE(report->completeness.sound);
  // The failed attempts charged nothing: only R2's selections paid.
  for (const Charge& c : report->ledger.charges()) {
    EXPECT_EQ(c.source, "R2");
  }
}

// ---------------------------------------------------------------------------
// Session sharing
// ---------------------------------------------------------------------------

TEST(BreakerSessionTest, OneQuerysFailuresFastFailTheNext) {
  // R1 is permanently down. The session's breaker opens during the first
  // query's retry ladder; the second query never pays a round-trip to R1.
  FlakySource::Options flaky_options;
  flaky_options.outage_end = std::numeric_limits<size_t>::max();
  const FlakySource* flaky = nullptr;
  SourceCatalog catalog = TwoSourceCatalog(flaky_options, &flaky);

  QuerySession::Options options;
  options.health.failure_threshold = 2;
  // No probes during this test: any R1 call after the breaker opens would
  // be a real (failing) round-trip and muddy the accounting.
  options.health.open_cooldown_rejections = 1000000;
  options.execution.on_source_failure = SourceFailurePolicy::kDegrade;
  // Keep the second query's plan shape identical to the first: cache-aware
  // re-optimization would plan R1 behind a difference (an SJA+ shape),
  // where a breaker fast-fail is not ∅-substitutable and the degraded
  // query would fail instead. This test is about breaker sharing.
  options.cache_aware_optimization = false;
  QuerySession session(Mediator(std::move(catalog)), options);

  const auto first = session.Answer(DuiSpQuery());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->execution.completeness.answer_complete);
  EXPECT_EQ(session.health().state(0), BreakerState::kOpen);
  const size_t calls_after_first = flaky->calls_attempted();
  EXPECT_GE(calls_after_first, 2u);

  const auto second = session.Answer(DuiSpQuery());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second->execution.completeness.answer_complete);
  // Every R1 call in the second query was a breaker fast-fail — the down
  // source saw no further traffic and charged nothing new.
  EXPECT_EQ(flaky->calls_attempted(), calls_after_first);
  EXPECT_GE(second->execution.breaker_fast_fails, 1u);
  EXPECT_EQ(session.health().state(0), BreakerState::kOpen);
}

}  // namespace
}  // namespace fusion
