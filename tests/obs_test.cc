// Observability layer tests: tracer/span mechanics, metric primitives and
// registry stability, Chrome-trace export validity, and the end-to-end
// invariants the instrumentation promises — one `source_call` span per
// ledger charge (retries and cache effects included), per-op spans from both
// executors, and real wall-clock overlap on distinct thread ids under the
// parallel executor (run this suite under TSan via the `concurrency` label).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "exec/executor.h"
#include "exec/source_call_cache.h"
#include "exec/thread_pool.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "source/flaky_source.h"
#include "source/simulated_source.h"
#include "workload/dmv.h"

namespace fusion {
namespace {

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds everything <= 1; bucket i holds (2^(i-1), 2^i].
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0.5), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1.5), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.0001), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4.0), 2u);
  EXPECT_EQ(Histogram::BucketIndex(1000.0), 10u);  // 2^9 < 1000 <= 2^10
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);

  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(5), 32.0);
  EXPECT_TRUE(std::isinf(Histogram::BucketUpperBound(
      Histogram::kNumBuckets - 1)));

  // Every observation lands in the bucket whose bound covers it.
  for (double v : {0.1, 1.0, 3.0, 17.5, 1024.0}) {
    const size_t i = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(i)) << v;
    if (i > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(i - 1)) << v;
    }
  }
}

TEST(MetricsTest, HistogramObserveAndSnapshot) {
  Histogram h;
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(1.7);
  h.Observe(100.0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 103.7);
  EXPECT_DOUBLE_EQ(snap.mean(), 103.7 / 4);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(100.0)], 1u);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
}

TEST(MetricsTest, QuantileInterpolatesInsideLogBuckets) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(0.5), 0.0);  // empty histogram
  // Four observations in bucket 0 ([0, 1]): quantiles interpolate linearly
  // across the bucket's value range.
  for (int i = 0; i < 4; ++i) h.Observe(0.5);
  const HistogramSnapshot one_bucket = h.Snapshot();
  EXPECT_DOUBLE_EQ(one_bucket.Quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(one_bucket.Quantile(1.0), 1.0);
  EXPECT_DOUBLE_EQ(one_bucket.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(one_bucket.Quantile(-3.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(one_bucket.Quantile(7.0), 1.0);   // clamped

  // Two in (1, 2], two in (2, 4]: the median lands exactly on the first
  // bucket's upper bound, p75 halfway through the second.
  Histogram two;
  two.Observe(1.5);
  two.Observe(2.0);
  two.Observe(3.0);
  two.Observe(4.0);
  const HistogramSnapshot two_buckets = two.Snapshot();
  EXPECT_DOUBLE_EQ(two_buckets.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(two_buckets.Quantile(0.75), 3.0);

  // The unbounded last bucket reports its finite lower boundary instead of
  // extrapolating to infinity.
  Histogram top;
  top.Observe(1e300);
  EXPECT_DOUBLE_EQ(top.Snapshot().Quantile(0.99),
                   Histogram::BucketUpperBound(Histogram::kNumBuckets - 2));
}

// Golden values for the quantile endpoints and degenerate shapes. These pin
// the exact interpolation arithmetic (rank = q*count walked against
// cumulative bucket counts), so any future rebucketing or off-by-one in the
// rank math shows up as a golden diff rather than a silent p99 shift.
TEST(MetricsTest, QuantileEndpointAndSingleBucketGoldens) {
  // Empty snapshot: every quantile is 0 by definition.
  EXPECT_DOUBLE_EQ(Histogram().Snapshot().Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(Histogram().Snapshot().Quantile(1.0), 0.0);

  // All mass in one interior bucket: three observations of 3 land in bucket
  // 2 = (2, 4]. q=0 pins the bucket's lower bound, q=1 its upper bound, and
  // q=0.5 the exact midpoint of the value range.
  Histogram mid;
  for (int i = 0; i < 3; ++i) mid.Observe(3.0);
  const HistogramSnapshot single = mid.Snapshot();
  EXPECT_DOUBLE_EQ(single.Quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(single.Quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(single.Quantile(1.0), 4.0);

  // count == 1 in the first bucket [0, 1]: endpoints span the whole bucket.
  Histogram one;
  one.Observe(0.5);
  EXPECT_DOUBLE_EQ(one.Snapshot().Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(one.Snapshot().Quantile(1.0), 1.0);

  // Single observation in the unbounded last bucket: every quantile reports
  // the finite lower boundary 2^30 instead of extrapolating to infinity.
  Histogram huge;
  huge.Observe(1e12);
  const HistogramSnapshot top = huge.Snapshot();
  const double lower = Histogram::BucketUpperBound(Histogram::kNumBuckets - 2);
  EXPECT_DOUBLE_EQ(top.Quantile(0.0), lower);
  EXPECT_DOUBLE_EQ(top.Quantile(0.5), lower);
  EXPECT_DOUBLE_EQ(top.Quantile(1.0), lower);

  // Mass split across non-adjacent buckets (two in [0,1], two in (2,4]):
  // the median lands exactly on the first bucket's upper bound, and q=1 on
  // the occupied top bucket's upper bound — no bleed into the empty gap.
  Histogram split;
  split.Observe(0.5);
  split.Observe(1.0);
  split.Observe(3.0);
  split.Observe(4.0);
  const HistogramSnapshot gap = split.Snapshot();
  EXPECT_DOUBLE_EQ(gap.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(gap.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(gap.Quantile(1.0), 4.0);

  // Out-of-range q clamps to the endpoints rather than misindexing.
  EXPECT_DOUBLE_EQ(gap.Quantile(-0.5), gap.Quantile(0.0));
  EXPECT_DOUBLE_EQ(gap.Quantile(2.0), gap.Quantile(1.0));
}

TEST(MetricsTest, QuantileIsMonotoneInQ) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  const HistogramSnapshot snap = h.Snapshot();
  double previous = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double value = snap.Quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
  // Sanity: p50 of 1..1000 must land in the right log bucket, i.e. within
  // (256, 1024] — bucket resolution, not exact-rank, accuracy.
  EXPECT_GT(snap.Quantile(0.5), 256.0);
  EXPECT_LE(snap.Quantile(0.5), 1024.0);
}

TEST(MetricsTest, RegistryReferencesSurviveResetAll) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& c = registry.counter("obs_test.stable_counter");
  Gauge& g = registry.gauge("obs_test.stable_gauge");
  c.Increment(7);
  g.Set(2.5);
  registry.ResetAll();
  // Same objects, zeroed values: cached references stay usable.
  EXPECT_EQ(&c, &registry.counter("obs_test.stable_counter"));
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  c.Increment();
  EXPECT_EQ(registry.counter("obs_test.stable_counter").value(), 1u);
}

TEST(MetricsTest, SnapshotAndDumpAreDeterministic) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("obs_test.snap_counter").Increment(3);
  registry.histogram("obs_test.snap_hist").Observe(5.0);
  const MetricsSnapshot a = registry.Snapshot();
  const MetricsSnapshot b = registry.Snapshot();
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  EXPECT_EQ(a.counters.at("obs_test.snap_counter"), 3u);
  EXPECT_EQ(registry.DumpText(), registry.DumpText());
  EXPECT_NE(registry.DumpText().find("obs_test.snap_counter"),
            std::string::npos);
}

TEST(MetricsTest, SourceCallCounterNameMapping) {
  EXPECT_STREQ(metrics::SourceCallCounterName("sq"), metrics::kSourceCallsSq);
  EXPECT_STREQ(metrics::SourceCallCounterName("sjq"),
               metrics::kSourceCallsSjq);
  EXPECT_STREQ(metrics::SourceCallCounterName("probe"),
               metrics::kSourceCallsProbe);
  EXPECT_STREQ(metrics::SourceCallCounterName("lq"), metrics::kSourceCallsLq);
  EXPECT_STREQ(metrics::SourceCallCounterName("fetch"),
               metrics::kSourceCallsFetch);
}

// ---------------------------------------------------------------------------
// Tracer mechanics
// ---------------------------------------------------------------------------

/// Enables the global tracer for one test and restores the disabled default
/// (draining any leftovers) on exit, so tests cannot leak spans into each
/// other.
class ScopedTracing {
 public:
  ScopedTracing() {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
  }
  ~ScopedTracing() {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Disable();
  Tracer::Global().Clear();
  {
    ScopedSpan span(SpanCategory::kPlanOp, "ignored");
    EXPECT_FALSE(span.active());
    span.AddAttr("key", "value");  // must be a safe no-op
  }
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

TEST(TracerTest, NestedSpansOrderAndContainment) {
  ScopedTracing tracing;
  {
    ScopedSpan outer(SpanCategory::kPhase, "outer");
    EXPECT_TRUE(outer.active());
    outer.AddAttr("detail", "top");
    {
      ScopedSpan inner(SpanCategory::kPlanOp, "inner");
      inner.AddAttr("op", static_cast<int64_t>(0));
    }
  }
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: the enclosing span first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[0].thread_id, spans[1].thread_id);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_GE(spans[0].end_us, spans[1].end_us);
  ASSERT_EQ(spans[0].attributes.size(), 1u);
  EXPECT_EQ(spans[0].attributes[0].first, "detail");
  EXPECT_EQ(spans[0].attributes[0].second, "top");
}

TEST(TracerTest, DrainEmptiesTheBuffer) {
  ScopedTracing tracing;
  { ScopedSpan span(SpanCategory::kCache, "once"); }
  EXPECT_EQ(Tracer::Global().Drain().size(), 1u);
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

TEST(TracerTest, TraceHandleWindowFiltersSpans) {
  ScopedTracing tracing;
  Tracer& tracer = Tracer::Global();
  { ScopedSpan span(SpanCategory::kPhase, "before"); }
  TraceHandle handle;
  handle.enabled = true;
  handle.start_us = tracer.NowMicros();
  { ScopedSpan span(SpanCategory::kPhase, "inside"); }
  handle.end_us = tracer.NowMicros();
  { ScopedSpan span(SpanCategory::kPhase, "after"); }
  const std::vector<SpanRecord> windowed = handle.Spans();
  ASSERT_EQ(windowed.size(), 1u);
  EXPECT_EQ(windowed[0].name, "inside");
}

TEST(TracerTest, ParallelSpansLandOnDistinctThreadIds) {
  ScopedTracing tracing;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      ScopedSpan span(SpanCategory::kPlanOp, "worker");
      span.AddAttr("index", static_cast<int64_t>(t));
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads));
  std::vector<uint32_t> tids;
  for (const SpanRecord& s : spans) tids.push_back(s.thread_id);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end())
      << "each OS thread must get its own dense id";
}

// ---------------------------------------------------------------------------
// Distributed trace context
// ---------------------------------------------------------------------------

TEST(TraceContextTest, MintIdIsNonZeroAndDistinct) {
  const uint64_t a = Tracer::MintId();
  const uint64_t b = Tracer::MintId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceContextTest, ScopeInstallsAndRestoresContext) {
  EXPECT_FALSE(Tracer::CurrentContext().valid());
  {
    TraceContextScope scope(TraceContext{7, 9});
    EXPECT_EQ(Tracer::CurrentContext().trace_id, 7u);
    EXPECT_EQ(Tracer::CurrentContext().span_id, 9u);
    {
      // An invalid inbound context must NOT clobber the ambient one: a
      // request with no trace fields leaves the local trace in place.
      TraceContextScope noop(TraceContext{});
      EXPECT_EQ(Tracer::CurrentContext().trace_id, 7u);
    }
    EXPECT_EQ(Tracer::CurrentContext().trace_id, 7u);
  }
  EXPECT_FALSE(Tracer::CurrentContext().valid());
}

TEST(TraceContextTest, SpansJoinTheAmbientTraceAndParentEachOther) {
  ScopedTracing tracing;
  const TraceContext inbound{0xfeedULL, 0xbeefULL};
  {
    TraceContextScope scope(inbound);
    ScopedSpan outer(SpanCategory::kRpc, "outer");
    { ScopedSpan inner(SpanCategory::kPlanOp, "inner"); }
  }
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& outer = spans[0].name == "outer" ? spans[0] : spans[1];
  const SpanRecord& inner = spans[0].name == "inner" ? spans[0] : spans[1];
  // Both spans join the adopted trace; the outer span's parent is the
  // inbound span id, the inner span's parent is the outer span itself.
  EXPECT_EQ(outer.trace_id, inbound.trace_id);
  EXPECT_EQ(inner.trace_id, inbound.trace_id);
  EXPECT_EQ(outer.parent_id, inbound.span_id);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_NE(outer.span_id, 0u);
  EXPECT_NE(inner.span_id, 0u);
  EXPECT_NE(outer.span_id, inner.span_id);
}

TEST(TraceContextTest, RootSpanMintsItsOwnTraceId) {
  ScopedTracing tracing;
  { ScopedSpan root(SpanCategory::kPhase, "root"); }
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_NE(spans[0].trace_id, 0u);
  EXPECT_EQ(spans[0].parent_id, 0u);
}

TEST(TraceContextTest, ThreadPoolTasksInheritTheSubmittersContext) {
  ScopedTracing tracing;
  const TraceContext inbound{0xabcULL, 0x123ULL};
  {
    TraceContextScope scope(inbound);
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) {
      pool.Submit([] { ScopedSpan span(SpanCategory::kPlanOp, "task"); });
    }
    // Pool destructor drains and joins all tasks.
  }
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, inbound.trace_id)
        << "task span escaped the submitter's trace";
    EXPECT_EQ(span.parent_id, inbound.span_id);
  }
}

TEST(TraceContextTest, ContextFlowsEvenWithTracingDisabled) {
  Tracer::Global().Disable();
  TraceContextScope scope(TraceContext{11, 22});
  // No spans are recorded, but the ambient context must still be visible —
  // this is what lets an untraced daemon forward the client's ids to a
  // traced source server.
  EXPECT_EQ(Tracer::CurrentContext().trace_id, 11u);
  EXPECT_EQ(Tracer::CurrentContext().span_id, 22u);
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

// ---------------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------------

/// Minimal structural JSON check: balanced braces/brackets outside strings,
/// proper string termination, no trailing garbage. Not a full parser — just
/// enough to catch broken escaping or truncation in the exporter.
bool JsonLooksValid(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (c == '\n') {
        return false;  // raw newline inside a string literal
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST(TraceExportTest, ChromeTraceJsonIsStructurallyValid) {
  SpanRecord span;
  span.name = "needs \"escaping\"\n\tand control\x01 chars";
  span.category = SpanCategory::kSourceCall;
  span.start_us = 10.0;
  span.end_us = 32.5;
  span.thread_id = 3;
  span.attributes = {{"source", "DMV\\1"}, {"cost", "12.5"}};
  const std::string json = ChromeTraceJson({span});
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"source_call\""), std::string::npos);
  EXPECT_NE(json.find("\\\"escaping\\\""), std::string::npos);
}

TEST(TraceExportTest, ExportCarriesDistributedIdsAsHex) {
  SpanRecord span;
  span.name = "rpc";
  span.category = SpanCategory::kRpc;
  span.start_us = 1.0;
  span.end_us = 2.0;
  span.trace_id = 0xdeadbeefcafef00dULL;
  span.span_id = 0x42;
  span.parent_id = 0x17;
  const std::string json = ChromeTraceJson({span});
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  // Fixed-width hex strings: what tools/trace_merge.py keys its shared
  // trace-id / unique span-id checks on.
  EXPECT_NE(json.find("\"trace_id\":\"deadbeefcafef00d\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"span_id\":\"0000000000000042\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\":\"0000000000000017\""),
            std::string::npos);
}

TEST(TraceExportTest, ExecutionTraceContainsExpectedCategories) {
  const auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  Plan plan;
  std::vector<int> dui, sp;
  for (int j = 0; j < 3; ++j) dui.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(dui, "X1");
  for (int j = 0; j < 3; ++j) sp.push_back(plan.EmitSemiJoin(1, j, x1));
  plan.SetResult(plan.EmitUnion(sp, "X2"));

  ScopedTracing tracing;
  const auto report =
      ExecutePlan(plan, instance->catalog, instance->query, ExecOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string json = ChromeTraceJson(Tracer::Global().Snapshot());
  EXPECT_TRUE(JsonLooksValid(json));
  EXPECT_NE(json.find("\"cat\":\"plan_op\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"source_call\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sq\""), std::string::npos);
  // The flame summary covers every category that appeared.
  const std::string summary = FlameSummary(Tracer::Global().Snapshot());
  EXPECT_NE(summary.find("plan_op"), std::string::npos);
  EXPECT_NE(summary.find("source_call"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end executor invariants
// ---------------------------------------------------------------------------

size_t CountCategory(const std::vector<SpanRecord>& spans, SpanCategory cat) {
  size_t n = 0;
  for (const SpanRecord& s : spans) {
    if (s.category == cat) ++n;
  }
  return n;
}

TEST(ObsExecutionTest, SequentialSpanCountsMatchPlanAndLedger) {
  const auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  Plan plan;
  std::vector<int> dui, sp;
  for (int j = 0; j < 3; ++j) dui.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(dui, "X1");
  for (int j = 0; j < 3; ++j) sp.push_back(plan.EmitSelect(1, j));
  const int u2 = plan.EmitUnion(sp, "U2");
  plan.SetResult(plan.EmitIntersect({x1, u2}, "X2"));

  ScopedTracing tracing;
  const auto report =
      ExecutePlan(plan, instance->catalog, instance->query, ExecOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  EXPECT_EQ(CountCategory(spans, SpanCategory::kPlanOp), plan.num_ops());
  EXPECT_EQ(CountCategory(spans, SpanCategory::kSourceCall),
            report->ledger.num_queries());
  EXPECT_TRUE(report->trace.enabled);
  EXPECT_EQ(report->trace.Spans().size(), spans.size())
      << "every span of this execution falls inside the report's window";
}

TEST(ObsExecutionTest, ParallelRunOverlapsSpansOnDistinctThreads) {
  const auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  Plan plan;
  std::vector<int> dui, sp;
  for (int j = 0; j < 3; ++j) dui.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(dui, "X1");
  for (int j = 0; j < 3; ++j) sp.push_back(plan.EmitSelect(1, j));
  const int u2 = plan.EmitUnion(sp, "U2");
  plan.SetResult(plan.EmitIntersect({x1, u2}, "X2"));

  ScopedTracing tracing;
  ExecOptions options;
  options.parallelism = 4;
  options.simulated_seconds_per_cost = 2e-4;  // make overlap observable
  const auto report =
      ExecutePlan(plan, instance->catalog, instance->query, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  EXPECT_EQ(CountCategory(spans, SpanCategory::kPlanOp), plan.num_ops());
  EXPECT_EQ(CountCategory(spans, SpanCategory::kSourceCall),
            report->ledger.num_queries());

  // The two sources' select chains are data-independent, so with >= 2
  // workers some pair of plan-op spans must overlap in time on different
  // thread ids.
  bool overlap_across_threads = false;
  for (size_t a = 0; a < spans.size() && !overlap_across_threads; ++a) {
    if (spans[a].category != SpanCategory::kPlanOp) continue;
    for (size_t b = a + 1; b < spans.size(); ++b) {
      if (spans[b].category != SpanCategory::kPlanOp) continue;
      if (spans[a].thread_id == spans[b].thread_id) continue;
      if (spans[b].start_us < spans[a].end_us &&
          spans[a].start_us < spans[b].end_us) {
        overlap_across_threads = true;
        break;
      }
    }
  }
  EXPECT_TRUE(overlap_across_threads)
      << "parallel execution produced no concurrent plan-op spans";
}

TEST(ObsExecutionTest, RetriesSurfaceOnReportAndKeepSpanInvariant) {
  const auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  SourceCatalog flaky;
  for (size_t j = 0; j < instance->catalog.size(); ++j) {
    const SimulatedSource* sim = instance->catalog.source(j).AsSimulated();
    ASSERT_NE(sim, nullptr);
    FlakySource::Options options;
    options.fail_first_k = j == 0 ? 2 : 0;  // source 0: first two calls fail
    ASSERT_TRUE(flaky
                    .Add(std::make_unique<FlakySource>(
                        std::make_unique<SimulatedSource>(*sim), options))
                    .ok());
  }
  Plan plan;
  plan.SetResult(plan.EmitSelect(0, 0));

  ScopedTracing tracing;
  ExecOptions options;
  options.retry.max_attempts = 4;
  const auto report = ExecutePlan(plan, flaky, instance->query, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->retries_total, 2u);
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  // 3 attempts = 3 ledger charges = 3 source_call spans, plus 2 retry spans.
  EXPECT_EQ(report->ledger.num_queries(), 3u);
  EXPECT_EQ(CountCategory(spans, SpanCategory::kSourceCall), 3u);
  EXPECT_EQ(CountCategory(spans, SpanCategory::kRetry), 2u);
}

TEST(ObsExecutionTest, CacheHitsAndMissesSurfaceOnReport) {
  const auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  Plan plan;
  std::vector<int> dui;
  for (int j = 0; j < 3; ++j) dui.push_back(plan.EmitSelect(0, j));
  plan.SetResult(plan.EmitUnion(dui, "X1"));

  SourceCallCache cache;
  ExecOptions options;
  options.cache = &cache;
  const auto first =
      ExecutePlan(plan, instance->catalog, instance->query, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->cache_hits, 0u);
  EXPECT_EQ(first->cache_misses, 3u);

  ScopedTracing tracing;
  const auto second =
      ExecutePlan(plan, instance->catalog, instance->query, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->cache_hits, 3u);
  EXPECT_EQ(second->cache_misses, 0u);
  // Cache hits issue no source call: zero charges, zero source_call spans —
  // the 1:1 invariant holds — and each hit leaves a cache span instead.
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  EXPECT_EQ(second->ledger.num_queries(), 0u);
  EXPECT_EQ(CountCategory(spans, SpanCategory::kSourceCall), 0u);
  EXPECT_EQ(CountCategory(spans, SpanCategory::kCache), 3u);
}

// ---------------------------------------------------------------------------
// STATS exposition grammar (golden) and SLO registry
// ---------------------------------------------------------------------------

TEST(ExpositionTest, GoldenRenderPinsTheGrammar) {
  // A hand-built snapshot with every sample shape: bare counter, gauge,
  // labelled tenant counters, and a labelled histogram — plus a tenant name
  // that needs every escape. The full text is pinned byte-for-byte: any
  // change to sorting, escaping, value formatting, or the schema header is
  // a deliberate schema bump, not an accident.
  MetricsSnapshot metrics;
  metrics.counters["requests_total"] = 42;
  metrics.gauges["queue_depth"] = 3.5;
  TenantSloSnapshot tenant;
  tenant.tenant = "a\"b\\c";
  tenant.requests = 2;
  tenant.errors = 1;
  tenant.degraded = 1;
  tenant.metered_cost = 12.5;
  tenant.error_rate = 0.5;
  Histogram latency;
  latency.Observe(0.5);
  latency.Observe(3.0);
  tenant.latency_ms = latency.Snapshot();

  const std::string text = RenderStatsText(metrics, {tenant});
  const std::string expected =
      "# fusionq-stats schema 1\n"
      "queue_depth 3.5\n"
      "requests_total 42\n"
      "tenant_cancelled_total{tenant=\"a\\\"b\\\\c\"} 0\n"
      "tenant_deadline_exceeded_total{tenant=\"a\\\"b\\\\c\"} 0\n"
      "tenant_degraded_total{tenant=\"a\\\"b\\\\c\"} 1\n"
      "tenant_error_rate{tenant=\"a\\\"b\\\\c\"} 0.5\n"
      "tenant_errors_total{tenant=\"a\\\"b\\\\c\"} 1\n"
      "tenant_latency_ms_count{tenant=\"a\\\"b\\\\c\"} 2\n"
      "tenant_latency_ms_sum{tenant=\"a\\\"b\\\\c\"} 3.5\n"
      "tenant_latency_ms{tenant=\"a\\\"b\\\\c\",quantile=\"0.5\"} 1\n"
      "tenant_latency_ms{tenant=\"a\\\"b\\\\c\",quantile=\"0.95\"} 3.8\n"
      "tenant_latency_ms{tenant=\"a\\\"b\\\\c\",quantile=\"0.99\"} 3.96\n"
      "tenant_metered_cost_total{tenant=\"a\\\"b\\\\c\"} 12.5\n"
      "tenant_requests_total{tenant=\"a\\\"b\\\\c\"} 2\n"
      "tenant_shed_total{tenant=\"a\\\"b\\\\c\"} 0\n";
  EXPECT_EQ(text, expected);
}

TEST(ExpositionTest, ParseRoundTripsTheRender) {
  MetricsSnapshot metrics;
  metrics.counters["requests_total"] = 7;
  TenantSloSnapshot tenant;
  tenant.tenant = "needs\nnewline\"and\\slash";
  tenant.requests = 3;
  const std::string text = RenderStatsText(metrics, {tenant});
  const Result<StatsExposition> parsed = ParseStatsText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema, kStatsSchemaVersion);
  const StatsSample* requests = parsed->Find("requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_DOUBLE_EQ(requests->value, 7.0);
  // The escaped tenant label value comes back verbatim.
  const StatsSample* tenant_requests =
      parsed->Find("tenant_requests_total", tenant.tenant);
  ASSERT_NE(tenant_requests, nullptr);
  EXPECT_DOUBLE_EQ(tenant_requests->value, 3.0);
}

TEST(ExpositionTest, ParserRejectsMalformedText) {
  EXPECT_FALSE(ParseStatsText("").ok());
  EXPECT_FALSE(ParseStatsText("requests_total 1\n").ok());  // no header
  EXPECT_FALSE(ParseStatsText("# fusionq-stats schema x\n").ok());
  const std::string header = "# fusionq-stats schema 1\n";
  EXPECT_FALSE(ParseStatsText(header + "name_without_value\n").ok());
  EXPECT_FALSE(ParseStatsText(header + "name{unterminated=\"v} 1\n").ok());
  EXPECT_FALSE(ParseStatsText(header + "name notanumber\n").ok());
  // Unknown sample names are future schema, not errors.
  const auto superset =
      ParseStatsText(header + "metric_from_the_future 9\n");
  ASSERT_TRUE(superset.ok());
  EXPECT_EQ(superset->samples.size(), 1u);
}

TEST(SloRegistryTest, AccountsOutcomesPerTenant) {
  SloRegistry slo;
  slo.Register("idle");  // connected but never queried: visible, all zeros
  slo.RecordCompletion("alpha", 5.0, 10.0, true, StatusCode::kOk, true);
  slo.RecordCompletion("alpha", 7.0, 2.5, true, StatusCode::kOk, false);
  slo.RecordCompletion("alpha", 3.0, 0.0, false,
                       StatusCode::kDeadlineExceeded, true);
  slo.RecordCompletion("alpha", 4.0, 0.0, false, StatusCode::kCancelled,
                       true);
  slo.RecordShed("alpha");
  slo.RecordCompletion("beta", 1.0, 1.0, true, StatusCode::kOk, true);

  const std::vector<TenantSloSnapshot> tenants = slo.Snapshot();
  ASSERT_EQ(tenants.size(), 3u);  // sorted: alpha, beta, idle
  const TenantSloSnapshot& alpha = tenants[0];
  EXPECT_EQ(alpha.tenant, "alpha");
  EXPECT_EQ(alpha.requests, 4u);
  EXPECT_EQ(alpha.errors, 2u);
  EXPECT_EQ(alpha.shed, 1u);
  EXPECT_EQ(alpha.deadline_exceeded, 1u);
  EXPECT_EQ(alpha.cancelled, 1u);
  EXPECT_EQ(alpha.degraded, 1u);
  EXPECT_DOUBLE_EQ(alpha.metered_cost, 12.5);
  EXPECT_DOUBLE_EQ(alpha.error_rate, 0.5);  // 2 errors in 4 completions
  EXPECT_EQ(alpha.latency_ms.count, 4u);
  EXPECT_DOUBLE_EQ(alpha.latency_ms.sum, 19.0);
  EXPECT_EQ(tenants[1].tenant, "beta");
  EXPECT_EQ(tenants[2].tenant, "idle");
  EXPECT_EQ(tenants[2].requests, 0u);
}

TEST(SloRegistryTest, ErrorRateIsRollingNotLifetime) {
  SloRegistry slo;
  // Fill the window with errors, then recover with a full window of
  // successes: the lifetime ratio stays high, the rolling rate reads clean.
  for (size_t i = 0; i < SloRegistry::kErrorWindow; ++i) {
    slo.RecordCompletion("t", 1.0, 0.0, false, StatusCode::kInternal, true);
  }
  EXPECT_DOUBLE_EQ(slo.Snapshot()[0].error_rate, 1.0);
  for (size_t i = 0; i < SloRegistry::kErrorWindow; ++i) {
    slo.RecordCompletion("t", 1.0, 0.0, true, StatusCode::kOk, true);
  }
  const TenantSloSnapshot snap = slo.Snapshot()[0];
  EXPECT_DOUBLE_EQ(snap.error_rate, 0.0);
  EXPECT_EQ(snap.errors, SloRegistry::kErrorWindow);  // lifetime count stays
}

TEST(SloRegistryTest, TenantTableIsBoundedAndLosesNoCounts) {
  // Tenant names arrive from outside (HELLO); past the cap every new name
  // shares the overflow row, and its traffic is still accounted there.
  constexpr size_t kNames = SloRegistry::kMaxTenants + 50;
  SloRegistry slo;
  for (size_t i = 0; i < kNames; ++i) {
    const std::string name = "tenant" + std::to_string(i);
    slo.Register(name);
    slo.RecordCompletion(name, 1.0, 2.0, true, StatusCode::kOk, true);
  }
  const std::vector<TenantSloSnapshot> tenants = slo.Snapshot();
  ASSERT_EQ(tenants.size(), SloRegistry::kMaxTenants + 1);
  uint64_t requests = 0;
  double cost = 0.0;
  const TenantSloSnapshot* overflow = nullptr;
  for (const TenantSloSnapshot& t : tenants) {
    requests += t.requests;
    cost += t.metered_cost;
    if (t.tenant == SloRegistry::kOverflowTenant) overflow = &t;
  }
  EXPECT_EQ(requests, kNames);
  EXPECT_DOUBLE_EQ(cost, 2.0 * kNames);
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(overflow->requests, 50u);
  EXPECT_EQ(overflow->latency_ms.count, 50u);
  // Each folded name was looked up twice: its HELLO and its completion.
  EXPECT_EQ(slo.overflowed(), 100u);
  // A name admitted before the table filled keeps its own row.
  slo.RecordCompletion("tenant0", 1.0, 2.0, true, StatusCode::kOk, true);
  EXPECT_EQ(slo.overflowed(), 100u);
}

// ---------------------------------------------------------------------------
// Logging thread safety
// ---------------------------------------------------------------------------

TEST(LoggingTest, ConcurrentSeverityChangesAreSafe) {
  using internal_logging::LogSeverity;
  const LogSeverity original = internal_logging::MinLogSeverity();
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int i = 0; i < 500; ++i) {
      internal_logging::SetMinLogSeverity(i % 2 == 0 ? LogSeverity::kError
                                                     : LogSeverity::kWarning);
    }
    stop.store(true);
  });
  std::vector<std::thread> loggers;
  for (int t = 0; t < 3; ++t) {
    loggers.emplace_back([&] {
      while (!stop.load()) {
        FUSION_LOG(Info) << "swallowed below the minimum severity";
      }
    });
  }
  toggler.join();
  for (std::thread& t : loggers) t.join();
  internal_logging::SetMinLogSeverity(original);
}

}  // namespace
}  // namespace fusion
