// Tests for the observability layer: span tracing, labeled metrics, the
// exposition writers, the Chrome trace export, and the latency breakdown.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/breakdown.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace udc {
namespace {

// A tracer whose clock the test advances by hand.
class SpanTest : public ::testing::Test {
 protected:
  SpanTest() : tracer_([this] { return now_; }) {}

  SimTime now_;
  SpanTracer tracer_;
};

TEST_F(SpanTest, BeginEndRecordsInterval) {
  now_ = SimTime::Millis(10);
  const uint64_t id = tracer_.Begin("exec", "exec.task_run", {{"module", "A1"}});
  ASSERT_NE(id, 0u);
  now_ = SimTime::Millis(25);
  tracer_.End(id);

  const Span* span = tracer_.SpanById(id);
  ASSERT_NE(span, nullptr);
  EXPECT_FALSE(span->open);
  EXPECT_EQ(span->start, SimTime::Millis(10));
  EXPECT_EQ(span->end, SimTime::Millis(25));
  EXPECT_EQ(span->duration(), SimTime::Millis(15));
  ASSERT_NE(span->Label("module"), nullptr);
  EXPECT_EQ(*span->Label("module"), "A1");
  EXPECT_EQ(span->Label("missing"), nullptr);
  EXPECT_NE(span->trace_id, 0u);
  EXPECT_EQ(span->parent_span_id, 0u);
}

TEST_F(SpanTest, ScopedSpansNestAndShareTraceId) {
  uint64_t inner_id = 0;
  uint64_t outer_id = 0;
  {
    ScopedSpan outer(&tracer_, "sched", "sched.deploy");
    outer_id = outer.id();
    EXPECT_EQ(tracer_.CurrentScope(), outer_id);
    {
      ScopedSpan inner(&tracer_, "sched", "sched.place_task");
      inner_id = inner.id();
      EXPECT_EQ(tracer_.CurrentScope(), inner_id);
    }
    EXPECT_EQ(tracer_.CurrentScope(), outer_id);
  }
  EXPECT_EQ(tracer_.CurrentScope(), 0u);

  const Span* outer = tracer_.SpanById(outer_id);
  const Span* inner = tracer_.SpanById(inner_id);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent_span_id, outer_id);
  EXPECT_EQ(inner->trace_id, outer->trace_id);
  EXPECT_FALSE(outer->open);
  EXPECT_FALSE(inner->open);
}

TEST_F(SpanTest, AsyncSpanCapturesParentAtBegin) {
  uint64_t async_id = 0;
  {
    ScopedSpan scope(&tracer_, "exec", "exec.stage");
    async_id = tracer_.Begin("net", "net.message");
  }
  // The scope closed before the async span; the parent link must survive.
  now_ = SimTime::Millis(5);
  tracer_.End(async_id);
  const Span* async_span = tracer_.SpanById(async_id);
  ASSERT_NE(async_span, nullptr);
  EXPECT_NE(async_span->parent_span_id, 0u);
  EXPECT_EQ(async_span->parent_span_id,
            tracer_.Find("exec.stage")->span_id);
}

TEST_F(SpanTest, RootSpansStartFreshTraces) {
  const uint64_t a = tracer_.Begin("run", "run.invoke");
  tracer_.End(a);
  const uint64_t b = tracer_.Begin("run", "run.invoke");
  tracer_.End(b);
  EXPECT_NE(tracer_.SpanById(a)->trace_id, tracer_.SpanById(b)->trace_id);
}

TEST_F(SpanTest, ExplicitTimesAndEndClamp) {
  const uint64_t id = tracer_.BeginAt(SimTime::Millis(100), "exec",
                                      "exec.compute");
  tracer_.EndAt(id, SimTime::Millis(40));  // before start: clamped
  const Span* span = tracer_.SpanById(id);
  EXPECT_EQ(span->end, span->start);
  EXPECT_EQ(span->duration(), SimTime(0));
}

TEST_F(SpanTest, OnEndSinkFiresOncePerSpan) {
  const uint64_t id = tracer_.Begin("exec", "exec.task_run");
  tracer_.End(id);
  tracer_.End(id);  // double-end is a no-op
  EXPECT_EQ(tracer_.closed(), 1u);
  tracer_.Clear();  // the count outlives the spans
  EXPECT_EQ(tracer_.closed(), 1u);
}

// Past capacity each new span takes the oldest one's slot: the newest stay
// findable, the overwritten ids read as absent, and every close still
// counts, so closed spans never count as dropped. A span still open when
// its slot is reused does: it loses its close, and its later End and
// AddLabel touch nothing.
TEST_F(SpanTest, EvictsOldestPastCapacity) {
  constexpr uint64_t kCapacity = SpanTracer::kCapacity;
  uint64_t last = 0;
  for (uint64_t i = 0; i < kCapacity + 3; ++i) {
    last = tracer_.Begin("a", "a.x");
    ASSERT_EQ(last, i + 1);
    tracer_.End(last);
  }
  EXPECT_EQ(tracer_.closed(), kCapacity + 3);
  EXPECT_EQ(tracer_.dropped(), 0u);
  EXPECT_EQ(tracer_.size(), kCapacity);
  ASSERT_NE(tracer_.SpanById(last), nullptr);
  EXPECT_EQ(tracer_.SpanById(last)->span_id, last);
  ASSERT_NE(tracer_.SpanById(4), nullptr);
  for (uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(tracer_.SpanById(id), nullptr) << id;
  }
  // Iteration runs oldest first over the retained ids.
  EXPECT_EQ(tracer_.spans().front().span_id, 4u);
  EXPECT_EQ(tracer_.spans().back().span_id, last);

  const uint64_t open = tracer_.Begin("a", "a.open");
  for (uint64_t i = 0; i < kCapacity; ++i) {
    tracer_.End(tracer_.Begin("a", "a.x"));
  }
  EXPECT_EQ(tracer_.dropped(), 1u);
  EXPECT_EQ(tracer_.SpanById(open), nullptr);
  const Span* reused = tracer_.SpanById(open + kCapacity);
  ASSERT_NE(reused, nullptr);
  tracer_.AddLabel(open, "k", "v");
  tracer_.End(open);
  EXPECT_EQ(tracer_.closed(), 2 * kCapacity + 3);
  EXPECT_TRUE(reused->labels.empty());
  EXPECT_EQ(reused->name, "a.x");
}

TEST(HistogramTest, QuantilesOnKnownDistribution) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(static_cast<double>(i));
  }
  // Exact quantiles with linear interpolation over 1..100.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 50.5);
  EXPECT_NEAR(h.Quantile(0.95), 95.05, 1e-9);
  EXPECT_NEAR(h.Quantile(0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.count(), 100);
}

TEST(HistogramTest, SingleSampleIsEveryQuantile) {
  Histogram h;
  h.Add(42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 42.0);
}

TEST(HistogramTest, EmptyHistogramIsZeroEverywhere) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(MetricsTest, SeriesKeySortsLabels) {
  EXPECT_EQ(MetricSeriesKey("sched.placed", {}), "sched.placed");
  EXPECT_EQ(MetricSeriesKey("sched.placed", {{"b", "2"}, {"a", "1"}}),
            "sched.placed{a=\"1\",b=\"2\"}");
}

TEST(MetricsTest, LabeledSeriesAreDistinct) {
  MetricsRegistry metrics;
  metrics.IncrementCounter("sched.modules_placed");
  metrics.IncrementCounter("sched.modules_placed", {{"kind", "task"}}, 2);
  metrics.IncrementCounter("sched.modules_placed", {{"kind", "data"}}, 3);
  EXPECT_EQ(metrics.counter("sched.modules_placed"), 1);
  EXPECT_EQ(metrics.counter("sched.modules_placed", {{"kind", "task"}}), 2);
  EXPECT_EQ(metrics.counter("sched.modules_placed", {{"kind", "data"}}), 3);

  metrics.SetGauge("monitor.utilization", {{"module", "1"}}, 0.25);
  metrics.SetGauge("monitor.utilization", {{"module", "2"}}, 0.75);
  EXPECT_DOUBLE_EQ(metrics.gauge("monitor.utilization", {{"module", "1"}}),
                   0.25);
  EXPECT_DOUBLE_EQ(metrics.gauge("monitor.utilization", {{"module", "2"}}),
                   0.75);

  metrics.Observe("exec.latency_ms", {{"mode", "cold"}}, 9.0);
  EXPECT_EQ(metrics.histogram("exec.latency_ms"), nullptr);
  ASSERT_NE(metrics.histogram("exec.latency_ms", {{"mode", "cold"}}), nullptr);
  EXPECT_EQ(metrics.histogram("exec.latency_ms", {{"mode", "cold"}})->count(),
            1);
}

TEST(MetricsTest, HandlesShareSeriesWithStringApi) {
  // An interned handle and the string-addressed calls hit the same series,
  // so hot paths can migrate to handles without splitting their metrics.
  MetricsRegistry metrics;
  const CounterHandle sent = metrics.CounterSeries("net.messages_sent");
  EXPECT_TRUE(sent.valid());
  metrics.Increment(sent);
  metrics.IncrementCounter("net.messages_sent", 2);
  metrics.Increment(sent, 3);
  EXPECT_EQ(metrics.counter("net.messages_sent"), 6);
  EXPECT_EQ(metrics.value(sent), 6);

  const GaugeHandle util = metrics.GaugeSeries("monitor.utilization");
  metrics.Set(util, 0.5);
  metrics.AddToGauge("monitor.utilization", 0.25);
  EXPECT_DOUBLE_EQ(metrics.value(util), 0.75);

  const HistogramHandle lat = metrics.HistogramSeries("exec.latency_ms");
  metrics.Observe(lat, 10.0);
  metrics.Observe("exec.latency_ms", 30.0);
  ASSERT_NE(metrics.histogram("exec.latency_ms"), nullptr);
  EXPECT_EQ(metrics.histogram("exec.latency_ms")->count(), 2);
  EXPECT_EQ(metrics.value(lat).count(), 2);
}

TEST(MetricsTest, LabeledHandlesFoldLabelsOnce) {
  MetricsRegistry metrics;
  // Label order at the interning call must not matter: both spellings
  // resolve to the same canonical series.
  const CounterHandle ab =
      metrics.CounterSeries("sched.modules_placed", {{"b", "2"}, {"a", "1"}});
  const CounterHandle ba =
      metrics.CounterSeries("sched.modules_placed", {{"a", "1"}, {"b", "2"}});
  metrics.Increment(ab);
  metrics.Increment(ba);
  EXPECT_EQ(
      metrics.counter("sched.modules_placed", {{"a", "1"}, {"b", "2"}}), 2);
  EXPECT_EQ(metrics.counter_series_count(), 1u);
}

TEST(MetricsTest, HandlesStayValidAcrossLaterInterning) {
  // Interning more series (growing the store) must not invalidate handles
  // or histogram pointers handed out earlier.
  MetricsRegistry metrics;
  const CounterHandle first = metrics.CounterSeries("a.first");
  const HistogramHandle hist = metrics.HistogramSeries("a.first_ms");
  metrics.Observe(hist, 1.0);
  const MetricHistogram* raw = metrics.histogram("a.first_ms");
  for (int i = 0; i < 200; ++i) {
    metrics.IncrementCounter(MetricSeriesKey("bulk.series", {}) +
                             std::to_string(i));
    metrics.Observe("bulk.hist_ms" + std::to_string(i), 1.0);
  }
  metrics.Increment(first);
  metrics.Observe(hist, 2.0);
  EXPECT_EQ(metrics.value(first), 1);
  EXPECT_EQ(metrics.histogram("a.first_ms"), raw);  // address stability
  EXPECT_EQ(raw->count(), 2);
}

TEST(MetricsTest, ReportIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry a;
  a.IncrementCounter("z.last");
  a.SetGauge("m.middle", 1.5);
  a.Observe("a.first_ms", 10.0);
  a.Observe("a.first_ms", 20.0);

  MetricsRegistry b;
  b.Observe("a.first_ms", 10.0);
  b.IncrementCounter("z.last");
  b.Observe("a.first_ms", 20.0);
  b.SetGauge("m.middle", 1.5);

  EXPECT_EQ(a.Report(), b.Report());
  EXPECT_EQ(PrometheusExposition(a), PrometheusExposition(b));
  EXPECT_EQ(JsonSnapshot(a), JsonSnapshot(b));
}

TEST(ExpositionTest, PrometheusNameManglesDots) {
  EXPECT_EQ(PrometheusMetricName("core.runs"), "udc_core_runs");
  EXPECT_EQ(PrometheusMetricName("exec.cold_start_latency_ms"),
            "udc_exec_cold_start_latency_ms");
}

TEST(ExpositionTest, RendersCountersGaugesAndSummaries) {
  MetricsRegistry metrics;
  metrics.IncrementCounter("core.runs", 3);
  metrics.SetGauge("monitor.utilization", {{"module", "7"}}, 0.5);
  for (int i = 1; i <= 4; ++i) {
    metrics.Observe("exec.cold_start_latency_ms", 100.0 * i);
  }
  const std::string text = PrometheusExposition(metrics);
  EXPECT_NE(text.find("# TYPE udc_core_runs counter\nudc_core_runs 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("udc_monitor_utilization{module=\"7\"} 0.5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE udc_exec_cold_start_latency_ms summary"),
            std::string::npos);
  EXPECT_NE(text.find("udc_exec_cold_start_latency_ms_sum 1000"),
            std::string::npos);
  EXPECT_NE(text.find("udc_exec_cold_start_latency_ms_count 4"),
            std::string::npos);
}

TEST(ExpositionTest, JsonSnapshotEscapesAndReportsQuantiles) {
  MetricsRegistry metrics;
  metrics.IncrementCounter("core.runs");
  metrics.Observe("exec.latency_ms", {{"module", "A\"1"}}, 5.0);
  const std::string json = JsonSnapshot(metrics);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"core.runs\": 1"), std::string::npos);
  // The embedded quote in the label value must be escaped.
  EXPECT_NE(json.find("A\\\"1"), std::string::npos);
  // The JSON summary carries the same quantile set as the Prometheus
  // writer — p90 included, so BENCH_*.json consumers get p90 parity.
  EXPECT_NE(json.find("\"p50\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"p90\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"p95\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 5"), std::string::npos);
}

// Registry histograms are sketches. Both writers render one as a summary
// whose quantiles are within the sketch's 1% error.
TEST(ExpositionTest, SketchModeSeriesExportLikeExactOnes) {
  MetricsRegistry metrics;
  for (int i = 1; i <= 4; ++i) {
    metrics.Observe("exec.cold_start_latency_ms", 100.0 * i);
  }
  // Sketch rank convention is nearest-rank: round(0.5 * 3) = rank 2 -> 300
  // (the exact histogram would lerp to 250), within the 1% bucket error.
  const auto value_after = [](const std::string& text,
                              const std::string& needle) {
    const size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << needle;
    return pos == std::string::npos
               ? 0.0
               : std::stod(text.substr(pos + needle.size()));
  };
  const std::string text = PrometheusExposition(metrics);
  EXPECT_NE(text.find("# TYPE udc_exec_cold_start_latency_ms summary"),
            std::string::npos);
  EXPECT_NE(text.find("udc_exec_cold_start_latency_ms_count 4"),
            std::string::npos);
  EXPECT_NEAR(
      value_after(text, "udc_exec_cold_start_latency_ms{quantile=\"0.5\"} "),
      300.0, 0.012 * 300.0);
  EXPECT_NEAR(value_after(JsonSnapshot(metrics), "\"p50\": "), 300.0,
              0.012 * 300.0);
}

TEST(ChromeTraceTest, EmitsCompleteEventsWithCausalArgs) {
  SimTime now = SimTime::Millis(50);
  SpanTracer tracer([&now] { return now; });
  const uint64_t parent = tracer.BeginAt(SimTime::Millis(1), "sched",
                                         "sched.deploy", {{"app", "medical"}});
  const uint64_t child = tracer.BeginAt(SimTime::Millis(2), "exec",
                                        "exec.stage", {}, parent);
  tracer.EndAt(child, SimTime::Millis(8));
  tracer.EndAt(parent, SimTime::Millis(10));
  const uint64_t open = tracer.BeginAt(SimTime::Millis(20), "net",
                                       "net.message");

  const std::string json = ChromeTraceJson(tracer, now);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"sched.deploy\""), std::string::npos);
  EXPECT_NE(json.find("\"app\": \"medical\""), std::string::npos);
  // Causal ids ride in args.
  EXPECT_NE(json.find("\"parent_span_id\": 1"), std::string::npos);
  // The still-open span is exported up to `now` and flagged.
  EXPECT_NE(json.find("\"open\": \"true\""), std::string::npos);
  // Thread-name metadata gives each category a lane.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  (void)open;
}

TEST(BreakdownTest, SumsComponentsFromOneTrace) {
  SimTime now;
  SpanTracer tracer([&now] { return now; });
  const uint64_t root = tracer.BeginAt(SimTime(0), "run", "run.invoke");
  const uint64_t wait = tracer.BeginAt(SimTime(0), "exec", "exec.env_wait",
                                       {}, root);
  tracer.EndAt(wait, SimTime::Millis(30));
  const uint64_t compute = tracer.BeginAt(SimTime::Millis(30), "exec",
                                          "exec.compute", {}, root);
  tracer.EndAt(compute, SimTime::Millis(90));
  const uint64_t net = tracer.BeginAt(SimTime::Millis(30), "net",
                                      "net.input_transfer", {}, root);
  tracer.EndAt(net, SimTime::Millis(40));
  const uint64_t commit = tracer.BeginAt(SimTime::Millis(90), "dist",
                                         "dist.output_commit", {}, root);
  tracer.EndAt(commit, SimTime::Millis(100));
  tracer.EndAt(root, SimTime::Millis(100));

  // A second, unrelated trace must not leak into the breakdown.
  const uint64_t other = tracer.BeginAt(SimTime(0), "exec", "exec.compute");
  tracer.EndAt(other, SimTime::Hours(1));

  const LatencyBreakdown b = BreakdownFromSpans(tracer, root);
  EXPECT_EQ(b.cold_start, SimTime::Millis(30));
  EXPECT_EQ(b.exec, SimTime::Millis(60));
  EXPECT_EQ(b.net, SimTime::Millis(10));
  EXPECT_EQ(b.consensus, SimTime::Millis(10));
  EXPECT_EQ(b.queue_wait, SimTime(0));
  EXPECT_EQ(b.total, SimTime::Millis(100));
  EXPECT_EQ(b.accounted(), SimTime::Millis(110));  // overlap: net ∥ compute

  const std::string table = b.Table();
  EXPECT_NE(table.find("cold-start"), std::string::npos);
  EXPECT_NE(table.find("consensus"), std::string::npos);
}

// The walk starts at the root: spans of an earlier trace are skipped without
// being read, and a later trace's spans interleaved with this one's are
// filtered out. The result equals a sum over the whole buffer.
TEST(BreakdownTest, WalkFromRootMatchesWholeBufferSum) {
  SimTime now;
  SpanTracer tracer([&now] { return now; });
  const auto closed = [&tracer](std::string_view category,
                                std::string_view name, SimTime start,
                                SimTime end, uint64_t parent) {
    const uint64_t id = tracer.BeginAt(start, std::string(category),
                                       std::string(name), {}, parent);
    tracer.EndAt(id, end);
    return id;
  };
  // Trace A, entirely before the measured trace's root.
  const uint64_t a = tracer.BeginAt(SimTime(0), "run", "run.invoke");
  closed("exec", "exec.compute", SimTime(0), SimTime::Millis(500), a);
  closed("net", "net.message", SimTime(0), SimTime::Millis(70), a);
  tracer.EndAt(a, SimTime::Millis(500));
  // Trace B, measured; trace C opens after B's root and interleaves.
  const uint64_t b = tracer.BeginAt(SimTime::Millis(10), "run", "run.invoke");
  const uint64_t c = tracer.BeginAt(SimTime::Millis(10), "run", "run.invoke");
  for (int i = 0; i < 3; ++i) {
    const SimTime t = SimTime::Millis(10 + 20 * i);
    closed("exec", "exec.env_wait", t, t + SimTime::Millis(4), b);
    closed("exec", "exec.env_wait", t, t + SimTime::Millis(9), c);
    closed("exec", "exec.compute", t, t + SimTime::Millis(6), b);
    closed("net", "net.input_transfer", t, t + SimTime::Millis(2), c);
    closed("net", "net.input_transfer", t, t + SimTime::Millis(3), b);
    closed("dist", "dist.output_commit", t, t + SimTime::Millis(1), b);
    closed("exec", "exec.queue_wait", t, t + SimTime::Millis(5), c);
  }
  tracer.BeginAt(SimTime::Millis(60), "exec", "exec.compute", {}, b);  // open
  tracer.EndAt(b, SimTime::Millis(80));
  tracer.EndAt(c, SimTime::Millis(90));

  const uint64_t trace = tracer.SpanById(b)->trace_id;
  LatencyBreakdown want;
  for (const Span& span : tracer.spans()) {
    if (span.trace_id != trace || span.open) {
      continue;
    }
    if (span.name == "exec.env_wait") {
      want.cold_start += span.duration();
    } else if (span.name == "exec.compute") {
      want.exec += span.duration();
    } else if (span.category == "net") {
      want.net += span.duration();
    } else if (span.category == "dist") {
      want.consensus += span.duration();
    } else if (span.name == "run.invoke") {
      want.total = span.duration();
    }
  }
  const LatencyBreakdown got = BreakdownFromSpans(tracer, b);
  EXPECT_EQ(got.cold_start, want.cold_start);
  EXPECT_EQ(got.exec, want.exec);
  EXPECT_EQ(got.net, want.net);
  EXPECT_EQ(got.consensus, want.consensus);
  EXPECT_EQ(got.queue_wait, SimTime(0));
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.cold_start, SimTime::Millis(12));
  EXPECT_EQ(got.total, SimTime::Millis(70));
  // An unknown root yields an empty breakdown.
  EXPECT_EQ(BreakdownFromSpans(tracer, 0).accounted(), SimTime(0));
}

// Once the ring has reused a run's root slot, the run has no breakdown
// left: it is empty, not summed from whatever now holds those slots.
TEST(BreakdownTest, OverwrittenRootGivesEmptyBreakdown) {
  SimTime now;
  SpanTracer tracer([&now] { return now; });
  const uint64_t root = tracer.BeginAt(SimTime(0), "run", "run.invoke");
  const uint64_t compute =
      tracer.BeginAt(SimTime(0), "exec", "exec.compute", {}, root);
  tracer.EndAt(compute, SimTime::Millis(5));
  tracer.EndAt(root, SimTime::Millis(5));
  ASSERT_EQ(BreakdownFromSpans(tracer, root).exec, SimTime::Millis(5));

  for (uint64_t i = 0; i < SpanTracer::kCapacity; ++i) {
    tracer.EndAt(tracer.BeginAt(SimTime(0), "exec", "exec.compute"),
                 SimTime::Millis(1));
  }
  ASSERT_EQ(tracer.SpanById(root), nullptr);
  const LatencyBreakdown b = BreakdownFromSpans(tracer, root);
  EXPECT_EQ(b.accounted(), SimTime(0));
  EXPECT_EQ(b.total, SimTime(0));
}

}  // namespace
}  // namespace udc
