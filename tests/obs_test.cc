// Tests for the observability layer: span tracing, labeled metrics, the
// exposition writers, the Chrome trace export, and the latency breakdown.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/breakdown.h"
#include "src/obs/flight_recorder.h"
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
  int fired = 0;
  tracer_.set_on_end([&fired](const Span&) { ++fired; });
  const uint64_t id = tracer_.Begin("exec", "exec.task_run");
  tracer_.End(id);
  tracer_.End(id);  // double-end is a no-op
  EXPECT_EQ(fired, 1);
}

TEST_F(SpanTest, DropsBeyondCapAndCounts) {
  tracer_.set_max_spans(2);
  EXPECT_NE(tracer_.Begin("a", "a.x"), 0u);
  EXPECT_NE(tracer_.Begin("a", "a.y"), 0u);
  const uint64_t dropped = tracer_.Begin("a", "a.z");
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(tracer_.dropped(), 1u);
  // Operations on the no-op id are safe.
  tracer_.AddLabel(dropped, "k", "v");
  tracer_.End(dropped);
  EXPECT_EQ(tracer_.size(), 2u);
}

TEST_F(SpanTest, DetailRendersLegacyTraceLine) {
  now_ = SimTime::Millis(1);
  const uint64_t id = tracer_.Begin("sched", "sched.place_task",
                                    {{"module", "A2"}, {"rack", "0"}});
  now_ = SimTime::Millis(3);
  tracer_.End(id);
  const std::string detail = tracer_.SpanById(id)->Detail();
  EXPECT_NE(detail.find("sched.place_task"), std::string::npos);
  EXPECT_NE(detail.find("module=A2"), std::string::npos);
  EXPECT_NE(detail.find("rack=0"), std::string::npos);
  EXPECT_NE(detail.find("dur="), std::string::npos);
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
  EXPECT_NE(text.find("udc_exec_cold_start_latency_ms{quantile=\"0.5\"} 250"),
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

TEST(ExpositionTest, SketchModeSeriesExportLikeExactOnes) {
  MetricsRegistry metrics;
  metrics.EnableSketchHistogram("exec.cold_start_latency_ms");
  for (int i = 1; i <= 4; ++i) {
    metrics.Observe("exec.cold_start_latency_ms", 100.0 * i);
  }
  // Both writers are mode-blind: a sketch-backed series renders as the
  // same summary/quantile shape, within the sketch's 1% error.
  const std::string text = PrometheusExposition(metrics);
  EXPECT_NE(text.find("# TYPE udc_exec_cold_start_latency_ms summary"),
            std::string::npos);
  EXPECT_NE(text.find("udc_exec_cold_start_latency_ms_count 4"),
            std::string::npos);
  const std::string json = JsonSnapshot(metrics);
  const std::string needle = "\"p50\": ";
  const size_t pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  const double p50 = std::stod(json.substr(pos + needle.size()));
  // Sketch rank convention is nearest-rank: round(0.5 * 3) = rank 2 -> 300
  // (the exact histogram would lerp to 250), within the 1% bucket error.
  EXPECT_NEAR(p50, 300.0, 0.012 * 300.0);
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

  const uint64_t trace_id = tracer.SpanById(root)->trace_id;
  const LatencyBreakdown b = BreakdownFromSpans(tracer, trace_id);
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

TEST(MetricsTest, LabelCardinalityBudgetFoldsIntoOverflowSeries) {
  MetricsRegistry metrics;
  metrics.SetLabelCardinalityLimit(2);
  for (int tenant = 0; tenant < 5; ++tenant) {
    metrics.IncrementCounter("core.tenant_runs",
                             {{"tenant", std::to_string(tenant)}});
  }
  // First two distinct label sets keep their own series; tenants 2..4 fold
  // into the single overflow aggregate instead of minting series.
  EXPECT_EQ(metrics.counter("core.tenant_runs", {{"tenant", "0"}}), 1);
  EXPECT_EQ(metrics.counter("core.tenant_runs", {{"tenant", "1"}}), 1);
  EXPECT_EQ(metrics.counter("core.tenant_runs", {{"overflow", "true"}}), 3);
  EXPECT_EQ(metrics.overflowed_series_events(), 3u);

  // Histograms share the same budget machinery, per base name.
  for (int tenant = 0; tenant < 4; ++tenant) {
    metrics.Observe("core.tenant_latency_ms",
                    {{"tenant", std::to_string(tenant)}}, 10.0 * tenant);
  }
  const MetricHistogram* overflow =
      metrics.histogram("core.tenant_latency_ms", {{"overflow", "true"}});
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(overflow->count(), 2);
  EXPECT_EQ(metrics.overflowed_series_events(), 5u);

  // Unlabeled series and already-interned label sets are never folded.
  metrics.IncrementCounter("core.tenant_runs");
  metrics.IncrementCounter("core.tenant_runs", {{"tenant", "1"}});
  EXPECT_EQ(metrics.counter("core.tenant_runs"), 1);
  EXPECT_EQ(metrics.counter("core.tenant_runs", {{"tenant", "1"}}), 2);
  EXPECT_EQ(metrics.overflowed_series_events(), 5u);
}

TEST(FlightRecorderTest, RingWraparoundKeepsNewestRecords) {
  FlightRecorder rec(4);  // 4 slots
  for (int i = 0; i < 6; ++i) {
    rec.RecordTrace(SimTime::Millis(i), "test", "line " + std::to_string(i));
  }
  EXPECT_EQ(rec.total_recorded(), 6u);
  EXPECT_EQ(rec.retained(), 4u);
  EXPECT_EQ(rec.overwritten(), 2u);

  const std::vector<FlightRecorder::Record> sorted = rec.SortedRecords();
  ASSERT_EQ(sorted.size(), 4u);
  // The two oldest records were overwritten; the survivors come out in
  // emission order even though the ring's storage wrapped mid-way.
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].time, SimTime::Millis(2 + i));
    EXPECT_EQ(std::string(sorted[i].name),
              "line " + std::to_string(2 + i));
  }
}

TEST(FlightRecorderTest, RecordsSortByTimeThenSeq) {
  FlightRecorder rec(8);
  // Emit out of time order (an analytic span closing before a later-dated
  // one), with two collisions on time disambiguated by emission seq.
  rec.RecordTrace(SimTime::Millis(5), "test", "t5 first");
  rec.RecordTrace(SimTime::Millis(7), "test", "t7 first");
  rec.RecordSpan(SimTime::Millis(1), SimTime::Millis(5), "test", "t5 second");
  rec.RecordTrace(SimTime::Millis(3), "test", "t3");
  rec.RecordEvent(SimTime::Millis(7), "test", "t7 second");

  const std::vector<FlightRecorder::Record> sorted = rec.SortedRecords();
  ASSERT_EQ(sorted.size(), 5u);
  EXPECT_EQ(std::string(sorted[0].name), "t3");
  EXPECT_EQ(std::string(sorted[1].name), "t5 first");
  EXPECT_EQ(std::string(sorted[2].name), "t5 second");
  EXPECT_EQ(std::string(sorted[3].name), "t7 first");
  EXPECT_EQ(std::string(sorted[4].name), "t7 second");
}

TEST(FlightRecorderTest, DisabledRecorderDropsAppends) {
  FlightRecorder rec(4);
  rec.set_enabled(false);
  rec.RecordTrace(SimTime::Millis(1), "test", "dropped");
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.retained(), 0u);
  rec.set_enabled(true);
  rec.RecordSpan(SimTime::Millis(1), SimTime::Millis(2), "test", "kept");
  EXPECT_EQ(rec.retained(), 1u);
  const std::string json = rec.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("kept"), std::string::npos);
  EXPECT_EQ(json.find("dropped"), std::string::npos);
}

}  // namespace
}  // namespace udc
