// SLO engine, sketch-vs-exact differential, and black-box dump tests.
//
// The differential follows the repo idiom of keeping a simple exact
// implementation as the oracle of a fast one (LegacyEventQueue is to
// EventQueue what Histogram is to SketchHistogram): the exact Histogram
// keeps every sample; the sketch must agree on every quantile to within its
// advertised relative error across several sample distributions.

#include "src/obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/sketch_histogram.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/sim/simulation.h"

namespace udc {
namespace {

constexpr double kQuantiles[] = {0.0,  0.01, 0.1,  0.25, 0.5,
                                 0.75, 0.9,  0.95, 0.99, 1.0};

// The exact value the sketch's rank convention names: the sample at rank
// round(q * (n - 1)) of the sorted stream.
double NearestRank(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<size_t>(
      std::llround(q * static_cast<double>(sorted.size() - 1)));
  return sorted[rank];
}

void ExpectQuantilesAgree(const SketchHistogram& sketch,
                          const std::vector<double>& samples,
                          const std::string& what) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double tol = sketch.relative_error() + 1e-6;
  for (double q : kQuantiles) {
    const double exact = NearestRank(sorted, q);
    const double est = sketch.Quantile(q);
    EXPECT_NEAR(est, exact, tol * exact)
        << what << " q=" << q << " exact=" << exact << " sketch=" << est;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return "";
  }
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// --- Sketch vs exact differential -----------------------------------------

TEST(SketchDifferentialTest, UniformSamplesWithinRelativeError) {
  Rng rng(1);
  SketchHistogram sketch(0.01);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextDoubleInRange(0.5, 5000.0);
    samples.push_back(v);
    sketch.Add(v);
  }
  ExpectQuantilesAgree(sketch, samples, "uniform");
  // Extrema and moments are tracked exactly, independent of bucketing.
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(sketch.Min(), sorted.front());
  EXPECT_DOUBLE_EQ(sketch.Max(), sorted.back());
  EXPECT_EQ(sketch.count(), 20000);
}

TEST(SketchDifferentialTest, ExponentialSamplesWithinRelativeError) {
  Rng rng(2);
  SketchHistogram sketch(0.01);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Inverse-transform exponential, mean 120 — a latency-like tail.
    const double u = rng.NextDouble();
    const double v = -120.0 * std::log(1.0 - u) + 1e-6;
    samples.push_back(v);
    sketch.Add(v);
  }
  ExpectQuantilesAgree(sketch, samples, "exponential");
}

TEST(SketchDifferentialTest, LognormalSamplesWithinRelativeError) {
  Rng rng(3);
  SketchHistogram sketch(0.01);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Box-Muller normal, exponentiated: spans several orders of magnitude.
    const double u1 = rng.NextDoubleInRange(1e-12, 1.0);
    const double u2 = rng.NextDouble();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    const double v = std::exp(1.5 * z);
    samples.push_back(v);
    sketch.Add(v);
  }
  ExpectQuantilesAgree(sketch, samples, "lognormal");
}

TEST(SketchDifferentialTest, AgreesWithExactHistogramQuantile) {
  // The registry's exact Histogram lerps between neighboring ranks; on a
  // dense stream the two conventions must still land within the sketch's
  // error bound plus the (tiny) neighbor gap.
  Rng rng(4);
  SketchHistogram sketch(0.01);
  Histogram exact;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.NextDoubleInRange(10.0, 1000.0);
    sketch.Add(v);
    exact.Add(v);
  }
  for (double q : kQuantiles) {
    const double e = exact.Quantile(q);
    EXPECT_NEAR(sketch.Quantile(q), e, 0.012 * e) << "q=" << q;
  }
}

TEST(SketchDifferentialTest, DiffSinceRecoversIntervalDistribution) {
  Rng rng(5);
  SketchHistogram cumulative(0.01);
  for (int i = 0; i < 5000; ++i) {
    cumulative.Add(rng.NextDoubleInRange(1.0, 10.0));  // phase A: fast
  }
  const SketchHistogram snapshot = cumulative;  // SLO window base
  std::vector<double> phase_b;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.NextDoubleInRange(100.0, 1000.0);  // phase B: slow
    phase_b.push_back(v);
    cumulative.Add(v);
  }
  const SketchHistogram diff = cumulative.DiffSince(snapshot);
  EXPECT_EQ(diff.count(), 5000);
  ExpectQuantilesAgree(diff, phase_b, "diff");
}

TEST(SketchDifferentialTest, MergeMatchesCombinedStream) {
  Rng rng(6);
  SketchHistogram a(0.01);
  SketchHistogram b(0.01);
  SketchHistogram combined(0.01);
  for (int i = 0; i < 3000; ++i) {
    const double va = rng.NextDoubleInRange(0.1, 50.0);
    const double vb = rng.NextDoubleInRange(200.0, 900.0);
    a.Add(va);
    b.Add(vb);
    combined.Add(va);
    combined.Add(vb);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.Sum(), combined.Sum(), 1e-6 * combined.Sum());
  for (double q : kQuantiles) {
    // Merge is an elementwise bucket add, so quantiles match exactly.
    EXPECT_DOUBLE_EQ(a.Quantile(q), combined.Quantile(q)) << "q=" << q;
  }
}

TEST(SketchHistogramTest, EmptyAndDegenerateInputs) {
  SketchHistogram sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.Min(), 0.0);
  EXPECT_EQ(sketch.Max(), 0.0);
  // Zero and negative values land in the zero bucket, estimate 0.
  sketch.Add(0.0);
  sketch.Add(-5.0);
  EXPECT_EQ(sketch.count(), 2);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
}

TEST(SketchHistogramTest, MemoryFootprintIsFixed) {
  SketchHistogram sketch(0.01);
  sketch.Add(1.0);  // materialize the bucket array
  const size_t footprint = sketch.MemoryFootprintBytes();
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    sketch.Add(std::exp(rng.NextDoubleInRange(-15.0, 30.0)));
  }
  EXPECT_EQ(sketch.MemoryFootprintBytes(), footprint)
      << "bounded-memory sketch grew with sample count";
}

// --- SLO engine -----------------------------------------------------------

TEST(SloEngineTest, HistogramWindowSlidesAndStatesTransition) {
  MetricsRegistry metrics;
  SloEngine engine(&metrics);
  SloSpec spec;
  spec.name = "slo.test.latency_p50";
  spec.kind = SloSpec::SourceKind::kHistogramQuantile;
  spec.source = "test.latency_ms";
  spec.quantile = 0.5;
  spec.threshold = 100.0;
  spec.window = SimTime::Seconds(10);
  engine.AddObjective(std::move(spec));

  // Registering a histogram objective forces the source into sketch mode.
  const MetricHistogram* series = metrics.histogram("test.latency_ms");
  ASSERT_NE(series, nullptr);
  EXPECT_TRUE(series->sketch_mode());

  for (int i = 0; i < 200; ++i) {
    metrics.Observe("test.latency_ms", 50.0);
  }
  engine.Tick(SimTime::Seconds(10));
  const SloVerdict* v = engine.Find("slo.test.latency_p50");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->state, SloState::kOk);
  EXPECT_NEAR(v->measured, 50.0, 1.0);
  EXPECT_FALSE(v->ever_breached);

  // Next window only sees the new, slow samples: the old 50ms cohort is
  // outside [10s, 20s] and must not dilute the quantile.
  for (int i = 0; i < 200; ++i) {
    metrics.Observe("test.latency_ms", 500.0);
  }
  engine.Tick(SimTime::Seconds(20));
  v = engine.Find("slo.test.latency_p50");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->state, SloState::kBreach);
  EXPECT_NEAR(v->measured, 500.0, 10.0);
  EXPECT_TRUE(v->ever_breached);
  EXPECT_FALSE(engine.AllOk());

  // Verdicts are exported as gauges for the normal exposition path.
  EXPECT_NEAR(metrics.gauge("slo.test.latency_p50"), 500.0, 10.0);
  EXPECT_EQ(metrics.gauge("slo.test.latency_p50.state"),
            static_cast<double>(SloState::kBreach));

  // A quiet window clears the breach state (ever_breached latches).
  engine.Tick(SimTime::Seconds(30));
  v = engine.Find("slo.test.latency_p50");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->state, SloState::kOk);
  EXPECT_TRUE(v->ever_breached);
  EXPECT_TRUE(engine.AllOk());

  // Inside the warn band: 90 <= 100 but past warn_ratio 0.8.
  for (int i = 0; i < 200; ++i) {
    metrics.Observe("test.latency_ms", 90.0);
  }
  engine.Tick(SimTime::Seconds(40));
  v = engine.Find("slo.test.latency_p50");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->state, SloState::kWarn);
}

TEST(SloEngineTest, CounterRateFirstTickMeasuresSinceTimeZero) {
  MetricsRegistry metrics;
  SloEngine engine(&metrics);
  SloSpec spec;
  spec.name = "slo.test.event_rate";
  spec.kind = SloSpec::SourceKind::kCounterRate;
  spec.source = "test.events_total";
  spec.cmp = SloSpec::Cmp::kGe;
  spec.threshold = 5.0;  // events/sec
  spec.window = SimTime::Seconds(10);
  engine.AddObjective(std::move(spec));

  metrics.IncrementCounter("test.events_total", 100);
  engine.Tick(SimTime::Seconds(10));
  const SloVerdict* v = engine.Find("slo.test.event_rate");
  ASSERT_NE(v, nullptr);
  // 100 events over the first 10 seconds: counters start at zero with the
  // clock, so the first tick must not read a spurious 0/sec breach.
  EXPECT_NEAR(v->measured, 10.0, 1e-9);
  EXPECT_EQ(v->state, SloState::kOk);

  // A stalled counter over the next window is a real breach.
  engine.Tick(SimTime::Seconds(20));
  v = engine.Find("slo.test.event_rate");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->measured, 0.0);
  EXPECT_EQ(v->state, SloState::kBreach);

  metrics.IncrementCounter("test.events_total", 200);
  engine.Tick(SimTime::Seconds(30));
  v = engine.Find("slo.test.event_rate");
  ASSERT_NE(v, nullptr);
  EXPECT_NEAR(v->measured, 20.0, 1e-9);
  EXPECT_EQ(v->state, SloState::kOk);
}

TEST(SloEngineTest, OnBreachFiresOncePerTransition) {
  MetricsRegistry metrics;
  SloEngine engine(&metrics);
  SloSpec spec;
  spec.name = "slo.test.pressure";
  spec.kind = SloSpec::SourceKind::kGauge;
  spec.source = "test.pressure";
  spec.threshold = 1.0;
  engine.AddObjective(std::move(spec));

  int breaches = 0;
  engine.set_on_breach([&breaches](const SloVerdict&) { ++breaches; });

  metrics.SetGauge("test.pressure", 2.0);
  engine.Tick(SimTime::Seconds(1));
  EXPECT_EQ(breaches, 1);
  engine.Tick(SimTime::Seconds(2));  // still breached: no re-fire
  EXPECT_EQ(breaches, 1);
  metrics.SetGauge("test.pressure", 0.0);
  engine.Tick(SimTime::Seconds(3));  // recovered
  EXPECT_EQ(breaches, 1);
  metrics.SetGauge("test.pressure", 5.0);
  engine.Tick(SimTime::Seconds(4));  // second transition into breach
  EXPECT_EQ(breaches, 2);
}

TEST(SloEngineTest, ProbeObjectiveAndReport) {
  MetricsRegistry metrics;
  SloEngine engine(&metrics);
  double probed = 10.0;
  SloSpec spec;
  spec.name = "slo.test.probe_value";
  spec.kind = SloSpec::SourceKind::kProbe;
  spec.probe = [&probed] { return probed; };
  spec.threshold = 100.0;
  engine.AddObjective(std::move(spec));

  engine.Tick(SimTime::Seconds(1));
  const SloVerdict* v = engine.Find("slo.test.probe_value");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->measured, 10.0);
  EXPECT_EQ(v->state, SloState::kOk);

  probed = 250.0;
  engine.Tick(SimTime::Seconds(2));
  v = engine.Find("slo.test.probe_value");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->measured, 250.0);
  EXPECT_EQ(v->state, SloState::kBreach);
  EXPECT_EQ(engine.worst_state(), SloState::kBreach);

  const std::string report = engine.Report();
  EXPECT_NE(report.find("slo.test.probe_value"), std::string::npos);
  EXPECT_NE(report.find("BREACH"), std::string::npos);
  EXPECT_NE(report.find("(breached)"), std::string::npos);
}

TEST(SloEngineTest, OutOfOrderTicksAreIgnored) {
  MetricsRegistry metrics;
  SloEngine engine(&metrics);
  SloSpec spec;
  spec.name = "slo.test.pressure";
  spec.kind = SloSpec::SourceKind::kGauge;
  spec.source = "test.pressure";
  spec.threshold = 1.0;
  engine.AddObjective(std::move(spec));

  metrics.SetGauge("test.pressure", 0.5);
  engine.Tick(SimTime::Seconds(10));
  metrics.SetGauge("test.pressure", 99.0);
  engine.Tick(SimTime::Seconds(5));  // stale tick: must not re-evaluate
  const SloVerdict* v = engine.Find("slo.test.pressure");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->evaluated_at, SimTime::Seconds(10));
  EXPECT_EQ(v->measured, 0.5);
  EXPECT_EQ(v->state, SloState::kOk);
}

// --- Simulation wiring: timers, breach dumps, crash dumps ------------------

TEST(SloSimulationTest, ArmSloTicksEvaluatesOnCadenceAndTerminates) {
  Simulation sim;
  SloSpec spec;
  spec.name = "slo.test.pressure";
  spec.kind = SloSpec::SourceKind::kGauge;
  spec.source = "test.pressure";
  spec.threshold = 1.0;
  sim.slos().AddObjective(std::move(spec));
  sim.metrics().SetGauge("test.pressure", 0.2);
  sim.After(SimTime::Seconds(3),
            [&sim] { sim.metrics().SetGauge("test.pressure", 0.7); });

  // Bounded timer: RunToCompletion must terminate, with the last tick
  // exactly at `until`.
  sim.ArmSloTicks(SimTime::Seconds(1), SimTime::Seconds(5));
  const SimTime end = sim.RunToCompletion();
  EXPECT_EQ(end, SimTime::Seconds(5));
  const SloVerdict* v = sim.slos().Find("slo.test.pressure");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->evaluated_at, SimTime::Seconds(5));
  EXPECT_EQ(v->measured, 0.7);
}

TEST(SloSimulationTest, BreachDumpsFlightRecorderChromeTrace) {
  const std::string path = ::testing::TempDir() + "slo_breach_dump.json";
  std::remove(path.c_str());
  std::remove((path + ".metrics.json").c_str());

  Simulation sim;
  sim.set_breach_dump_path(path);
  sim.Trace("test", "deploy wave started");
  {
    auto span = sim.Scope("test", "deploy_wave");
  }
  SloSpec spec;
  spec.name = "slo.test.queue_depth";
  spec.kind = SloSpec::SourceKind::kGauge;
  spec.source = "test.queue_depth";
  spec.threshold = 10.0;
  sim.slos().AddObjective(std::move(spec));
  sim.metrics().SetGauge("test.queue_depth", 99.0);
  sim.slos().EvaluateNow(sim.now());

  // The transition into BREACH must leave a loadable black box behind.
  const std::string trace = ReadFile(path);
  ASSERT_FALSE(trace.empty()) << "breach did not write " << path;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("slo breach: slo.test.queue_depth"), std::string::npos);
  EXPECT_NE(trace.find("deploy wave started"), std::string::npos);
  EXPECT_NE(trace.find("deploy_wave"), std::string::npos);

  const std::string snapshot = ReadFile(path + ".metrics.json");
  ASSERT_FALSE(snapshot.empty());
  EXPECT_NE(snapshot.find("slo.test.queue_depth"), std::string::npos);
}

TEST(SloSimulationDeathTest, CheckFailureWritesCrashDump) {
  const std::string path = ::testing::TempDir() + "slo_crash_dump.json";
  std::remove(path.c_str());

  Simulation sim;
  sim.set_crash_dump_path(path);
  sim.Trace("test", "last words before the check");

  // The death-test child inherits the registered crash hook via fork; the
  // hook runs before abort and the dump survives the child's death.
  EXPECT_DEATH(([] { UDC_CHECK(false) << "induced failure"; })(),
               "induced failure");

  const std::string trace = ReadFile(path);
  ASSERT_FALSE(trace.empty()) << "crash hook did not write " << path;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("last words before the check"), std::string::npos);
}

}  // namespace
}  // namespace udc
