// Declarative service-level objectives evaluated on sliding sim-time windows.
//
// The paper's runtime "collects the feedback and performs adaptive
// optimizations" (Design Principle 1); SLOs are the feedback channel's
// judgement layer. An objective names a measurement source — a histogram
// quantile, a counter rate or a gauge — a comparison against a threshold,
// and a window:
//
//   SloSpec spec;
//   spec.name = "slo.sched.place_latency_p99";
//   spec.kind = SloSpec::SourceKind::kHistogramQuantile;
//   spec.source = "sched.place_latency_us";
//   spec.quantile = 0.99;
//   spec.threshold = 500.0;                  // microseconds
//   spec.window = SimTime::Seconds(10);
//   engine.AddObjective(std::move(spec));
//
// The engine is driven by Tick(now) — from a kernel timer
// (Simulation::ArmSloTicks), a bench loop, or a test. Each tick snapshots
// the sources and evaluates every objective over [now - window, now]:
// registry histograms are bounded-memory sketches (SketchHistogram), so the
// window distribution is a snapshot diff, never a sample scan; counter
// sources diff cumulative values into a rate.
//
// Verdicts carry a burn-rate state — OK, WARN (inside warn_ratio of the
// threshold), BREACH — exported as `<name>` / `<name>.state` gauges through
// the normal Prometheus/JSON writers and queryable via `udcctl slo`. A
// transition into BREACH fires the on_breach callback once, which is how the
// flight recorder's black-box dump gets triggered.
//
// Layering: src/obs only — the engine never sees the Simulation. Timer glue
// lives with the owner that has a clock.

#ifndef UDC_SRC_OBS_SLO_H_
#define UDC_SRC_OBS_SLO_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/sketch_histogram.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"

namespace udc {

enum class SloState {
  kOk = 0,
  kWarn = 1,
  kBreach = 2,
};

std::string_view SloStateName(SloState state);

struct SloSpec {
  enum class SourceKind {
    kHistogramQuantile,  // Quantile(`quantile`) of `source` over the window
    kCounterRate,        // events/sec of counter `source` over the window
    kGauge,              // instantaneous value of gauge `source`
  };
  enum class Cmp {
    kLe,  // healthy while measured <= threshold
    kGe,  // healthy while measured >= threshold
  };

  // `slo.<layer>.<objective>` (tools/check_metric_names.sh enforces it).
  std::string name;
  SourceKind kind = SourceKind::kHistogramQuantile;
  std::string source;    // metric name of the source series
  MetricLabels labels;   // label set of the source series
  double quantile = 0.99;
  Cmp cmp = Cmp::kLe;
  double threshold = 0.0;
  SimTime window = SimTime::Seconds(10);
  // WARN once measured crosses warn_ratio * threshold (kLe) or
  // threshold / warn_ratio-scaled headroom (kGe): the budget is burning.
  double warn_ratio = 0.8;
};

struct SloVerdict {
  std::string name;
  SloState state = SloState::kOk;
  double measured = 0.0;
  double threshold = 0.0;
  SimTime evaluated_at;
  bool ever_breached = false;
};

class SloEngine {
 public:
  explicit SloEngine(MetricsRegistry* metrics) : metrics_(metrics) {}
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  // Registers an objective, creating its source series if needed.
  void AddObjective(SloSpec spec);
  size_t objective_count() const { return objectives_.size(); }

  // Snapshots sources and (re)evaluates every objective at `now`. Ticks must
  // be monotonic; out-of-order ticks are ignored. Evaluation writes the
  // `<name>` and `<name>.state` gauges and fires on_breach on OK/WARN ->
  // BREACH transitions.
  void Tick(SimTime now);

  const std::vector<SloVerdict>& verdicts() const { return verdicts_; }
  // Verdict by objective name, or nullptr.
  const SloVerdict* Find(std::string_view name) const;
  SloState worst_state() const;
  bool AllOk() const { return worst_state() != SloState::kBreach; }

  // Fired once per transition into BREACH (not per tick while breached).
  void set_on_breach(std::function<void(const SloVerdict&)> cb) {
    on_breach_ = std::move(cb);
  }

  // Human-readable table, one objective per line; `udcctl slo` prints this.
  std::string Report() const;

 private:
  struct Snapshot {
    SimTime at;
    // Null for non-histogram kinds — a counter objective's snapshots are a
    // timestamp and one integer, not a bucket array.
    std::unique_ptr<SketchHistogram> sketch;  // kHistogramQuantile
    int64_t counter = 0;                      // kCounterRate
  };
  struct Objective {
    SloSpec spec;
    HistogramHandle hist;    // kHistogramQuantile
    CounterHandle counter;   // kCounterRate
    GaugeHandle measured_gauge;
    GaugeHandle state_gauge;
    std::deque<Snapshot> snapshots;  // oldest first; spans >= one window
    SloState state = SloState::kOk;
    bool ever_breached = false;
  };

  double Measure(Objective* obj, SimTime now);
  SloState Judge(const SloSpec& spec, double measured) const;

  MetricsRegistry* metrics_;
  // Deque: grows without relocating (Objective's snapshot deque holds
  // move-only sketch pointers, and vector growth would demand noexcept
  // moves it can't prove).
  std::deque<Objective> objectives_;
  std::vector<SloVerdict> verdicts_;
  std::function<void(const SloVerdict&)> on_breach_;
  SimTime last_tick_ = SimTime::Micros(-1);
};

}  // namespace udc

#endif  // UDC_SRC_OBS_SLO_H_
