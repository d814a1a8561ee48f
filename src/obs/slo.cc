#include "src/obs/slo.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/strings.h"

namespace udc {

std::string_view SloStateName(SloState state) {
  switch (state) {
    case SloState::kOk:
      return "OK";
    case SloState::kWarn:
      return "WARN";
    case SloState::kBreach:
      return "BREACH";
  }
  return "?";
}

void SloEngine::AddObjective(SloSpec spec) {
  Objective obj;
  switch (spec.kind) {
    case SloSpec::SourceKind::kHistogramQuantile:
      // Registry histograms are sketches, which is what makes the sliding
      // window affordable: each tick snapshots ~25KB of buckets instead of
      // every sample, and the window distribution is a cumulative diff.
      obj.hist = metrics_->HistogramSeries(spec.source, spec.labels);
      break;
    case SloSpec::SourceKind::kCounterRate:
      obj.counter = metrics_->CounterSeries(spec.source, spec.labels);
      break;
    case SloSpec::SourceKind::kGauge:
      break;
  }
  obj.measured_gauge = metrics_->GaugeSeries(spec.name);
  obj.state_gauge = metrics_->GaugeSeries(spec.name + ".state");
  obj.spec = std::move(spec);
  objectives_.push_back(std::move(obj));
}

double SloEngine::Measure(Objective* obj, SimTime now) {
  const SloSpec& spec = obj->spec;
  switch (spec.kind) {
    case SloSpec::SourceKind::kGauge:
      return metrics_->gauge(spec.source, spec.labels);
    default:
      break;
  }

  // Windowed kinds: append the current cumulative snapshot, then diff
  // against the oldest snapshot at or before the window's left edge.
  Snapshot snap;
  snap.at = now;
  if (spec.kind == SloSpec::SourceKind::kHistogramQuantile) {
    snap.sketch = std::make_unique<SketchHistogram>(metrics_->value(obj->hist));
  } else {
    snap.counter = metrics_->value(obj->counter);
  }
  obj->snapshots.push_back(std::move(snap));

  // Keep one snapshot at or before `now - window` as the window base; drop
  // anything older. The base stays, so the deque is bounded by
  // window / tick_period + 1 entries.
  const SimTime left_edge = now - spec.window;
  while (obj->snapshots.size() >= 2 && obj->snapshots[1].at <= left_edge) {
    obj->snapshots.pop_front();
  }
  const Snapshot& base = obj->snapshots.front();
  const Snapshot& cur = obj->snapshots.back();

  if (spec.kind == SloSpec::SourceKind::kCounterRate) {
    if (&base == &cur) {
      // First tick: no earlier snapshot, but counters start at zero when
      // the simulation does, so the rate since t=0 is well defined. Without
      // this a kGe throughput objective would read 0 events/sec on its
      // first evaluation and spuriously breach.
      const double seconds = now.seconds();
      return seconds > 0 ? static_cast<double>(cur.counter) / seconds
                         : static_cast<double>(cur.counter);
    }
    const SimTime span = cur.at - base.at;
    const double seconds =
        span > SimTime(0) ? span.seconds() : spec.window.seconds();
    return static_cast<double>(cur.counter - base.counter) /
           (seconds > 0 ? seconds : 1.0);
  }

  if (&base == &cur) {
    return cur.sketch->Quantile(spec.quantile);
  }
  return cur.sketch->DiffSince(*base.sketch).Quantile(spec.quantile);
}

SloState SloEngine::Judge(const SloSpec& spec, double measured) const {
  // Burn-rate judgement via threshold utilization: >1 is a breach, inside
  // the warn band the error budget is burning.
  double util;
  if (spec.cmp == SloSpec::Cmp::kLe) {
    if (spec.threshold <= 0.0) {
      util = measured > spec.threshold ? 2.0 : 0.0;
    } else {
      util = measured / spec.threshold;
    }
  } else {
    if (measured <= 0.0) {
      util = spec.threshold > 0.0 ? 2.0 : 0.0;
    } else {
      util = spec.threshold / measured;
    }
  }
  if (util > 1.0) {
    return SloState::kBreach;
  }
  if (util > spec.warn_ratio) {
    return SloState::kWarn;
  }
  return SloState::kOk;
}

void SloEngine::Tick(SimTime now) {
  if (now <= last_tick_ && !verdicts_.empty()) {
    return;  // out-of-order or duplicate tick
  }
  last_tick_ = now;
  verdicts_.clear();
  verdicts_.reserve(objectives_.size());
  for (Objective& obj : objectives_) {
    const double measured = Measure(&obj, now);
    const SloState next = Judge(obj.spec, measured);
    const bool entered_breach =
        next == SloState::kBreach && obj.state != SloState::kBreach;
    obj.state = next;
    obj.ever_breached = obj.ever_breached || next == SloState::kBreach;

    metrics_->Set(obj.measured_gauge, measured);
    metrics_->Set(obj.state_gauge, static_cast<double>(next));

    SloVerdict verdict;
    verdict.name = obj.spec.name;
    verdict.state = next;
    verdict.measured = measured;
    verdict.threshold = obj.spec.threshold;
    verdict.evaluated_at = now;
    verdict.ever_breached = obj.ever_breached;
    verdicts_.push_back(verdict);
    if (entered_breach && on_breach_) {
      on_breach_(verdicts_.back());
    }
  }
}

const SloVerdict* SloEngine::Find(std::string_view name) const {
  for (const SloVerdict& v : verdicts_) {
    if (v.name == name) {
      return &v;
    }
  }
  return nullptr;
}

SloState SloEngine::worst_state() const {
  SloState worst = SloState::kOk;
  for (const SloVerdict& v : verdicts_) {
    if (static_cast<int>(v.state) > static_cast<int>(worst)) {
      worst = v.state;
    }
  }
  return worst;
}

std::string SloEngine::Report() const {
  std::string out = StrFormat("%-44s %-7s %12s %12s\n", "objective", "state",
                              "measured", "threshold");
  for (const SloVerdict& v : verdicts_) {
    out += StrFormat("%-44s %-7s %12.4g %12.4g%s\n", v.name.c_str(),
                     std::string(SloStateName(v.state)).c_str(), v.measured,
                     v.threshold, v.ever_breached ? "  (breached)" : "");
  }
  if (verdicts_.empty()) {
    out += "(no objectives evaluated — register SloSpecs and Tick)\n";
  }
  return out;
}

}  // namespace udc
