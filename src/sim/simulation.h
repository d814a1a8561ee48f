// Simulation engine: clock + event queue + RNG + telemetry.
//
// Everything in the UDC substrate (fabric, devices, control plane, baselines)
// runs on one Simulation instance, making an entire datacenter reproducible
// from a single seed.

#ifndef UDC_SRC_SIM_SIMULATION_H_
#define UDC_SRC_SIM_SIMULATION_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/sim/event_queue.h"
#include "src/sim/trace.h"

namespace udc {

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 42);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  SimTime now() const { return now_; }
  Rng& rng() { return rng_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // Closed spans are mirrored into the legacy trace lazily, on access, so
  // the span hot path never pays for string rendering (see MirrorSpans).
  TraceRecorder& trace() {
    MirrorSpans();
    return trace_;
  }
  const TraceRecorder& trace() const {
    MirrorSpans();
    return trace_;
  }
  SpanTracer& spans() { return spans_; }
  const SpanTracer& spans() const { return spans_; }
  // Always-on black box: every closed span and trace line also lands in a
  // fixed-size ring (see src/obs/flight_recorder.h). Dumped on SLO breach
  // (set_breach_dump_path), UDC_CHECK failure (set_crash_dump_path), or
  // explicitly via flight_recorder().Dump(...).
  FlightRecorder& flight_recorder() { return flight_recorder_; }
  const FlightRecorder& flight_recorder() const { return flight_recorder_; }
  // Declarative objectives over this simulation's registry. Drive with
  // ArmSloTicks (kernel timers) or slos().EvaluateNow(now()).
  SloEngine& slos() { return slos_; }
  const SloEngine& slos() const { return slos_; }

  // Evaluates the SLO engine every `period` of simulated time until `until`
  // (the last tick lands exactly at `until`). Bounded on purpose: an
  // unconditional recurring timer would keep RunToCompletion alive forever.
  void ArmSloTicks(SimTime period, SimTime until);

  // When set, the first transition of any objective into BREACH dumps the
  // flight recorder (Chrome trace + metrics snapshot) to this path.
  void set_breach_dump_path(std::string path) {
    breach_dump_path_ = std::move(path);
  }
  // When set, a UDC_CHECK failure anywhere in the process dumps this
  // simulation's flight recorder to the path before aborting.
  void set_crash_dump_path(std::string path);

  // Convenience: record a trace event at the current simulated time.
  void Trace(std::string_view category, std::string_view detail) {
    flight_recorder_.RecordTrace(now_, category, detail);
    MirrorSpans();
    trace_.Record(now_, category, detail);
  }

  // Opens an RAII span at the current simulated time; nested scopes parent
  // automatically. When the span closes it is mirrored into the legacy
  // TraceRecorder as "category: name k=v ... dur=..".
  ScopedSpan Scope(std::string category, std::string name,
                   SpanLabels labels = {}) {
    return ScopedSpan(&spans_, std::move(category), std::move(name),
                      std::move(labels));
  }

  // Schedules `cb` at absolute simulated time `when` (>= now). Templated so
  // the caller's closure is constructed directly into an InlineCallback
  // (zero heap allocation for captures up to 64 bytes, pooled slab beyond).
  template <typename F>
  EventHandle At(SimTime when, F&& cb) {
    assert(when >= now_);
    return queue_.Schedule(when, InlineCallback(std::forward<F>(cb)));
  }

  // Schedules `cb` after `delay` from now.
  template <typename F>
  EventHandle After(SimTime delay, F&& cb) {
    assert(delay >= SimTime(0));
    return At(now() + delay, std::forward<F>(cb));
  }

  bool Cancel(EventHandle handle) { return queue_.Cancel(handle); }

  // Runs events until the queue is empty. Returns the final time.
  SimTime RunToCompletion();

  // Runs events with time <= deadline; leaves later events pending. The clock
  // advances to min(deadline, last event time).
  SimTime RunUntil(SimTime deadline);

  // Runs a single event if one is pending. Returns false when idle.
  bool Step();

  uint64_t events_executed() const { return events_executed_; }

 private:
  // Renders every span closed since the last mirror into the legacy trace
  // (as "category: name k=v ... dur=..." at the span's start time). Closed
  // spans double as legacy trace events so string-based assertions and
  // timeline dumps keep working on top of the structured layer, but the
  // rendering cost is paid here — at read time — not per event. Every
  // SpanTracer::Clear() restarts the walk at the first span closed after it.
  void MirrorSpans() const;

  // Fired on an objective's OK/WARN -> BREACH transition (SloEngine wiring
  // set up in the constructor): annotates the flight ring and, when a dump
  // path is set, writes the black box out.
  void OnSloBreach(const SloVerdict& verdict);

  SimTime now_;
  EventQueue queue_;
  Rng rng_;
  MetricsRegistry metrics_;
  mutable TraceRecorder trace_;
  // Mirror cursor into spans_.closed_order(), valid for the tracer's
  // `mirrored_clears_`-th generation (see SpanTracer::clears()).
  mutable size_t mirrored_closed_ = 0;
  mutable uint64_t mirrored_clears_ = 0;
  SpanTracer spans_;
  FlightRecorder flight_recorder_;
  SloEngine slos_{&metrics_};
  std::string breach_dump_path_;
  std::string crash_dump_path_;
  uint64_t crash_hook_id_ = 0;
  uint64_t events_executed_ = 0;
};

}  // namespace udc

#endif  // UDC_SRC_SIM_SIMULATION_H_
