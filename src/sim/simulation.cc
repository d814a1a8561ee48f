#include "src/sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/logging.h"

namespace udc {

Simulation::Simulation(uint64_t seed)
    : now_(SimTime(0)), rng_(seed), spans_([this] { return now_; }) {
  slos_.set_on_breach([this](const SloVerdict& v) { OnSloBreach(v); });
}

Simulation::~Simulation() {
  if (crash_hook_id_ != 0) {
    UnregisterCrashDumpHook(crash_hook_id_);
  }
}

void Simulation::set_crash_dump_path(std::string path) {
  crash_dump_path_ = std::move(path);
  if (crash_hook_id_ == 0 && !crash_dump_path_.empty()) {
    crash_hook_id_ = RegisterCrashDumpHook([this](std::string_view reason) {
      const Status status =
          flight_recorder_.Dump(crash_dump_path_, &metrics_, reason);
      if (!status.ok()) {
        UDC_LOG(Error) << "crash dump failed: " << status.ToString();
      }
    });
  }
}

void Simulation::ArmSloTicks(SimTime period, SimTime until) {
  assert(period > SimTime(0));
  const SimTime start = now();
  if (start >= until) {
    return;
  }
  const SimTime when = std::min(start + period, until);
  At(when, [this, period, until] {
    slos_.Tick(now());
    ArmSloTicks(period, until);  // no-op once now() >= until
  });
}

void Simulation::OnSloBreach(const SloVerdict& verdict) {
  spans_.EndAt(spans_.BeginAt(verdict.evaluated_at, "obs", "obs.slo_breach",
                              {{"objective", verdict.name}}),
               verdict.evaluated_at);
  if (breach_dump_path_.empty()) {
    return;
  }
  const Status status = flight_recorder_.Dump(
      breach_dump_path_, &metrics_, "slo breach: " + verdict.name);
  if (!status.ok()) {
    UDC_LOG(Error) << "breach dump failed: " << status.ToString();
  }
}

SimTime Simulation::RunToCompletion() {
  while (!queue_.empty()) {
    // Advance the clock before dispatch so callbacks observe their own time.
    now_ = queue_.NextTime();
    queue_.PopAndRun();
    ++events_executed_;
  }
  return now_;
}

SimTime Simulation::RunUntil(SimTime deadline) {
  while (!queue_.empty() && queue_.NextTime() <= deadline) {
    now_ = queue_.NextTime();
    queue_.PopAndRun();
    ++events_executed_;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

bool Simulation::Step() {
  if (queue_.empty()) {
    return false;
  }
  now_ = queue_.NextTime();
  queue_.PopAndRun();
  ++events_executed_;
  return true;
}

}  // namespace udc
