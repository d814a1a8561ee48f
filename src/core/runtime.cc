#include "src/core/runtime.h"

#include <algorithm>
#include <cmath>

#include "src/common/strings.h"

namespace udc {

namespace {

// MiB/s the crypto engine sustains for encryption and integrity each;
// applied when a module's DataProtection requests them.
constexpr double kCryptoMbps = 2200.0;
// Per-invocation bytes read from each data module a task consumes.
constexpr Bytes kDataAccessSize = Bytes::MiB(4);

}  // namespace

const StageStats* RunReport::StageOf(std::string_view name) const {
  for (const StageStats& s : stages) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::string RunReport::Table() const {
  std::string out = StrFormat(
      "%-8s %-8s %10s %10s %10s %10s %10s\n", "stage", "compute", "env_wait",
      "input", "compute", "output", "finish");
  for (const StageStats& s : stages) {
    out += StrFormat("%-8s %-8s %10s %10s %10s %10s %10s\n", s.name.c_str(),
                     std::string(ResourceKindName(s.compute_kind)).c_str(),
                     s.env_wait.ToString().c_str(),
                     s.input_time.ToString().c_str(),
                     s.compute_time.ToString().c_str(),
                     s.output_time.ToString().c_str(),
                     s.finish.ToString().c_str());
  }
  out += StrFormat("end-to-end %s, cost %s\n", end_to_end.ToString().c_str(),
                   resource_cost.ToString().c_str());
  return out;
}

DagRuntime::DagRuntime(Simulation* sim, Deployment* deployment)
    : sim_(sim), deployment_(deployment) {}

SimTime DagRuntime::CryptoTime(const DataProtection& protection,
                               Bytes size) const {
  if (!protection.any()) {
    return SimTime(0);
  }
  double passes = 0.0;
  if (protection.encryption) {
    passes += 1.0;
  }
  if (protection.integrity) {
    passes += 1.0;
  }
  if (protection.replay_protection) {
    passes += 0.05;  // counter bookkeeping, nearly free
  }
  const double micros = size.mib() / kCryptoMbps * 1e6 * passes;
  return SimTime(static_cast<int64_t>(std::llround(micros)));
}

Result<const Device*> DagRuntime::ComputeDeviceOf(
    const Placement& placement) const {
  const ResourceUnit* unit = deployment_->FindUnit(placement.unit);
  if (unit == nullptr) {
    return Status(InternalError("placement has no resource unit"));
  }
  const DeviceId device_id = unit->PrimaryDevice(placement.compute_kind);
  if (!device_id.valid()) {
    return Status(InternalError("unit has no compute slice"));
  }
  for (int i = 0; i < kNumDeviceKinds; ++i) {
    const ResourcePool& pool =
        deployment_->datacenter()->pool(static_cast<DeviceKind>(i));
    const Device* d = pool.FindDevice(device_id);
    if (d != nullptr) {
      return d;
    }
  }
  return Status(NotFoundError("compute device vanished"));
}

Result<StageStats> DagRuntime::ComputeStage(ModuleId module) const {
  const Placement* placement = deployment_->PlacementOf(module);
  if (placement == nullptr || placement->kind != ModuleKind::kTask) {
    return Status(InvalidArgumentError("ComputeStage requires a placed task"));
  }
  const Module* m = deployment_->spec().graph.Find(module);
  const AspectSet aspects = deployment_->spec().AspectsFor(module);
  const ResourceUnit* unit = deployment_->FindUnit(placement->unit);
  UDC_ASSIGN_OR_RETURN(const Device* device, ComputeDeviceOf(*placement));

  StageStats stats;
  stats.module = module;
  stats.name = m->name;
  stats.compute_kind = placement->compute_kind;
  stats.rack = placement->rack;

  // --- Inputs: predecessor task outputs + data-module reads, in parallel.
  SimTime input;
  for (const ModuleId pred : deployment_->spec().graph.Predecessors(module)) {
    const Module* pm = deployment_->spec().graph.Find(pred);
    const Placement* pp = deployment_->PlacementOf(pred);
    if (pp == nullptr) {
      continue;
    }
    SimTime leg;
    if (pm->kind == ModuleKind::kTask) {
      leg = deployment_->datacenter()->topology().TransferTime(
          pp->home, placement->home, pm->output_size);
    } else {
      Deployment* mutable_deployment = deployment_;
      ReplicatedStore* store = mutable_deployment->StoreOf(pred);
      if (store == nullptr) {
        continue;
      }
      const Bytes access(std::min(pm->data_size.bytes(),
                                  kDataAccessSize.bytes()));
      leg = store->PlanRead(placement->home, access).latency;
      if (leg < SimTime::Max()) {  // Max: no replica can serve the read
        leg += CryptoTime(deployment_->spec().AspectsFor(pred).exec.protection,
                          access);
      }
    }
    // Decrypt/verify at this module's boundary when it requests protection.
    if (pm->kind == ModuleKind::kTask) {
      leg += CryptoTime(aspects.exec.protection, pm->output_size);
    }
    input = std::max(input, leg);
  }

  // --- Compute on the allocated slice, with env + crypto overheads.
  const int64_t milli = unit->TotalResources().Get(placement->compute_kind);
  SimTime compute = device->ComputeTime(m->work_units, std::max<int64_t>(milli, 1));
  if (unit->env != nullptr) {
    compute = unit->env->AdjustCompute(compute);
  }

  // --- Outputs: successor data-module writes (replication protocol) and
  // output encryption. Task->task transfer is charged on the consumer side.
  SimTime output;
  for (const ModuleId succ : deployment_->spec().graph.Successors(module)) {
    const Module* sm = deployment_->spec().graph.Find(succ);
    if (sm->kind != ModuleKind::kData) {
      continue;
    }
    ReplicatedStore* store = deployment_->StoreOf(succ);
    if (store == nullptr) {
      continue;
    }
    SimTime leg = store->PlanWrite(placement->home, m->output_size).latency;
    if (leg < SimTime::Max()) {  // Max: the write cannot commit
      leg += CryptoTime(deployment_->spec().AspectsFor(succ).exec.protection,
                        m->output_size);
    }
    output = std::max(output, leg);
  }
  if (output < SimTime::Max()) {
    output += CryptoTime(aspects.exec.protection, m->output_size);
  }

  stats.input_time = input;
  stats.compute_time = compute;
  stats.output_time = output;
  return stats;
}

Result<RunReport> DagRuntime::RunOnce() {
  const SimTime run_start = sim_->now();
  UDC_ASSIGN_OR_RETURN(const std::vector<ModuleId> topo,
                       deployment_->spec().graph.TopoOrder());

  RunReport report;
  std::map<ModuleId, SimTime> finish_at;
  SimTime makespan_end = run_start;

  // One trace per invocation: a root span with the whole DAG under it. The
  // runtime is analytic — stage times are computed in closed form — so the
  // spans are dated explicitly rather than following the live clock.
  SpanTracer& spans = sim_->spans();
  const uint64_t run_span =
      spans.BeginAt(run_start, "run", "run.invoke",
                    {{"app", deployment_->spec().graph.app_name()}});

  for (const ModuleId module : topo) {
    UDC_ASSIGN_OR_RETURN(StageStats stats, ComputeStage(module));
    const Placement* placement = deployment_->PlacementOf(module);

    // Ready when every predecessor task finished.
    SimTime deps_ready = run_start;
    for (const ModuleId pred : deployment_->spec().graph.Predecessors(module)) {
      const auto it = finish_at.find(pred);
      if (it != finish_at.end()) {
        deps_ready = std::max(deps_ready, it->second);
      }
      // Count cross-rack input edges for the locality ablation.
      const Placement* pp = deployment_->PlacementOf(pred);
      if (pp != nullptr && placement != nullptr && pp->rack >= 0 &&
          placement->rack >= 0 && pp->rack != placement->rack) {
        ++report.cross_rack_transfers;
      }
    }
    // And when its environment came up.
    const SimTime env_ready = placement->env_ready_at;
    const SimTime start = std::max(deps_ready, env_ready);
    stats.env_wait = start - deps_ready;
    stats.start = start;
    stats.finish =
        start + stats.input_time + stats.compute_time + stats.output_time;
    finish_at[module] = stats.finish;
    makespan_end = std::max(makespan_end, stats.finish);

    // Stage span with its phases as children: env wait, input transfer,
    // compute, and the output commit through the replicated store.
    const uint64_t stage_span =
        spans.BeginAt(deps_ready, "exec", "exec.stage",
                      {{"module", stats.name}}, run_span);
    if (stats.env_wait > SimTime(0)) {
      spans.EndAt(spans.BeginAt(deps_ready, "exec", "exec.env_wait",
                                {{"module", stats.name}}, stage_span),
                  start);
    }
    SimTime phase = start;
    if (stats.input_time > SimTime(0)) {
      spans.EndAt(spans.BeginAt(phase, "net", "net.input_transfer",
                                {{"module", stats.name}}, stage_span),
                  phase + stats.input_time);
    }
    phase += stats.input_time;
    spans.EndAt(spans.BeginAt(phase, "exec", "exec.compute",
                              {{"module", stats.name}}, stage_span),
                phase + stats.compute_time);
    phase += stats.compute_time;
    if (stats.output_time > SimTime(0)) {
      spans.EndAt(spans.BeginAt(phase, "dist", "dist.output_commit",
                                {{"module", stats.name}}, stage_span),
                  stats.finish);
    }
    spans.EndAt(stage_span, stats.finish);
    report.stages.push_back(std::move(stats));
  }

  report.end_to_end = makespan_end - run_start;
  // Critical path compute: walk back from the last-finishing stage.
  SimTime cp;
  for (const StageStats& s : report.stages) {
    if (s.finish == makespan_end) {
      cp = s.compute_time;  // first-order: dominated by the last stage chain
    }
  }
  report.critical_path_compute = cp;
  report.resource_cost = PriceList::DefaultOnDemand().CostFor(
      deployment_->TotalResources(), report.end_to_end);

  spans.EndAt(run_span, makespan_end);
  const Span* root = spans.SpanById(run_span);
  report.trace_id = root != nullptr ? root->trace_id : 0;
  report.breakdown = BreakdownFromSpans(spans, run_span);
  report.breakdown.total = report.end_to_end;

  sim_->metrics().Observe("core.run_end_to_end_ms", report.end_to_end.millis());
  sim_->metrics().Observe("core.run_coldstart_wait_ms",
                          report.breakdown.cold_start.millis());
  sim_->metrics().IncrementCounter("core.runs");
  return report;
}

Result<SimTime> DagRuntime::SimulateFailure(
    ModuleId module, double fail_fraction,
    double checkpoint_interval_fraction, CheckpointStore* checkpoints) {
  if (fail_fraction < 0.0 || fail_fraction >= 1.0) {
    return Status(InvalidArgumentError("fail_fraction must be in [0, 1)"));
  }
  UDC_ASSIGN_OR_RETURN(StageStats stats, ComputeStage(module));
  const AspectSet aspects = deployment_->spec().AspectsFor(module);
  const Placement* placement = deployment_->PlacementOf(module);
  const Module* m = deployment_->spec().graph.Find(module);
  const EnvProfile env_profile = EnvProfile::DefaultFor(placement->env_kind);

  const SimTime t = stats.compute_time;
  const SimTime wasted = Scale(t, fail_fraction);

  if (aspects.dist.failure_handling == FailureHandling::kCheckpointRestore &&
      checkpoints != nullptr) {
    // Checkpoints every `interval` of the work; the run resumes from the
    // last completed checkpoint before the failure point.
    const double interval = std::clamp(checkpoint_interval_fraction, 0.01, 1.0);
    const double last_ckpt =
        std::floor(fail_fraction / interval) * interval;
    // Record real checkpoints so the integrity path is exercised.
    std::vector<uint8_t> state(static_cast<size_t>(
        std::min<int64_t>(m->output_size.bytes(), 4096)));
    for (double p = interval; p <= fail_fraction + 1e-9; p += interval) {
      checkpoints->Save(module, sim_->now(), static_cast<uint64_t>(p * 100),
                        state);
    }
    SimTime restore_cost = SimTime::Millis(5);  // locate + validate
    if (checkpoints->CountFor(module) > 0) {
      UDC_ASSIGN_OR_RETURN(const Checkpoint latest,
                           checkpoints->RestoreLatest(module));
      (void)latest;
      // Charge reading the checkpoint state back over the fabric.
      restore_cost += deployment_->datacenter()->topology().TransferTime(
          deployment_->datacenter()->topology().TorSwitch(0), placement->home,
          m->output_size);
    }
    const SimTime redo = Scale(t, 1.0 - last_ckpt);
    // Checkpoint writes also cost time during normal execution:
    const int ckpt_count = static_cast<int>(1.0 / interval);
    const SimTime ckpt_overhead =
        Scale(SimTime::Millis(2), static_cast<double>(ckpt_count));
    return wasted + env_profile.warm_start + restore_cost + redo +
           ckpt_overhead;
  }

  // Re-execute from scratch in a fresh environment.
  return wasted + env_profile.cold_start + t;
}

}  // namespace udc
