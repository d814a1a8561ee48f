#include "src/core/scheduler.h"

#include <algorithm>

#include "src/common/strings.h"

namespace udc {

namespace {

DeviceKind DeviceKindFor(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return DeviceKind::kCpuBlade;
    case ResourceKind::kGpu:
      return DeviceKind::kGpuBoard;
    case ResourceKind::kFpga:
      return DeviceKind::kFpgaCard;
    case ResourceKind::kDram:
      return DeviceKind::kDramModule;
    case ResourceKind::kNvm:
      return DeviceKind::kNvmModule;
    case ResourceKind::kSsd:
      return DeviceKind::kSsdDrive;
    case ResourceKind::kHdd:
      return DeviceKind::kHddDrive;
    case ResourceKind::kNetBw:
      return DeviceKind::kCpuBlade;  // bandwidth is not a pooled device
  }
  return DeviceKind::kCpuBlade;
}

// The compute kind of a resolved task demand (largest compute component).
ResourceKind DominantCompute(const ResourceVector& demand) {
  if (demand.Get(ResourceKind::kGpu) > 0) {
    return ResourceKind::kGpu;
  }
  if (demand.Get(ResourceKind::kFpga) > 0) {
    return ResourceKind::kFpga;
  }
  return ResourceKind::kCpu;
}

}  // namespace

UdcScheduler::UdcScheduler(Simulation* sim, DisaggregatedDatacenter* datacenter,
                           Fabric* fabric, const PriceList* prices,
                           SchedulerConfig config)
    : sim_(sim), datacenter_(datacenter), fabric_(fabric), config_(config),
      profiler_(datacenter, prices),
      tasks_placed_(sim->metrics().CounterSeries("core.tasks_placed")),
      data_placed_(sim->metrics().CounterSeries("core.data_placed")),
      conflicts_resolved_(sim->metrics().CounterSeries(
          "core.consistency_conflicts_resolved")) {}

int UdcScheduler::PickRack(const AppSpec& spec, ModuleId module, int cell,
                           const Deployment& deployment,
                           ResourceKind dominant) {
  const Topology& topology = datacenter_->topology();
  if (config_.use_locality_hints) {
    // The pick only follows locality into the cell's racks; a partner
    // placed in another cell (cross-cell deploy) is not a usable hint.
    const auto in_scope = [&](int rack) {
      return topology.CellOf(rack) == cell;
    };
    for (const ModuleId partner : spec.graph.LocalityPartners(module)) {
      const Placement* p = deployment.PlacementOf(partner);
      if (p != nullptr && in_scope(p->rack)) {
        return p->rack;
      }
    }
    // Second-order locality: a placed DAG neighbour.
    for (const ModuleId pred : spec.graph.Predecessors(module)) {
      const Placement* p = deployment.PlacementOf(pred);
      if (p != nullptr && in_scope(p->rack)) {
        return p->rack;
      }
    }
  }
  // Most free capacity of the dominant resource over the cell's racks
  // (O(racks/cells)). The index's incremental per-rack totals are read in
  // place.
  const std::vector<int64_t>& free_per_rack =
      datacenter_->pool(DeviceKindFor(dominant)).index().rack_free_totals();
  const int r_begin = topology.CellRackBegin(cell);
  const int r_end = topology.CellRackEnd(cell);
  if (r_begin >= r_end) {
    return r_begin;
  }
  int best = r_begin;
  for (int r = r_begin + 1; r < r_end; ++r) {
    if (free_per_rack[static_cast<size_t>(r)] >
        free_per_rack[static_cast<size_t>(best)]) {
      best = r;
    }
  }
  return best;
}

Status UdcScheduler::PlaceTask(TenantId tenant, const AppSpec& spec,
                               ModuleId module, int cell,
                               Deployment* deployment, PlacementTxn& txn) {
  const Module* m = spec.graph.Find(module);
  const AspectSet aspects = spec.AspectsFor(module);
  ScopedSpan span =
      sim_->Scope("sched", "sched.place_task", {{"module", m->name}});

  UDC_ASSIGN_OR_RETURN(ResolvedDemand resolved,
                       ResolveDemand(*m, aspects.resource, profiler_));

  const ResourceKind compute = DominantCompute(resolved.demand);
  const int rack = PickRack(spec, module, cell, *deployment, compute);
  const bool single_tenant =
      aspects.exec.tenancy == TenancyMode::kSingleTenant ||
      aspects.exec.isolation >= IsolationLevel::kStrong;

  ResourceUnit unit;
  unit.tenant = tenant;

  // Stage each demand component through the transaction: a failure aborts
  // the whole deploy's transaction in the caller, releasing every slice
  // staged so far (this module's and every prior module's).
  for (int i = 0; i < kNumResourceKinds; ++i) {
    const auto kind = static_cast<ResourceKind>(i);
    const int64_t amount = resolved.demand.Get(kind);
    if (amount == 0 || kind == ResourceKind::kNetBw) {
      continue;
    }
    AllocationConstraints constraints;
    constraints.preferred_rack = rack;
    constraints.cell = cell;
    constraints.single_device = IsComputeKind(kind);
    constraints.require_exclusive = single_tenant && IsComputeKind(kind);
    const DeviceKind device_kind = DeviceKindFor(kind);
    auto alloc = txn.Allocate(device_kind, tenant, amount, constraints);
    if (!alloc.ok()) {
      return alloc.status();
    }
    unit.allocations.push_back(*std::move(alloc));
  }

  // Home node = the compute slice's device node.
  NodeId home;
  for (const PoolAllocation& alloc : unit.allocations) {
    if (alloc.kind == compute && !alloc.slices.empty()) {
      home = alloc.slices.front().node;
      break;
    }
  }

  // Pick and launch the execution environment.
  EnvKind env_kind;
  if (aspects.exec.explicit_env.has_value()) {
    env_kind = *aspects.exec.explicit_env;
  } else if (aspects.exec.tee_if_cpu && compute == ResourceKind::kCpu) {
    env_kind = EnvKind::kTeeEnclave;
  } else if (aspects.exec.defined) {
    env_kind = ProviderChoiceFor(aspects.exec.isolation,
                                 compute != ResourceKind::kCpu,
                                 config_.tee_gpu_supported);
  } else {
    env_kind = EnvKind::kContainer;  // provider default
  }

  LaunchOptions options;
  options.kind = env_kind;
  options.tenancy = single_tenant ? TenancyMode::kSingleTenant
                                  : aspects.exec.tenancy;
  options.image = m->name;
  ExecEnvironment* env =
      txn.Launch(tenant, home, options, /*on_ready=*/nullptr);

  // Provision attestation identities for every device backing the unit and
  // the environment's host node; the deployment records them so teardown
  // retires exactly what this deploy provisioned.
  for (const PoolAllocation& alloc : unit.allocations) {
    for (const AllocationSlice& slice : alloc.slices) {
      txn.Provision(slice.device.value());
      deployment->RecordProvisionedIdentity(slice.device.value());
    }
  }
  txn.Provision(home.value());
  deployment->RecordProvisionedIdentity(home.value());

  unit.env = env;
  ResourceUnit& stored = deployment->AddUnit(std::move(unit));

  HighLevelObject object;
  object.module = module;
  object.module_name = m->name;
  object.aspects = aspects;
  object.units.push_back(stored.id);
  HighLevelObject& stored_object = deployment->AddObject(std::move(object));

  Placement placement;
  placement.module = module;
  placement.name = m->name;
  placement.kind = ModuleKind::kTask;
  placement.unit = stored.id;
  placement.object = stored_object.id;
  placement.home = home;
  placement.rack = rack;
  placement.env_kind = env_kind;
  placement.env_ready_at = env->ready_at();
  placement.compute_kind = compute;
  deployment->SetPlacement(std::move(placement));

  sim_->metrics().Increment(tasks_placed_);
  span.AddLabel("rack", StrFormat("%d", rack));
  span.AddLabel("env", std::string(EnvKindName(env_kind)));
  span.AddLabel("compute", std::string(ResourceKindName(compute)));
  return OkStatus();
}

Status UdcScheduler::PlaceData(TenantId tenant, const AppSpec& spec,
                               ModuleId module, int cell,
                               Deployment* deployment, PlacementTxn& txn) {
  const Module* m = spec.graph.Find(module);
  const AspectSet aspects = spec.AspectsFor(module);
  ScopedSpan span =
      sim_->Scope("sched", "sched.place_data", {{"module", m->name}});

  UDC_ASSIGN_OR_RETURN(ResolvedDemand resolved,
                       ResolveDemand(*m, aspects.resource, profiler_));
  const ResourceKind medium = resolved.storage_medium;
  const int64_t size = resolved.demand.Get(medium);
  const int replicas = std::max(1, aspects.dist.replication_factor);

  // Resolve consistency against every accessor's dist aspect (sec. 3.4).
  // Accessors participate only when they explicitly specified a level.
  std::vector<ConsistencyLevel> levels;
  levels.push_back(aspects.dist.defined && aspects.dist.consistency_specified
                       ? aspects.dist.consistency
                       : ConsistencyLevel::kEventual);
  for (const ModuleId accessor : spec.graph.AccessorsOf(module)) {
    const AspectSet accessor_aspects = spec.AspectsFor(accessor);
    if (accessor_aspects.dist.defined &&
        accessor_aspects.dist.consistency_specified) {
      levels.push_back(accessor_aspects.dist.consistency);
    }
  }
  UDC_ASSIGN_OR_RETURN(ConsistencyResolution resolution,
                       ResolveConsistency(levels, config_.conflict_policy));
  if (resolution.had_conflict) {
    sim_->metrics().Increment(conflicts_resolved_);
  }

  const int rack = PickRack(spec, module, cell, *deployment, medium);

  ResourceUnit unit;
  unit.tenant = tenant;

  // One single-device allocation per replica, on distinct devices. A
  // failure aborts the deploy's transaction in the caller, releasing every
  // replica staged so far.
  std::vector<NodeId> replica_nodes;
  std::vector<DeviceId> replica_devices;
  AllocationConstraints constraints;
  constraints.preferred_rack = rack;
  constraints.cell = cell;
  constraints.single_device = true;
  const DeviceKind device_kind = DeviceKindFor(medium);
  for (int r = 0; r < replicas; ++r) {
    auto alloc = txn.Allocate(device_kind, tenant, size, constraints);
    if (!alloc.ok()) {
      return alloc.status();
    }
    replica_nodes.push_back(alloc->slices.front().node);
    replica_devices.push_back(alloc->slices.front().device);
    constraints.avoid.push_back(alloc->slices.front().device);
    unit.allocations.push_back(*std::move(alloc));
  }

  for (DeviceId device : replica_devices) {
    txn.Provision(device.value());
    deployment->RecordProvisionedIdentity(device.value());
  }

  ResourceUnit& stored = deployment->AddUnit(std::move(unit));

  ReplicationConfig repl_config;
  repl_config.replication_factor = replicas;
  repl_config.protocol = ReplicationProtocol::kPrimaryBackup;
  repl_config.consistency = resolution.level;
  repl_config.preference = aspects.dist.preference;
  deployment->AddStore(
      module, std::make_unique<ReplicatedStore>(
                  sim_, fabric_, &datacenter_->topology(), m->name,
                  replica_nodes, repl_config));
  txn.StageUndo([deployment, module] { deployment->RemoveStore(module); });

  HighLevelObject object;
  object.module = module;
  object.module_name = m->name;
  object.aspects = aspects;
  object.units.push_back(stored.id);
  HighLevelObject& stored_object = deployment->AddObject(std::move(object));

  Placement placement;
  placement.module = module;
  placement.name = m->name;
  placement.kind = ModuleKind::kData;
  placement.unit = stored.id;
  placement.object = stored_object.id;
  placement.home = replica_nodes.front();
  placement.rack = rack;
  placement.replica_nodes = std::move(replica_nodes);
  placement.replica_devices = std::move(replica_devices);
  placement.storage_medium = medium;
  placement.effective_consistency = resolution.level;
  deployment->SetPlacement(std::move(placement));

  sim_->metrics().Increment(data_placed_);
  span.AddLabel("rack", StrFormat("%d", rack));
  span.AddLabel("replicas", StrFormat("%d", replicas));
  span.AddLabel("medium", std::string(ResourceKindName(medium)));
  return OkStatus();
}

Status UdcScheduler::PlaceModuleInTxn(TenantId tenant, const AppSpec& spec,
                                      ModuleId module, bool is_data, int cell,
                                      Deployment* deployment,
                                      PlacementTxn& txn) {
  return is_data ? PlaceData(tenant, spec, module, cell, deployment, txn)
                 : PlaceTask(tenant, spec, module, cell, deployment, txn);
}

}  // namespace udc
