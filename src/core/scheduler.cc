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
      modules_placed_task_(
          sim->metrics().CounterSeries("sched.modules_placed",
                                       {{"kind", "task"}})),
      modules_placed_data_(
          sim->metrics().CounterSeries("sched.modules_placed",
                                       {{"kind", "data"}})),
      conflicts_resolved_(sim->metrics().CounterSeries(
          "core.consistency_conflicts_resolved")) {}

int UdcScheduler::PickRack(const AppSpec& spec, ModuleId module,
                           const Deployment& deployment, ResourceKind dominant,
                           BatchContext* batch) {
  const Topology& topology = datacenter_->topology();
  if (config_.use_locality_hints) {
    // A cell scheduler only follows locality into racks it owns; a partner
    // placed in another cell (cross-cell deploy) is not a usable hint.
    const auto in_scope = [&](int rack) {
      return config_.cell < 0 || topology.CellOf(rack) == config_.cell;
    };
    for (const ModuleId partner : spec.graph.LocalityPartners(module)) {
      const Placement* p = deployment.PlacementOf(partner);
      if (p != nullptr && p->rack >= 0 && in_scope(p->rack)) {
        return p->rack;
      }
    }
    // Second-order locality: a placed DAG neighbour.
    for (const ModuleId pred : spec.graph.Predecessors(module)) {
      const Placement* p = deployment.PlacementOf(pred);
      if (p != nullptr && p->rack >= 0 && in_scope(p->rack)) {
        return p->rack;
      }
    }
  }
  // Most free capacity of the dominant resource, over this scheduler's rack
  // range: the whole datacenter, or just the cell's racks (O(racks/cells)).
  const DeviceKind device_kind = DeviceKindFor(dominant);
  const ResourcePool& pool = datacenter_->pool(device_kind);
  const std::vector<int64_t>* free_per_rack = nullptr;
  if (batch != nullptr) {
    // Batched deploys score racks against a per-batch cache, kept current
    // by NoteBatchAllocation as slices land.
    const auto index = static_cast<size_t>(device_kind);
    if (!batch->free_by_rack_valid[index]) {
      batch->free_by_rack[index] = pool.HealthyFreeByRack(topology);
      batch->free_by_rack_valid[index] = true;
    }
    free_per_rack = &batch->free_by_rack[index];
  } else {
    // Incremental per-rack totals, read in place (no per-module copy).
    free_per_rack = &pool.PlacementIndex(topology).rack_free_totals();
  }
  size_t r_begin = 0;
  size_t r_end = free_per_rack->size();
  if (config_.cell >= 0) {
    r_begin = std::min(
        static_cast<size_t>(topology.CellRackBegin(config_.cell)), r_end);
    r_end = std::min(static_cast<size_t>(topology.CellRackEnd(config_.cell)),
                     r_end);
  }
  if (r_begin >= r_end) {
    return config_.cell >= 0 ? topology.CellRackBegin(config_.cell) : 0;
  }
  size_t best = r_begin;
  for (size_t r = r_begin + 1; r < r_end; ++r) {
    if ((*free_per_rack)[r] > (*free_per_rack)[best]) {
      best = r;
    }
  }
  return static_cast<int>(best);
}

void UdcScheduler::NoteBatchAllocation(BatchContext* batch, DeviceKind kind,
                                       const PoolAllocation& allocation) {
  if (batch == nullptr) {
    return;
  }
  const auto index = static_cast<size_t>(kind);
  if (!batch->free_by_rack_valid[index]) {
    return;
  }
  std::vector<int64_t>& free_per_rack = batch->free_by_rack[index];
  for (const AllocationSlice& slice : allocation.slices) {
    const int rack = datacenter_->topology().RackOf(slice.node);
    if (rack >= 0 && static_cast<size_t>(rack) < free_per_rack.size()) {
      free_per_rack[static_cast<size_t>(rack)] -= slice.amount;
    }
  }
}

Result<ResolvedDemand> UdcScheduler::DemandFor(const Module& module,
                                               const ResourceAspect& aspect,
                                               BatchContext* batch) {
  if (batch != nullptr) {
    const auto it = batch->demands.find(&module);
    if (it != batch->demands.end()) {
      return it->second;
    }
  }
  UDC_ASSIGN_OR_RETURN(ResolvedDemand resolved,
                       ResolveDemand(module, aspect, profiler_));
  if (batch != nullptr) {
    batch->demands.emplace(&module, resolved);
  }
  return resolved;
}

Status UdcScheduler::PlaceTask(TenantId tenant, const AppSpec& spec,
                               ModuleId module, Deployment* deployment,
                               PlacementTxn& txn, BatchContext* batch) {
  const Module* m = spec.graph.Find(module);
  const AspectSet aspects = spec.AspectsFor(module);
  ScopedSpan span =
      sim_->Scope("sched", "sched.place_task", {{"module", m->name}});

  UDC_ASSIGN_OR_RETURN(ResolvedDemand resolved,
                       DemandFor(*m, aspects.resource, batch));

  const ResourceKind compute = DominantCompute(resolved.demand);
  const int rack = PickRack(spec, module, *deployment, compute, batch);
  const bool single_tenant =
      aspects.exec.tenancy == TenancyMode::kSingleTenant ||
      aspects.exec.isolation >= IsolationLevel::kStrong;

  ResourceUnit unit;
  unit.tenant = tenant;
  unit.home_rack = rack;
  unit.shim.replication_factor = aspects.dist.replication_factor;
  unit.shim.consistency = aspects.dist.consistency;
  unit.shim.checkpoint_enabled = aspects.dist.checkpoint;

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
    if (config_.cell >= 0) {
      constraints.preferred_cell = config_.cell;
      constraints.strict_cell = true;
    }
    constraints.single_device = IsComputeKind(kind);
    constraints.require_exclusive = single_tenant && IsComputeKind(kind);
    const DeviceKind device_kind = DeviceKindFor(kind);
    auto alloc = txn.Allocate(device_kind, tenant, amount, constraints);
    if (!alloc.ok()) {
      return alloc.status();
    }
    NoteBatchAllocation(batch, device_kind, *alloc);
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
  unit.home = home;
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
  sim_->metrics().Increment(modules_placed_task_);
  span.AddLabel("rack", StrFormat("%d", rack));
  span.AddLabel("env", std::string(EnvKindName(env_kind)));
  span.AddLabel("compute", std::string(ResourceKindName(compute)));
  return OkStatus();
}

Status UdcScheduler::PlaceData(TenantId tenant, const AppSpec& spec,
                               ModuleId module, Deployment* deployment,
                               PlacementTxn& txn, BatchContext* batch) {
  const Module* m = spec.graph.Find(module);
  const AspectSet aspects = spec.AspectsFor(module);
  ScopedSpan span =
      sim_->Scope("sched", "sched.place_data", {{"module", m->name}});

  UDC_ASSIGN_OR_RETURN(ResolvedDemand resolved,
                       DemandFor(*m, aspects.resource, batch));
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

  const int rack = PickRack(spec, module, *deployment, medium, batch);

  ResourceUnit unit;
  unit.tenant = tenant;
  unit.home_rack = rack;
  unit.shim.replication_factor = replicas;
  unit.shim.consistency = resolution.level;

  // One single-device allocation per replica, on distinct devices. A
  // failure aborts the deploy's transaction in the caller, releasing every
  // replica staged so far.
  std::vector<NodeId> replica_nodes;
  std::vector<DeviceId> replica_devices;
  AllocationConstraints constraints;
  constraints.preferred_rack = rack;
  if (config_.cell >= 0) {
    constraints.preferred_cell = config_.cell;
    constraints.strict_cell = true;
  }
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
    NoteBatchAllocation(batch, device_kind, *alloc);
    unit.allocations.push_back(*std::move(alloc));
  }

  for (DeviceId device : replica_devices) {
    txn.Provision(device.value());
    deployment->RecordProvisionedIdentity(device.value());
  }

  unit.home = replica_nodes.front();
  ResourceUnit& stored = deployment->AddUnit(std::move(unit));

  ReplicationConfig repl_config;
  repl_config.replication_factor = replicas;
  repl_config.protocol = config_.replication_protocol;
  repl_config.consistency = resolution.level;
  repl_config.preference = aspects.dist.preference;
  deployment->AddStore(
      module, std::make_unique<ReplicatedStore>(
                  sim_, fabric_, &datacenter_->topology(), m->name,
                  replica_nodes, repl_config, sequencer_));
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
  sim_->metrics().Increment(modules_placed_data_);
  span.AddLabel("rack", StrFormat("%d", rack));
  span.AddLabel("replicas", StrFormat("%d", replicas));
  span.AddLabel("medium", std::string(ResourceKindName(medium)));
  return OkStatus();
}

Status UdcScheduler::PlaceModuleInTxn(TenantId tenant, const AppSpec& spec,
                                      ModuleId module, bool is_data,
                                      Deployment* deployment,
                                      PlacementTxn& txn, BatchContext* batch) {
  return is_data ? PlaceData(tenant, spec, module, deployment, txn, batch)
                 : PlaceTask(tenant, spec, module, deployment, txn, batch);
}

}  // namespace udc
