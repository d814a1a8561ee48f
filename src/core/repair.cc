#include "src/core/repair.h"

#include <algorithm>

#include "src/common/strings.h"

namespace udc {

RepairService::RepairService(RegionRouter* router, Deployment* deployment,
                             CheckpointStore* checkpoints)
    : sim_(router->engine().sim()), router_(router), deployment_(deployment),
      checkpoints_(checkpoints) {}

void RepairService::Attach(FailureInjector* injector) {
  injector->Subscribe([this](const FailureEvent& event) {
    if (event.failed) {
      (void)HandleDeviceFailure(event.device);
    }
  });
}

int64_t RepairService::repairs_succeeded() const {
  return std::count_if(history_.begin(), history_.end(),
                       [](const RepairAction& a) { return a.success; });
}

RepairAction RepairService::RepairTask(const Placement& placement,
                                       DeviceId failed) {
  RepairAction action;
  action.module = placement.module;
  action.module_name = placement.name;
  action.failed_device = failed;

  const AspectSet aspects = deployment_->spec().AspectsFor(placement.module);
  action.handling = aspects.dist.failure_handling;

  ResourceUnit* unit = deployment_->FindUnit(placement.unit);
  if (unit == nullptr) {
    action.detail = "unit missing";
    return action;
  }

  // Find the dead slice, release it, and re-acquire the same amount from
  // the same pool through the router.
  for (PoolAllocation& alloc : unit->allocations) {
    for (size_t i = 0; i < alloc.slices.size(); ++i) {
      AllocationSlice& slice = alloc.slices[i];
      if (slice.device != failed) {
        continue;
      }
      const int64_t amount = slice.amount;
      // Release the dead slice unconditionally (no transaction: the device
      // is failed, the slice is gone either way). Device::Release still
      // works — health is orthogonal to the ledger — and keeps the ledger
      // truthful.
      PoolAllocation dead;
      dead.pool = alloc.pool;
      dead.kind = alloc.kind;
      dead.tenant = alloc.tenant;
      dead.slices.push_back(slice);
      (void)ReleasePoolAllocation(deployment_->datacenter(), dead);

      PlacementTxn txn = router_->engine().Begin("repair_task");
      AllocationConstraints constraints;
      constraints.preferred_rack = placement.rack;
      constraints.single_device = IsComputeKind(alloc.kind);
      constraints.avoid.push_back(failed);
      auto replacement = router_->Reallocate(
          txn, deployment_, placement.module,
          deployment_->datacenter()->PoolById(alloc.pool)->device_kind(),
          amount, constraints);
      if (!replacement.ok()) {
        txn.Abort();
        slice.amount = 0;
        action.detail = "no healthy replacement: " +
                        std::string(replacement.status().message());
        return action;
      }
      // A non-compute slice is not single-device, so the replacement may
      // span several devices: every one of its slices takes the dead
      // slice's place, or all but the first would leak.
      const AllocationSlice first = replacement->slices.front();
      slice = first;
      alloc.slices.insert(alloc.slices.begin() + static_cast<ptrdiff_t>(i) + 1,
                          replacement->slices.begin() + 1,
                          replacement->slices.end());
      action.replacement_device = first.device;

      // A module runs where its compute is: its home is the first slice of
      // its compute allocation, so only that slice's death moves it, with a
      // cold restart on the new home. Any other slice is swapped in place:
      // a tuner's spill slice, or the CPU slice beside a GPU task's compute.
      if (alloc.kind == placement.compute_kind && i == 0) {
        router_->RehomeTask(txn, deployment_, placement.module, first.node);
      }
      if (IsComputeKind(alloc.kind)) {
        // Charge recovery for the lost work per the module's failure
        // handling.
        DagRuntime runtime(sim_, deployment_);
        // Assume the failure caught the module mid-run at 50% progress.
        auto recovery = runtime.SimulateFailure(
            placement.module, /*fail_fraction=*/0.5,
            /*checkpoint_interval_fraction=*/0.25, checkpoints_);
        action.recovery_time =
            recovery.ok()
                ? *recovery
                : EnvProfile::DefaultFor(placement.env_kind).cold_start;
      }
      (void)txn.Commit();
      action.success = true;
      action.detail =
          StrFormat("re-placed %lld %s", static_cast<long long>(amount),
                    std::string(ResourceKindName(alloc.kind)).c_str());
      sim_->metrics().IncrementCounter("repair.tasks_replaced");
      return action;
    }
  }
  action.detail = "module had no slice on the failed device";
  return action;
}

RepairAction RepairService::RepairData(Placement& placement, DeviceId failed) {
  RepairAction action;
  action.module = placement.module;
  action.module_name = placement.name;
  action.failed_device = failed;
  action.handling = FailureHandling::kFailover;

  ReplicatedStore* store = deployment_->StoreOf(placement.module);
  ResourceUnit* unit = deployment_->FindUnit(placement.unit);
  if (store == nullptr || unit == nullptr) {
    action.detail = "store/unit missing";
    return action;
  }

  // 1. Fail the replica: readers fail over instantly.
  const auto replica_pos = std::find(placement.replica_devices.begin(),
                                     placement.replica_devices.end(), failed);
  if (replica_pos == placement.replica_devices.end()) {
    action.detail = "no replica on failed device";
    return action;
  }
  const size_t replica_index =
      static_cast<size_t>(replica_pos - placement.replica_devices.begin());
  store->MarkReplicaFailed(placement.replica_nodes[replica_index]);

  // 2. Re-establish the replication factor on a fresh device.
  for (PoolAllocation& alloc : unit->allocations) {
    for (AllocationSlice& slice : alloc.slices) {
      if (slice.device != failed) {
        continue;
      }
      const int64_t amount = slice.amount;
      PoolAllocation dead;
      dead.pool = alloc.pool;
      dead.kind = alloc.kind;
      dead.tenant = alloc.tenant;
      dead.slices.push_back(slice);
      (void)ReleasePoolAllocation(deployment_->datacenter(), dead);

      PlacementTxn txn = router_->engine().Begin("repair_data");
      AllocationConstraints constraints;
      constraints.preferred_rack = placement.rack;
      constraints.single_device = true;
      constraints.avoid = placement.replica_devices;
      auto replacement = router_->Reallocate(
          txn, deployment_, placement.module,
          deployment_->datacenter()->PoolById(alloc.pool)->device_kind(),
          amount, constraints);
      if (!replacement.ok()) {
        txn.Abort();
        slice.amount = 0;
        action.detail = "replication degraded: " +
                        std::string(replacement.status().message());
        return action;
      }
      slice = replacement->slices.front();
      action.replacement_device = slice.device;
      placement.replica_devices[replica_index] = slice.device;
      placement.replica_nodes[replica_index] = slice.node;
      (void)txn.Commit();

      // Re-silvering: copy the data from a healthy replica over the fabric.
      const Module* m = deployment_->spec().graph.Find(placement.module);
      NodeId source;
      for (const NodeId n : placement.replica_nodes) {
        if (n != slice.node && store->PlanRead(n, Bytes(0)).latency <
                                    SimTime::Max()) {
          source = n;
          break;
        }
      }
      action.recovery_time =
          source.valid()
              ? deployment_->datacenter()->topology().TransferTime(
                    source, slice.node, m->data_size)
              : SimTime::Max();
      action.success = true;
      action.detail = "replica rebuilt";
      sim_->metrics().IncrementCounter("repair.replicas_rebuilt");
      return action;
    }
  }
  action.detail = "failed replica slice not found";
  return action;
}

std::vector<RepairAction> RepairService::HandleDeviceFailure(DeviceId device) {
  std::vector<RepairAction> actions;
  // Every action runs under its own repair.module span (a repair's
  // sched.txn span nests under it) and is labelled with how it ended.
  const auto finish = [&](ScopedSpan& span, RepairAction action) {
    span.AddLabel("outcome", action.success ? "repaired" : "failed");
    span.AddLabel("detail", action.detail);
    history_.push_back(action);
    actions.push_back(std::move(action));
  };
  std::vector<ModuleId> directly_affected;
  // Modules whose unit has a slice on `device`.
  for (const auto& [module, placement] : deployment_->placements()) {
    const ResourceUnit* unit = deployment_->FindUnit(placement.unit);
    if (unit == nullptr) {
      continue;
    }
    bool affected = false;
    for (const PoolAllocation& alloc : unit->allocations) {
      for (const AllocationSlice& slice : alloc.slices) {
        if (slice.device == device) {
          affected = true;
        }
      }
    }
    if (!affected) {
      continue;
    }
    directly_affected.push_back(module);
    Placement* mutable_placement = deployment_->MutablePlacementOf(module);
    ScopedSpan span = sim_->Scope("repair", "repair.module",
                                  {{"module", placement.name}});
    finish(span, placement.kind == ModuleKind::kTask
                     ? RepairTask(*mutable_placement, device)
                     : RepairData(*mutable_placement, device));
  }

  // Co-failure (sec. 3.4): "code and data within a domain will fail as a
  // whole." Domain members of any directly-affected module are recovered
  // too, even when their own devices survived.
  std::vector<ModuleId> co_failing;
  for (const ModuleId module : directly_affected) {
    for (const ModuleId member : deployment_->spec().CoFailingWith(module)) {
      const bool already =
          std::find(directly_affected.begin(), directly_affected.end(),
                    member) != directly_affected.end() ||
          std::find(co_failing.begin(), co_failing.end(), member) !=
              co_failing.end();
      if (!already) {
        co_failing.push_back(member);
      }
    }
  }
  for (const ModuleId member : co_failing) {
    const Placement* placement = deployment_->PlacementOf(member);
    if (placement == nullptr || placement->kind != ModuleKind::kTask) {
      continue;
    }
    ScopedSpan span = sim_->Scope("repair", "repair.module",
                                  {{"module", placement->name}});
    RepairAction action;
    action.module = member;
    action.module_name = placement->name;
    action.failed_device = device;
    const FailureDomainSpec* domain = deployment_->spec().DomainOf(member);
    action.handling = domain != nullptr ? domain->handling
                                        : FailureHandling::kReexecute;
    DagRuntime runtime(sim_, deployment_);
    auto recovery = runtime.SimulateFailure(member, /*fail_fraction=*/0.5,
                                            /*checkpoint_interval_fraction=*/
                                            0.25, checkpoints_);
    action.recovery_time =
        recovery.ok() ? *recovery
                      : EnvProfile::DefaultFor(placement->env_kind).cold_start;
    action.success = true;
    action.detail = "co-failure: domain '" +
                    (domain != nullptr ? domain->name : "?") + "'";
    sim_->metrics().IncrementCounter("repair.cofailures");
    finish(span, std::move(action));
  }
  // Convergence for this failure event: the slowest recovery among every
  // triggered action (direct and co-failing). Sim-time, so deterministic —
  // safe to record unconditionally, and the SLO layer windows it
  // (slo.repair.convergence_p99).
  if (!actions.empty()) {
    SimTime worst = SimTime(0);
    for (const RepairAction& action : actions) {
      worst = std::max(worst, action.recovery_time);
    }
    sim_->metrics().Observe("repair.convergence_ms",
                            static_cast<double>(worst.millis()));
  }
  return actions;
}

}  // namespace udc
