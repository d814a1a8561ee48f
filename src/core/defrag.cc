#include "src/core/defrag.h"

#include <string>

namespace udc {

Defragmenter::Defragmenter(RegionRouter* router, Deployment* deployment)
    : sim_(router->engine().sim()), router_(router), deployment_(deployment) {}

FragmentationReport Defragmenter::Measure() const {
  FragmentationReport report;
  Deployment* deployment = deployment_;
  for (ResourceUnit* unit : deployment->units()) {
    for (const PoolAllocation& alloc : unit->allocations) {
      ++report.allocations;
      report.total_slices += static_cast<int64_t>(alloc.slices.size());
      if (alloc.slices.size() > 1) {
        ++report.fragmented;
      }
    }
  }
  return report;
}

Result<ConsolidationResult> Defragmenter::Consolidate() {
  ConsolidationResult result;
  // Units in creation order, each with the module it backs.
  for (const HighLevelObject& object : deployment_->objects()) {
    const Placement* placement = deployment_->PlacementOf(object.module);
    for (const ResourceUnitId unit_id : object.units) {
      ResourceUnit* unit = deployment_->FindUnit(unit_id);
      for (PoolAllocation& alloc : unit->allocations) {
        if (alloc.slices.size() <= 1) {
          continue;
        }
        ResourcePool* pool = deployment_->datacenter()->PoolById(alloc.pool);
        if (pool == nullptr) {
          continue;
        }
        const int64_t amount = alloc.total();
        // One transaction per consolidation: the new home is acquired
        // first and the old slices are only released at commit, so a
        // failed acquisition leaves the allocation exactly where it was.
        PlacementTxn txn = router_->engine().Begin("defrag");
        // Try a single-device home, avoiding the devices the allocation
        // already occupies so the new slice does not race its own release.
        AllocationConstraints constraints;
        constraints.preferred_rack = placement->rack;
        constraints.single_device = true;
        for (const AllocationSlice& slice : alloc.slices) {
          constraints.avoid.push_back(slice.device);
        }
        auto replacement =
            router_->Reallocate(txn, deployment_, object.module,
                                pool->device_kind(), amount, constraints);
        if (!replacement.ok()) {
          txn.Abort();
          continue;  // no room; try again after churn
        }
        // Migration cost: move each old slice's bytes to the new home. For
        // compute kinds the "bytes" are the working state (fixed charge).
        const NodeId target = replacement->slices.front().node;
        for (const AllocationSlice& slice : alloc.slices) {
          const Bytes moved = IsComputeKind(alloc.kind)
                                  ? Bytes::MiB(64)  // context + working set
                                  : Bytes(slice.amount);
          result.migration_time +=
              deployment_->datacenter()->topology().TransferTime(
                  slice.node, target, moved);
        }
        txn.StageRelease(alloc);  // old slices, freed at commit
        alloc = *std::move(replacement);
        if (IsComputeKind(alloc.kind)) {
          // The module runs where its compute is: it moves too.
          router_->RehomeTask(txn, deployment_, object.module, target);
        }
        (void)txn.Commit();
        ++result.moves;
        sim_->metrics().IncrementCounter("defrag.moves");
        // The move in the event log: a zero-length span at commit time.
        (void)sim_->Scope("defrag", "defrag.consolidate",
                          {{"kind", std::string(ResourceKindName(alloc.kind))},
                           {"amount", std::to_string(amount)}});
      }
    }
  }
  return result;
}

}  // namespace udc
