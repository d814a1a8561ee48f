// Region federation: a region-level router above the cell hierarchy.
//
// The topology's cells are partitioned into regions (Topology::
// SetRegionCount); the region router is the top of the placement hierarchy
// in a federated world:
//
//   * routes each deploy to a home region using the index's per-region
//     healthy free totals (FreeCapacityIndex::region_free — maintained by
//     the same commit/release deltas as the cell summaries, never by
//     rescans), then to a home cell inside that region by the per-cell
//     summaries;
//   * honors region affinity/anti-affinity from the udcl dist aspect
//     (`aspect m dist region=N` pins a module's candidate cells to region
//     N; `avoid_region=N` strikes region N from its candidate list);
//   * runs the whole deploy as ONE placement transaction. A module the
//     home cell rejects unwinds its partial sub-plan with
//     PlacementTxn::AbortTo and retries across the home region's other
//     cells, then across the remaining regions in free-capacity order —
//     a failed remote leg unwinds exactly, and a module no region admits
//     aborts the full transaction in reverse staging order.
//
// Determinism contract: with regions <= 1 the router's candidate order
// degenerates to exactly CellRouter's (home cell = argmax cell_free, ties
// low; fallbacks by free desc, cell asc), so the admit/reject stream is
// hash-identical to the cells-only path — deploy_churn's federation phase
// and tests/region_router_test.cc gate on it.

#ifndef UDC_SRC_CORE_REGION_ROUTER_H_
#define UDC_SRC_CORE_REGION_ROUTER_H_

#include <memory>
#include <vector>

#include "src/core/scheduler.h"

namespace udc {

class RegionRouter {
 public:
  // `base` is the per-cell scheduler configuration; its `cell` field is
  // overwritten per instance. Requires a region-partitioned topology.
  RegionRouter(Simulation* sim, DisaggregatedDatacenter* datacenter,
               Fabric* fabric, EnvManager* env_manager,
               AttestationService* attestation, const PriceList* prices,
               SchedulerConfig base = SchedulerConfig());

  // Routed deploy: picks a home region by free-capacity summary (or the
  // spec's region affinity), a home cell inside it, and places the DAG
  // through the per-cell schedulers inside one transaction, spilling
  // modules outward (home cell -> home region -> other regions) only on
  // rejection.
  Result<std::unique_ptr<Deployment>> Deploy(TenantId tenant,
                                             const AppSpec& spec);
  Result<std::unique_ptr<Deployment>> Deploy(
      TenantId tenant, std::shared_ptr<const AppSpec> spec);
  // Batched deploys share one demand/rack-score cache across the batch
  // (and across cells/regions). Results are positional.
  std::vector<Result<std::unique_ptr<Deployment>>> DeployAll(
      TenantId tenant, const std::vector<const AppSpec*>& specs);

  int region_count() const { return region_count_; }
  int cell_count() const { return static_cast<int>(cells_.size()); }
  UdcScheduler& cell(int c) { return *cells_[static_cast<size_t>(c)]; }
  PlacementEngine& engine() { return engine_; }

  void SetSequencer(SwitchSequencer* sequencer);

  // Per-region / per-cell healthy free capacity of `kind` — the routing
  // summaries (zero-copy views of the delta-maintained index vectors).
  const std::vector<int64_t>& RegionFreeSummary(DeviceKind kind) const;
  const std::vector<int64_t>& CellFreeSummary(DeviceKind kind) const;
  // Deploys homed to region `r` / deploys with a module outside the home
  // region / module placements that left their home region.
  int64_t RegionDeploys(int r) const;
  int64_t cross_region_deploys() const;
  int64_t region_fallbacks() const;

 private:
  // Home region: the region affinity of the first module, in declaration
  // order, that declares one; else the region with the most healthy free
  // capacity of the routing kind; ties to the lowest region.
  int RouteRegion(const AppSpec& spec) const;
  // The cell with the most free capacity among `region`'s cells; ties low.
  int RouteCellInRegion(int region) const;
  // Fallback cells for a module the home cell rejected (or may not use):
  // the home region's other cells (free desc, cell asc), then other
  // regions in (free desc, region asc) order, each region's cells in (free
  // desc, cell asc) order. Cells in the module's avoid_region are struck;
  // a module affinity restricts the list to that region's cells.
  std::vector<int> FallbackCells(int home_region, int home_cell,
                                 int affinity, int anti_affinity) const;

  Result<std::unique_ptr<Deployment>> DeployOneRouted(
      TenantId tenant, std::shared_ptr<const AppSpec> spec,
      UdcScheduler::BatchContext* batch);

  Simulation* sim_;
  DisaggregatedDatacenter* datacenter_;
  PlacementEngine engine_;
  std::vector<std::unique_ptr<UdcScheduler>> cells_;
  int region_count_;
  bool record_place_latency_;

  // Interned per-region series/labels: the router is on the per-deploy
  // hot path, so nothing here formats strings per call.
  std::vector<CounterHandle> region_deploys_;
  CounterHandle cross_region_deploys_;
  CounterHandle region_fallbacks_;
  std::vector<uint32_t> region_span_sets_;  // {{"region", r}} for sched.deploy
  // Only interned when record_place_latency: aggregate + per-region
  // sketches (the federation bench's slo.sched.region_place_p99 source).
  HistogramHandle place_latency_us_;
  std::vector<HistogramHandle> region_place_latency_us_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_REGION_ROUTER_H_
