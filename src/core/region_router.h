// The region router: the one deploy path, for every topology.
//
// Placement is hierarchical — region, then cell, then rack — and the
// topology alone decides how far the hierarchy collapses:
//
//   * cells = 0: the router holds one cell whose UdcScheduler is unscoped
//     (SchedulerConfig::cell = -1), so every rack pick, pool request and
//     index walk is the flat datacenter's and the capacity index stays
//     unpartitioned;
//   * regions = 0: all cells form one region. Region aspects are ignored
//     and no region series are interned.
//
// Each deploy runs as ONE placement transaction from the router's engine:
//
//   * the home region is the spec's region affinity (first module in
//     declaration order that declares one), else the region with the most
//     healthy free capacity by the index's delta-maintained per-region
//     totals (FreeCapacityIndex::region_free — never rescans); the home
//     cell is the freest cell inside it (cell_free). Ties go low;
//   * modules are placed data first, then tasks in topological order, each
//     through the home cell's scheduler. A module the home cell rejects
//     unwinds its partial sub-plan with PlacementTxn::AbortTo and retries
//     across the home region's other cells, then across the remaining
//     regions in free-capacity order — `aspect m dist region=N` restricts
//     the candidates to region N, `avoid_region=N` strikes region N;
//   * a module no cell admits aborts the full transaction in reverse
//     staging order, so a deploy whose legs span cells or regions keeps the
//     single-transaction atomicity contract.
//
// Determinism contract: with one region the candidate order is the
// cells-only order (home = argmax cell_free, fallbacks by free desc, cell
// asc), and with one unscoped cell it is the flat scheduler's. Golden
// hashes frozen from the retired flat loop and cells-only router
// (tests/deploy_path_golden_test.cc) and the regions=1 differential
// (tests/region_router_test.cc, deploy_churn's federation phase) gate it.

#ifndef UDC_SRC_CORE_REGION_ROUTER_H_
#define UDC_SRC_CORE_REGION_ROUTER_H_

#include <memory>
#include <vector>

#include "src/core/placement_engine.h"
#include "src/core/scheduler.h"

namespace udc {

class RegionRouter {
 public:
  // `base` is the per-cell scheduler configuration; its `cell` field is
  // overwritten per instance on a cell-partitioned topology.
  RegionRouter(Simulation* sim, DisaggregatedDatacenter* datacenter,
               Fabric* fabric, EnvManager* env_manager,
               AttestationService* attestation, const PriceList* prices,
               SchedulerConfig base = SchedulerConfig());

  // Realizes `spec` for `tenant`. On success the deployment holds every
  // resource; on failure the transaction aborts and every partially
  // acquired slice, launched environment and provisioned attestation
  // identity is rolled back. The deployment references the caller's
  // immutable spec, which must not change while it is deployed.
  Result<std::unique_ptr<Deployment>> Deploy(
      TenantId tenant, std::shared_ptr<const AppSpec> spec);
  // Batched deploys share one demand/rack-score cache across the batch
  // (and across cells and regions). Each spec commits or aborts its own
  // transaction; results are positional.
  std::vector<Result<std::unique_ptr<Deployment>>> DeployAll(
      TenantId tenant, const std::vector<const AppSpec*>& specs);

  // The topology's regions: 0 when it is not region-partitioned.
  int region_count() const { return region_count_; }
  // The cells placed into: 1 (unscoped) when the topology has no cells.
  int cell_count() const { return static_cast<int>(cells_.size()); }
  PlacementEngine& engine() { return engine_; }

  void SetSequencer(SwitchSequencer* sequencer);

  // Per-region / per-cell healthy free capacity of `kind` — the routing
  // summaries (zero-copy views of the delta-maintained index vectors;
  // empty when the topology has no regions / cells).
  const std::vector<int64_t>& RegionFreeSummary(DeviceKind kind) const;
  const std::vector<int64_t>& CellFreeSummary(DeviceKind kind) const;
  // Deploys homed to cell `c` / deploys with a module outside the home cell
  // / module placements outside the home cell. Counted in every topology.
  int64_t CellDeploys(int c) const;
  int64_t cross_cell_deploys() const;
  int64_t cell_fallbacks() const;
  // The same one level up. Without regions there is no `r` to ask about
  // and the two totals read 0.
  int64_t RegionDeploys(int r) const;
  int64_t cross_region_deploys() const;
  int64_t region_fallbacks() const;

 private:
  // The cells of `region`: [CellBegin, CellEnd), every cell when unregioned.
  int CellBegin(int region) const;
  int CellEnd(int region) const;
  int RegionOfCell(int cell) const;
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

  Result<std::unique_ptr<Deployment>> DeployOne(
      TenantId tenant, std::shared_ptr<const AppSpec> spec,
      UdcScheduler::BatchContext* batch);

  Simulation* sim_;
  DisaggregatedDatacenter* datacenter_;
  PlacementEngine engine_;
  std::vector<std::unique_ptr<UdcScheduler>> cells_;
  int region_count_;
  bool record_place_latency_;

  // Interned series and span labels: the router is on the per-deploy hot
  // path, so nothing here formats strings per call. The region series are
  // only interned when the topology has regions.
  std::vector<CounterHandle> cell_deploys_;
  CounterHandle cross_cell_deploys_;
  CounterHandle cell_fallbacks_;
  std::vector<CounterHandle> region_deploys_;
  CounterHandle cross_region_deploys_;
  CounterHandle region_fallbacks_;
  // Per home cell: {{"cell", c}}, led by {"region", r} when regioned.
  std::vector<uint32_t> deploy_span_sets_;
  // Only interned when record_place_latency: the aggregate sketch plus the
  // home cell's and home region's labelled sketches.
  HistogramHandle place_latency_us_;
  std::vector<HistogramHandle> cell_place_latency_us_;
  std::vector<HistogramHandle> region_place_latency_us_;
};

// perfbench, frozen with the benchmark, spells the retired cells-only name.
using CellRouter = RegionRouter;

}  // namespace udc

#endif  // UDC_SRC_CORE_REGION_ROUTER_H_
