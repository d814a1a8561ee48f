// The region router: the one deploy path, for every topology.
//
// Placement is hierarchical — region, then cell, then rack — and the
// topology alone decides how far the hierarchy collapses:
//
//   * cells = 0 or 1: the topology is one cell holding every rack. Every
//     placement call names the cell it tries, so a flat datacenter's rack
//     picks, pool requests and index walks are cell 0's;
//   * regions = 0 or 1: the topology is one region holding every cell. Its
//     series and span labels are region 0's, but it has nothing to route
//     or steer: the home region is 0 and region aspects are not read.
//
// Each deploy runs as ONE placement transaction from the router's engine:
//
//   * the home region is the spec's region affinity (first module in
//     declaration order that declares one), else the region with the most
//     healthy free capacity by the index's delta-maintained per-region
//     totals (FreeCapacityIndex::region_free — never rescans); the home
//     cell is the freest cell inside it (cell_free). Ties go low;
//   * modules are placed data first, then tasks in topological order, each
//     into the home cell. A module the home cell rejects
//     unwinds its partial sub-plan with PlacementTxn::AbortTo and retries
//     across the home region's other cells, then across the remaining
//     regions in free-capacity order — `aspect m dist region=N` restricts
//     the candidates to region N, `avoid_region=N` strikes region N;
//   * a module no cell admits aborts the full transaction in reverse
//     staging order, so a deploy whose legs span cells or regions keeps the
//     single-transaction atomicity contract.
//
// Deploy is the only way a deploy reaches placement: each call has its own
// sched.deploy span and transaction. The frontend's deploy RPC is one
// Deploy call, with a spec that every deployment of the same udcl text
// shares.
//
// Repair, defrag and tuning re-place through the same router: they open
// their transactions on engine(), the only PlacementEngine, and take every
// new device from Reallocate or ResizeAllocation.
//
// Determinism contract: with one region the candidate order is the
// cells-only order (home = argmax cell_free, fallbacks by free desc, cell
// asc), and with one cell it is the flat scheduler's. Golden hashes gate
// it: frozen from the retired flat loop and cells-only router
// (tests/deploy_path_golden_test.cc), and from the retired region-less
// topology, which the one region must still match
// (RegionRouterDifferentialTest, deploy_churn's federation phase).

#ifndef UDC_SRC_CORE_REGION_ROUTER_H_
#define UDC_SRC_CORE_REGION_ROUTER_H_

#include <memory>
#include <vector>

#include "src/core/placement_engine.h"
#include "src/core/scheduler.h"

namespace udc {

class RegionRouter {
 public:
  RegionRouter(Simulation* sim, DisaggregatedDatacenter* datacenter,
               Fabric* fabric, EnvManager* env_manager,
               AttestationService* attestation, const PriceList* prices,
               SchedulerConfig config = SchedulerConfig());

  // Realizes `spec` for `tenant`. On success the deployment holds every
  // resource; on failure the transaction aborts and every partially
  // acquired slice, launched environment and provisioned attestation
  // identity is rolled back. The deployment references the caller's
  // immutable spec, which must not change while it is deployed.
  Result<std::unique_ptr<Deployment>> Deploy(
      TenantId tenant, std::shared_ptr<const AppSpec> spec);

  // Stages a new allocation for `module` into `txn` the way Deploy places a
  // module (the preferred rack's cell, then the region-aspect ladder), sets
  // `constraints.cell` itself and provisions each new device on `deployment`.
  Result<PoolAllocation> Reallocate(PlacementTxn& txn, Deployment* deployment,
                                    ModuleId module, DeviceKind kind,
                                    int64_t amount,
                                    AllocationConstraints constraints);
  // Resizes `allocation` in place (a spill stays in its cell, see
  // ResourcePool::Resize) and provisions the devices it spilled onto.
  Status ResizeAllocation(PlacementTxn& txn, Deployment* deployment,
                          PoolAllocation& allocation, int64_t delta);
  // Moves task `module` to `node`, where its compute slice now is: sets the
  // placement's home and rack, and restarts its environment there through
  // `txn` — the old one stops at commit, the new one starts cold under the
  // module's image, and the new host is provisioned so Verify still quotes
  // it. Repair and defrag take this step whenever they move a compute slice.
  void RehomeTask(PlacementTxn& txn, Deployment* deployment, ModuleId module,
                  NodeId node);

  // The topology's regions: 1 when it was not split into regions.
  int region_count() const { return region_count_; }
  // The topology's cells: 1 when it was not split into cells.
  int cell_count() const { return cell_count_; }
  PlacementEngine& engine() { return engine_; }

  // Per-region / per-cell healthy free capacity of `kind` — the routing
  // summaries (zero-copy views of the delta-maintained index vectors).
  const std::vector<int64_t>& RegionFreeSummary(DeviceKind kind) const;
  const std::vector<int64_t>& CellFreeSummary(DeviceKind kind) const;
  // Deploys homed to cell `c` / deploys with a module outside the home cell
  // / module placements outside the home cell. Counted in every topology.
  int64_t CellDeploys(int c) const;
  int64_t cross_cell_deploys() const;
  int64_t cell_fallbacks() const;
  // The same one level up, also counted in every topology.
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
  // Runs `attempt(cell)` on the home cell, if `module`'s region aspects
  // admit it, then on each fallback cell until one succeeds. Returns that
  // cell, else the last rejection (InvalidArgument when none is admitted).
  template <typename Attempt>
  Result<int> PlaceOnLadder(const AppSpec& spec, ModuleId module,
                            int home_region, int home_cell,
                            Attempt&& attempt) const;

  Simulation* sim_;
  DisaggregatedDatacenter* datacenter_;
  const Topology& topology_;
  PlacementEngine engine_;
  UdcScheduler scheduler_;
  int cell_count_;
  int region_count_;
  bool record_place_latency_;

  // Interned series and span labels: the router is on the per-deploy hot
  // path, so nothing here formats strings per call.
  std::vector<CounterHandle> cell_deploys_;
  CounterHandle cross_cell_deploys_;
  CounterHandle cell_fallbacks_;
  std::vector<CounterHandle> region_deploys_;
  CounterHandle cross_region_deploys_;
  CounterHandle region_fallbacks_;
  // Per home cell: {{"region", r}, {"cell", c}}.
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
