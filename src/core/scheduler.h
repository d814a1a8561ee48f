// The UDC runtime scheduler (paper sec. 3.2).
//
// "Our runtime scheduler would use the user-supplied resource aspect,
// execution environment aspect, and locality information from the
// application semantic aspect to decide the location(s) to execute a module
// and initialize it with the resource amount as user specified."
//
// A UdcScheduler places one module at a time into a placement transaction
// the region router (region_router.h) owns: it resolves the module's demand
// through the dry-run profiler, picks a rack with the locality hints,
// carves slices out of the disaggregated pools, launches the execution
// environment the exec-env aspect calls for, wires replicated stores for
// data modules, and records the resource unit and high-level object on the
// deployment. The router holds one scheduler and names the cell each call
// is scoped to; a flat datacenter is one cell, so its calls name cell 0.

#ifndef UDC_SRC_CORE_SCHEDULER_H_
#define UDC_SRC_CORE_SCHEDULER_H_

#include <memory>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/placement_txn.h"
#include "src/core/planner.h"
#include "src/exec/env_manager.h"
#include "src/net/fabric.h"
#include "src/obs/metrics.h"

namespace udc {

struct SchedulerConfig {
  // Ablation knob (bench E11): honour colocation/affinity hints.
  bool use_locality_hints = true;
  // Whether this deployment supports TEEs spanning GPUs/FPGAs (sec. 3.3
  // names Graviton-style hardware support as one option).
  bool tee_gpu_supported = false;
  // How conflicting consistency specs are settled (sec. 3.4).
  ConflictPolicy conflict_policy = ConflictPolicy::kStrictestWins;
  // Record wall-clock (host) placement latency per deploy into the router's
  // `sched.place_latency_us` sketch and its per-cell and per-region
  // labelled sketches. Off by default: wall-clock values differ run to run,
  // so the series would break the byte-identical exposition guarantee
  // differential tests rely on. The series are only interned when this is
  // set — even an empty histogram changes the exposition text.
  bool record_place_latency = false;
};

class UdcScheduler {
 public:
  UdcScheduler(Simulation* sim, DisaggregatedDatacenter* datacenter,
               Fabric* fabric, const PriceList* prices,
               SchedulerConfig config = SchedulerConfig());

  // Places one module of `spec` into an already-open transaction owned by
  // the router. Stages allocations/launch/provisions into `txn` and records
  // the module on `deployment`. On failure the txn is left open with this
  // module's partial sub-plan still staged; the router unwinds it with
  // PlacementTxn::AbortTo before trying another cell.
  //
  // `cell` scopes the placement to one topology cell (control-plane
  // shard): the rack pick scans only the cell's racks, locality hints
  // outside the cell are ignored, and every pool request is scoped to the
  // cell so the placement never leaves the cell's capacity partition.
  Status PlaceModuleInTxn(TenantId tenant, const AppSpec& spec,
                          ModuleId module, bool is_data, int cell,
                          Deployment* deployment, PlacementTxn& txn);

 private:
  // Picks the rack for `module` inside `cell`: the rack of an already-placed
  // locality partner when hints are on, else the rack with the most free
  // capacity of the module's dominant resource.
  int PickRack(const AppSpec& spec, ModuleId module, int cell,
               const Deployment& deployment, ResourceKind dominant);

  Status PlaceTask(TenantId tenant, const AppSpec& spec, ModuleId module,
                   int cell, Deployment* deployment, PlacementTxn& txn);
  Status PlaceData(TenantId tenant, const AppSpec& spec, ModuleId module,
                   int cell, Deployment* deployment, PlacementTxn& txn);

  Simulation* sim_;
  DisaggregatedDatacenter* datacenter_;
  Fabric* fabric_;
  SchedulerConfig config_;
  DryRunProfiler profiler_;

  // Interned metric series: placement happens per module per deploy, so the
  // counters are bumped through pre-resolved handles instead of re-hashing
  // name+labels each time.
  CounterHandle tasks_placed_;
  CounterHandle data_placed_;
  CounterHandle conflicts_resolved_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_SCHEDULER_H_
