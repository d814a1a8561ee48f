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
// deployment. The router holds one scheduler per cell; on a flat datacenter
// its single scheduler is unscoped (SchedulerConfig::cell = -1).

#ifndef UDC_SRC_CORE_SCHEDULER_H_
#define UDC_SRC_CORE_SCHEDULER_H_

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/placement_txn.h"
#include "src/core/planner.h"
#include "src/exec/env_manager.h"
#include "src/net/fabric.h"
#include "src/net/switch_programs.h"
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
  // Replication protocol for data modules; kInNetwork uses the switch
  // sequencer when available.
  ReplicationProtocol replication_protocol = ReplicationProtocol::kPrimaryBackup;
  // Record wall-clock (host) placement latency per deploy into the router's
  // `sched.place_latency_us` sketch and its per-cell and per-region
  // labelled sketches. Off by default: wall-clock values differ run to run,
  // so the series would break the byte-identical exposition guarantee
  // differential tests rely on. The series are only interned when this is
  // set — even an empty histogram changes the exposition text.
  bool record_place_latency = false;
  // Scope this scheduler to one topology cell (control-plane shard): rack
  // picks scan only the cell's racks, locality hints outside the cell are
  // ignored, and every pool request carries strict_cell so placements never
  // leave the capacity partition this scheduler owns. -1 = whole datacenter
  // (the router's one scheduler on an unpartitioned topology).
  int cell = -1;
};

class UdcScheduler {
 public:
  UdcScheduler(Simulation* sim, DisaggregatedDatacenter* datacenter,
               Fabric* fabric, const PriceList* prices,
               SchedulerConfig config = SchedulerConfig());

  // Optional: attach a switch sequencer for in-network replication.
  void SetSequencer(SwitchSequencer* sequencer) { sequencer_ = sequencer; }

  // Per-batch caches for the router's DeployAll: rack free-capacity vectors
  // per device kind (maintained incrementally as allocations land) and
  // resolved module demands keyed by module identity (batches redeploy the
  // same specs). One context is shared across the cell schedulers: demand
  // resolution is cell-independent and the rack debits are rack-exact.
  struct BatchContext {
    std::array<std::vector<int64_t>, kNumDeviceKinds> free_by_rack;
    std::array<bool, kNumDeviceKinds> free_by_rack_valid{};
    std::map<const Module*, ResolvedDemand> demands;
  };

  // Places one module of `spec` into an already-open transaction owned by
  // the router. Stages allocations/launch/provisions into `txn` and records
  // the module on `deployment`. On failure the txn is left open with this
  // module's partial sub-plan still staged; the router unwinds it with
  // PlacementTxn::AbortTo before trying another cell.
  Status PlaceModuleInTxn(TenantId tenant, const AppSpec& spec,
                          ModuleId module, bool is_data,
                          Deployment* deployment, PlacementTxn& txn,
                          BatchContext* batch);

 private:
  // Picks the rack for `module`: the rack of an already-placed locality
  // partner when hints are on, else the rack with the most free capacity of
  // the module's dominant resource (served from `batch`'s cache when set).
  int PickRack(const AppSpec& spec, ModuleId module,
               const Deployment& deployment, ResourceKind dominant,
               BatchContext* batch);
  // Debits `allocation`'s slices from the batch's cached rack capacities so
  // later deploys in the batch score racks against up-to-date numbers.
  void NoteBatchAllocation(BatchContext* batch, DeviceKind kind,
                           const PoolAllocation& allocation);
  // ResolveDemand, cached per batch.
  Result<ResolvedDemand> DemandFor(const Module& module,
                                   const ResourceAspect& aspect,
                                   BatchContext* batch);

  Status PlaceTask(TenantId tenant, const AppSpec& spec, ModuleId module,
                   Deployment* deployment, PlacementTxn& txn,
                   BatchContext* batch);
  Status PlaceData(TenantId tenant, const AppSpec& spec, ModuleId module,
                   Deployment* deployment, PlacementTxn& txn,
                   BatchContext* batch);

  Simulation* sim_;
  DisaggregatedDatacenter* datacenter_;
  Fabric* fabric_;
  SchedulerConfig config_;
  DryRunProfiler profiler_;
  SwitchSequencer* sequencer_ = nullptr;

  // Interned metric series: placement happens per module per deploy, so the
  // counters are bumped through pre-resolved handles instead of re-hashing
  // name+labels each time.
  CounterHandle tasks_placed_;
  CounterHandle data_placed_;
  CounterHandle modules_placed_task_;
  CounterHandle modules_placed_data_;
  CounterHandle conflicts_resolved_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_SCHEDULER_H_
