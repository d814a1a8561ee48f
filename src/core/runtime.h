// DAG execution runtime.
//
// Runs one invocation of a deployed application: tasks execute in dependency
// order, overlapping where the DAG allows; each stage is charged environment
// readiness, input transfers (from predecessor placements and data-module
// reads), compute on its device slice (scaled by the environment's CPU
// overhead and by data-protection crypto), and output writes (through the
// replicated store for task->data edges).
//
// The runtime also implements the failure-handling semantics of the dist
// aspect: SimulateFailure reruns a stage under kReexecute vs
// kCheckpointRestore and reports the recovery cost difference.

#ifndef UDC_SRC_CORE_RUNTIME_H_
#define UDC_SRC_CORE_RUNTIME_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/deployment.h"
#include "src/dist/checkpoint.h"
#include "src/obs/breakdown.h"
#include "src/sim/simulation.h"

namespace udc {

struct StageStats {
  ModuleId module;
  std::string name;
  SimTime start;          // when inputs + env were ready
  SimTime env_wait;       // startup latency observed by this run
  SimTime input_time;     // predecessor output + data reads
  SimTime compute_time;   // device compute incl. env + crypto overheads
  SimTime output_time;    // output transfer / data writes
  SimTime finish;         // start + input + compute + output
  ResourceKind compute_kind = ResourceKind::kCpu;
  int rack = -1;
};

struct RunReport {
  SimTime end_to_end;               // makespan across the DAG
  SimTime critical_path_compute;    // sum of compute on the critical path
  std::vector<StageStats> stages;
  Money resource_cost;              // deployment resources priced for makespan
  int64_t cross_rack_transfers = 0; // input edges that crossed racks
  uint64_t trace_id = 0;            // span trace covering this invocation
  LatencyBreakdown breakdown;       // where the makespan went, from spans

  const StageStats* StageOf(std::string_view name) const;
  std::string Table() const;
};

class DagRuntime {
 public:
  DagRuntime(Simulation* sim, Deployment* deployment);

  // Executes one invocation starting at the simulation's current time.
  Result<RunReport> RunOnce();

  // Replays module `module` failing after `fail_fraction` of its compute,
  // under its declared failure handling. Returns the total stage time
  // including recovery. `checkpoint_interval_fraction` controls how much
  // progress the latest checkpoint captured (e.g. 0.8 = checkpoints every
  // 20% of the work; the run loses at most that much).
  Result<SimTime> SimulateFailure(ModuleId module, double fail_fraction,
                                  double checkpoint_interval_fraction,
                                  CheckpointStore* checkpoints);

  // Stage-time pieces for one module, independent of DAG scheduling.
  Result<StageStats> ComputeStage(ModuleId module) const;

 private:
  // Crypto time for `size` under the module's protection flags.
  SimTime CryptoTime(const DataProtection& protection, Bytes size) const;
  // The device backing the module's compute slice.
  Result<const Device*> ComputeDeviceOf(const Placement& placement) const;

  Simulation* sim_;
  Deployment* deployment_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_RUNTIME_H_
