// Failure repair orchestrator.
//
// Wires the hardware failure injector to deployments: when a device dies,
// every module with a slice on it is repaired according to its distributed
// aspect (paper sec. 3.4) —
//
//   tasks:  re-place the dead slice on a healthy device. A compute slice
//           moves the module: its environment restarts (cold) on the new
//           device's node, and re-execution or checkpoint restore is
//           charged for the in-flight work. Any other slice (memory,
//           storage) is swapped in place;
//   data:   fail the replica in the module's store (readers fail over) and
//           re-establish the declared replication factor on a new device.
//
// Replacements come from RegionRouter::Reallocate, and a moved task is
// relaunched by RegionRouter::RehomeTask; the new device and the relaunched
// environment's host are provisioned, so Verify still passes.
//
// Every action is recorded so tests and benches can audit recovery.

#ifndef UDC_SRC_CORE_REPAIR_H_
#define UDC_SRC_CORE_REPAIR_H_

#include <string>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/region_router.h"
#include "src/core/runtime.h"
#include "src/dist/checkpoint.h"
#include "src/hw/failure.h"

namespace udc {

struct RepairAction {
  ModuleId module;
  std::string module_name;
  DeviceId failed_device;
  DeviceId replacement_device;
  FailureHandling handling = FailureHandling::kReexecute;
  SimTime recovery_time;       // downtime charged to this module
  bool success = false;
  std::string detail;
};

class RepairService {
 public:
  RepairService(RegionRouter* router, Deployment* deployment,
                CheckpointStore* checkpoints);

  // Subscribes to the injector; failures are handled as they fire.
  void Attach(FailureInjector* injector);

  // Handles one device failure immediately (also used by Attach's callback).
  std::vector<RepairAction> HandleDeviceFailure(DeviceId device);

  const std::vector<RepairAction>& history() const { return history_; }
  int64_t repairs_attempted() const { return static_cast<int64_t>(history_.size()); }
  int64_t repairs_succeeded() const;

 private:
  RepairAction RepairTask(const Placement& placement, DeviceId failed);
  RepairAction RepairData(Placement& placement, DeviceId failed);

  Simulation* sim_;
  RegionRouter* router_;
  Deployment* deployment_;
  CheckpointStore* checkpoints_;
  std::vector<RepairAction> history_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_REPAIR_H_
