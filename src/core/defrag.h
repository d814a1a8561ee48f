// Pool defragmentation.
//
// Fine granularity has a management cost the paper acknowledges (Design
// Principle 3: decomposing layers "increases the scale of hardware, system
// software, and user code that the cloud provider must manage"). One
// concrete symptom is fragmentation: exact-amount allocations that spilled
// across several devices, which hurts locality and strands capacity that no
// single-device request can use. The defragmenter measures fragmentation
// and consolidates multi-slice allocations onto single devices when room
// has opened up (each move is a data/state migration the provider pays
// for — counted so benches can weigh the trade); the router picks new homes.

#ifndef UDC_SRC_CORE_DEFRAG_H_
#define UDC_SRC_CORE_DEFRAG_H_

#include <vector>

#include "src/core/deployment.h"
#include "src/core/region_router.h"
#include "src/sim/simulation.h"

namespace udc {

struct FragmentationReport {
  int64_t allocations = 0;
  int64_t fragmented = 0;   // allocations with > 1 slice
  int64_t total_slices = 0;
  double MeanSlices() const {
    return allocations == 0 ? 0.0
                            : static_cast<double>(total_slices) /
                                  static_cast<double>(allocations);
  }
  double FragmentedFraction() const {
    return allocations == 0 ? 0.0
                            : static_cast<double>(fragmented) /
                                  static_cast<double>(allocations);
  }
};

struct ConsolidationResult {
  int moves = 0;                 // allocations consolidated
  SimTime migration_time;        // total simulated copy time charged
};

class Defragmenter {
 public:
  Defragmenter(RegionRouter* router, Deployment* deployment);

  // Fragmentation of this deployment's allocations.
  FragmentationReport Measure() const;

  // Tries to re-home every multi-slice allocation onto one device in the
  // same pool (preferring the module's current rack and its cell). A moved
  // compute allocation moves its module: home, rack and environment follow
  // it (RegionRouter::RehomeTask).
  // Migration cost: moving the allocation's bytes (for byte kinds) or a
  // fixed context-transfer charge (for compute kinds) across the fabric.
  Result<ConsolidationResult> Consolidate();

 private:
  Simulation* sim_;
  RegionRouter* router_;
  Deployment* deployment_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_DEFRAG_H_
