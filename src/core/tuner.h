// Adaptive fine-tuning (paper sec. 3.2).
//
// "Since user specified resources may be inaccurate when executing with real
// (and changing) inputs, UDC would perform fine tuning (enlarging or
// shrinking the amount of resources for a module, migrating modules across
// hardware units, etc.) based on telemetry data collected at the run time."
//
// The tuner consumes per-module utilization observations, keeps an EWMA, and
// resizes the module's compute slice through the router when usage leaves the
// [0.30, 0.85] band. A grow the module's devices cannot hold spills onto new
// devices in its cell, appended after the first slice; a shrink trims from
// the last slice back and never empties the allocation. So a resize never
// moves the first slice, where the module's home and environment are: the
// tuner resizes in place, and moving a module is left to repair and defrag
// (RegionRouter::RehomeTask). A task whose first slice a repair emptied
// (no healthy replacement) is down, and the tuner refuses to resize it
// until a repair succeeds. The observations come from the ActorExecutor,
// which measures each module's busy fraction.

#ifndef UDC_SRC_CORE_TUNER_H_
#define UDC_SRC_CORE_TUNER_H_

#include <map>

#include "src/core/deployment.h"
#include "src/core/region_router.h"
#include "src/sim/simulation.h"

namespace udc {

class AdaptiveTuner {
 public:
  AdaptiveTuner(RegionRouter* router, Deployment* deployment);

  // Feeds one utilization sample (fraction of the allocated compute the
  // module actually used) and applies any resulting resize. Returns the
  // signed change of the module's compute slice in milli-units (0: none).
  Result<int64_t> Observe(ModuleId module, double utilization);

  int64_t resizes() const { return resizes_; }

 private:
  struct ModuleState {
    double ewma = 0.0;
    int samples = 0;
  };

  Result<int64_t> Resize(ModuleId module, double factor);

  Simulation* sim_;
  RegionRouter* router_;
  Deployment* deployment_;
  std::map<ModuleId, ModuleState> state_;
  int64_t resizes_ = 0;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_TUNER_H_
