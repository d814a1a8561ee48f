// Adaptive fine-tuning (paper sec. 3.2).
//
// "Since user specified resources may be inaccurate when executing with real
// (and changing) inputs, UDC would perform fine tuning (enlarging or
// shrinking the amount of resources for a module, migrating modules across
// hardware units, etc.) based on telemetry data collected at the run time."
//
// The tuner consumes per-module utilization observations, keeps an EWMA, and
// resizes the module's compute slice through the router when usage leaves the
// [low, high] band. Migration moves a module's compute to another rack when
// its device is persistently saturated by co-tenants.

#ifndef UDC_SRC_CORE_TUNER_H_
#define UDC_SRC_CORE_TUNER_H_

#include <map>

#include "src/core/deployment.h"
#include "src/core/region_router.h"
#include "src/sim/simulation.h"

namespace udc {

struct TunerConfig {
  double low_watermark = 0.30;   // shrink below this utilization
  double high_watermark = 0.85;  // grow above this
  double ewma_alpha = 0.3;
  double grow_factor = 1.5;
  double shrink_factor = 0.6;
  int64_t min_compute_milli = 250;
  int observations_before_acting = 3;
};

struct TunerAction {
  ModuleId module;
  int64_t compute_delta_milli = 0;  // signed change applied
  bool migrated = false;
};

class AdaptiveTuner {
 public:
  AdaptiveTuner(RegionRouter* router, Deployment* deployment,
                TunerConfig config = TunerConfig());

  // Feeds one utilization sample (fraction of the allocated compute the
  // module actually used) and applies any resulting action.
  Result<TunerAction> Observe(ModuleId module, double utilization);

  double EwmaOf(ModuleId module) const;
  int64_t resizes() const { return resizes_; }
  int64_t migrations() const { return migrations_; }

 private:
  struct ModuleState {
    double ewma = 0.0;
    int samples = 0;
  };

  Result<TunerAction> Resize(ModuleId module, double factor);

  Simulation* sim_;
  RegionRouter* router_;
  Deployment* deployment_;
  TunerConfig config_;
  std::map<ModuleId, ModuleState> state_;
  int64_t resizes_ = 0;
  int64_t migrations_ = 0;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_TUNER_H_
