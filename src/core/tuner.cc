#include "src/core/tuner.h"

#include <algorithm>
#include <cmath>

namespace udc {

AdaptiveTuner::AdaptiveTuner(RegionRouter* router, Deployment* deployment,
                             TunerConfig config)
    : sim_(router->engine().sim()), router_(router), deployment_(deployment),
      config_(config) {}

double AdaptiveTuner::EwmaOf(ModuleId module) const {
  const auto it = state_.find(module);
  return it == state_.end() ? 0.0 : it->second.ewma;
}

Result<TunerAction> AdaptiveTuner::Resize(ModuleId module, double factor) {
  TunerAction action;
  action.module = module;
  Placement* placement = deployment_->MutablePlacementOf(module);
  if (placement == nullptr || placement->kind != ModuleKind::kTask) {
    return Status(InvalidArgumentError("tuner acts on placed task modules"));
  }
  ResourceUnit* unit = deployment_->FindUnit(placement->unit);
  if (unit == nullptr) {
    return Status(InternalError("missing resource unit"));
  }
  const ResourceKind compute = placement->compute_kind;
  for (PoolAllocation& alloc : unit->allocations) {
    if (alloc.kind != compute) {
      continue;
    }
    const int64_t current = alloc.total();
    int64_t target = static_cast<int64_t>(
        std::llround(static_cast<double>(current) * factor));
    target = std::max(target, config_.min_compute_milli);
    const int64_t delta = target - current;
    if (delta == 0) {
      return action;
    }
    PlacementTxn txn = router_->engine().Begin("tune");
    const Status resized =
        router_->ResizeAllocation(txn, deployment_, alloc, delta);
    if (!resized.ok()) {
      txn.Abort();
      return resized;
    }
    action.compute_delta_milli = delta;
    ++resizes_;
    sim_->metrics().IncrementCounter(delta > 0 ? "tuner.grows"
                                               : "tuner.shrinks");
    // Resizing may have added slices on other devices: migration in the
    // paper's sense when the primary device changed rack.
    const NodeId new_home = alloc.slices.front().node;
    if (new_home != placement->home) {
      placement->home = new_home;
      placement->rack =
          deployment_->datacenter()->topology().RackOf(new_home);
      action.migrated = true;
      ++migrations_;
      sim_->metrics().IncrementCounter("tuner.migrations");
    }
    (void)txn.Commit();
    return action;
  }
  return Status(FailedPreconditionError("module has no compute allocation"));
}

Result<TunerAction> AdaptiveTuner::Observe(ModuleId module,
                                           double utilization) {
  utilization = std::clamp(utilization, 0.0, 4.0);
  ModuleState& st = state_[module];
  if (st.samples == 0) {
    st.ewma = utilization;
  } else {
    st.ewma = config_.ewma_alpha * utilization +
              (1.0 - config_.ewma_alpha) * st.ewma;
  }
  ++st.samples;

  TunerAction none;
  none.module = module;
  if (st.samples < config_.observations_before_acting) {
    return none;
  }
  if (st.ewma > config_.high_watermark) {
    auto action = Resize(module, config_.grow_factor);
    if (action.ok()) {
      st.ewma = st.ewma / config_.grow_factor;  // expect relief
    }
    return action;
  }
  if (st.ewma < config_.low_watermark) {
    auto action = Resize(module, config_.shrink_factor);
    if (action.ok()) {
      st.ewma = std::min(1.0, st.ewma / config_.shrink_factor);
    }
    return action;
  }
  return none;
}

}  // namespace udc
