#include "src/core/tuner.h"

#include <algorithm>
#include <cmath>

namespace udc {

namespace {

constexpr double kLowWatermark = 0.30;   // shrink below this utilization
constexpr double kHighWatermark = 0.85;  // grow above this
constexpr double kEwmaAlpha = 0.3;
constexpr double kGrowFactor = 1.5;
constexpr double kShrinkFactor = 0.6;
constexpr int64_t kMinComputeMilli = 250;
constexpr int kObservationsBeforeActing = 3;

}  // namespace

AdaptiveTuner::AdaptiveTuner(RegionRouter* router, Deployment* deployment)
    : sim_(router->engine().sim()), router_(router), deployment_(deployment) {}

Result<int64_t> AdaptiveTuner::Resize(ModuleId module, double factor) {
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
    if (alloc.slices.empty() || alloc.slices.front().amount == 0) {
      // A repair found no healthy replacement for the first slice: home and
      // environment are still on the dead device's node, so the task is
      // down until a repair succeeds, and a resize would move its compute
      // away from them.
      return Status(FailedPreconditionError(
          "task is down: its compute slice found no replacement"));
    }
    const int64_t current = alloc.total();
    int64_t target = static_cast<int64_t>(
        std::llround(static_cast<double>(current) * factor));
    target = std::max(target, kMinComputeMilli);
    const int64_t delta = target - current;
    if (delta == 0) {
      return delta;
    }
    PlacementTxn txn = router_->engine().Begin("tune");
    const Status resized =
        router_->ResizeAllocation(txn, deployment_, alloc, delta);
    if (!resized.ok()) {
      txn.Abort();
      return resized;
    }
    ++resizes_;
    sim_->metrics().IncrementCounter(delta > 0 ? "tuner.grows"
                                               : "tuner.shrinks");
    (void)txn.Commit();
    return delta;
  }
  return Status(FailedPreconditionError("module has no compute allocation"));
}

Result<int64_t> AdaptiveTuner::Observe(ModuleId module, double utilization) {
  utilization = std::clamp(utilization, 0.0, 4.0);
  ModuleState& st = state_[module];
  if (st.samples == 0) {
    st.ewma = utilization;
  } else {
    st.ewma = kEwmaAlpha * utilization + (1.0 - kEwmaAlpha) * st.ewma;
  }
  ++st.samples;

  if (st.samples < kObservationsBeforeActing) {
    return int64_t{0};
  }
  if (st.ewma > kHighWatermark) {
    auto delta = Resize(module, kGrowFactor);
    if (delta.ok()) {
      st.ewma = st.ewma / kGrowFactor;  // expect relief
    }
    return delta;
  }
  if (st.ewma < kLowWatermark) {
    auto delta = Resize(module, kShrinkFactor);
    if (delta.ok() && *delta != 0) {  // a no-op at the floor brings no relief
      st.ewma = std::min(1.0, st.ewma / kShrinkFactor);
    }
    return delta;
  }
  return int64_t{0};
}

}  // namespace udc
