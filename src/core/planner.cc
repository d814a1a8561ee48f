#include "src/core/planner.h"

#include <algorithm>

#include "src/common/strings.h"

namespace udc {

namespace {

DeviceKind ComputeDeviceFor(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kGpu:
      return DeviceKind::kGpuBoard;
    case ResourceKind::kFpga:
      return DeviceKind::kFpgaCard;
    default:
      return DeviceKind::kCpuBlade;
  }
}

// Working-set heuristic: a task needs DRAM proportional to its IO, floored
// at 256 MiB (runtime + model weights live somewhere).
Bytes WorkingSetOf(const Module& module) {
  const int64_t io = module.output_size.bytes() * 4;
  return Bytes(std::max(io, Bytes::MiB(256).bytes()));
}

}  // namespace

DryRunProfiler::DryRunProfiler(const DisaggregatedDatacenter* datacenter,
                               const PriceList* prices)
    : datacenter_(datacenter), prices_(prices) {}

Result<ProfileResult> DryRunProfiler::ProfileOn(const Module& module,
                                                ResourceKind compute) const {
  if (module.kind != ModuleKind::kTask) {
    return Status(InvalidArgumentError("profiling applies to task modules"));
  }
  if (!IsComputeKind(compute)) {
    return Status(InvalidArgumentError("not a compute kind"));
  }
  const DeviceKind device_kind = ComputeDeviceFor(compute);
  const ResourcePool& pool = datacenter_->pool(device_kind);
  if (pool.device_count() == 0) {
    return Status(
        NotFoundError("no devices of the requested kind in this datacenter"));
  }
  const Device& device = *pool.devices().front();

  ProfileResult result;
  result.compute = compute;
  result.demand.Set(compute, 1000);  // one whole unit for the dry run
  result.demand.Set(ResourceKind::kDram, WorkingSetOf(module).bytes());
  result.estimated_time = device.ComputeTime(module.work_units, 1000);
  if (result.estimated_time == SimTime::Max()) {
    return Status(FailedPreconditionError(
        "device kind has no compute capability for this module"));
  }
  result.estimated_cost = prices_->CostFor(result.demand, result.estimated_time);
  return result;
}

std::vector<ProfileResult> DryRunProfiler::ProfileAll(
    const Module& module,
    const std::vector<ResourceKind>& allowed_compute) const {
  std::vector<ResourceKind> candidates = allowed_compute;
  if (candidates.empty()) {
    candidates = {ResourceKind::kCpu, ResourceKind::kGpu, ResourceKind::kFpga};
  }
  std::vector<ProfileResult> out;
  for (ResourceKind kind : candidates) {
    auto r = ProfileOn(module, kind);
    if (r.ok()) {
      out.push_back(*std::move(r));
    }
  }
  return out;
}

Result<ResolvedDemand> ResolveDemand(const Module& module,
                                     const ResourceAspect& aspect,
                                     const DryRunProfiler& profiler) {
  ResolvedDemand resolved;

  if (module.kind == ModuleKind::kData) {
    // Data module: choose medium per objective / explicit spec.
    ResourceKind medium = ResourceKind::kSsd;
    if (aspect.defined && aspect.objective == ResourceObjective::kExplicit) {
      for (ResourceKind kind : {ResourceKind::kDram, ResourceKind::kNvm,
                                ResourceKind::kSsd, ResourceKind::kHdd}) {
        if (aspect.demand.Get(kind) > 0) {
          medium = kind;
          break;
        }
      }
    } else if (aspect.defined &&
               aspect.objective == ResourceObjective::kFastest) {
      medium = ResourceKind::kDram;
    } else {
      medium = ResourceKind::kHdd;  // cheapest medium
    }
    resolved.storage_medium = medium;
    const int64_t size = std::max(module.data_size.bytes(),
                                  aspect.demand.Get(medium));
    resolved.demand.Set(medium, size);
    return resolved;
  }

  // Task module.
  if (aspect.defined && aspect.objective == ResourceObjective::kExplicit) {
    resolved.demand = aspect.demand;
    // Guarantee a working set even when the user forgot memory.
    if (resolved.demand.Get(ResourceKind::kDram) == 0 &&
        resolved.demand.Get(ResourceKind::kNvm) == 0) {
      resolved.demand.Set(ResourceKind::kDram, Bytes::MiB(256).bytes());
    }
    // Guarantee some compute.
    bool has_compute = false;
    for (ResourceKind kind :
         {ResourceKind::kCpu, ResourceKind::kGpu, ResourceKind::kFpga}) {
      has_compute = has_compute || resolved.demand.Get(kind) > 0;
    }
    if (!has_compute) {
      resolved.demand.Set(ResourceKind::kCpu, 1000);
    }
    return resolved;
  }

  const std::vector<ProfileResult> profiles =
      profiler.ProfileAll(module, aspect.allowed_compute);
  if (profiles.empty()) {
    return Status(FailedPreconditionError(StrFormat(
        "module %s: no feasible hardware candidate", module.name.c_str())));
  }
  // Apply performance/cost goals first: candidates violating a goal are
  // out, and an empty survivor set is a hard error (sec. 3.2).
  std::vector<const ProfileResult*> candidates;
  for (const ProfileResult& p : profiles) {
    if (aspect.deadline.has_value() && p.estimated_time > *aspect.deadline) {
      continue;
    }
    if (aspect.hourly_budget.has_value()) {
      // Price the candidate's demand for one hour.
      const Money hourly = PriceList::DefaultOnDemand().CostFor(
          p.demand, SimTime::Hours(1));
      if (hourly > *aspect.hourly_budget) {
        continue;
      }
    }
    candidates.push_back(&p);
  }
  if (candidates.empty()) {
    return Status(FailedPreconditionError(StrFormat(
        "module %s: no hardware candidate meets the declared "
        "performance/cost goal",
        module.name.c_str())));
  }
  // With a deadline, take the cheapest that meets it; with a budget, the
  // fastest that fits it; otherwise the plain objective.
  const bool fastest =
      aspect.hourly_budget.has_value() ||
      (aspect.defined && aspect.objective == ResourceObjective::kFastest &&
       !aspect.deadline.has_value());
  const ProfileResult* best = candidates[0];
  for (const ProfileResult* p : candidates) {
    if (fastest) {
      if (p->estimated_time < best->estimated_time) {
        best = p;
      }
    } else {
      if (p->estimated_cost < best->estimated_cost) {
        best = p;
      }
    }
  }
  resolved.demand = best->demand;
  resolved.chosen_profile = *best;
  // GPU/FPGA tasks still need a sliver of CPU for orchestration — the
  // paper's p3.16xlarge example is exactly about NOT bundling 64 vCPUs here.
  if (best->compute != ResourceKind::kCpu) {
    resolved.demand.Set(ResourceKind::kCpu, 500);
  }
  return resolved;
}

}  // namespace udc
