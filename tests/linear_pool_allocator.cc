#include "tests/linear_pool_allocator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/strings.h"

namespace udc {

namespace {

// Candidate ordering for an allocation attempt.
std::vector<Device*> RankCandidates(ResourcePool& pool, TenantId tenant,
                                    const AllocationConstraints& constraints,
                                    const Topology& topology) {
  std::vector<Device*> candidates;
  for (const Device* device : pool.devices()) {
    Device* d = pool.FindDevice(device->id());
    if (!d->healthy()) {
      continue;
    }
    if (std::find(constraints.avoid.begin(), constraints.avoid.end(),
                  d->id()) != constraints.avoid.end()) {
      continue;
    }
    if (constraints.require_exclusive && !d->ExclusivelyAvailableFor(tenant)) {
      continue;
    }
    if (d->exclusive() && d->exclusive_tenant() != tenant) {
      continue;
    }
    const int rack = topology.RackOf(d->node());
    if (constraints.strict_rack && constraints.preferred_rack >= 0 &&
        rack != constraints.preferred_rack) {
      continue;
    }
    if (constraints.strict_cell && constraints.preferred_cell >= 0 &&
        topology.CellOf(rack) != constraints.preferred_cell) {
      continue;
    }
    if (d->free_capacity() <= 0) {
      continue;
    }
    candidates.push_back(d);
  }
  // Order: preferred rack first, then best-fit (least free capacity) so we
  // fill partially-used devices before opening fresh ones (fragmentation
  // control), then stable by id for determinism.
  std::sort(candidates.begin(), candidates.end(),
            [&](const Device* a, const Device* b) {
              const bool a_local =
                  constraints.preferred_rack >= 0 &&
                  topology.RackOf(a->node()) == constraints.preferred_rack;
              const bool b_local =
                  constraints.preferred_rack >= 0 &&
                  topology.RackOf(b->node()) == constraints.preferred_rack;
              if (a_local != b_local) {
                return a_local;
              }
              if (a->free_capacity() != b->free_capacity()) {
                return a->free_capacity() < b->free_capacity();
              }
              return a->id() < b->id();
            });
  return candidates;
}

}  // namespace

Result<PoolAllocation> LinearAllocate(ResourcePool& pool, TenantId tenant,
                                      int64_t amount,
                                      const AllocationConstraints& constraints,
                                      const Topology& topology) {
  if (amount <= 0) {
    return Status(InvalidArgumentError("pool allocation must be positive"));
  }
  std::vector<Device*> candidates =
      RankCandidates(pool, tenant, constraints, topology);

  PoolAllocation result;
  result.pool = pool.id();
  result.kind = pool.resource_kind();
  result.tenant = tenant;

  if (constraints.single_device) {
    for (Device* d : candidates) {
      if (d->free_capacity() >= amount) {
        UDC_RETURN_IF_ERROR(d->Allocate(tenant, amount));
        if (constraints.require_exclusive) {
          UDC_RETURN_IF_ERROR(d->SetExclusiveTenant(tenant));
        }
        result.slices.push_back(AllocationSlice{d->id(), d->node(), amount});
        return result;
      }
    }
    return Status(ResourceExhaustedError(StrFormat(
        "pool %s: no single device with %lld free",
        std::string(DeviceKindName(pool.device_kind())).c_str(),
        static_cast<long long>(amount))));
  }

  int64_t remaining = amount;
  for (Device* d : candidates) {
    if (remaining == 0) {
      break;
    }
    const int64_t take = std::min(remaining, d->free_capacity());
    if (take <= 0) {
      continue;
    }
    const Status s = d->Allocate(tenant, take);
    if (!s.ok()) {
      continue;  // raced with exclusivity; skip this device
    }
    if (constraints.require_exclusive) {
      const Status ex = d->SetExclusiveTenant(tenant);
      if (!ex.ok()) {
        (void)d->Release(tenant, take);
        continue;
      }
    }
    result.slices.push_back(AllocationSlice{d->id(), d->node(), take});
    remaining -= take;
  }
  if (remaining > 0) {
    // Roll back partial slices.
    (void)pool.Release(result);
    return Status(ResourceExhaustedError(StrFormat(
        "pool %s: short by %lld of %lld",
        std::string(DeviceKindName(pool.device_kind())).c_str(),
        static_cast<long long>(remaining), static_cast<long long>(amount))));
  }
  return result;
}

}  // namespace udc
