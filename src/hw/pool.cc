#include "src/hw/pool.h"

#include <algorithm>
#include <cassert>

#include "src/common/strings.h"

namespace udc {

int64_t PoolAllocation::total() const {
  int64_t sum = 0;
  for (const auto& s : slices) {
    sum += s.amount;
  }
  return sum;
}

ResourcePool::ResourcePool(PoolId id, DeviceKind kind,
                           const Topology& topology)
    : id_(id), kind_(kind), index_(topology) {}

void ResourcePool::AddDevice(std::unique_ptr<Device> device) {
  assert(device->kind() == kind_);
  index_.Attach(device.get());
  devices_by_id_[device->id().value()] = device.get();
  devices_.push_back(std::move(device));
}

Device* ResourcePool::FindDevice(DeviceId id) {
  const auto it = devices_by_id_.find(id.value());
  return it == devices_by_id_.end() ? nullptr : it->second;
}

const Device* ResourcePool::FindDevice(DeviceId id) const {
  const auto it = devices_by_id_.find(id.value());
  return it == devices_by_id_.end() ? nullptr : it->second;
}

// The pool-level aggregates are maintained incrementally by the index, so
// the monitor's per-window queries don't scan the device vector.
int64_t ResourcePool::TotalCapacity() const { return index_.total_capacity(); }

int64_t ResourcePool::TotalAllocated() const {
  return index_.total_allocated();
}

double ResourcePool::Utilization() const {
  const int64_t cap = TotalCapacity();
  return cap == 0 ? 0.0
                  : static_cast<double>(TotalAllocated()) /
                        static_cast<double>(cap);
}

double ResourcePool::HealthyUtilization() const {
  const int64_t cap = index_.healthy_capacity();
  return cap == 0 ? 0.0
                  : static_cast<double>(index_.healthy_allocated()) /
                        static_cast<double>(cap);
}

Result<PoolAllocation> ResourcePool::Allocate(
    TenantId tenant, int64_t amount,
    const AllocationConstraints& constraints) {
  if (amount <= 0) {
    return Status(InvalidArgumentError("pool allocation must be positive"));
  }
  const int cell = constraints.cell;
  const FreeCapacityIndex::OrderedFreeList* cell_list =
      index_.CellFreeList(cell);
  if (cell_list == nullptr) {
    return Status(InvalidArgumentError(
        StrFormat("pool %s: the topology has no cell %d",
                  std::string(DeviceKindName(kind_)).c_str(), cell)));
  }

  PoolAllocation result;
  result.pool = id_;
  result.kind = resource_kind();
  result.tenant = tenant;

  const int preferred = constraints.preferred_rack;
  const bool rack_only = constraints.strict_rack && preferred >= 0;

  // Health and free capacity > 0 are implied by free-list membership; only
  // the per-request filters remain.
  auto admissible = [&](const Device* d) {
    if (std::find(constraints.avoid.begin(), constraints.avoid.end(),
                  d->id()) != constraints.avoid.end()) {
      return false;
    }
    if (constraints.require_exclusive && !d->ExclusivelyAvailableFor(tenant)) {
      return false;
    }
    if (d->exclusive() && d->exclusive_tenant() != tenant) {
      return false;
    }
    return true;
  };

  // The canonical candidate order — preferred rack by (free, id), then the
  // cell's remaining devices by (free, id) — falls out of walking the
  // preferred rack's free-list and then the cell's free-list minus that
  // rack. A preferred rack outside the cell is not walked.
  struct Phase {
    const FreeCapacityIndex::OrderedFreeList* list;
    bool skip_preferred;
  };
  Phase phases[2];
  int num_phases = 0;
  const FreeCapacityIndex::OrderedFreeList* rack_list =
      index_.topology().CellOf(preferred) == cell
          ? index_.RackFreeList(preferred)
          : nullptr;
  if (rack_list != nullptr) {
    phases[num_phases++] = Phase{rack_list, false};
  }
  if (!rack_only) {
    phases[num_phases++] = Phase{cell_list, rack_list != nullptr};
  }

  if (constraints.single_device) {
    for (int p = 0; p < num_phases; ++p) {
      // First fit in (free, id) order == first entry at or above `amount`
      // that passes the filters. A list whose freest device is too small
      // is skipped in O(1): lower_bound would walk the tree's right spine,
      // which filing devices in id order leaves about twice as deep as a
      // balanced path, once per cell a too-large request is offered to.
      const auto& list = *phases[p].list;
      if (list.empty() || list.rbegin()->free < amount) {
        continue;
      }
      const FreeCapacityIndex::Entry seek{amount, 0, nullptr};
      for (auto it = list.lower_bound(seek); it != list.end(); ++it) {
        Device* d = it->device;
        if (phases[p].skip_preferred && index_.RackOf(d) == preferred) {
          continue;
        }
        if (!admissible(d)) {
          continue;
        }
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
        std::string(DeviceKindName(kind_)).c_str(),
        static_cast<long long>(amount))));
  }

  int64_t remaining = amount;
  for (int p = 0; p < num_phases && remaining > 0; ++p) {
    const auto& list = *phases[p].list;
    // Each taken device mutates the free-list, so iterate by resume key:
    // re-seek strictly past the last visited (free, id). A drained device
    // leaves the list; a rolled-back one reinserts at its old key, which the
    // resume key skips — both match the linear path's snapshot semantics.
    FreeCapacityIndex::Entry resume{0, 0, nullptr};  // below all live entries
    while (remaining > 0) {
      Device* chosen = nullptr;
      for (auto it = list.upper_bound(resume); it != list.end(); ++it) {
        resume = *it;
        Device* d = it->device;
        if (phases[p].skip_preferred && index_.RackOf(d) == preferred) {
          continue;
        }
        if (!admissible(d)) {
          continue;
        }
        chosen = d;
        break;
      }
      if (chosen == nullptr) {
        break;
      }
      const int64_t take = std::min(remaining, chosen->free_capacity());
      const Status s = chosen->Allocate(tenant, take);
      if (!s.ok()) {
        continue;  // raced with exclusivity; skip this device
      }
      if (constraints.require_exclusive) {
        const Status ex = chosen->SetExclusiveTenant(tenant);
        if (!ex.ok()) {
          (void)chosen->Release(tenant, take);
          continue;
        }
      }
      result.slices.push_back(
          AllocationSlice{chosen->id(), chosen->node(), take});
      remaining -= take;
    }
  }
  if (remaining > 0) {
    // Roll back partial slices.
    (void)Release(result);
    return Status(ResourceExhaustedError(StrFormat(
        "pool %s: short by %lld of %lld",
        std::string(DeviceKindName(kind_)).c_str(),
        static_cast<long long>(remaining), static_cast<long long>(amount))));
  }
  return result;
}

Status ResourcePool::Release(const PoolAllocation& allocation) {
  Status first_error = OkStatus();
  for (const auto& slice : allocation.slices) {
    Device* d = FindDevice(slice.device);
    if (d == nullptr) {
      if (first_error.ok()) {
        first_error = NotFoundError("device vanished from pool");
      }
      continue;
    }
    const Status s = d->Release(allocation.tenant, slice.amount);
    if (!s.ok() && first_error.ok()) {
      first_error = s;
    }
    if (d->exclusive() && d->exclusive_tenant() == allocation.tenant &&
        d->AllocatedBy(allocation.tenant) == 0) {
      d->ClearExclusiveTenant();
    }
  }
  return first_error;
}

Status ResourcePool::Resize(PoolAllocation& allocation, int64_t delta) {
  if (delta == 0) {
    return OkStatus();
  }
  if (delta > 0) {
    // Grow: first on devices already holding slices, then new ones. Track
    // partial growth so a late failure rolls back cleanly.
    int64_t remaining = delta;
    std::vector<std::pair<AllocationSlice*, int64_t>> grown;
    for (auto& slice : allocation.slices) {
      Device* d = FindDevice(slice.device);
      if (d == nullptr || !d->healthy()) {
        continue;
      }
      const int64_t take = std::min(remaining, d->free_capacity());
      if (take <= 0) {
        continue;
      }
      const Status s = d->Allocate(allocation.tenant, take);
      if (!s.ok()) {
        continue;  // exclusivity race; try elsewhere
      }
      slice.amount += take;
      grown.emplace_back(&slice, take);
      remaining -= take;
      if (remaining == 0) {
        return OkStatus();
      }
    }
    if (remaining > 0) {
      // The spill stays in the first slice's cell.
      AllocationConstraints constraints;
      if (!allocation.slices.empty()) {
        constraints.cell =
            index_.CellOf(FindDevice(allocation.slices.front().device));
      }
      auto extra = Allocate(allocation.tenant, remaining, constraints);
      if (!extra.ok()) {
        // Roll back the partial growth on existing slices.
        for (auto& [slice, amount] : grown) {
          Device* d = FindDevice(slice->device);
          if (d != nullptr) {
            (void)d->Release(allocation.tenant, amount);
          }
          slice->amount -= amount;
        }
        return extra.status();
      }
      for (const auto& s : extra->slices) {
        allocation.slices.push_back(s);
      }
    }
    return OkStatus();
  }
  // Shrink: trim from the last slice backwards.
  int64_t to_free = -delta;
  if (to_free >= allocation.total()) {
    return InvalidArgumentError("shrink would empty the allocation");
  }
  for (auto it = allocation.slices.rbegin();
       it != allocation.slices.rend() && to_free > 0; ++it) {
    Device* d = FindDevice(it->device);
    const int64_t give = std::min(to_free, it->amount);
    if (d != nullptr) {
      UDC_RETURN_IF_ERROR(d->Release(allocation.tenant, give));
    }
    it->amount -= give;
    to_free -= give;
  }
  allocation.slices.erase(
      std::remove_if(allocation.slices.begin(), allocation.slices.end(),
                     [](const AllocationSlice& s) { return s.amount == 0; }),
      allocation.slices.end());
  return OkStatus();
}

std::vector<LedgerEntry> ResourcePool::LedgerSnapshot() const {
  std::vector<LedgerEntry> out;
  for (const auto& d : devices_) {
    for (TenantId tenant : d->tenants()) {
      out.push_back(LedgerEntry{d->id(), tenant, d->AllocatedBy(tenant)});
    }
  }
  std::sort(out.begin(), out.end(), [](const LedgerEntry& a, const LedgerEntry& b) {
    if (a.device != b.device) {
      return a.device < b.device;
    }
    return a.tenant < b.tenant;
  });
  return out;
}

std::string ResourcePool::DebugString() const {
  return StrFormat("pool %s: %zu devices cap=%lld alloc=%lld util=%.1f%%",
                   std::string(DeviceKindName(kind_)).c_str(), devices_.size(),
                   static_cast<long long>(TotalCapacity()),
                   static_cast<long long>(TotalAllocated()),
                   Utilization() * 100.0);
}

}  // namespace udc
