// Disaggregated resource pools.
//
// "Fulfilling users' resource demands would then simply be allocating the
// exact amount from the corresponding resource pools (instead of a
// bin-packing problem with traditional servers)." — paper sec. 3.2.
//
// A ResourcePool owns all devices of one kind. Allocation requests carry
// locality preferences and isolation constraints, and may be satisfied by
// slices across several devices (except when `single_device` is required).
// Every request names a topology cell and is served from that cell alone (a
// topology without cells is one cell); which cells to ask, in what order,
// is the region router's decision.
// Each device keeps a ledger of what every tenant holds on it; the
// attestation layer signs single rows of it (Device::AllocatedBy) to let
// users verify resource fulfillment (paper sec. 4's open problem).

#ifndef UDC_SRC_HW_POOL_H_
#define UDC_SRC_HW_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/hw/capacity_index.h"
#include "src/hw/device.h"
#include "src/hw/topology.h"

namespace udc {

// One contiguous reservation on one device.
struct AllocationSlice {
  DeviceId device;
  NodeId node;
  int64_t amount = 0;
};

// A satisfied pool request. Freed through ResourcePool::Release.
struct PoolAllocation {
  PoolId pool;
  ResourceKind kind = ResourceKind::kCpu;
  TenantId tenant;
  std::vector<AllocationSlice> slices;

  int64_t total() const;
};

// Constraints on a pool request.
struct AllocationConstraints {
  // Prefer devices in this rack (soft constraint unless `strict_rack`).
  int preferred_rack = -1;
  bool strict_rack = false;

  // Restrict to this topology cell (control-plane shard), not even leaving
  // it for a preferred rack elsewhere. Cell 0 of a topology without cells
  // holds every rack.
  int cell = 0;

  // The allocation must land on exactly one device.
  bool single_device = false;

  // The device(s) must be single-tenant for this tenant: no co-resident
  // tenants, and the device is marked exclusive for the allocation's
  // lifetime (paper sec. 3.3, protection against hardware side channels).
  bool require_exclusive = false;

  // Devices to avoid (e.g. previously failed under this module).
  std::vector<DeviceId> avoid;
};

// A (device, tenant, amount) row of the pool's allocation ledger.
struct LedgerEntry {
  DeviceId device;
  TenantId tenant;
  int64_t amount;
};

class ResourcePool {
 public:
  // `topology`'s rack/cell/region layout must be final: the pool's index
  // files each device under its rack, cell and region once, in AddDevice.
  ResourcePool(PoolId id, DeviceKind kind, const Topology& topology);

  PoolId id() const { return id_; }
  DeviceKind device_kind() const { return kind_; }
  ResourceKind resource_kind() const { return DeviceResourceKind(kind_); }

  // Transfers ownership of a device into the pool. Its node must sit in a
  // rack of the pool's topology.
  void AddDevice(std::unique_ptr<Device> device);

  size_t device_count() const { return devices_.size(); }
  Device* FindDevice(DeviceId id);
  const Device* FindDevice(DeviceId id) const;
  // Every device, in the order added.
  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  int64_t TotalCapacity() const;
  int64_t TotalAllocated() const;
  double Utilization() const;
  // Utilization counting only healthy devices.
  double HealthyUtilization() const;

  // Attempts to reserve `amount` units for `tenant` under `constraints`.
  // InvalidArgument for a cell the topology does not have.
  Result<PoolAllocation> Allocate(TenantId tenant, int64_t amount,
                                  const AllocationConstraints& constraints);

  // Releases every slice of `allocation`. Exclusive marks placed by this
  // allocation are cleared when the tenant no longer holds the device.
  Status Release(const PoolAllocation& allocation);

  // Grows (positive delta) or shrinks (negative delta) an allocation in
  // place, preferring the devices it already occupies (a spill stays in the
  // first slice's cell). Used by the adaptive tuner (paper sec. 3.2:
  // "enlarging or shrinking the amount of resources").
  Status Resize(PoolAllocation& allocation, int64_t delta);

  // The incrementally-maintained free-capacity index every Allocate walks
  // in O(log D), and the zero-copy read path for the scheduler and router
  // (rack_free_totals, cell_free, region_free).
  // tests/linear_pool_allocator.h keeps the retired rank-every-device
  // allocator as its differential oracle.
  const FreeCapacityIndex& index() const { return index_; }

  // Every row of the ledger, sorted by device then tenant: O(devices), for
  // audits of the whole pool. A single row is Device::AllocatedBy.
  std::vector<LedgerEntry> LedgerSnapshot() const;

  std::string DebugString() const;

 private:
  PoolId id_;
  DeviceKind kind_;
  std::vector<std::unique_ptr<Device>> devices_;
  // O(1) release/lookup path (FindDevice was a linear scan, which made
  // datacenter-wide sweeps quadratic at 100k+ devices).
  std::unordered_map<uint64_t, Device*> devices_by_id_;
  FreeCapacityIndex index_;
};

}  // namespace udc

#endif  // UDC_SRC_HW_POOL_H_
