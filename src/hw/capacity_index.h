// Incrementally-maintained free-capacity index for a resource pool.
//
// The pool's placement policy orders candidates by (preferred rack first,
// least free capacity, id). Computing that order with a sort is O(D log D)
// per allocation — per *module*, at deploy time — which dominates the
// control plane at datacenter scale. This index keeps the same order
// materialized at all times:
//
//   * one ordered free-list per rack and one per cell, each keyed by
//     (free_capacity, device id) and holding only healthy devices with
//     free capacity > 0;
//   * healthy free-capacity totals per rack (the scheduler's rack pick),
//     per cell and per region (the router's summaries).
//
// The index is built over its pool's Topology, whose rack/cell/region
// layout is fixed before the first device is added: Attach files each
// device under its rack, cell and region once. A topology without cells is
// one cell holding every rack, so cell 0's free-list is then the whole
// pool's, and one without regions is one region holding every cell.
// Devices notify the index from Allocate/Release/set_health, so every
// update is O(log D) and placement queries never scan the pool. The retired
// linear-scan allocator lives on in tests/linear_pool_allocator.h as the
// reference implementation; tests/hw_test.cc proves the two place
// identically.

#ifndef UDC_SRC_HW_CAPACITY_INDEX_H_
#define UDC_SRC_HW_CAPACITY_INDEX_H_

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "src/hw/device.h"
#include "src/hw/topology.h"

namespace udc {

class FreeCapacityIndex {
 public:
  // One free-list entry. `id` duplicates device->id().value() so ordered-set
  // lookups can use sentinel keys without touching a Device.
  struct Entry {
    int64_t free;
    uint64_t id;
    Device* device;
  };
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.free != b.free) {
        return a.free < b.free;
      }
      return a.id < b.id;
    }
  };
  using OrderedFreeList = std::set<Entry, EntryLess>;

  // Sized to `topology`'s racks, cells and regions, which must not change
  // while the index lives.
  explicit FreeCapacityIndex(const Topology& topology);
  FreeCapacityIndex(const FreeCapacityIndex&) = delete;
  FreeCapacityIndex& operator=(const FreeCapacityIndex&) = delete;

  const Topology& topology() const { return topology_; }

  // Starts tracking `device`, filed under the rack of its node and that
  // rack's cell and region. The node must sit in a rack of the topology.
  // The device will notify this index on every capacity/health change.
  void Attach(Device* device);

  // Device mutation hooks (called by Device; see Device::Allocate/Release
  // and Device::set_health).
  void OnFreeChanged(Device* device, int64_t old_free);
  void OnHealthChanged(Device* device);

  // --- Placement queries -----------------------------------------------

  // Healthy devices with free capacity in `rack`, ordered by (free, id).
  // nullptr when the topology has no such rack.
  const OrderedFreeList* RackFreeList(int rack) const;
  // The rack a tracked device is filed under (-1 when untracked).
  int RackOf(const Device* device) const;

  // --- Cells --------------------------------------------------------------
  // Healthy devices with free capacity in `cell`, ordered by (free, id).
  // nullptr when the topology has no such cell.
  const OrderedFreeList* CellFreeList(int cell) const;
  // The cell a tracked device belongs to (-1 when untracked).
  int CellOf(const Device* device) const;
  // Healthy free capacity per cell — the router's summary. Maintained by
  // the same commit/release deltas as the free-lists; reading it is O(1)
  // per cell and never rescans devices.
  const std::vector<int64_t>& cell_free() const { return cell_free_; }

  // --- Regions ------------------------------------------------------------
  // The region a tracked device belongs to (-1 when untracked).
  int RegionOf(const Device* device) const;
  // Healthy free capacity per region — the region router's summary, one
  // level above cell_free(): maintained by the same deltas, never rescans.
  const std::vector<int64_t>& region_free() const { return region_free_; }

  // Healthy free capacity per rack, sized to the topology's rack count.
  const std::vector<int64_t>& rack_free_totals() const { return rack_free_; }

  // --- Aggregates (maintained incrementally) ---------------------------
  int64_t total_capacity() const { return total_capacity_; }
  int64_t total_allocated() const { return total_allocated_; }
  int64_t healthy_capacity() const { return healthy_capacity_; }
  int64_t healthy_allocated() const { return healthy_allocated_; }

  size_t tracked_devices() const { return states_.size(); }

 private:
  struct DeviceState {
    int rack = 0;
    int cell = 0;
    int region = 0;
    bool listed = false; // present in the free-lists (healthy && free > 0)
    int64_t listed_free = 0;  // the free value the listing was keyed with
    bool healthy = true;
  };

  // The cached state slot on `device`, or nullptr for untracked devices.
  // Devices carry the pointer (Device::index_state) so the per-change hot
  // path never looks a device up.
  static DeviceState* StateOf(const Device* device) {
    return static_cast<DeviceState*>(device->index_state());
  }

  // Adds `delta` to the free totals of `state`'s rack, cell and region.
  void AddFree(const DeviceState& state, int64_t delta);
  void List(Device* device, DeviceState& state);
  void Unlist(Device* device, DeviceState& state);

  const Topology& topology_;
  // One slot per tracked device; a deque keeps the addresses devices cache
  // stable as the pool grows.
  std::deque<DeviceState> states_;
  std::vector<OrderedFreeList> per_rack_;  // sized rack_count
  std::vector<OrderedFreeList> per_cell_;  // sized cell_count
  std::vector<int64_t> rack_free_;         // healthy free per rack
  std::vector<int64_t> cell_free_;         // healthy free per cell
  std::vector<int64_t> region_free_;       // healthy free per region
  int64_t total_capacity_ = 0;
  int64_t total_allocated_ = 0;
  int64_t healthy_capacity_ = 0;
  int64_t healthy_allocated_ = 0;
};

}  // namespace udc

#endif  // UDC_SRC_HW_CAPACITY_INDEX_H_
