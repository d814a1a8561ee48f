// Incrementally-maintained free-capacity index for a resource pool.
//
// The pool's placement policy orders candidates by (preferred rack first,
// least free capacity, id). Computing that order with a sort is O(D log D)
// per allocation — per *module*, at deploy time — which dominates the
// control plane at datacenter scale. This index keeps the same order
// materialized at all times:
//
//   * one ordered free-list per rack, and one global list, each keyed by
//     (free_capacity, device id) and holding only healthy devices with
//     free capacity > 0;
//   * per-rack healthy free-capacity totals for the scheduler's rack pick.
//
// Devices notify the index from Allocate/Release/set_health, so every
// update is O(log D) and placement queries never scan the pool. The retired
// linear-scan allocator lives on in tests/linear_pool_allocator.h as the
// reference implementation; tests/hw_test.cc proves the two place
// identically.
//
// Rack membership needs a Topology, which the pool only sees at Allocate
// time, so devices start in an "unassigned" bucket and AssignRacks moves
// them to their rack lists on the first placement query.
//
// When the topology partitions racks into cells (Topology::SetCellCount),
// AssignRacks switches the index into partitioned mode: instead of one
// global list it keeps one ordered free-list per cell plus per-cell healthy
// free totals (the root router's capacity summary, maintained by the same
// O(log D) deltas — never by rescans). Devices outside every cell (rackless)
// stay on the residual global list.

#ifndef UDC_SRC_HW_CAPACITY_INDEX_H_
#define UDC_SRC_HW_CAPACITY_INDEX_H_

#include <cstdint>
#include <set>
#include <unordered_map>
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

  FreeCapacityIndex() = default;
  FreeCapacityIndex(const FreeCapacityIndex&) = delete;
  FreeCapacityIndex& operator=(const FreeCapacityIndex&) = delete;

  // Starts tracking `device` (rack unknown until AssignRacks). The device
  // will notify this index on every capacity/health change.
  void Attach(Device* device);

  // Resolves rack membership for any devices still unassigned.
  bool racks_assigned() const { return unassigned_ == 0; }
  void AssignRacks(const Topology& topology);

  // Device mutation hooks (called by Device; see Device::Allocate/Release
  // and Device::set_health).
  void OnFreeChanged(Device* device, int64_t old_free);
  void OnHealthChanged(Device* device);

  // --- Placement queries -----------------------------------------------

  // Healthy devices with free capacity in `rack`, ordered by (free, id).
  // nullptr when the rack has none.
  const OrderedFreeList* RackFreeList(int rack) const;
  // Healthy devices with free capacity, ordered by (free, id). In
  // partitioned mode this holds only devices outside every cell (rackless);
  // cell members live on their CellFreeList instead.
  const OrderedFreeList& GlobalFreeList() const { return global_; }
  // The rack a tracked device was assigned to (-1 when unassigned).
  int RackOf(const Device* device) const;

  // --- Cell partition (valid after AssignRacks on a celled topology) ----
  bool partitioned() const { return cell_count_ > 0; }
  int cell_count() const { return cell_count_; }
  // Healthy devices with free capacity in `cell`, ordered by (free, id).
  const OrderedFreeList* CellFreeList(int cell) const;
  // The cell a tracked device belongs to (-1 when none).
  int CellOf(const Device* device) const;
  // Healthy free capacity per cell — the router's summary. Maintained by
  // the same commit/release deltas as the free-lists; reading it is O(1)
  // per cell and never rescans devices.
  const std::vector<int64_t>& cell_free() const { return cell_free_; }

  // --- Region partition (valid after AssignRacks on a regioned topology) -
  int region_count() const { return region_count_; }
  // The region a tracked device belongs to (-1 when none).
  int RegionOf(const Device* device) const;
  // Healthy free capacity per region — the region router's summary, one
  // level above cell_free(): maintained by the same deltas, never rescans.
  const std::vector<int64_t>& region_free() const { return region_free_; }

  // Healthy free capacity per rack, sized to `rack_count`.
  std::vector<int64_t> HealthyFreeByRack(int rack_count) const;
  // Zero-copy view of the per-rack totals (indexable up to the assigned
  // rack count; may be shorter than the topology's rack_count).
  const std::vector<int64_t>& rack_free_totals() const { return rack_free_; }

  // --- Aggregates (maintained incrementally) ---------------------------
  int64_t total_capacity() const { return total_capacity_; }
  int64_t total_allocated() const { return total_allocated_; }
  int64_t healthy_capacity() const { return healthy_capacity_; }
  int64_t healthy_allocated() const { return healthy_allocated_; }

  size_t tracked_devices() const { return states_.size(); }

 private:
  struct DeviceState {
    int rack = -1;       // -1 = not yet assigned
    int cell = -1;       // -1 = no cell (unpartitioned or rackless)
    int region = -1;     // -1 = no region (unregioned or cell-less)
    bool listed = false; // present in the free-lists (healthy && free > 0)
    int64_t listed_free = 0;  // the free value the listing was keyed with
    bool healthy = true;
    // The per_rack_ bucket this device lists under (the -1 bucket until
    // AssignRacks). unordered_map values are node-based, so the pointer
    // stays valid across rehashes.
    OrderedFreeList* rack_list = nullptr;
  };

  // The cached state slot on `device`, or nullptr for untracked devices.
  // Devices carry the pointer (Device::index_state) so the per-change hot
  // path never touches the states_ hash.
  static DeviceState* StateOf(const Device* device) {
    return static_cast<DeviceState*>(device->index_state());
  }

  void List(Device* device, DeviceState& state);
  void Unlist(Device* device, DeviceState& state);

  std::unordered_map<Device*, DeviceState> states_;
  std::unordered_map<int, OrderedFreeList> per_rack_;
  OrderedFreeList global_;
  std::vector<OrderedFreeList> per_cell_;  // sized cell_count_ (partitioned)
  std::vector<int64_t> cell_free_;         // healthy free per cell
  std::vector<int64_t> region_free_;       // healthy free per region
  std::vector<int64_t> rack_free_;  // healthy free per assigned rack
  int cell_count_ = 0;
  int region_count_ = 0;
  size_t unassigned_ = 0;
  int64_t total_capacity_ = 0;
  int64_t total_allocated_ = 0;
  int64_t healthy_capacity_ = 0;
  int64_t healthy_allocated_ = 0;
};

}  // namespace udc

#endif  // UDC_SRC_HW_CAPACITY_INDEX_H_
