// Datacenter fabric topology.
//
// Nodes (devices, servers, switches) live in racks. Each rack has a ToR
// switch; racks connect through an aggregation switch. The topology answers
// distance and transfer-time queries for the message fabric and gives the
// scheduler its locality signal (paper sec. 3.1: locality relationships guide
// compute/data placement).

#ifndef UDC_SRC_HW_TOPOLOGY_H_
#define UDC_SRC_HW_TOPOLOGY_H_

#include <cassert>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace udc {

enum class NodeRole {
  kDevice,     // disaggregated device endpoint
  kServer,     // monolithic server endpoint (baseline / hybrid)
  kTorSwitch,  // top-of-rack switch (programmable)
  kAggSwitch,  // aggregation switch (programmable)
};

class Topology {
 public:
  Topology();

  // Creates a rack (with its ToR switch node) and returns its index.
  int AddRack();
  int rack_count() const { return static_cast<int>(rack_tor_.size()); }

  // Partitions the racks into `cells` contiguous groups (cell c owns racks
  // [c * cell_size, (c + 1) * cell_size)). Cells are the control-plane
  // sharding unit: every placement names one, and each pool's
  // FreeCapacityIndex keeps one free-list per cell. A topology is one cell
  // holding every rack until this is called with cells > 1; cells <= 1
  // restores that. Clamped to rack_count so every cell is non-empty. Call
  // after all racks exist and before any pool files a device: pools file
  // each device under its rack, cell and region once.
  void SetCellCount(int cells);
  int cell_count() const { return cell_count_; }  // >= 1
  int cell_size() const { return cell_size_; }  // racks per cell (last may be short)
  // Cell owning `rack`; -1 when rack is out of range.
  int CellOf(int rack) const {
    if (rack < 0 || rack >= rack_count()) {
      return -1;
    }
    return rack / cell_size_;
  }
  // First rack of `cell` and one past its last rack.
  int CellRackBegin(int cell) const { return cell * cell_size_; }
  int CellRackEnd(int cell) const {
    const int end = (cell + 1) * cell_size_;
    return end < rack_count() ? end : rack_count();
  }

  // Partitions the cells into `regions` contiguous groups (region r owns
  // cells [r * region_size, (r + 1) * region_size)), mirroring the cell
  // partitioning contract one level up: regions are the federation unit —
  // each region gets its own router leg, WAN links price traffic between
  // them, and the env store replicates content across them. A topology is
  // one region holding every cell until this is called with regions > 1;
  // regions <= 1 restores that. Clamped to cell_count so every region is
  // non-empty. Call after SetCellCount (which keeps the region count,
  // re-clamped) and before any pool files a device.
  void SetRegionCount(int regions);
  int region_count() const { return region_count_; }  // >= 1
  int region_size() const { return region_size_; }  // cells per region
  // Region owning `cell`; -1 when cell is out of range.
  int RegionOf(int cell) const {
    if (cell < 0 || cell >= cell_count_) {
      return -1;
    }
    return cell / region_size_;
  }
  // Region owning `rack` (via its cell); -1 when rack is out of range.
  int RegionOfRack(int rack) const { return RegionOf(CellOf(rack)); }
  // First cell of `region` and one past its last cell.
  int RegionCellBegin(int region) const { return region * region_size_; }
  int RegionCellEnd(int region) const {
    const int end = (region + 1) * region_size_;
    return end < cell_count_ ? end : cell_count_;
  }

  // Adds an endpoint node to `rack`. Returns the new node id.
  NodeId AddNode(int rack, NodeRole role);

  // The ToR switch node of `rack`, and the single aggregation switch.
  NodeId TorSwitch(int rack) const;
  NodeId AggSwitch() const { return agg_switch_; }

  // Node ids are dense from 0, so these are bounds-checked loads.
  bool Contains(NodeId node) const { return node.value() < nodes_.size(); }
  // -1 for the aggregation switch / unknown.
  int RackOf(NodeId node) const {
    return Contains(node) ? nodes_[node.value()].rack : -1;
  }
  NodeRole RoleOf(NodeId node) const {
    assert(Contains(node));
    return nodes_[node.value()].role;
  }
  size_t node_count() const { return nodes_.size(); }

  // Hop distance: 0 same node, 1 same rack, 2 across racks.
  int Distance(NodeId a, NodeId b) const;

  // One-way time to move `size` bytes from `a` to `b` (propagation +
  // serialization at the bottleneck link). Zero when a == b.
  SimTime TransferTime(NodeId a, NodeId b, Bytes size) const;

  // Propagation-only latency between two nodes.
  SimTime BaseLatency(NodeId a, NodeId b) const;

  std::string DebugString() const;

 private:
  struct NodeInfo {
    int rack;
    NodeRole role;
  };

  int cell_count_ = 1;
  int cell_size_ = 0;  // every rack while there is one cell
  int region_count_ = 1;
  int region_size_ = 1;  // every cell while there is one region
  IdGenerator<NodeId> node_ids_;
  std::vector<NodeInfo> nodes_;  // indexed by NodeId
  std::vector<NodeId> rack_tor_;
  NodeId agg_switch_;
};

}  // namespace udc

#endif  // UDC_SRC_HW_TOPOLOGY_H_
