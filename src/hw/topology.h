// Datacenter fabric topology.
//
// Nodes (devices, servers, switches) live in racks. Each rack has a ToR
// switch; racks connect through an aggregation switch. The topology answers
// distance and transfer-time queries for the message fabric and gives the
// scheduler its locality signal (paper sec. 3.1: locality relationships guide
// compute/data placement).

#ifndef UDC_SRC_HW_TOPOLOGY_H_
#define UDC_SRC_HW_TOPOLOGY_H_

#include <string>
#include <unordered_map>
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

struct TopologyParams {
  SimTime intra_rack_latency = SimTime::Micros(2);   // endpoint->ToR->endpoint
  SimTime inter_rack_latency = SimTime::Micros(6);   // via aggregation switch
  double intra_rack_bw_mbps = 12500.0;               // 100 Gbit/s in MiB/s
  double inter_rack_bw_mbps = 5000.0;                // 40 Gbit/s in MiB/s
};

class Topology {
 public:
  explicit Topology(TopologyParams params = TopologyParams());

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
  // them, and the env store replicates content across them. Call after
  // SetCellCount; regions <= 0 disables partitioning (one cell with
  // regions = 1 is one region). Clamped to cell_count so every region is
  // non-empty.
  void SetRegionCount(int regions);
  int region_count() const { return region_count_; }
  int region_size() const { return region_size_; }  // cells per region
  // Region owning `cell`; -1 without regions or when cell is out of range.
  int RegionOf(int cell) const {
    if (region_count_ <= 0 || cell < 0 || cell >= cell_count_) {
      return -1;
    }
    return cell / region_size_;
  }
  // Region owning `rack` (via its cell); -1 without regions.
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

  bool Contains(NodeId node) const;
  int RackOf(NodeId node) const;  // -1 for the aggregation switch / unknown
  NodeRole RoleOf(NodeId node) const;
  size_t node_count() const { return nodes_.size(); }

  // Hop distance: 0 same node, 1 same rack, 2 across racks.
  int Distance(NodeId a, NodeId b) const;

  // One-way time to move `size` bytes from `a` to `b` (propagation +
  // serialization at the bottleneck link). Zero when a == b.
  SimTime TransferTime(NodeId a, NodeId b, Bytes size) const;

  // Propagation-only latency between two nodes.
  SimTime BaseLatency(NodeId a, NodeId b) const;

  const TopologyParams& params() const { return params_; }

  std::string DebugString() const;

 private:
  struct NodeInfo {
    int rack;
    NodeRole role;
  };

  TopologyParams params_;
  int cell_count_ = 1;
  int cell_size_ = 0;  // every rack while there is one cell
  int region_count_ = 0;
  int region_size_ = 0;
  IdGenerator<NodeId> node_ids_;
  std::unordered_map<NodeId, NodeInfo> nodes_;
  std::vector<NodeId> rack_tor_;
  NodeId agg_switch_;
};

}  // namespace udc

#endif  // UDC_SRC_HW_TOPOLOGY_H_
