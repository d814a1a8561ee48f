#include "src/hw/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/strings.h"

namespace udc {

namespace {

// Propagation: endpoint->ToR->endpoint, and across racks via the
// aggregation switch.
constexpr SimTime kIntraRackLatency = SimTime::Micros(2);
constexpr SimTime kInterRackLatency = SimTime::Micros(6);
constexpr double kIntraRackBwMbps = 12500.0;  // 100 Gbit/s in MiB/s
constexpr double kInterRackBwMbps = 5000.0;   // 40 Gbit/s in MiB/s

}  // namespace

Topology::Topology() {
  agg_switch_ = node_ids_.Next();
  nodes_.push_back(NodeInfo{-1, NodeRole::kAggSwitch});
}

int Topology::AddRack() {
  const int rack = static_cast<int>(rack_tor_.size());
  const NodeId tor = node_ids_.Next();
  nodes_.push_back(NodeInfo{rack, NodeRole::kTorSwitch});
  rack_tor_.push_back(tor);
  if (cell_count_ == 1) {
    cell_size_ = rack_count();  // the one cell holds every rack
  }
  return rack;
}

void Topology::SetCellCount(int cells) {
  cells = std::clamp(cells, 1, std::max(rack_count(), 1));
  cell_size_ = (rack_count() + cells - 1) / cells;
  cell_count_ =
      cell_size_ == 0 ? 1 : (rack_count() + cell_size_ - 1) / cell_size_;
  SetRegionCount(region_count_);  // re-clamp to the new cell count
}

void Topology::SetRegionCount(int regions) {
  regions = std::clamp(regions, 1, cell_count_);
  region_size_ = (cell_count_ + regions - 1) / regions;
  region_count_ = (cell_count_ + region_size_ - 1) / region_size_;
}

NodeId Topology::AddNode(int rack, NodeRole role) {
  assert(rack >= 0 && rack < rack_count());
  const NodeId id = node_ids_.Next();
  nodes_.push_back(NodeInfo{rack, role});
  return id;
}

NodeId Topology::TorSwitch(int rack) const {
  assert(rack >= 0 && rack < rack_count());
  return rack_tor_[static_cast<size_t>(rack)];
}

int Topology::Distance(NodeId a, NodeId b) const {
  if (a == b) {
    return 0;
  }
  const int rack_a = RackOf(a);
  const int rack_b = RackOf(b);
  if (rack_a >= 0 && rack_a == rack_b) {
    return 1;
  }
  return 2;
}

SimTime Topology::BaseLatency(NodeId a, NodeId b) const {
  const int dist = Distance(a, b);
  if (dist == 0) {
    return SimTime(0);
  }
  SimTime base = dist == 1 ? kIntraRackLatency : kInterRackLatency;
  // Switches sit on the path: endpoint->switch traverses only half of the
  // endpoint->endpoint route (this is what makes in-network programs pay
  // less than an extra full hop, sec. 3.4).
  const bool a_switch =
      RoleOf(a) == NodeRole::kTorSwitch || RoleOf(a) == NodeRole::kAggSwitch;
  const bool b_switch =
      RoleOf(b) == NodeRole::kTorSwitch || RoleOf(b) == NodeRole::kAggSwitch;
  if (a_switch != b_switch) {
    base = base / 2;
  }
  return base;
}

SimTime Topology::TransferTime(NodeId a, NodeId b, Bytes size) const {
  const int dist = Distance(a, b);
  if (dist == 0) {
    return SimTime(0);
  }
  const double bw = dist == 1 ? kIntraRackBwMbps : kInterRackBwMbps;
  const double serialization_us = size.mib() / bw * 1e6;
  return BaseLatency(a, b) +
         SimTime(static_cast<int64_t>(std::llround(serialization_us)));
}

std::string Topology::DebugString() const {
  return StrFormat("topology: %d racks, %zu nodes", rack_count(),
                   nodes_.size());
}

}  // namespace udc
