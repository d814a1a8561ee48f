#include "src/hw/datacenter.h"

#include <cassert>

#include "src/common/strings.h"

namespace udc {

namespace {

// Calls `fn(kind, capacity)` once per device of one rack, in device id
// order.
template <typename Fn>
void ForEachRackDevice(const RackConfig& c, Fn&& fn) {
  const auto add = [&fn](DeviceKind kind, int count, int64_t capacity) {
    for (int i = 0; i < count; ++i) {
      fn(kind, capacity);
    }
  };
  add(DeviceKind::kCpuBlade, c.cpu_blades, 32 * 1000);
  add(DeviceKind::kGpuBoard, c.gpu_boards, 4 * 1000);
  add(DeviceKind::kFpgaCard, c.fpga_cards, 2 * 1000);
  add(DeviceKind::kDramModule, c.dram_modules, Bytes::GiB(256).bytes());
  add(DeviceKind::kNvmModule, c.nvm_modules, Bytes::GiB(512).bytes());
  add(DeviceKind::kSsdDrive, c.ssd_drives, Bytes::GiB(4096).bytes());
  add(DeviceKind::kHddDrive, c.hdd_drives, Bytes::GiB(16384).bytes());
  add(DeviceKind::kSocUnit, c.soc_units, 4 * 1000);
}

}  // namespace

DisaggregatedDatacenter::DisaggregatedDatacenter(
    const DatacenterConfig& config) {
  // The layout is fixed before any device exists, so each pool files its
  // devices under their rack, cell and region once. Node ids are drawn rack
  // by rack (its ToR, then its devices) and device ids in the same order.
  std::vector<NodeId> nodes;
  for (int r = 0; r < config.racks; ++r) {
    const int rack = topology_.AddRack();
    ForEachRackDevice(config.rack, [&](DeviceKind, int64_t) {
      nodes.push_back(topology_.AddNode(rack, NodeRole::kDevice));
    });
  }
  topology_.SetCellCount(config.cells);
  topology_.SetRegionCount(config.regions);
  for (int i = 0; i < kNumDeviceKinds; ++i) {
    pools_[static_cast<size_t>(i)] = std::make_unique<ResourcePool>(
        pool_ids_.Next(), static_cast<DeviceKind>(i), topology_);
  }
  size_t next = 0;
  for (int r = 0; r < config.racks; ++r) {
    ForEachRackDevice(config.rack, [&](DeviceKind kind, int64_t capacity) {
      pool(kind).AddDevice(std::make_unique<Device>(
          device_ids_.Next(), kind, capacity, nodes[next++],
          DeviceProfile::DefaultFor(kind)));
    });
  }
}

ResourcePool& DisaggregatedDatacenter::pool(DeviceKind kind) {
  return *pools_[static_cast<size_t>(kind)];
}

const ResourcePool& DisaggregatedDatacenter::pool(DeviceKind kind) const {
  return *pools_[static_cast<size_t>(kind)];
}

ResourcePool* DisaggregatedDatacenter::PoolById(PoolId id) {
  if (!id.valid()) {
    return nullptr;
  }
  const uint64_t index = id.value();
  if (index < static_cast<uint64_t>(kNumDeviceKinds) &&
      pools_[index]->id() == id) {
    return pools_[index].get();
  }
  return nullptr;
}

const ResourcePool* DisaggregatedDatacenter::PoolById(PoolId id) const {
  return const_cast<DisaggregatedDatacenter*>(this)->PoolById(id);
}

std::vector<Device*> DisaggregatedDatacenter::AllDevices() {
  std::vector<Device*> out;
  for (const auto& p : pools_) {
    for (const auto& d : p->devices()) {
      out.push_back(d.get());
    }
  }
  return out;
}

ResourceVector DisaggregatedDatacenter::TotalCapacity() const {
  ResourceVector total;
  for (const auto& p : pools_) {
    total.Add(p->resource_kind(), p->TotalCapacity());
  }
  return total;
}

ResourceVector DisaggregatedDatacenter::TotalAllocated() const {
  ResourceVector total;
  for (const auto& p : pools_) {
    total.Add(p->resource_kind(), p->TotalAllocated());
  }
  return total;
}

double DisaggregatedDatacenter::MeanUtilization() const {
  double sum = 0.0;
  int n = 0;
  for (const auto& p : pools_) {
    if (p->TotalCapacity() == 0) {
      continue;
    }
    sum += p->Utilization();
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

std::string DisaggregatedDatacenter::DebugString() const {
  std::string out = topology_.DebugString() + "\n";
  for (const auto& p : pools_) {
    out += "  " + p->DebugString() + "\n";
  }
  return out;
}

ServerId ServerFleet::AddServer(const ServerShape& shape, NodeId node) {
  const ServerId id = server_ids_.Next();
  servers_.push_back(std::make_unique<Server>(id, shape, node));
  return id;
}

Server* ServerFleet::FindServer(ServerId id) {
  for (auto& s : servers_) {
    if (s->id() == id) {
      return s.get();
    }
  }
  return nullptr;
}

std::vector<Server*> ServerFleet::servers() {
  std::vector<Server*> out;
  out.reserve(servers_.size());
  for (auto& s : servers_) {
    out.push_back(s.get());
  }
  return out;
}

std::vector<const Server*> ServerFleet::servers() const {
  std::vector<const Server*> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) {
    out.push_back(s.get());
  }
  return out;
}

double ServerFleet::MeanUtilizationOfOccupied() const {
  double sum = 0.0;
  size_t n = 0;
  for (const auto& s : servers_) {
    if (s->instance_count() == 0) {
      continue;
    }
    sum += s->MeanUtilization();
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double ServerFleet::FleetUtilization(ResourceKind kind) const {
  int64_t cap = 0;
  int64_t alloc = 0;
  for (const auto& s : servers_) {
    cap += s->capacity().Get(kind);
    alloc += s->allocated().Get(kind);
  }
  return cap == 0 ? 0.0 : static_cast<double>(alloc) / static_cast<double>(cap);
}

size_t ServerFleet::OccupiedCount() const {
  size_t n = 0;
  for (const auto& s : servers_) {
    if (s->instance_count() > 0) {
      ++n;
    }
  }
  return n;
}

}  // namespace udc
