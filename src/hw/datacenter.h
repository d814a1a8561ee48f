// Datacenter assembly: topology + device pools (+ optional server fleet).
//
// `DisaggregatedDatacenter` is the hardware substrate UDC schedules onto;
// its constructor lays out racks of network-attached devices, fixes the
// rack/cell/region layout, and only then fills the pools, so every device is
// filed under its rack, cell and region once. A server fleet can be attached
// for the baselines and hybrid deployments.

#ifndef UDC_SRC_HW_DATACENTER_H_
#define UDC_SRC_HW_DATACENTER_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/hw/device.h"
#include "src/hw/pool.h"
#include "src/hw/server.h"
#include "src/hw/topology.h"

namespace udc {

// Per-rack device population.
struct RackConfig {
  int cpu_blades = 4;          // 32 cores each
  int gpu_boards = 2;          // 4 GPUs each
  int fpga_cards = 1;          // 2 FPGAs each
  int dram_modules = 4;        // 256 GiB each
  int nvm_modules = 2;         // 512 GiB each
  int ssd_drives = 4;          // 4 TiB each
  int hdd_drives = 2;          // 16 TiB each
  int soc_units = 2;           // 4 wimpy cores each
};

struct DatacenterConfig {
  int racks = 4;
  RackConfig rack;
  // Partition racks into this many control-plane cells (contiguous rack
  // ranges; see Topology::SetCellCount). 0 and 1 both mean one cell holding
  // every rack, which the router places into like any other cell.
  int cells = 0;
  // Partition cells into this many federation regions (contiguous cell
  // ranges; see Topology::SetRegionCount). 0 and 1 both mean one region
  // holding every cell: it has nothing to route, steer or fetch over the
  // WAN, so region aspects are not read and the env store never goes
  // remote.
  int regions = 0;
};

class DisaggregatedDatacenter {
 public:
  explicit DisaggregatedDatacenter(const DatacenterConfig& config);

  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }

  ResourcePool& pool(DeviceKind kind);
  const ResourcePool& pool(DeviceKind kind) const;

  // The pool owning `id`, or nullptr. O(1): pool ids are assigned
  // sequentially in device-kind order at construction. Lets release paths
  // resolve an allocation's pool without scanning every kind.
  ResourcePool* PoolById(PoolId id);
  const ResourcePool* PoolById(PoolId id) const;

  // All devices across all pools (for failure injection and reports).
  std::vector<Device*> AllDevices();

  // Total capacity across pools, as a resource vector.
  ResourceVector TotalCapacity() const;
  // Total currently allocated across pools.
  ResourceVector TotalAllocated() const;

  // Mean utilization across pools with non-zero capacity.
  double MeanUtilization() const;

  std::string DebugString() const;

 private:
  Topology topology_;
  IdGenerator<DeviceId> device_ids_;
  IdGenerator<PoolId> pool_ids_;
  std::array<std::unique_ptr<ResourcePool>, kNumDeviceKinds> pools_;
};

// A fleet of monolithic servers on its own topology (baselines) or sharing
// one (hybrid). Owns the servers; placement policy lives in baseline/.
class ServerFleet {
 public:
  ServerFleet() = default;

  ServerId AddServer(const ServerShape& shape, NodeId node);

  Server* FindServer(ServerId id);
  std::vector<Server*> servers();
  std::vector<const Server*> servers() const;
  size_t size() const { return servers_.size(); }

  // Mean of per-server mean utilization over non-empty servers; 0 when idle.
  double MeanUtilizationOfOccupied() const;
  // Aggregate utilization of one resource kind across the whole fleet.
  double FleetUtilization(ResourceKind kind) const;
  // Number of servers hosting at least one instance.
  size_t OccupiedCount() const;

 private:
  IdGenerator<ServerId> server_ids_;
  std::vector<std::unique_ptr<Server>> servers_;
};

}  // namespace udc

#endif  // UDC_SRC_HW_DATACENTER_H_
