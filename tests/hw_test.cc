#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/hw/datacenter.h"
#include "src/hw/device.h"
#include "src/hw/failure.h"
#include "src/hw/pool.h"
#include "src/hw/resource.h"
#include "src/hw/server.h"
#include "src/hw/topology.h"
#include "tests/linear_pool_allocator.h"

namespace udc {
namespace {

TEST(ResourceVectorTest, ArithmeticAndFits) {
  const ResourceVector a =
      ResourceVector::MilliCpu(2000) + ResourceVector::Dram(Bytes::GiB(4));
  const ResourceVector b =
      ResourceVector::MilliCpu(1000) + ResourceVector::Dram(Bytes::GiB(8));
  const ResourceVector sum = a + b;
  EXPECT_EQ(sum.Get(ResourceKind::kCpu), 3000);
  EXPECT_EQ(sum.Get(ResourceKind::kDram), Bytes::GiB(12).bytes());
  EXPECT_TRUE(a.FitsIn(sum));
  EXPECT_FALSE(sum.FitsIn(a));
  // FitsIn is a partial order: neither fits in the other.
  EXPECT_FALSE(a.FitsIn(b));
  EXPECT_FALSE(b.FitsIn(a));
}

TEST(ResourceVectorTest, ScaledRounds) {
  const ResourceVector v = ResourceVector::MilliCpu(1000).Scaled(1.5);
  EXPECT_EQ(v.Get(ResourceKind::kCpu), 1500);
}

TEST(ResourceVectorTest, MinMax) {
  const ResourceVector a = ResourceVector::MilliCpu(1000);
  const ResourceVector b = ResourceVector::MilliCpu(2000);
  EXPECT_EQ(ResourceVector::Max(a, b).Get(ResourceKind::kCpu), 2000);
  EXPECT_EQ(ResourceVector::Min(a, b).Get(ResourceKind::kCpu), 1000);
}

TEST(ResourceVectorTest, ToStringOmitsZeros) {
  const std::string s =
      (ResourceVector::MilliGpu(1000) + ResourceVector::Dram(Bytes::GiB(2)))
          .ToString();
  EXPECT_NE(s.find("gpu=1000m"), std::string::npos);
  EXPECT_EQ(s.find("cpu"), std::string::npos);
}

TEST(ResourceKindTest, NamesRoundTrip) {
  for (int i = 0; i < kNumResourceKinds; ++i) {
    const auto kind = static_cast<ResourceKind>(i);
    ResourceKind parsed;
    ASSERT_TRUE(ParseResourceKind(ResourceKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  ResourceKind k;
  EXPECT_FALSE(ParseResourceKind("quantum", &k));
}

TEST(PriceListTest, CostScalesWithAmountAndTime) {
  const PriceList prices = PriceList::DefaultOnDemand();
  const ResourceVector one_core = ResourceVector::MilliCpu(1000);
  const Money hour = prices.CostFor(one_core, SimTime::Hours(1));
  const Money two_hours = prices.CostFor(one_core, SimTime::Hours(2));
  EXPECT_NEAR(static_cast<double>(two_hours.micro_usd()),
              2.0 * static_cast<double>(hour.micro_usd()), 2.0);
  const Money half_core =
      prices.CostFor(ResourceVector::MilliCpu(500), SimTime::Hours(1));
  EXPECT_NEAR(static_cast<double>(half_core.micro_usd()),
              0.5 * static_cast<double>(hour.micro_usd()), 2.0);
}

TEST(PriceListTest, SummedPartsApproximateP316xlarge) {
  // 64 cores + 8 GPUs + 488 GiB DRAM + 1 TiB SSD at unit prices should land
  // in the ballpark of the instance's real price (~$24.48/h).
  const PriceList prices = PriceList::DefaultOnDemand();
  const ResourceVector p3 = ResourceVector::MilliCpu(64000) +
                            ResourceVector::MilliGpu(8000) +
                            ResourceVector::Dram(Bytes::GiB(488)) +
                            ResourceVector::Ssd(Bytes::GiB(1024));
  const double usd = prices.CostFor(p3, SimTime::Hours(1)).dollars();
  EXPECT_GT(usd, 20.0);
  EXPECT_LT(usd, 32.0);
}

TEST(PriceListTest, ScaledByMultipliesEverything) {
  const PriceList base = PriceList::DefaultOnDemand();
  const PriceList doubled = base.ScaledBy(2.0);
  EXPECT_EQ(doubled.hourly(ResourceKind::kGpu).micro_usd(),
            2 * base.hourly(ResourceKind::kGpu).micro_usd());
}

class DeviceTest : public ::testing::Test {
 protected:
  Device device_{DeviceId(1), DeviceKind::kCpuBlade, 32000, NodeId(5),
                 DeviceProfile::DefaultFor(DeviceKind::kCpuBlade)};
};

TEST_F(DeviceTest, AllocateAndRelease) {
  ASSERT_TRUE(device_.Allocate(TenantId(1), 8000).ok());
  EXPECT_EQ(device_.allocated(), 8000);
  EXPECT_EQ(device_.AllocatedBy(TenantId(1)), 8000);
  ASSERT_TRUE(device_.Release(TenantId(1), 8000).ok());
  EXPECT_EQ(device_.allocated(), 0);
}

TEST_F(DeviceTest, OverAllocationFails) {
  EXPECT_TRUE(device_.Allocate(TenantId(1), 32000).ok());
  const Status s = device_.Allocate(TenantId(2), 1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST_F(DeviceTest, OverReleaseFails) {
  ASSERT_TRUE(device_.Allocate(TenantId(1), 100).ok());
  EXPECT_FALSE(device_.Release(TenantId(1), 200).ok());
  EXPECT_FALSE(device_.Release(TenantId(2), 50).ok());
}

TEST_F(DeviceTest, ExclusiveTenantBlocksOthers) {
  ASSERT_TRUE(device_.Allocate(TenantId(1), 1000).ok());
  ASSERT_TRUE(device_.SetExclusiveTenant(TenantId(1)).ok());
  const Status s = device_.Allocate(TenantId(2), 1000);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  // The exclusive tenant can still grow.
  EXPECT_TRUE(device_.Allocate(TenantId(1), 1000).ok());
}

TEST_F(DeviceTest, CannotClaimExclusivityOnSharedDevice) {
  ASSERT_TRUE(device_.Allocate(TenantId(1), 1000).ok());
  ASSERT_TRUE(device_.Allocate(TenantId(2), 1000).ok());
  EXPECT_FALSE(device_.SetExclusiveTenant(TenantId(1)).ok());
}

TEST_F(DeviceTest, FailedDeviceRejectsAllocation) {
  device_.set_health(DeviceHealth::kFailed);
  EXPECT_EQ(device_.Allocate(TenantId(1), 1).code(), StatusCode::kUnavailable);
}

TEST_F(DeviceTest, ComputeTimeScalesWithShare) {
  const SimTime full = device_.ComputeTime(1000.0, 1000);
  const SimTime half = device_.ComputeTime(1000.0, 500);
  EXPECT_NEAR(static_cast<double>(half.micros()),
              2.0 * static_cast<double>(full.micros()), 2.0);
}

TEST(DeviceProfileTest, GpuFasterThanCpuForCompute) {
  Device cpu(DeviceId(1), DeviceKind::kCpuBlade, 32000, NodeId(1),
             DeviceProfile::DefaultFor(DeviceKind::kCpuBlade));
  Device gpu(DeviceId(2), DeviceKind::kGpuBoard, 4000, NodeId(2),
             DeviceProfile::DefaultFor(DeviceKind::kGpuBoard));
  EXPECT_LT(gpu.ComputeTime(100000, 1000), cpu.ComputeTime(100000, 1000));
}

TEST(DeviceProfileTest, StorageDevicesHaveNoCompute) {
  Device ssd(DeviceId(1), DeviceKind::kSsdDrive, Bytes::GiB(1024).bytes(),
             NodeId(1), DeviceProfile::DefaultFor(DeviceKind::kSsdDrive));
  EXPECT_EQ(ssd.ComputeTime(100, 1000), SimTime::Max());
  EXPECT_LT(ssd.ReadTime(Bytes::MiB(1)), SimTime::Max());
}

TEST(TopologyTest, DistancesAndLatencies) {
  Topology topo;
  const int r0 = topo.AddRack();
  const int r1 = topo.AddRack();
  const NodeId a = topo.AddNode(r0, NodeRole::kDevice);
  const NodeId b = topo.AddNode(r0, NodeRole::kDevice);
  const NodeId c = topo.AddNode(r1, NodeRole::kDevice);
  EXPECT_EQ(topo.Distance(a, a), 0);
  EXPECT_EQ(topo.Distance(a, b), 1);
  EXPECT_EQ(topo.Distance(a, c), 2);
  EXPECT_EQ(topo.TransferTime(a, a, Bytes::MiB(100)), SimTime(0));
  EXPECT_LT(topo.TransferTime(a, b, Bytes::MiB(1)),
            topo.TransferTime(a, c, Bytes::MiB(1)));
}

TEST(TopologyTest, TransferTimeGrowsWithSize) {
  Topology topo;
  const int r0 = topo.AddRack();
  const NodeId a = topo.AddNode(r0, NodeRole::kDevice);
  const NodeId b = topo.AddNode(r0, NodeRole::kDevice);
  EXPECT_LT(topo.TransferTime(a, b, Bytes::KiB(1)),
            topo.TransferTime(a, b, Bytes::MiB(100)));
}

class PoolTest : public ::testing::Test {
 protected:
  PoolTest() : pool_(PoolId(0), DeviceKind::kCpuBlade) {
    r0_ = topo_.AddRack();
    r1_ = topo_.AddRack();
    for (int i = 0; i < 4; ++i) {
      const int rack = i < 2 ? r0_ : r1_;
      pool_.AddDevice(std::make_unique<Device>(
          DeviceId(static_cast<uint64_t>(i)), DeviceKind::kCpuBlade, 32000,
          topo_.AddNode(rack, NodeRole::kDevice),
          DeviceProfile::DefaultFor(DeviceKind::kCpuBlade)));
    }
  }
  Topology topo_;
  int r0_ = 0;
  int r1_ = 0;
  ResourcePool pool_;
};

TEST_F(PoolTest, ExactAllocation) {
  AllocationConstraints c;
  auto alloc = pool_.Allocate(TenantId(1), 5000, c, topo_);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->total(), 5000);
  EXPECT_EQ(alloc->kind, ResourceKind::kCpu);
  EXPECT_EQ(pool_.TotalAllocated(), 5000);
  ASSERT_TRUE(pool_.Release(*alloc).ok());
  EXPECT_EQ(pool_.TotalAllocated(), 0);
}

TEST_F(PoolTest, SpillsAcrossDevices) {
  AllocationConstraints c;
  auto alloc = pool_.Allocate(TenantId(1), 100000, c, topo_);  // > one device
  ASSERT_TRUE(alloc.ok());
  EXPECT_GT(alloc->slices.size(), 1u);
  EXPECT_EQ(alloc->total(), 100000);
}

TEST_F(PoolTest, SingleDeviceConstraintRejectsSpill) {
  AllocationConstraints c;
  c.single_device = true;
  EXPECT_FALSE(pool_.Allocate(TenantId(1), 33000, c, topo_).ok());
  EXPECT_TRUE(pool_.Allocate(TenantId(1), 32000, c, topo_).ok());
}

TEST_F(PoolTest, PrefersRequestedRack) {
  AllocationConstraints c;
  c.preferred_rack = r1_;
  auto alloc = pool_.Allocate(TenantId(1), 1000, c, topo_);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(topo_.RackOf(alloc->slices[0].node), r1_);
}

TEST_F(PoolTest, StrictRackFailsWhenFull) {
  AllocationConstraints strict;
  strict.preferred_rack = r0_;
  strict.strict_rack = true;
  // Fill rack 0 (2 devices x 32000).
  ASSERT_TRUE(pool_.Allocate(TenantId(1), 64000, strict, topo_).ok());
  EXPECT_FALSE(pool_.Allocate(TenantId(1), 1000, strict, topo_).ok());
  // Non-strict falls through to rack 1.
  AllocationConstraints soft;
  soft.preferred_rack = r0_;
  EXPECT_TRUE(pool_.Allocate(TenantId(1), 1000, soft, topo_).ok());
}

TEST_F(PoolTest, ExclusiveAllocationIsSingleTenant) {
  AllocationConstraints c;
  c.require_exclusive = true;
  c.single_device = true;
  auto a = pool_.Allocate(TenantId(1), 1000, c, topo_);
  ASSERT_TRUE(a.ok());
  // Another tenant cannot use that device even though capacity remains.
  AllocationConstraints c2;
  c2.single_device = true;
  auto b = pool_.Allocate(TenantId(2), 32000, c2, topo_);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->slices[0].device, b->slices[0].device);
  // Releasing clears exclusivity.
  ASSERT_TRUE(pool_.Release(*a).ok());
  const Device* d = pool_.FindDevice(a->slices[0].device);
  EXPECT_FALSE(d->exclusive());
}

TEST_F(PoolTest, RollsBackOnShortage) {
  AllocationConstraints c;
  EXPECT_FALSE(pool_.Allocate(TenantId(1), 200000, c, topo_).ok());
  EXPECT_EQ(pool_.TotalAllocated(), 0);  // nothing leaked
}

TEST_F(PoolTest, ResizeGrowAndShrink) {
  AllocationConstraints c;
  auto alloc = pool_.Allocate(TenantId(1), 4000, c, topo_);
  ASSERT_TRUE(alloc.ok());
  ASSERT_TRUE(pool_.Resize(*alloc, 2000, topo_).ok());
  EXPECT_EQ(alloc->total(), 6000);
  EXPECT_EQ(pool_.TotalAllocated(), 6000);
  ASSERT_TRUE(pool_.Resize(*alloc, -5000, topo_).ok());
  EXPECT_EQ(alloc->total(), 1000);
  EXPECT_EQ(pool_.TotalAllocated(), 1000);
  // Shrinking to zero is rejected.
  EXPECT_FALSE(pool_.Resize(*alloc, -1000, topo_).ok());
}

TEST_F(PoolTest, LedgerSnapshotListsHoldings) {
  AllocationConstraints c;
  auto a = pool_.Allocate(TenantId(1), 1000, c, topo_);
  auto b = pool_.Allocate(TenantId(2), 2000, c, topo_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto ledger = pool_.LedgerSnapshot();
  int64_t t1 = 0;
  int64_t t2 = 0;
  for (const LedgerEntry& e : ledger) {
    if (e.tenant == TenantId(1)) {
      t1 += e.amount;
    }
    if (e.tenant == TenantId(2)) {
      t2 += e.amount;
    }
  }
  EXPECT_EQ(t1, 1000);
  EXPECT_EQ(t2, 2000);
}

TEST_F(PoolTest, AvoidListSkipsDevices) {
  AllocationConstraints c;
  c.single_device = true;
  auto first = pool_.Allocate(TenantId(1), 1000, c, topo_);
  ASSERT_TRUE(first.ok());
  c.avoid.push_back(first->slices[0].device);
  auto second = pool_.Allocate(TenantId(1), 1000, c, topo_);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->slices[0].device, first->slices[0].device);
}

TEST(ServerTest, PlaceEvictAndUtilization) {
  Server server(ServerId(1), ServerShape::ComputeBox(), NodeId(1));
  const ResourceVector small =
      ResourceVector::MilliCpu(12000) + ResourceVector::Dram(Bytes::GiB(96));
  ASSERT_TRUE(server.Place(InstanceId(1), TenantId(1), small).ok());
  EXPECT_DOUBLE_EQ(server.UtilizationOf(ResourceKind::kCpu), 0.25);
  EXPECT_FALSE(server.Place(InstanceId(1), TenantId(1), small).ok());  // dup
  ASSERT_TRUE(server.Evict(InstanceId(1)).ok());
  EXPECT_EQ(server.instance_count(), 0u);
  EXPECT_FALSE(server.Evict(InstanceId(1)).ok());
}

TEST(ServerTest, CannotOverpack) {
  Server server(ServerId(1), ServerShape::ComputeBox(), NodeId(1));
  const ResourceVector huge = ResourceVector::MilliCpu(40000);
  ASSERT_TRUE(server.Place(InstanceId(1), TenantId(1), huge).ok());
  EXPECT_FALSE(server.CanHost(huge));
  EXPECT_EQ(server.Place(InstanceId(2), TenantId(2), huge).code(),
            StatusCode::kResourceExhausted);
}

TEST(DatacenterTest, BuildsPoolsAndTopology) {
  DatacenterConfig config;
  config.racks = 2;
  DisaggregatedDatacenter dc(config);
  EXPECT_EQ(dc.topology().rack_count(), 2);
  EXPECT_EQ(dc.pool(DeviceKind::kCpuBlade).device_count(), 8u);   // 4/rack
  EXPECT_EQ(dc.pool(DeviceKind::kGpuBoard).device_count(), 4u);   // 2/rack
  EXPECT_EQ(dc.pool(DeviceKind::kGpuBoard).TotalCapacity(), 16000);
  EXPECT_GT(dc.TotalCapacity().Get(ResourceKind::kSsd), 0);
  EXPECT_DOUBLE_EQ(dc.MeanUtilization(), 0.0);
}


TEST(TopologyTest, SwitchSitsOnThePath) {
  // Endpoint->switch pays half the endpoint->endpoint propagation: the
  // switch is mid-route, which is what makes in-network programs cheap.
  Topology topo;
  const int r0 = topo.AddRack();
  const NodeId a = topo.AddNode(r0, NodeRole::kDevice);
  const NodeId b = topo.AddNode(r0, NodeRole::kDevice);
  const NodeId tor = topo.TorSwitch(r0);
  EXPECT_EQ(topo.BaseLatency(a, tor) * 2, topo.BaseLatency(a, b));
  EXPECT_EQ(topo.BaseLatency(a, tor), topo.BaseLatency(tor, b));
}

TEST(DatacenterTest, AllDevicesCoversEveryPool) {
  DatacenterConfig config;
  config.racks = 1;
  DisaggregatedDatacenter dc(config);
  size_t expected = 0;
  for (int i = 0; i < kNumDeviceKinds; ++i) {
    expected += dc.pool(static_cast<DeviceKind>(i)).device_count();
  }
  EXPECT_EQ(dc.AllDevices().size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST(DeviceTest2, ReadWriteTimesScaleWithSize) {
  Device ssd(DeviceId(1), DeviceKind::kSsdDrive, Bytes::GiB(100).bytes(),
             NodeId(1), DeviceProfile::DefaultFor(DeviceKind::kSsdDrive));
  EXPECT_LT(ssd.ReadTime(Bytes::MiB(1)), ssd.ReadTime(Bytes::MiB(100)));
  // Writes are slower than reads on this SSD profile.
  EXPECT_GT(ssd.WriteTime(Bytes::MiB(100)), ssd.ReadTime(Bytes::MiB(100)));
  // HDD access latency dominates small reads.
  Device hdd(DeviceId(2), DeviceKind::kHddDrive, Bytes::GiB(100).bytes(),
             NodeId(2), DeviceProfile::DefaultFor(DeviceKind::kHddDrive));
  EXPECT_GT(hdd.ReadTime(Bytes::KiB(4)), ssd.ReadTime(Bytes::KiB(4)));
}

TEST(FailureInjectorTest, OneShotFailureAndRepair) {
  Simulation sim;
  Device device(DeviceId(1), DeviceKind::kCpuBlade, 32000, NodeId(1),
                DeviceProfile::DefaultFor(DeviceKind::kCpuBlade));
  FailureInjector injector(&sim);
  int events = 0;
  injector.Subscribe([&](const FailureEvent&) { ++events; });
  injector.ScheduleFailure(&device, SimTime::Seconds(1), SimTime::Seconds(2));
  sim.RunUntil(SimTime::Millis(1500));
  EXPECT_FALSE(device.healthy());
  sim.RunToCompletion();
  EXPECT_TRUE(device.healthy());
  EXPECT_EQ(events, 2);
  EXPECT_EQ(injector.history().size(), 2u);
}

TEST(FailureInjectorTest, PeriodicFailuresRespectHorizon) {
  Simulation sim(123);
  Device device(DeviceId(1), DeviceKind::kCpuBlade, 32000, NodeId(1),
                DeviceProfile::DefaultFor(DeviceKind::kCpuBlade));
  FailureInjector injector(&sim);
  injector.ArmPeriodicFailures({&device}, SimTime::Minutes(10),
                               SimTime::Minutes(1), SimTime::Hours(2));
  sim.RunToCompletion();
  EXPECT_LE(sim.now(), SimTime::Hours(2) + SimTime::Minutes(2));
  EXPECT_GE(injector.history().size(), 2u);  // several cycles expected
}

// ---------------------------------------------------------------------------
// Differential test: the indexed placement path must produce byte-identical
// results to the retired linear-scan allocator (tests/linear_pool_allocator.h)
// under a long randomized allocate / release / fail / recover schedule with
// every constraint kind.

class PoolPair {
 public:
  PoolPair(int racks, int devices_per_rack, int64_t capacity)
      : indexed_(PoolId(0), DeviceKind::kCpuBlade),
        linear_(PoolId(0), DeviceKind::kCpuBlade) {
    for (int r = 0; r < racks; ++r) {
      topo_.AddRack();
    }
    uint64_t id = 0;
    for (int r = 0; r < racks; ++r) {
      for (int d = 0; d < devices_per_rack; ++d) {
        const NodeId node = topo_.AddNode(r, NodeRole::kDevice);
        indexed_.AddDevice(std::make_unique<Device>(
            DeviceId(id), DeviceKind::kCpuBlade, capacity, node,
            DeviceProfile::DefaultFor(DeviceKind::kCpuBlade)));
        linear_.AddDevice(std::make_unique<Device>(
            DeviceId(id), DeviceKind::kCpuBlade, capacity, node,
            DeviceProfile::DefaultFor(DeviceKind::kCpuBlade)));
        ++id;
      }
    }
    device_count_ = id;
  }

  // Runs the same allocation on both pools and checks identical outcomes.
  // Returns the allocation pair on success for later release.
  bool Allocate(TenantId tenant, int64_t amount,
                const AllocationConstraints& c) {
    auto a = indexed_.Allocate(tenant, amount, c, topo_);
    auto b = LinearAllocate(linear_, tenant, amount, c, topo_);
    EXPECT_EQ(a.ok(), b.ok()) << "status divergence";
    if (!a.ok() || !b.ok()) {
      return false;
    }
    EXPECT_EQ(a->slices.size(), b->slices.size());
    for (size_t i = 0; i < a->slices.size() && i < b->slices.size(); ++i) {
      EXPECT_EQ(a->slices[i].device, b->slices[i].device)
          << "slice " << i << " device divergence";
      EXPECT_EQ(a->slices[i].amount, b->slices[i].amount)
          << "slice " << i << " amount divergence";
    }
    live_.push_back({*std::move(a), *std::move(b)});
    return true;
  }

  void ReleaseAt(size_t i) {
    ASSERT_TRUE(indexed_.Release(live_[i].first).ok());
    ASSERT_TRUE(linear_.Release(live_[i].second).ok());
    live_.erase(live_.begin() + static_cast<long>(i));
  }

  void SetHealth(uint64_t device, bool healthy) {
    const DeviceHealth h =
        healthy ? DeviceHealth::kHealthy : DeviceHealth::kFailed;
    indexed_.FindDevice(DeviceId(device))->set_health(h);
    linear_.FindDevice(DeviceId(device))->set_health(h);
  }

  void CheckAggregates() {
    EXPECT_EQ(indexed_.TotalAllocated(), linear_.TotalAllocated());
    EXPECT_EQ(indexed_.TotalCapacity(), linear_.TotalCapacity());
    EXPECT_DOUBLE_EQ(indexed_.HealthyUtilization(),
                     linear_.HealthyUtilization());
    // Per-rack totals from the index must equal a fresh device scan.
    const std::vector<int64_t> from_index = indexed_.HealthyFreeByRack(topo_);
    std::vector<int64_t> scanned(
        static_cast<size_t>(topo_.rack_count()), 0);
    for (const Device* d : indexed_.devices()) {
      const int rack = topo_.RackOf(d->node());
      if (rack >= 0 && d->healthy()) {
        scanned[static_cast<size_t>(rack)] += d->free_capacity();
      }
    }
    EXPECT_EQ(from_index, scanned);
  }

  size_t live_count() const { return live_.size(); }
  uint64_t device_count() const { return device_count_; }
  const Topology& topology() const { return topo_; }

 private:
  Topology topo_;
  ResourcePool indexed_;
  ResourcePool linear_;
  uint64_t device_count_ = 0;
  std::vector<std::pair<PoolAllocation, PoolAllocation>> live_;
};

TEST(PoolDifferentialTest, IndexedMatchesLinearUnderRandomizedChurn) {
  PoolPair pair(/*racks=*/6, /*devices_per_rack=*/8, /*capacity=*/32000);
  Rng rng(0xD1FFu);
  for (int step = 0; step < 2000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.55) {
      AllocationConstraints c;
      if (rng.NextBool(0.5)) {
        c.preferred_rack = static_cast<int>(rng.NextUint64(6));
        c.strict_rack = rng.NextBool(0.2);
      }
      c.single_device = rng.NextBool(0.4);
      c.require_exclusive = rng.NextBool(0.15);
      if (rng.NextBool(0.2)) {
        c.avoid.push_back(DeviceId(rng.NextUint64(pair.device_count())));
      }
      const int64_t amount =
          c.single_device ? rng.NextInt64InRange(1, 24000)
                          : rng.NextInt64InRange(1, 70000);
      const TenantId tenant(rng.NextUint64(5) + 1);
      pair.Allocate(tenant, amount, c);
    } else if (roll < 0.85) {
      if (pair.live_count() > 0) {
        pair.ReleaseAt(rng.NextUint64(pair.live_count()));
      }
    } else {
      pair.SetHealth(rng.NextUint64(pair.device_count()), rng.NextBool(0.6));
    }
    if (step % 100 == 0) {
      pair.CheckAggregates();
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at step " << step;
    }
  }
  pair.CheckAggregates();
}

TEST(PoolDifferentialTest, IndexTracksFailureAndRecovery) {
  PoolPair pair(2, 4, 32000);
  AllocationConstraints c;
  ASSERT_TRUE(pair.Allocate(TenantId(1), 48000, c));
  pair.SetHealth(0, false);
  pair.SetHealth(1, false);
  pair.CheckAggregates();
  ASSERT_TRUE(pair.Allocate(TenantId(2), 20000, c));
  pair.SetHealth(0, true);
  pair.CheckAggregates();
  ASSERT_TRUE(pair.Allocate(TenantId(3), 10000, c));
  pair.CheckAggregates();
}

}  // namespace
}  // namespace udc
