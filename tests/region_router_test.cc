// Region-federation tests: region partitioning (cell -> region mapping,
// per-region free summaries), the router's balanced home-region choice,
// the region-affinity aspect (the home region follows declaration order),
// cross-region deploys that span regions inside one transaction,
// multi-region abort atomicity, the env store's remote (cross-region) tier
// with exact CancelLaunch refunds, one region (regions = 0 and 1 alike)
// holding every cell and steering nothing, frozen hashes of the
// admit/reject decisions one region makes on seeded deploy/teardown
// scripts, and frozen hashes of where modules land under 2-, 3- and
// 4-region churn with pins and avoids.
//
// As in cell_router_test, the specs have uniform explicit demands (every
// task is exactly a quarter of a cpu blade), so admission is count-based.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/udc_cloud.h"
#include "src/exec/env_manager.h"
#include "src/exec/env_store.h"
#include "src/hw/topology.h"
#include "src/sim/simulation.h"

namespace udc {
namespace {

// One task = 8000 millicores = a quarter of a 32-core cpu blade.
AppSpec MakeUniformSpec(const std::string& name, int tasks) {
  AppSpec spec;
  spec.graph.set_app_name(name);
  for (int i = 0; i < tasks; ++i) {
    auto id = spec.graph.AddTask(name + "-t" + std::to_string(i),
                                 /*work_units=*/1.0);
    AspectSet aspects = ProviderDefaults();
    aspects.resource.defined = true;
    aspects.resource.objective = ResourceObjective::kExplicit;
    aspects.resource.demand.Set(ResourceKind::kCpu, 8000);
    aspects.resource.demand.Set(ResourceKind::kDram, Bytes::MiB(64).bytes());
    spec.aspects[*id] = aspects;
  }
  return spec;
}

AppSpec PinnedSpec(const std::string& name, int tasks, int region) {
  AppSpec spec = MakeUniformSpec(name, tasks);
  for (auto& [id, aspects] : spec.aspects) {
    aspects.dist.region_affinity = region;
  }
  return spec;
}

UdcCloudConfig RegionConfig(int racks, int cells, int regions) {
  UdcCloudConfig config;
  config.datacenter.racks = racks;
  config.datacenter.cells = cells;
  config.datacenter.regions = regions;
  return config;
}

using PoolOccupancy = std::array<int64_t, kNumDeviceKinds>;

PoolOccupancy OccupancyOf(UdcCloud& cloud) {
  PoolOccupancy occupancy{};
  for (int k = 0; k < kNumDeviceKinds; ++k) {
    occupancy[static_cast<size_t>(k)] =
        cloud.datacenter().pool(static_cast<DeviceKind>(k)).TotalAllocated();
  }
  return occupancy;
}

TEST(TopologyRegionsTest, SetRegionCountPartitionsCellsContiguously) {
  Topology topo;
  for (int r = 0; r < 10; ++r) {
    topo.AddRack();
  }
  topo.SetCellCount(5);
  topo.SetRegionCount(3);
  ASSERT_EQ(topo.region_count(), 3);
  // Every cell maps to exactly one region, regions are contiguous and
  // non-decreasing, and no region is empty — the cell-partitioning
  // contract mirrored one level up.
  std::vector<int> cells_per_region(3, 0);
  int prev = 0;
  for (int cell = 0; cell < topo.cell_count(); ++cell) {
    const int region = topo.RegionOf(cell);
    ASSERT_GE(region, 0);
    ASSERT_LT(region, 3);
    ASSERT_GE(region, prev);
    ASSERT_LE(region - prev, 1);
    prev = region;
    ++cells_per_region[static_cast<size_t>(region)];
    EXPECT_GE(cell, topo.RegionCellBegin(region));
    EXPECT_LT(cell, topo.RegionCellEnd(region));
  }
  for (int r = 0; r < 3; ++r) {
    EXPECT_GT(cells_per_region[static_cast<size_t>(r)], 0);
  }
  // RegionOfRack composes the two partitions: each rack's region is its
  // cell's region.
  for (int rack = 0; rack < topo.rack_count(); ++rack) {
    EXPECT_EQ(topo.RegionOfRack(rack), topo.RegionOf(topo.CellOf(rack)));
  }
  // Out of range.
  EXPECT_EQ(topo.RegionOf(-1), -1);
  EXPECT_EQ(topo.RegionOf(topo.cell_count()), -1);
}

// Without SetRegionCount a topology is one region holding every cell, and
// regions = 0 and 1 both mean that one region, as cells = 0 and 1 mean one
// cell: every cell, rack and pooled device has region 0.
TEST(TopologyRegionsTest, WithoutRegionsOneRegionHoldsEveryCell) {
  Topology topo;
  for (int r = 0; r < 6; ++r) {
    topo.AddRack();
  }
  EXPECT_EQ(topo.region_count(), 1);
  topo.SetCellCount(3);
  EXPECT_EQ(topo.region_count(), 1);
  for (const int regions : {0, 1}) {
    topo.SetRegionCount(regions);
    EXPECT_EQ(topo.region_count(), 1) << regions;
    EXPECT_EQ(topo.RegionCellBegin(0), 0) << regions;
    EXPECT_EQ(topo.RegionCellEnd(0), 3) << regions;
    for (int rack = 0; rack < topo.rack_count(); ++rack) {
      EXPECT_EQ(topo.RegionOfRack(rack), 0) << regions << ", rack " << rack;
    }
  }
  EXPECT_EQ(topo.RegionOfRack(topo.rack_count()), -1);
  // Asking for one region after three restores the one region.
  topo.SetRegionCount(3);
  EXPECT_EQ(topo.region_count(), 3);
  topo.SetRegionCount(0);
  EXPECT_EQ(topo.region_count(), 1);
  EXPECT_EQ(topo.RegionCellEnd(0), 3);

  for (const int regions : {0, 1}) {
    DisaggregatedDatacenter datacenter(
        RegionConfig(/*racks=*/4, /*cells=*/2, regions).datacenter);
    const ResourcePool& pool = datacenter.pool(DeviceKind::kCpuBlade);
    const FreeCapacityIndex& index = pool.index();
    ASSERT_EQ(index.region_free().size(), 1u) << regions;
    EXPECT_EQ(index.region_free()[0],
              index.cell_free()[0] + index.cell_free()[1])
        << regions;
    for (const auto& device : pool.devices()) {
      EXPECT_EQ(index.RegionOf(device.get()), 0) << regions;
    }
  }
}

// One region has nothing to steer, so regions = 0 and 1 are one
// configuration: both admit a module that avoids region 0, as a topology
// never split into regions always has, and count the deploy in region 0.
TEST(RegionRouterTest, OneRegionAdmitsAModuleAvoidingRegionZero) {
  AppSpec spec = MakeUniformSpec("avoid", 2);
  for (auto& [id, aspects] : spec.aspects) {
    aspects.dist.region_anti_affinity = 0;
  }
  for (const int regions : {0, 1}) {
    UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/2, regions));
    RegionRouter* router = cloud.region_router();
    ASSERT_EQ(router->region_count(), 1) << regions;
    auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), spec);
    ASSERT_TRUE(deployment.ok())
        << "regions " << regions << ": " << deployment.status().ToString();
    EXPECT_EQ(router->RegionDeploys(0), 1) << regions;
    EXPECT_EQ(router->cross_region_deploys(), 0) << regions;
    EXPECT_EQ(router->region_fallbacks(), 0) << regions;
  }
}

TEST(RegionRouterTest, RegionFreeSummaryTracksCommitDeltas) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/4, /*regions=*/2));
  RegionRouter* router = cloud.region_router();
  ASSERT_NE(router, nullptr);
  const std::vector<int64_t>& free =
      router->RegionFreeSummary(DeviceKind::kCpuBlade);
  ASSERT_EQ(free.size(), 2u);
  // 2 racks x 4 blades x 32000 millicores per region, all free.
  EXPECT_EQ(free[0], 2 * 4 * 32000);
  EXPECT_EQ(free[0], free[1]);

  const int64_t before_0 = free[0];
  const int64_t before_1 = free[1];
  const AppSpec spec = MakeUniformSpec("one", 1);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), spec);
  ASSERT_TRUE(deployment.ok());
  cloud.sim()->RunToCompletion();
  // Exactly one region's summary moved, by exactly the task's demand.
  EXPECT_EQ(before_0 + before_1 - free[0] - free[1], 8000);
  EXPECT_TRUE(free[0] == before_0 || free[1] == before_1);
  deployment->reset();  // teardown releases the slice
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(free[0], before_0);
  EXPECT_EQ(free[1], before_1);
}

TEST(RegionRouterTest, BalancesHomeRegionsByFreeCapacity) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/4, /*regions=*/2));
  ASSERT_NE(cloud.region_router(), nullptr);
  const AppSpec spec = MakeUniformSpec("one", 1);
  std::vector<std::unique_ptr<Deployment>> live;
  for (int i = 0; i < 4; ++i) {
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("t" + std::to_string(i)), spec);
    ASSERT_TRUE(deployment.ok());
    live.push_back(std::move(*deployment));
    cloud.sim()->RunToCompletion();
  }
  // Equal capacity, equal demands: the router alternates home regions.
  EXPECT_EQ(cloud.region_router()->RegionDeploys(0), 2);
  EXPECT_EQ(cloud.region_router()->RegionDeploys(1), 2);
  EXPECT_EQ(cloud.region_router()->cross_region_deploys(), 0);
}

TEST(RegionRouterTest, HonorsRegionAffinityAspect) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/4, /*regions=*/2));
  // Pinned to region 1: every deploy must land there even though region 0
  // is equally free (and would win ties for unpinned specs).
  const AppSpec spec = PinnedSpec("pin", 1, /*region=*/1);
  std::vector<std::unique_ptr<Deployment>> live;
  for (int i = 0; i < 3; ++i) {
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("p" + std::to_string(i)), spec);
    ASSERT_TRUE(deployment.ok());
    live.push_back(std::move(*deployment));
    cloud.sim()->RunToCompletion();
  }
  EXPECT_EQ(cloud.region_router()->RegionDeploys(0), 0);
  EXPECT_EQ(cloud.region_router()->RegionDeploys(1), 3);
}

TEST(RegionRouterTest, HomeRegionFollowsDeclarationOrderNotMapOrder) {
  // Task 0 is pinned to region 1, task 1 to region 0. The home region is
  // task 0's pin however the aspect map happens to be filled, so task 1 is
  // the leg that leaves home.
  for (const bool reverse : {false, true}) {
    UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/4, /*regions=*/2));
    AppSpec spec = MakeUniformSpec("split", 2);
    const std::vector<ModuleId> ids = spec.graph.ModuleIds();
    spec.aspects[ids[0]].dist.region_affinity = 1;
    spec.aspects[ids[1]].dist.region_affinity = 0;
    if (reverse) {
      std::unordered_map<ModuleId, AspectSet> refilled;
      refilled.emplace(ids[1], spec.aspects.at(ids[1]));
      refilled.emplace(ids[0], spec.aspects.at(ids[0]));
      spec.aspects = std::move(refilled);
    }
    auto deployment = cloud.Deploy(cloud.RegisterTenant("split"), spec);
    ASSERT_TRUE(deployment.ok());
    cloud.sim()->RunToCompletion();
    RegionRouter* router = cloud.region_router();
    EXPECT_EQ(router->RegionDeploys(1), 1) << "reverse " << reverse;
    EXPECT_EQ(router->RegionDeploys(0), 0) << "reverse " << reverse;
    EXPECT_EQ(router->cross_region_deploys(), 1) << "reverse " << reverse;
    const auto& placements = (*deployment)->placements();
    EXPECT_EQ(cloud.datacenter().topology().RegionOfRack(
                  placements.at(ids[0]).rack),
              1);
    EXPECT_EQ(cloud.datacenter().topology().RegionOfRack(
                  placements.at(ids[1]).rack),
              0);
  }
}

// Fills a 2-region cloud until each region has exactly
// `free_slots_per_region` quarter-blade slots left.
std::vector<std::unique_ptr<Deployment>> FillAllBut(
    UdcCloud& cloud, int free_slots_per_region) {
  // racks=2, cells=2, regions=2: 4 blades x 4 slots = 16 slots per region.
  const int fillers = 2 * (16 - free_slots_per_region);
  const AppSpec spec = MakeUniformSpec("filler", 1);
  std::vector<std::unique_ptr<Deployment>> live;
  for (int i = 0; i < fillers; ++i) {
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("f" + std::to_string(i)), spec);
    EXPECT_TRUE(deployment.ok());
    if (deployment.ok()) {
      live.push_back(std::move(*deployment));
    }
    cloud.sim()->RunToCompletion();
  }
  return live;
}

TEST(RegionRouterTest, CrossRegionDeploySpansRegionsInOneTransaction) {
  UdcCloud cloud(RegionConfig(/*racks=*/2, /*cells=*/2, /*regions=*/2));
  auto fillers = FillAllBut(cloud, /*free_slots_per_region=*/2);
  // 3 tasks against 2 free slots per region: no single region fits the
  // DAG, so the deploy must span — and still commit atomically.
  const AppSpec spec = MakeUniformSpec("span", 3);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("span"), spec);
  ASSERT_TRUE(deployment.ok());
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cloud.region_router()->cross_region_deploys(), 1);
  EXPECT_GE(cloud.region_router()->region_fallbacks(), 1);
  EXPECT_EQ(cloud.sim()->metrics().counter("core.txn_aborted"), 0);

  deployment->reset();
  fillers.clear();
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cloud.datacenter().TotalAllocated(), ResourceVector());
  EXPECT_EQ(cloud.envs().live_count(), 0u);
}

TEST(RegionRouterTest, MultiRegionAbortRestoresSnapshotState) {
  UdcCloud cloud(RegionConfig(/*racks=*/2, /*cells=*/2, /*regions=*/2));
  auto fillers = FillAllBut(cloud, /*free_slots_per_region=*/2);

  const PoolOccupancy occupancy_before = OccupancyOf(cloud);
  const size_t envs_before = cloud.envs().live_count();
  const size_t attested_before = cloud.attestation().provisioned_count();
  const int64_t committed_before =
      cloud.sim()->metrics().counter("core.txn_committed");

  // 5 tasks against 4 free slots datacenter-wide: the home region admits
  // 2, 2 spill to the other region, the 5th fits nowhere — every staged
  // sub-plan (both regions') must unwind.
  const AppSpec spec = MakeUniformSpec("toobig", 5);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("toobig"), spec);
  EXPECT_FALSE(deployment.ok());
  cloud.sim()->RunToCompletion();

  EXPECT_EQ(OccupancyOf(cloud), occupancy_before);
  EXPECT_EQ(cloud.envs().live_count(), envs_before);
  EXPECT_EQ(cloud.attestation().provisioned_count(), attested_before);
  // The abort really staged work across regions before unwinding.
  EXPECT_GE(cloud.region_router()->region_fallbacks(), 1);
  EXPECT_GE(cloud.sim()->metrics().counter("core.txn_aborted"), 1);
  EXPECT_EQ(cloud.sim()->metrics().counter("core.txn_committed"),
            committed_before);
}

// --- The env store's remote (cross-region) tier, tested at unit level:
// a topology with one rack per region, a slot banked in region 0, and a
// launch in region 1 that must pay the WAN price, replicate the image,
// and refund exactly when cancelled.

TEST(EnvStoreRegionsTest, RemoteFetchAndRefundAreExact) {
  Simulation sim;
  Topology topology;
  const int rack0 = topology.AddRack();
  const int rack1 = topology.AddRack();
  const NodeId node0 = topology.AddNode(rack0, NodeRole::kDevice);
  const NodeId node1 = topology.AddNode(rack1, NodeRole::kDevice);
  topology.SetCellCount(2);
  topology.SetRegionCount(2);

  EnvStoreConfig store_config;
  store_config.share_across_tenants = true;
  EnvManager manager(&sim, store_config);
  manager.set_topology(&topology);  // builds the rack -> region map
  LaunchOptions options;
  options.kind = EnvKind::kTeeEnclave;
  options.image = "federated-model";
  EnvStore* store = manager.store();
  const Sha256Digest digest = store->KeyDigest(
      EnvKind::kTeeEnclave, TenancyMode::kShared, TenantId(1),
      "federated-model");

  // Bank a warm slot on rack 0 (region 0).
  ExecEnvironment* env = manager.Launch(TenantId(1), node0, options, nullptr);
  sim.RunToCompletion();
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());
  const int64_t slots_before = store->SlotsOnRack(digest, 0);
  ASSERT_GE(slots_before, 1);

  // Launch in region 1: the only slot is cross-region, so the start is
  // remote — strictly slower than a tepid fetch (it adds the WAN leg) but
  // still far below a cold build, and NextStartLatency predicts the tier.
  const SimTime predicted = manager.NextStartLatency(
      EnvKind::kTeeEnclave, TenantId(2), options, node1);
  const SimTime before = sim.now();
  env = manager.Launch(TenantId(2), node1, options, nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(env->start_mode(), EnvStartMode::kRemote);
  EXPECT_EQ(env->ready_at() - before, predicted);
  const EnvProfile profile = EnvProfile::DefaultFor(EnvKind::kTeeEnclave);
  EXPECT_GT(predicted, profile.warm_start);
  EXPECT_LT(predicted, profile.cold_start);
  EXPECT_EQ(sim.metrics().counter("exec.remote_starts"), 1);
  EXPECT_EQ(store->remote_hits(), 1);
  // The slot was consumed at the source and the image pull-through
  // replicated into rack 1's cache.
  EXPECT_EQ(store->SlotsOnRack(digest, 0), slots_before - 1);
  const auto racks = store->PerRackStats();
  ASSERT_EQ(racks.size(), 2u);
  EXPECT_EQ(racks[1].entries, 1u);
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/false).ok());

  // Bank a fresh slot on rack 0 (the remote start above consumed the
  // first one), then remote launch + cancel: the slot returns to rack 0
  // (the source, in the other region) with its original provenance, refs
  // come back exactly.
  env = manager.Launch(TenantId(1), node0, options, nullptr);
  sim.RunToCompletion();
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());
  const int64_t rebanked = store->SlotsOnRack(digest, 0);
  const int64_t refs_rebanked = store->ContentRefs(digest);
  ASSERT_GE(rebanked, 1);
  env = manager.Launch(TenantId(2), node1, options, nullptr);
  EXPECT_EQ(env->start_mode(), EnvStartMode::kRemote);
  EXPECT_EQ(store->SlotsOnRack(digest, 0), rebanked - 1);
  ASSERT_TRUE(manager.CancelLaunch(env).ok());
  EXPECT_EQ(store->SlotsOnRack(digest, 0), rebanked);
  EXPECT_EQ(store->SlotsOnRack(digest, 1), 0);
  EXPECT_EQ(store->ContentRefs(digest), refs_rebanked);
  EXPECT_EQ(store->live_env_refs(), 0);
  sim.RunToCompletion();
}

// --- One region against the retired region-less topology: seeded
// deploy/teardown scripts on one region of two cells. While a topology
// without regions was a configuration of its own, regions = 1 made the
// same admit/reject stream and ended with the same occupancy and live
// environments on every script. The constants are those, recorded then:
// the stream's FNV-1a hash (the form the federation bench gates on), its
// length, and the live tasks (each holds 8000m of cpu and 64 MiB of DRAM
// and runs one environment).

struct Action {
  bool deploy = false;
  uint64_t value = 0;  // teardown slot selector
};

struct LegOutcome {
  std::vector<bool> decisions;
  PoolOccupancy occupancy{};
  size_t live_envs = 0;
};

uint64_t Fnv1a(const std::vector<bool>& decisions) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const bool decision : decisions) {
    hash ^= decision ? 1u : 0u;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

LegOutcome RunLeg(const std::vector<Action>& script,
                  const std::shared_ptr<const AppSpec>& spec) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/2, /*regions=*/1));
  LegOutcome outcome;
  std::vector<std::unique_ptr<Deployment>> live;
  int tenant = 0;
  for (const Action& action : script) {
    if (action.deploy || live.empty()) {
      auto deployment = cloud.Deploy(
          cloud.RegisterTenant("d" + std::to_string(tenant++)), spec);
      outcome.decisions.push_back(deployment.ok());
      if (deployment.ok()) {
        live.push_back(std::move(*deployment));
      }
    } else {
      const size_t idx = action.value % live.size();
      live.erase(live.begin() + static_cast<long>(idx));
    }
    cloud.sim()->RunToCompletion();
  }
  outcome.occupancy = OccupancyOf(cloud);
  outcome.live_envs = cloud.envs().live_count();
  return outcome;
}

TEST(RegionRouterDifferentialTest, OneRegionMatchesCellsOnlyRouter) {
  struct Frozen {
    uint64_t seed;
    uint64_t hash;
    size_t deploys;
    int64_t live_tasks;
  };
  // 4 racks = 64 quarter-blade slots; 2-task deploys saturate at 32 live,
  // and the 70/30 deploy/teardown mix keeps the run bouncing off the
  // capacity ceiling, so both admits and rejects are exercised heavily.
  const auto spec =
      std::make_shared<const AppSpec>(MakeUniformSpec("diff", 2));
  for (const Frozen& frozen :
       {Frozen{0x12E610ull, 0x98ba7f2b90ae8bccull, 268, 62},
        Frozen{0xFEDE8ull, 0xd682ac5511bd30dbull, 271, 62},
        Frozen{0x0AB5ull, 0x0aacc0c06314c87full, 294, 60}}) {
    Rng rng(frozen.seed);
    std::vector<Action> script;
    for (int i = 0; i < 400; ++i) {
      script.push_back(Action{rng.NextUint64(100) < 70,
                              rng.NextUint64(1u << 30)});
    }
    const LegOutcome leg = RunLeg(script, spec);

    EXPECT_EQ(leg.decisions.size(), frozen.deploys) << "seed " << frozen.seed;
    EXPECT_EQ(Fnv1a(leg.decisions), frozen.hash)
        << "seed " << frozen.seed << ": actual hash 0x" << std::hex
        << Fnv1a(leg.decisions);
    PoolOccupancy occupancy{};
    occupancy[static_cast<size_t>(DeviceKind::kCpuBlade)] =
        frozen.live_tasks * 8000;
    occupancy[static_cast<size_t>(DeviceKind::kDramModule)] =
        frozen.live_tasks * Bytes::MiB(64).bytes();
    EXPECT_EQ(leg.occupancy, occupancy) << "seed " << frozen.seed;
    EXPECT_EQ(leg.live_envs, static_cast<size_t>(frozen.live_tasks))
        << "seed " << frozen.seed;
    // The scripts are tuned to hit exhaustion: a run with no rejects
    // would be vacuous as a differential.
    EXPECT_NE(std::find(leg.decisions.begin(), leg.decisions.end(), false),
              leg.decisions.end())
        << "seed " << frozen.seed << " never hit capacity";
  }
}

// --- Frozen fallback placements at regions > 1: seeded churn over a
// catalog of free, pinned, avoiding and pin-plus-avoid specs on 2, 3 and 4
// regions. The hash covers each admit/reject and every admitted module's
// rack, so it pins where a spilled module lands, not only whether the
// deploy fits. The constants were recorded with the eager candidate
// ladder (every cell of every region sorted before the home attempt); the
// lazy ladder must land every module on the same rack.

std::vector<std::shared_ptr<const AppSpec>> FallbackCatalog(int regions) {
  std::vector<std::shared_ptr<const AppSpec>> catalog;
  catalog.push_back(
      std::make_shared<const AppSpec>(MakeUniformSpec("free", 2)));
  for (int r = 0; r < regions; ++r) {
    const std::string suffix = std::to_string(r);
    catalog.push_back(std::make_shared<const AppSpec>(
        PinnedSpec("pin" + suffix, 3, r)));
    AppSpec avoid = MakeUniformSpec("avoid" + suffix, 2);
    for (auto& [id, aspects] : avoid.aspects) {
      aspects.dist.region_anti_affinity = r;
    }
    catalog.push_back(std::make_shared<const AppSpec>(std::move(avoid)));
    // Homed in r by task 0's pin; task 1 must leave r, task 2 is free.
    AppSpec split = MakeUniformSpec("split" + suffix, 3);
    const std::vector<ModuleId> ids = split.graph.ModuleIds();
    split.aspects[ids[0]].dist.region_affinity = r;
    split.aspects[ids[1]].dist.region_anti_affinity = r;
    catalog.push_back(std::make_shared<const AppSpec>(std::move(split)));
  }
  return catalog;
}

struct FallbackRun {
  uint64_t hash = 0xcbf29ce484222325ull;
  int64_t rejects = 0;
  int64_t region_fallbacks = 0;
  int64_t cross_region_deploys = 0;
};

FallbackRun RunFallbackChurn(int regions, uint64_t seed, int steps) {
  UdcCloud cloud(RegionConfig(/*racks=*/2 * regions, /*cells=*/2 * regions,
                              regions));
  const auto catalog = FallbackCatalog(regions);
  FallbackRun run;
  const auto mix = [&](uint64_t value) {
    run.hash ^= value;
    run.hash *= 0x100000001b3ull;
  };
  Rng rng(seed);
  std::vector<std::unique_ptr<Deployment>> live;
  for (int step = 0; step < steps; ++step) {
    const uint64_t pick = rng.NextUint64(1u << 30);
    if (rng.NextUint64(100) < 65 || live.empty()) {
      auto deployment = cloud.Deploy(
          cloud.RegisterTenant("c" + std::to_string(step)),
          catalog[pick % catalog.size()]);
      mix(deployment.ok() ? 1 : 0);
      if (!deployment.ok()) {
        ++run.rejects;
        continue;
      }
      for (const auto& [module, placement] : (*deployment)->placements()) {
        mix(module.value());
        mix(static_cast<uint64_t>(placement.rack));
      }
      live.push_back(std::move(*deployment));
    } else {
      live.erase(live.begin() + static_cast<long>(pick % live.size()));
    }
    cloud.sim()->RunToCompletion();
  }
  run.region_fallbacks = cloud.region_router()->region_fallbacks();
  run.cross_region_deploys = cloud.region_router()->cross_region_deploys();
  return run;
}

TEST(RegionRouterGoldenTest, FallbackPlacementsMatchFrozenHashes) {
  struct Golden {
    int regions;
    uint64_t hash;
  };
  const Golden kGoldens[] = {
      {2, 0xf38f22336dfc21eeull},
      {3, 0xf1cb71dfa348118eull},
      {4, 0xd25ec3dc4020f7f4ull},
  };
  for (const Golden& golden : kGoldens) {
    const FallbackRun run = RunFallbackChurn(
        golden.regions, /*seed=*/0xFA11BAC0ull + golden.regions,
        /*steps=*/2000);
    EXPECT_EQ(run.hash, golden.hash)
        << "regions " << golden.regions << ": actual hash 0x" << std::hex
        << run.hash;
    // Not vacuous: modules spilled across regions and deploys were refused.
    EXPECT_GT(run.region_fallbacks, 100) << "regions " << golden.regions;
    EXPECT_GT(run.cross_region_deploys, 50) << "regions " << golden.regions;
    EXPECT_GT(run.rejects, 0) << "regions " << golden.regions;
  }
}

}  // namespace
}  // namespace udc
