// Hierarchical control-plane tests at the cell level: cell partitioning
// (topology mapping, per-cell free summaries), the router's balanced
// home-cell choice, cross-cell deploys that span cells inside one
// transaction, multi-cell abort atomicity (snapshot pools/envs/attestation
// before and after, as in placement_txn_test), PlacementTxn::AbortTo
// partial rollback, and a randomized differential test asserting the
// router over two cells and the router over one unscoped cell (a flat
// datacenter, one global index) make byte-identical admit/reject decisions
// and end with byte-identical pool occupancy on the same deploy/teardown
// sequence.
//
// The specs used here have uniform explicit demands (every task is exactly
// a quarter of a cpu blade), so admission is count-based: whether a deploy
// fits cannot depend on WHERE previous modules landed, only on how many
// are live — which is what makes the flat datacenter a differential oracle
// for the cells despite their different placement geometry.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/placement_engine.h"
#include "src/core/placement_txn.h"
#include "src/core/udc_cloud.h"
#include "src/crypto/hmac.h"

namespace udc {
namespace {

// One task = 8000 millicores = a quarter of a 32-core cpu blade, plus a
// working set far below any dram module's capacity. Tasks are independent
// (no edges): admission order is the graph's insertion order either way.
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

UdcCloudConfig CellConfig(int racks, int cells) {
  UdcCloudConfig config;
  config.datacenter.racks = racks;
  config.datacenter.cells = cells;
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

TEST(TopologyCellsTest, SetCellCountPartitionsRacksContiguously) {
  DisaggregatedDatacenter dc(DatacenterConfig{.racks = 7});
  Topology& topo = dc.topology();
  topo.SetCellCount(3);
  ASSERT_EQ(topo.cell_count(), 3);
  // Every rack maps to exactly one cell, cells are contiguous and
  // non-decreasing, and no cell is empty.
  std::vector<int> racks_per_cell(3, 0);
  int prev = 0;
  for (int rack = 0; rack < topo.rack_count(); ++rack) {
    const int cell = topo.CellOf(rack);
    ASSERT_GE(cell, 0);
    ASSERT_LT(cell, 3);
    ASSERT_GE(cell, prev);
    ASSERT_LE(cell - prev, 1);
    prev = cell;
    ++racks_per_cell[static_cast<size_t>(cell)];
    EXPECT_GE(rack, topo.CellRackBegin(cell));
    EXPECT_LT(rack, topo.CellRackEnd(cell));
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_GT(racks_per_cell[static_cast<size_t>(c)], 0);
  }
  // Out of range / unpartitioned.
  EXPECT_EQ(topo.CellOf(-1), -1);
  EXPECT_EQ(topo.CellOf(7), -1);
}

TEST(CapacityIndexCellsTest, CellFreeSummaryTracksCommitDeltas) {
  UdcCloud cloud(CellConfig(/*racks=*/4, /*cells=*/2));
  const auto& cell_free =
      cloud.datacenter()
          .pool(DeviceKind::kCpuBlade)
          .PlacementIndex(cloud.datacenter().topology())
          .cell_free();
  ASSERT_EQ(cell_free.size(), 2u);
  // 2 racks x 4 blades x 32000 millicores per cell, all free and healthy.
  EXPECT_EQ(cell_free[0], 2 * 4 * 32000);
  EXPECT_EQ(cell_free[0], cell_free[1]);

  const int64_t before_0 = cell_free[0];
  const int64_t before_1 = cell_free[1];
  const AppSpec spec = MakeUniformSpec("one", 1);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), spec);
  ASSERT_TRUE(deployment.ok());
  cloud.sim()->RunToCompletion();
  // Exactly one cell's summary moved, by exactly the task's demand.
  EXPECT_EQ(before_0 + before_1 - cell_free[0] - cell_free[1], 8000);
  deployment->reset();  // teardown releases the slice
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cell_free[0], before_0);
  EXPECT_EQ(cell_free[1], before_1);
}

TEST(CellRouterTest, BalancesHomeCellsByFreeCapacity) {
  UdcCloud cloud(CellConfig(/*racks=*/4, /*cells=*/2));
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
  // Equal capacity, equal demands: the router alternates home cells.
  EXPECT_EQ(cloud.region_router()->CellDeploys(0), 2);
  EXPECT_EQ(cloud.region_router()->CellDeploys(1), 2);
  EXPECT_EQ(cloud.region_router()->cross_cell_deploys(), 0);
}

// Fills a 2-cell cloud until each cell has exactly `free_slots_per_cell`
// quarter-blade slots left, returning the filler deployments.
std::vector<std::unique_ptr<Deployment>> FillAllBut(
    UdcCloud& cloud, int free_slots_per_cell) {
  // racks=2, cells=2: 4 blades x 4 slots = 16 slots per cell.
  const int fillers = 2 * (16 - free_slots_per_cell);
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

TEST(CellRouterTest, CrossCellDeploySpansCellsInOneTransaction) {
  UdcCloud cloud(CellConfig(/*racks=*/2, /*cells=*/2));
  auto fillers = FillAllBut(cloud, /*free_slots_per_cell=*/2);
  // 3 tasks against 2 free slots per cell: no single cell fits the DAG, so
  // the deploy must span — and still commit atomically.
  const AppSpec spec = MakeUniformSpec("span", 3);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("span"), spec);
  ASSERT_TRUE(deployment.ok());
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cloud.region_router()->cross_cell_deploys(), 1);
  EXPECT_GE(cloud.region_router()->cell_fallbacks(), 1);
  EXPECT_EQ(cloud.sim()->metrics().counter("core.txn_aborted"), 0);

  deployment->reset();
  fillers.clear();
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cloud.datacenter().TotalAllocated(), ResourceVector());
  EXPECT_EQ(cloud.envs().live_count(), 0u);
}

TEST(CellRouterTest, MultiCellAbortRestoresSnapshotState) {
  UdcCloud cloud(CellConfig(/*racks=*/2, /*cells=*/2));
  auto fillers = FillAllBut(cloud, /*free_slots_per_cell=*/2);

  const PoolOccupancy occupancy_before = OccupancyOf(cloud);
  const size_t envs_before = cloud.envs().live_count();
  const size_t attested_before = cloud.attestation().provisioned_count();
  const int64_t committed_before =
      cloud.sim()->metrics().counter("core.txn_committed");

  // 5 tasks against 4 free slots datacenter-wide: the home cell admits 2,
  // 2 spill to the other cell, the 5th fits nowhere — every staged sub-plan
  // (both cells') must unwind.
  const AppSpec spec = MakeUniformSpec("toobig", 5);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("toobig"), spec);
  EXPECT_FALSE(deployment.ok());
  cloud.sim()->RunToCompletion();

  EXPECT_EQ(OccupancyOf(cloud), occupancy_before);
  EXPECT_EQ(cloud.envs().live_count(), envs_before);
  EXPECT_EQ(cloud.attestation().provisioned_count(), attested_before);
  // The abort really staged work across cells before unwinding.
  EXPECT_GE(cloud.region_router()->cell_fallbacks(), 1);
  EXPECT_GE(cloud.sim()->metrics().counter("core.txn_aborted"), 1);
  EXPECT_EQ(cloud.sim()->metrics().counter("core.txn_committed"),
            committed_before);
}

TEST(PlacementTxnAbortToTest, UnwindsOnlyTheSuffixAfterTheMark) {
  Simulation sim;
  DisaggregatedDatacenter dc(DatacenterConfig{.racks = 2});
  EnvManager envs(&sim);
  AttestationService attest(&sim, KeyFromString("cell-test-vendor"));
  PlacementEngine engine(&sim, &dc, &envs, &attest);

  PlacementTxn txn = engine.Begin("abort_to");
  ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 1000,
                           AllocationConstraints{})
                  .ok());
  const size_t mark = txn.staged_ops();
  ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 2000,
                           AllocationConstraints{})
                  .ok());
  ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 4000,
                           AllocationConstraints{})
                  .ok());
  EXPECT_EQ(dc.pool(DeviceKind::kCpuBlade).TotalAllocated(), 7000);

  txn.AbortTo(mark);
  // The suffix is gone, the prefix is still staged and the txn still open.
  EXPECT_EQ(dc.pool(DeviceKind::kCpuBlade).TotalAllocated(), 1000);
  EXPECT_EQ(txn.staged_ops(), mark);
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_EQ(dc.pool(DeviceKind::kCpuBlade).TotalAllocated(), 1000);
}

// --- The randomized differential: two cells vs. one unscoped cell on one
// shared script.

struct Action {
  bool deploy = false;
  uint64_t value = 0;  // teardown slot selector
};

struct LegOutcome {
  std::vector<bool> decisions;
  PoolOccupancy occupancy{};
  size_t live_envs = 0;
};

LegOutcome RunLeg(int cells, const std::vector<Action>& script,
                  const std::shared_ptr<const AppSpec>& spec) {
  UdcCloud cloud(CellConfig(/*racks=*/4, cells));
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

TEST(CellRouterDifferentialTest, MatchesLegacySchedulerDecisionForDecision) {
  // 4 racks = 64 quarter-blade slots; 2-task deploys saturate at 32 live,
  // and the 70/30 deploy/teardown mix keeps the run bouncing off the
  // capacity ceiling, so both admits and rejects are exercised heavily.
  const auto spec =
      std::make_shared<const AppSpec>(MakeUniformSpec("diff", 2));
  for (const uint64_t seed : {0xCE11ull, 0xD1FFull, 0xF00Dull}) {
    Rng rng(seed);
    std::vector<Action> script;
    for (int i = 0; i < 400; ++i) {
      script.push_back(Action{rng.NextUint64(100) < 70,
                              rng.NextUint64(1u << 30)});
    }
    const LegOutcome flat = RunLeg(/*cells=*/0, script, spec);
    const LegOutcome cells = RunLeg(/*cells=*/2, script, spec);

    ASSERT_EQ(flat.decisions.size(), cells.decisions.size());
    EXPECT_EQ(flat.decisions, cells.decisions) << "seed " << seed;
    EXPECT_EQ(flat.occupancy, cells.occupancy) << "seed " << seed;
    EXPECT_EQ(flat.live_envs, cells.live_envs) << "seed " << seed;
    // The scripts are tuned to hit exhaustion: a run with no rejects would
    // be vacuous as a differential.
    EXPECT_NE(std::find(flat.decisions.begin(), flat.decisions.end(),
                        false),
              flat.decisions.end())
        << "seed " << seed << " never hit capacity";
  }
}

}  // namespace
}  // namespace udc
