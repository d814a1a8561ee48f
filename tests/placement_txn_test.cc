// Placement-transaction tests: the plan/commit/abort contract
// (src/core/placement_txn.h), the engine's metrics, PoolById, ref-counted
// attestation provisioning, warm-slot-exact launch cancellation, batched
// deploys — and a randomized atomicity property test that drives deploys
// into pool exhaustion and asserts a failed deploy leaves the datacenter,
// environment manager and attestation registry byte-identical to the
// pre-deploy snapshot.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/core/placement_engine.h"
#include "src/core/placement_txn.h"
#include "src/core/udc_cloud.h"
#include "src/crypto/hmac.h"
#include "src/workload/medical.h"
#include "src/workload/microservices.h"

namespace udc {
namespace {

class PlacementTxnTest : public ::testing::Test {
 protected:
  PlacementTxnTest()
      : dc_(DatacenterConfig{.racks = 2}), envs_(&sim_),
        attest_(&sim_, KeyFromString("txn-test-vendor")),
        engine_(&sim_, &dc_, &envs_, &attest_) {}

  int64_t CpuAllocated() const {
    return dc_.pool(DeviceKind::kCpuBlade).TotalAllocated();
  }

  Simulation sim_;
  DisaggregatedDatacenter dc_;
  EnvManager envs_;
  AttestationService attest_;
  PlacementEngine engine_;
};

TEST_F(PlacementTxnTest, AbortReleasesStagedAllocations) {
  PlacementTxn txn = engine_.Begin("test");
  auto alloc = txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 1000,
                            AllocationConstraints{});
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(CpuAllocated(), 1000);
  txn.Abort();
  EXPECT_EQ(CpuAllocated(), 0);
  EXPECT_EQ(txn.state(), PlacementTxn::State::kAborted);
  EXPECT_EQ(sim_.metrics().counter("core.txn_aborted"), 1);
  EXPECT_EQ(sim_.metrics().counter("core.txn_ops_undone"), 1);
}

TEST_F(PlacementTxnTest, CommitKeepsAllocationsAndCountsOps) {
  PlacementTxn txn = engine_.Begin("test");
  ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 500,
                           AllocationConstraints{})
                  .ok());
  ASSERT_TRUE(txn.Allocate(DeviceKind::kDramModule, TenantId(1), 1 << 20,
                           AllocationConstraints{})
                  .ok());
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_EQ(txn.state(), PlacementTxn::State::kCommitted);
  EXPECT_EQ(CpuAllocated(), 500);
  EXPECT_EQ(sim_.metrics().counter("core.txn_committed"), 1);
  EXPECT_EQ(sim_.metrics().counter("core.txn_ops_staged"), 2);
  EXPECT_EQ(sim_.metrics().counter("core.txn_ops_undone"), 0);
}

// A router that retries a module elsewhere unwinds the rejected attempt with
// AbortTo before the txn closes. The unwound ops were still staged, so they
// count as staged and the undone count stays a subset of the staged one.
TEST_F(PlacementTxnTest, AbortToUnwoundOpsStayCountedAsStaged) {
  PlacementTxn txn = engine_.Begin("test");
  ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 500,
                           AllocationConstraints{})
                  .ok());
  const size_t mark = txn.staged_ops();
  ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 700,
                           AllocationConstraints{})
                  .ok());
  txn.Provision(42);
  txn.AbortTo(mark);
  EXPECT_EQ(txn.staged_ops(), 1u);
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_EQ(CpuAllocated(), 500);
  EXPECT_EQ(sim_.metrics().counter("core.txn_ops_staged"), 3);
  EXPECT_EQ(sim_.metrics().counter("core.txn_ops_undone"), 2);
  const Span* span = sim_.spans().Find("sched.txn");
  ASSERT_NE(span, nullptr);
  ASSERT_NE(span->Label("ops"), nullptr);
  EXPECT_EQ(*span->Label("ops"), "3");
}

TEST_F(PlacementTxnTest, DestructorAbortsOpenTransaction) {
  {
    PlacementTxn txn = engine_.Begin("test");
    ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 1000,
                             AllocationConstraints{})
                    .ok());
    EXPECT_EQ(CpuAllocated(), 1000);
  }  // txn destroyed while open
  EXPECT_EQ(CpuAllocated(), 0);
  EXPECT_EQ(sim_.metrics().counter("core.txn_aborted"), 1);
}

TEST_F(PlacementTxnTest, AbortRunsUndosInReverseStagingOrder) {
  std::vector<int> order;
  PlacementTxn txn = engine_.Begin("test");
  txn.StageUndo([&order] { order.push_back(1); });
  txn.StageUndo([&order] { order.push_back(2); });
  txn.StageUndo([&order] { order.push_back(3); });
  txn.Abort();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST_F(PlacementTxnTest, StageReleaseAppliesOnCommitOnly) {
  PlacementTxn setup = engine_.Begin("test");
  auto alloc = setup.Allocate(DeviceKind::kCpuBlade, TenantId(1), 1000,
                              AllocationConstraints{});
  ASSERT_TRUE(alloc.ok());
  ASSERT_TRUE(setup.Commit().ok());

  {
    PlacementTxn aborted = engine_.Begin("test");
    aborted.StageRelease(*alloc);
    EXPECT_EQ(CpuAllocated(), 1000);
    aborted.Abort();
    // Dropped, not applied: the allocation survives the abort.
    EXPECT_EQ(CpuAllocated(), 1000);
  }

  PlacementTxn committed = engine_.Begin("test");
  committed.StageRelease(*alloc);
  EXPECT_EQ(CpuAllocated(), 1000);
  EXPECT_TRUE(committed.Commit().ok());
  EXPECT_EQ(CpuAllocated(), 0);
}

TEST_F(PlacementTxnTest, StageStopAppliesOnCommitOnly) {
  PlacementTxn setup = engine_.Begin("test");
  ExecEnvironment* env =
      setup.Launch(TenantId(1), NodeId(1), LaunchOptions{}, nullptr);
  ASSERT_NE(env, nullptr);
  ASSERT_TRUE(setup.Commit().ok());
  EXPECT_EQ(envs_.live_count(), 1u);

  {
    PlacementTxn aborted = engine_.Begin("test");
    aborted.StageStop(env);
    aborted.Abort();
    EXPECT_EQ(envs_.live_count(), 1u);  // still running
  }

  PlacementTxn committed = engine_.Begin("test");
  committed.StageStop(env);
  EXPECT_TRUE(committed.Commit().ok());
  EXPECT_EQ(envs_.live_count(), 0u);
}

TEST_F(PlacementTxnTest, AbortCancelsLaunchAndRefundsWarmSlot) {
  envs_.Prewarm(EnvKind::kContainer, TenantId(1), 1);
  ASSERT_EQ(envs_.WarmSlots(EnvKind::kContainer, TenantId(1)), 1);

  PlacementTxn txn = engine_.Begin("test");
  ExecEnvironment* env =
      txn.Launch(TenantId(1), NodeId(1), LaunchOptions{}, nullptr);
  ASSERT_NE(env, nullptr);
  EXPECT_TRUE(env->started_warm());
  EXPECT_EQ(envs_.WarmSlots(EnvKind::kContainer, TenantId(1)), 0);
  EXPECT_EQ(envs_.live_count(), 1u);

  txn.Abort();
  // The launch is cancelled and the warm slot it consumed is refunded, so
  // the warm pool is exactly as the transaction found it.
  EXPECT_EQ(envs_.live_count(), 0u);
  EXPECT_EQ(envs_.WarmSlots(EnvKind::kContainer, TenantId(1)), 1);
  // The pending ready event must no-op for the reaped environment.
  sim_.RunToCompletion();
}

TEST(StoreTxnTest, AbortRestoresStoreRefcountsAndWarmCreditsExactly) {
  // Same abort contract, content-addressed store backend: cancelling a
  // launch must return the consumed slot to its source rack and unwind the
  // content refcount exactly — a placement abort is invisible to the store.
  Simulation sim;
  DisaggregatedDatacenter dc(DatacenterConfig{.racks = 2});
  EnvStoreConfig store_config;
  store_config.share_across_tenants = true;
  EnvManager envs(&sim, store_config);
  envs.set_topology(&dc.topology());
  AttestationService attest(&sim, KeyFromString("txn-test-vendor"));
  PlacementEngine engine(&sim, &dc, &envs, &attest);

  LaunchOptions options;
  options.kind = EnvKind::kTeeEnclave;
  options.image = "shared-model";
  envs.Prewarm(options.kind, TenantId(1), 1, options.image);
  const EnvStore* store = envs.store();
  const Sha256Digest digest = store->KeyDigest(
      options.kind, TenancyMode::kShared, TenantId(1), options.image);
  const int64_t refs_before = store->ContentRefs(digest);
  const int64_t slots_before = store->SlotsOnRack(digest, 0);
  ASSERT_EQ(slots_before, 1);

  PlacementTxn txn = engine.Begin("store_abort");
  // Different tenant, same content: the launch consumes the shared slot.
  ExecEnvironment* env = txn.Launch(TenantId(2), NodeId(1), options, nullptr);
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->start_mode(), EnvStartMode::kWarm);
  EXPECT_EQ(store->SlotsOnRack(digest, 0), 0);
  EXPECT_EQ(store->live_env_refs(), 1);

  txn.Abort();
  EXPECT_EQ(envs.live_count(), 0u);
  EXPECT_EQ(store->SlotsOnRack(digest, 0), slots_before);
  EXPECT_EQ(store->ContentRefs(digest), refs_before);
  EXPECT_EQ(store->live_env_refs(), 0);
  sim.RunToCompletion();  // pending ready event must no-op
}

TEST_F(PlacementTxnTest, AbortRetiresProvisionedIdentities) {
  PlacementTxn txn = engine_.Begin("test");
  txn.Provision(7);
  EXPECT_TRUE(attest_.IsProvisioned(7));
  txn.Abort();
  EXPECT_FALSE(attest_.IsProvisioned(7));
  EXPECT_EQ(attest_.provisioned_count(), 0u);
}

TEST_F(PlacementTxnTest, ResizeUndoneOnAbort) {
  PlacementTxn setup = engine_.Begin("test");
  auto alloc = setup.Allocate(DeviceKind::kCpuBlade, TenantId(1), 1000,
                              AllocationConstraints{});
  ASSERT_TRUE(alloc.ok());
  ASSERT_TRUE(setup.Commit().ok());
  PoolAllocation held = *std::move(alloc);

  ResourcePool* pool = dc_.PoolById(held.pool);
  ASSERT_NE(pool, nullptr);
  PlacementTxn txn = engine_.Begin("test");
  ASSERT_TRUE(txn.Resize(pool, held, 500).ok());
  EXPECT_EQ(CpuAllocated(), 1500);
  EXPECT_EQ(held.total(), 1500);
  txn.Abort();
  EXPECT_EQ(CpuAllocated(), 1000);
  EXPECT_EQ(held.total(), 1000);
}

TEST(AttestationRefcountTest, ProvisionIsRefCountedAndRetireIdempotent) {
  Simulation sim;
  AttestationService attest(&sim, KeyFromString("refs"));
  attest.ProvisionDevice(42);
  attest.ProvisionDevice(42);
  EXPECT_EQ(attest.ProvisionRefs(42), 2);
  EXPECT_EQ(attest.provisioned_count(), 1u);

  attest.RetireDevice(42);
  EXPECT_TRUE(attest.IsProvisioned(42));  // one holder left
  attest.RetireDevice(42);
  EXPECT_FALSE(attest.IsProvisioned(42));
  EXPECT_EQ(attest.provisioned_count(), 0u);
  attest.RetireDevice(42);  // idempotent: retiring again is a no-op
  EXPECT_FALSE(attest.IsProvisioned(42));
}

TEST(PoolByIdTest, ResolvesEveryKindAndRejectsUnknownIds) {
  DisaggregatedDatacenter dc(DatacenterConfig{.racks = 1});
  for (int i = 0; i < kNumDeviceKinds; ++i) {
    const auto kind = static_cast<DeviceKind>(i);
    ResourcePool* pool = dc.PoolById(dc.pool(kind).id());
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool, &dc.pool(kind));
  }
  EXPECT_EQ(dc.PoolById(PoolId()), nullptr);
  EXPECT_EQ(dc.PoolById(PoolId(9999)), nullptr);
}

// --- Deploy-level behaviour: one transaction per deploy. -------------------

TEST(DeployTxnTest, TeardownRestoresEnvsAndAttestationRegistry) {
  UdcCloudConfig config;
  config.datacenter.racks = 2;
  UdcCloud cloud(config);
  const TenantId tenant = cloud.RegisterTenant("t");
  auto spec = MedicalAppSpec();
  ASSERT_TRUE(spec.ok());

  ASSERT_EQ(cloud.envs().live_count(), 0u);
  ASSERT_EQ(cloud.attestation().provisioned_count(), 0u);
  auto deployment = cloud.Deploy(tenant, *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  EXPECT_GT(cloud.envs().live_count(), 0u);
  EXPECT_GT(cloud.attestation().provisioned_count(), 0u);

  (*deployment)->Teardown();
  EXPECT_EQ(cloud.envs().live_count(), 0u);
  EXPECT_EQ(cloud.attestation().provisioned_count(), 0u);
  EXPECT_EQ(cloud.datacenter().TotalAllocated(), ResourceVector());
}

TEST(DeployTxnTest, SharedDeviceIdentitiesSurviveOtherTeardown) {
  UdcCloudConfig config;
  config.datacenter.racks = 1;  // one rack: deployments share devices
  UdcCloud cloud(config);
  const TenantId tenant = cloud.RegisterTenant("t");
  Rng rng(7);
  auto spec = GenerateMicroserviceApp(rng, MicroserviceConfig{
                                               .chain_length = 2,
                                               .fanout_services = 0,
                                               .stateful_backend = false,
                                           });
  ASSERT_TRUE(spec.ok());

  auto first = cloud.Deploy(tenant, *spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cloud.Deploy(tenant, *spec);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  // Tearing down the first deployment must not retire identities the
  // second still relies on (they are ref-counted, not flat).
  (*first)->Teardown();
  for (const auto& [module, placement] : (*second)->placements()) {
    EXPECT_TRUE(cloud.attestation().IsProvisioned(placement.home.value()));
  }
  (*second)->Teardown();
  EXPECT_EQ(cloud.attestation().provisioned_count(), 0u);
}

// --- Randomized atomicity property test. -----------------------------------
//
// Everything a deploy can touch, snapshotted: pool aggregates and per-rack
// free capacities for every device kind, the environment manager's live and
// warm-pool state, and the attestation registry size. A failed deploy must
// leave all of it exactly as found — no stranded slices, no leaked
// environments or warm slots, no orphaned identities.
struct StateSnapshot {
  std::array<int64_t, kNumDeviceKinds> allocated{};
  std::array<std::vector<int64_t>, kNumDeviceKinds> free_by_rack;
  size_t live_envs = 0;
  size_t warm_entries = 0;
  size_t provisioned = 0;

  bool operator==(const StateSnapshot&) const = default;
};

StateSnapshot Snapshot(UdcCloud& cloud) {
  StateSnapshot snap;
  for (int i = 0; i < kNumDeviceKinds; ++i) {
    const auto kind = static_cast<DeviceKind>(i);
    const ResourcePool& pool = cloud.datacenter().pool(kind);
    snap.allocated[static_cast<size_t>(i)] = pool.TotalAllocated();
    snap.free_by_rack[static_cast<size_t>(i)] =
        pool.index().rack_free_totals();
  }
  snap.live_envs = cloud.envs().live_count();
  snap.warm_entries = cloud.envs().store()->live_contents();
  snap.provisioned = cloud.attestation().provisioned_count();
  return snap;
}

// Deploys randomized microservice apps into `cloud` until `target_failures`
// deploys have failed (capacity exhaustion), asserting atomicity of every
// failure. Successful deployments accumulate (shrinking free capacity) and
// are torn down at the end, which must restore the pre-test baseline.
void RunAtomicityScenario(UdcCloud& cloud, uint64_t seed,
                          const MicroserviceConfig& shape,
                          int target_failures) {
  const TenantId tenant = cloud.RegisterTenant("atomicity");
  const StateSnapshot baseline = Snapshot(cloud);
  Rng rng(seed);
  std::vector<std::unique_ptr<Deployment>> live;
  int failures = 0;
  for (int attempt = 0; attempt < 200 && failures < target_failures;
       ++attempt) {
    MicroserviceConfig config = shape;
    config.chain_length =
        static_cast<int>(rng.NextInt64InRange(1, shape.chain_length));
    config.work_scale =
        shape.work_scale * rng.NextDoubleInRange(0.5, 2.0);
    auto spec = GenerateMicroserviceApp(rng, config);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();

    const StateSnapshot before = Snapshot(cloud);
    auto deployment = cloud.Deploy(tenant, *spec);
    if (deployment.ok()) {
      live.push_back(std::move(*deployment));
      continue;
    }
    ++failures;
    // The property: a failed deploy is invisible. Pool aggregates, rack
    // free lists, env manager and attestation registry all read exactly as
    // they did before the attempt.
    EXPECT_EQ(Snapshot(cloud), before)
        << "failed deploy (attempt " << attempt
        << ") leaked state: " << deployment.status().ToString();
  }
  EXPECT_GE(failures, target_failures)
      << "scenario never exhausted capacity — not exercising abort";

  live.clear();  // teardown everything that succeeded
  EXPECT_EQ(Snapshot(cloud), baseline)
      << "teardown after the scenario did not restore the baseline";
}

TEST(PlacementAtomicityTest, GpuExhaustionAbortsClean) {
  UdcCloudConfig config;
  config.datacenter.racks = 1;
  config.datacenter.rack.gpu_boards = 0;  // GPU demand can never be met
  UdcCloud cloud(config);
  RunAtomicityScenario(cloud, /*seed=*/21, MicroserviceConfig{.chain_length = 4},
                       /*target_failures=*/3);
}

TEST(PlacementAtomicityTest, GpuExhaustionAbortsCleanWithStoreEnabled) {
  // The same exhaustion scenario with the store sharing warm slots across
  // tenants: aborts must additionally leave zero live store refs and
  // release every content-bound image quote.
  UdcCloudConfig config;
  config.datacenter.racks = 1;
  config.datacenter.rack.gpu_boards = 0;
  config.env_store.share_across_tenants = true;
  UdcCloud cloud(config);
  RunAtomicityScenario(cloud, /*seed=*/21, MicroserviceConfig{.chain_length = 4},
                       /*target_failures=*/3);
  EXPECT_EQ(cloud.envs().store()->live_env_refs(), 0);
  EXPECT_EQ(cloud.attestation().live_image_quotes(), 0u);
}

TEST(PlacementAtomicityTest, StorageExhaustionAbortsClean) {
  UdcCloudConfig config;
  config.datacenter.racks = 1;
  config.datacenter.rack.ssd_drives = 1;
  config.datacenter.rack.nvm_modules = 1;
  config.datacenter.rack.hdd_drives = 1;
  UdcCloud cloud(config);
  RunAtomicityScenario(
      cloud, /*seed=*/22,
      MicroserviceConfig{.chain_length = 3, .stateful_backend = true,
                         .work_scale = 4.0},
      /*target_failures=*/3);
}

TEST(PlacementAtomicityTest, ComputeExhaustionUnderChurnAbortsClean) {
  UdcCloudConfig config;
  config.datacenter.racks = 2;
  config.datacenter.rack.cpu_blades = 1;
  config.datacenter.rack.gpu_boards = 1;
  config.datacenter.rack.dram_modules = 1;
  UdcCloud cloud(config);
  RunAtomicityScenario(cloud, /*seed=*/23,
                       MicroserviceConfig{.chain_length = 5,
                                          .fanout_services = 3,
                                          .work_scale = 2.0},
                       /*target_failures=*/5);
}

}  // namespace
}  // namespace udc
