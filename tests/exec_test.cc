#include <gtest/gtest.h>

#include "src/exec/env_manager.h"
#include "src/exec/environment.h"
#include "src/sim/simulation.h"

namespace udc {
namespace {

TEST(IsolationTest, LatticeMatchesPaperTaxonomy) {
  // strongest: single-tenant TEE.
  EXPECT_EQ(IsolationOf(EnvKind::kTeeEnclave, TenancyMode::kSingleTenant),
            IsolationLevel::kStrongest);
  EXPECT_EQ(IsolationOf(EnvKind::kTeeVm, TenancyMode::kSingleTenant),
            IsolationLevel::kStrongest);
  // strong: TEE or single-tenant.
  EXPECT_EQ(IsolationOf(EnvKind::kTeeEnclave, TenancyMode::kShared),
            IsolationLevel::kStrong);
  EXPECT_EQ(IsolationOf(EnvKind::kContainer, TenancyMode::kSingleTenant),
            IsolationLevel::kStrong);
  // medium: unikernel / lwVM / sandboxed container.
  EXPECT_EQ(IsolationOf(EnvKind::kUnikernel, TenancyMode::kShared),
            IsolationLevel::kMedium);
  EXPECT_EQ(IsolationOf(EnvKind::kLightweightVm, TenancyMode::kShared),
            IsolationLevel::kMedium);
  EXPECT_EQ(IsolationOf(EnvKind::kSandboxedContainer, TenancyMode::kShared),
            IsolationLevel::kMedium);
  // weak: containers.
  EXPECT_EQ(IsolationOf(EnvKind::kContainer, TenancyMode::kShared),
            IsolationLevel::kWeak);
}

TEST(IsolationTest, OnlyStrongLevelsAreUserVerifiable) {
  EXPECT_FALSE(UserVerifiable(IsolationLevel::kWeak));
  EXPECT_FALSE(UserVerifiable(IsolationLevel::kMedium));
  EXPECT_TRUE(UserVerifiable(IsolationLevel::kStrong));
  EXPECT_TRUE(UserVerifiable(IsolationLevel::kStrongest));
}

TEST(IsolationTest, ProviderChoiceAvoidsEnclaveForGpuWithoutSupport) {
  EXPECT_EQ(ProviderChoiceFor(IsolationLevel::kStrong, /*needs_gpu=*/true,
                              /*tee_gpu_supported=*/false),
            EnvKind::kLightweightVm);
  EXPECT_EQ(ProviderChoiceFor(IsolationLevel::kStrong, /*needs_gpu=*/true,
                              /*tee_gpu_supported=*/true),
            EnvKind::kTeeEnclave);
  EXPECT_EQ(ProviderChoiceFor(IsolationLevel::kWeak, false, false),
            EnvKind::kContainer);
}

TEST(IsolationTest, NamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(IsolationLevel::kStrongest); ++i) {
    const auto level = static_cast<IsolationLevel>(i);
    IsolationLevel parsed;
    ASSERT_TRUE(ParseIsolationLevel(IsolationLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

TEST(EnvProfileTest, SecureEnvironmentsStartSlower) {
  const EnvProfile container = EnvProfile::DefaultFor(EnvKind::kContainer);
  const EnvProfile enclave = EnvProfile::DefaultFor(EnvKind::kTeeEnclave);
  const EnvProfile unikernel = EnvProfile::DefaultFor(EnvKind::kUnikernel);
  EXPECT_GT(enclave.cold_start, container.cold_start);
  EXPECT_LT(unikernel.cold_start, container.cold_start);
  EXPECT_GT(enclave.cpu_overhead, 1.0);
  EXPECT_TRUE(enclave.attestable);
  EXPECT_FALSE(enclave.supports_gpu);
  EXPECT_FALSE(container.attestable);
}

TEST(EnvironmentTest, MeasurementBindsImageAndTenant) {
  ExecEnvironment e1(0, EnvKind::kTeeEnclave, TenancyMode::kSingleTenant,
                     TenantId(1), NodeId(1));
  ExecEnvironment e2(1, EnvKind::kTeeEnclave, TenancyMode::kSingleTenant,
                     TenantId(1), NodeId(1));
  EXPECT_TRUE(DigestEqual(e1.measurement(), e2.measurement()));
  e2.SetImage("other-image");
  EXPECT_FALSE(DigestEqual(e1.measurement(), e2.measurement()));
  ExecEnvironment e3(2, EnvKind::kTeeEnclave, TenancyMode::kSingleTenant,
                     TenantId(2), NodeId(1));
  EXPECT_FALSE(DigestEqual(e1.measurement(), e3.measurement()));
}

TEST(EnvironmentTest, AdjustComputeAppliesOverhead) {
  ExecEnvironment enclave(0, EnvKind::kTeeEnclave, TenancyMode::kShared,
                          TenantId(1), NodeId(1));
  EXPECT_EQ(enclave.AdjustCompute(SimTime::Millis(100)).micros(), 130000);
  ExecEnvironment process(1, EnvKind::kBareProcess, TenancyMode::kShared,
                          TenantId(1), NodeId(1));
  EXPECT_EQ(process.AdjustCompute(SimTime::Millis(100)).micros(), 100000);
}

class EnvManagerTest : public ::testing::Test {
 protected:
  Simulation sim_;
  EnvManager manager_{&sim_};
};

TEST_F(EnvManagerTest, ColdStartChargesProfileLatency) {
  ExecEnvironment* ready_env = nullptr;
  LaunchOptions options;
  options.kind = EnvKind::kContainer;
  ExecEnvironment* env = manager_.Launch(
      TenantId(1), NodeId(1), options,
      [&](ExecEnvironment* e) { ready_env = e; });
  EXPECT_EQ(env->state(), EnvState::kStarting);
  sim_.RunToCompletion();
  EXPECT_EQ(ready_env, env);
  EXPECT_EQ(env->state(), EnvState::kReady);
  EXPECT_EQ(sim_.now(), EnvProfile::DefaultFor(EnvKind::kContainer).cold_start);
  EXPECT_EQ(sim_.metrics().counter("exec.cold_starts"), 1);
}

TEST_F(EnvManagerTest, WarmPoolCutsStartLatency) {
  manager_.Prewarm(EnvKind::kTeeEnclave, TenantId(1), 1);
  LaunchOptions options;
  options.kind = EnvKind::kTeeEnclave;
  manager_.Launch(TenantId(1), NodeId(1), options, nullptr);
  sim_.RunToCompletion();
  EXPECT_EQ(sim_.now(), EnvProfile::DefaultFor(EnvKind::kTeeEnclave).warm_start);
  EXPECT_EQ(sim_.metrics().counter("exec.warm_starts"), 1);
  EXPECT_EQ(manager_.WarmSlots(EnvKind::kTeeEnclave, TenantId(1)), 0);
}

TEST_F(EnvManagerTest, WarmSlotsAreTenantScoped) {
  manager_.Prewarm(EnvKind::kContainer, TenantId(1), 1);
  LaunchOptions options;
  options.kind = EnvKind::kContainer;
  manager_.Launch(TenantId(2), NodeId(1), options, nullptr);  // other tenant
  sim_.RunToCompletion();
  EXPECT_EQ(sim_.metrics().counter("exec.cold_starts"), 1);
  EXPECT_EQ(manager_.WarmSlots(EnvKind::kContainer, TenantId(1)), 1);
}

TEST_F(EnvManagerTest, StopKeepWarmCreditsPoolAndReaps) {
  LaunchOptions options;
  options.kind = EnvKind::kLightweightVm;
  ExecEnvironment* env = manager_.Launch(TenantId(1), NodeId(1), options,
                                         nullptr);
  sim_.RunToCompletion();
  EXPECT_EQ(manager_.live_count(), 1u);
  ASSERT_TRUE(manager_.Stop(env, /*keep_warm=*/true).ok());
  EXPECT_EQ(manager_.WarmSlots(EnvKind::kLightweightVm, TenantId(1)), 1);
  EXPECT_EQ(manager_.live_count(), 0u);  // stopped envs are reaped
}

TEST_F(EnvManagerTest, ChurnDoesNotAccumulateStoppedEnvs) {
  LaunchOptions options;
  options.kind = EnvKind::kContainer;
  for (int i = 0; i < 100; ++i) {
    ExecEnvironment* env = manager_.Launch(TenantId(1), NodeId(1), options,
                                           nullptr);
    sim_.RunToCompletion();
    ASSERT_TRUE(manager_.Stop(env, /*keep_warm=*/true).ok());
  }
  EXPECT_EQ(manager_.live_count(), 0u);
  // One warm slot banked per stop; every launch after the first was warm.
  EXPECT_EQ(manager_.WarmSlots(EnvKind::kContainer, TenantId(1)), 1);
  EXPECT_EQ(sim_.metrics().counter("exec.cold_starts"), 1);
  EXPECT_EQ(sim_.metrics().counter("exec.warm_starts"), 99);
}

TEST_F(EnvManagerTest, ExhaustedWarmPoolEntriesAreErased) {
  LaunchOptions options;
  options.kind = EnvKind::kContainer;
  // Churn across many distinct tenants, banking one warm slot each and then
  // consuming it: the warm pool must not retain a zero-credit key per
  // tenant ever seen — not in its content index, not in its cache.
  const EnvStore& store = *manager_.store();
  for (uint64_t t = 1; t <= 50; ++t) {
    ExecEnvironment* env =
        manager_.Launch(TenantId(t), NodeId(1), options, nullptr);
    sim_.RunToCompletion();
    ASSERT_TRUE(manager_.Stop(env, /*keep_warm=*/true).ok());
    EXPECT_EQ(store.live_contents(), 1u);
    env = manager_.Launch(TenantId(t), NodeId(1), options, nullptr);
    sim_.RunToCompletion();
    ASSERT_TRUE(manager_.Stop(env, /*keep_warm=*/false).ok());
    EXPECT_EQ(store.live_contents(), 0u);
    EXPECT_EQ(store.distinct_contents(), 0u);
    EXPECT_EQ(store.PerRackStats().at(0).entries, 0u);
    EXPECT_EQ(manager_.WarmSlots(EnvKind::kContainer, TenantId(t)), 0);
  }
  EXPECT_EQ(sim_.metrics().counter("exec.warm_starts"), 50);
}

TEST_F(EnvManagerTest, StopBeforeReadySkipsOnReadyCallback) {
  LaunchOptions options;
  options.kind = EnvKind::kFullVm;
  bool ready_fired = false;
  ExecEnvironment* env = manager_.Launch(
      TenantId(1), NodeId(1), options,
      [&](ExecEnvironment*) { ready_fired = true; });
  ASSERT_TRUE(manager_.Stop(env, /*keep_warm=*/false).ok());
  sim_.RunToCompletion();  // the scheduled ready event still fires
  EXPECT_FALSE(ready_fired);
  EXPECT_EQ(manager_.live_count(), 0u);
}

TEST_F(EnvManagerTest, NextStartLatencyPredicts) {
  LaunchOptions options;
  options.kind = EnvKind::kContainer;
  EXPECT_EQ(manager_.NextStartLatency(EnvKind::kContainer, TenantId(1), options),
            EnvProfile::DefaultFor(EnvKind::kContainer).cold_start);
  manager_.Prewarm(EnvKind::kContainer, TenantId(1), 1);
  EXPECT_EQ(manager_.NextStartLatency(EnvKind::kContainer, TenantId(1), options),
            EnvProfile::DefaultFor(EnvKind::kContainer).warm_start);
}

}  // namespace
}  // namespace udc
