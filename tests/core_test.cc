#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/billing.h"
#include "src/core/planner.h"
#include "src/core/runtime.h"
#include "src/core/tuner.h"
#include "src/core/udc_cloud.h"
#include "src/core/verifier.h"
#include "src/workload/medical.h"

namespace udc {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : dc_(DatacenterConfig{}), prices_(PriceList::DefaultOnDemand()),
        profiler_(&dc_, &prices_) {}

  Module MakeTask(double work) {
    Module m;
    m.id = ModuleId(1);
    m.name = "T";
    m.kind = ModuleKind::kTask;
    m.work_units = work;
    m.output_size = Bytes::MiB(1);
    return m;
  }

  DisaggregatedDatacenter dc_;
  PriceList prices_;
  DryRunProfiler profiler_;
};

TEST_F(PlannerTest, GpuProfileFasterCpuCheaper) {
  const Module m = MakeTask(100000);
  const auto cpu = profiler_.ProfileOn(m, ResourceKind::kCpu);
  const auto gpu = profiler_.ProfileOn(m, ResourceKind::kGpu);
  ASSERT_TRUE(cpu.ok());
  ASSERT_TRUE(gpu.ok());
  EXPECT_LT(gpu->estimated_time, cpu->estimated_time);
  EXPECT_LT(cpu->estimated_cost, gpu->estimated_cost);
}

TEST_F(PlannerTest, FastestObjectivePicksGpu) {
  const Module m = MakeTask(100000);
  ResourceAspect aspect;
  aspect.defined = true;
  aspect.objective = ResourceObjective::kFastest;
  const auto resolved = ResolveDemand(m, aspect, profiler_);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->chosen_profile.compute, ResourceKind::kGpu);
  EXPECT_GT(resolved->demand.Get(ResourceKind::kGpu), 0);
  // GPU orchestration needs only a sliver of CPU (the p3.16xlarge lesson).
  EXPECT_LE(resolved->demand.Get(ResourceKind::kCpu), 1000);
}

TEST_F(PlannerTest, CheapestObjectivePicksCpu) {
  const Module m = MakeTask(100000);
  ResourceAspect aspect;
  aspect.defined = true;
  aspect.objective = ResourceObjective::kCheapest;
  const auto resolved = ResolveDemand(m, aspect, profiler_);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->chosen_profile.compute, ResourceKind::kCpu);
  EXPECT_EQ(resolved->demand.Get(ResourceKind::kGpu), 0);
}

TEST_F(PlannerTest, AllowedComputeRestrictsCandidates) {
  const Module m = MakeTask(100000);
  ResourceAspect aspect;
  aspect.defined = true;
  aspect.objective = ResourceObjective::kFastest;
  aspect.allowed_compute = {ResourceKind::kCpu, ResourceKind::kFpga};
  const auto resolved = ResolveDemand(m, aspect, profiler_);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->chosen_profile.compute, ResourceKind::kFpga);
}

TEST_F(PlannerTest, ExplicitDemandGetsComputeAndMemoryFloors) {
  const Module m = MakeTask(1000);
  ResourceAspect aspect;
  aspect.defined = true;
  aspect.objective = ResourceObjective::kExplicit;
  aspect.demand = ResourceVector::MilliGpu(500);
  const auto resolved = ResolveDemand(m, aspect, profiler_);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->demand.Get(ResourceKind::kGpu), 500);
  EXPECT_GT(resolved->demand.Get(ResourceKind::kDram), 0);  // floored
}


TEST_F(PlannerTest, DeadlinePicksCheapestMeetingIt) {
  const Module m = MakeTask(100000);  // cpu: 100ms, fpga: ~8.3ms, gpu: 2.5ms
  ResourceAspect aspect;
  aspect.defined = true;
  aspect.objective = ResourceObjective::kCheapest;
  aspect.deadline = SimTime::Millis(10);  // rules out CPU
  const auto resolved = ResolveDemand(m, aspect, profiler_);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  // The 100ms CPU candidate is excluded; among the survivors the GPU is
  // actually cheapest *per run* (it finishes 3x sooner than FPGA).
  EXPECT_NE(resolved->chosen_profile.compute, ResourceKind::kCpu);
  EXPECT_LE(resolved->chosen_profile.estimated_time, SimTime::Millis(10));
}

TEST_F(PlannerTest, InfeasibleDeadlineFailsLoudly) {
  const Module m = MakeTask(100000000);  // even a GPU takes 2.5s
  ResourceAspect aspect;
  aspect.defined = true;
  aspect.deadline = SimTime::Millis(1);
  const auto resolved = ResolveDemand(m, aspect, profiler_);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PlannerTest, BudgetPicksFastestWithinIt) {
  const Module m = MakeTask(100000);
  ResourceAspect aspect;
  aspect.defined = true;
  // $2/h affords CPU ($0.03) and FPGA ($1.66) but not the GPU ($2.47).
  aspect.hourly_budget = Money::FromDollars(2.0);
  const auto resolved = ResolveDemand(m, aspect, profiler_);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_NE(resolved->chosen_profile.compute, ResourceKind::kGpu);
  // Among the affordable candidates the fastest wins.
  EXPECT_EQ(resolved->chosen_profile.compute, ResourceKind::kFpga);
}

TEST_F(PlannerTest, GoalsParseFromUdcl) {
  const auto spec = ParseAppSpec(R"(
app goals
task fast work=100000
aspect fast resource objective=cheapest deadline=10ms
task frugal work=100000
aspect frugal resource budget=0.5
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const AspectSet fast = spec->AspectsFor(spec->graph.IdOf("fast"));
  ASSERT_TRUE(fast.resource.deadline.has_value());
  EXPECT_EQ(*fast.resource.deadline, SimTime::Millis(10));
  const AspectSet frugal = spec->AspectsFor(spec->graph.IdOf("frugal"));
  ASSERT_TRUE(frugal.resource.hourly_budget.has_value());
  EXPECT_EQ(frugal.resource.hourly_budget->micro_usd(), 500000);
  // Bad literals are rejected with line numbers.
  EXPECT_FALSE(ParseAppSpec(
                   "app x\ntask t work=1\naspect t resource deadline=10\n")
                   .ok());
  EXPECT_FALSE(ParseAppSpec(
                   "app x\ntask t work=1\naspect t resource budget=-1\n")
                   .ok());
}

TEST_F(PlannerTest, DataModuleMediumSelection) {
  Module data;
  data.id = ModuleId(2);
  data.kind = ModuleKind::kData;
  data.data_size = Bytes::GiB(10);

  ResourceAspect fastest;
  fastest.defined = true;
  fastest.objective = ResourceObjective::kFastest;
  EXPECT_EQ(ResolveDemand(data, fastest, profiler_)->storage_medium,
            ResourceKind::kDram);

  ResourceAspect cheapest;
  cheapest.defined = true;
  cheapest.objective = ResourceObjective::kCheapest;
  EXPECT_EQ(ResolveDemand(data, cheapest, profiler_)->storage_medium,
            ResourceKind::kHdd);

  ResourceAspect explicit_ssd;
  explicit_ssd.defined = true;
  explicit_ssd.objective = ResourceObjective::kExplicit;
  explicit_ssd.demand = ResourceVector::Ssd(Bytes::GiB(10));
  const auto resolved = ResolveDemand(data, explicit_ssd, profiler_);
  EXPECT_EQ(resolved->storage_medium, ResourceKind::kSsd);
  EXPECT_EQ(resolved->demand.Get(ResourceKind::kSsd), Bytes::GiB(10).bytes());
}

class DeployTest : public ::testing::Test {
 protected:
  DeployTest() {
    UdcCloudConfig config;
    config.datacenter.racks = 4;
    cloud_ = std::make_unique<UdcCloud>(config);
    tenant_ = cloud_->RegisterTenant("hospital");
    auto spec = MedicalAppSpec();
    EXPECT_TRUE(spec.ok());
    spec_ = std::make_unique<AppSpec>(*std::move(spec));
  }

  std::unique_ptr<UdcCloud> cloud_;
  TenantId tenant_;
  std::unique_ptr<AppSpec> spec_;
};

TEST_F(DeployTest, MedicalAppDeploysFully) {
  auto deployment = cloud_->Deploy(tenant_, *spec_);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  EXPECT_EQ((*deployment)->objects().size(), 10u);
  for (const ModuleId id : spec_->graph.ModuleIds()) {
    EXPECT_NE((*deployment)->PlacementOf(id), nullptr);
  }
}

TEST_F(DeployTest, ColocationHintLandsSameRack) {
  auto deployment = cloud_->Deploy(tenant_, *spec_);
  ASSERT_TRUE(deployment.ok());
  const Placement* a1 = (*deployment)->PlacementOf(spec_->graph.IdOf("A1"));
  const Placement* a2 = (*deployment)->PlacementOf(spec_->graph.IdOf("A2"));
  EXPECT_EQ(a1->rack, a2->rack);
  // Affinity: A3 near S1.
  const Placement* a3 = (*deployment)->PlacementOf(spec_->graph.IdOf("A3"));
  const Placement* s1 = (*deployment)->PlacementOf(spec_->graph.IdOf("S1"));
  EXPECT_EQ(a3->rack, s1->rack);
}

TEST_F(DeployTest, GpuModulesGetGpuSlices) {
  auto deployment = cloud_->Deploy(tenant_, *spec_);
  ASSERT_TRUE(deployment.ok());
  const ResourceVector a2 =
      (*deployment)->ResourcesOf(spec_->graph.IdOf("A2"));
  EXPECT_EQ(a2.Get(ResourceKind::kGpu), 1000);
  // Exactly what was asked — no instance-shaped bundle.
  EXPECT_LE(a2.Get(ResourceKind::kCpu), 1000);
}

TEST_F(DeployTest, ReplicationPlacesDistinctDevices) {
  auto deployment = cloud_->Deploy(tenant_, *spec_);
  ASSERT_TRUE(deployment.ok());
  const Placement* s1 = (*deployment)->PlacementOf(spec_->graph.IdOf("S1"));
  ASSERT_EQ(s1->replica_devices.size(), 3u);
  EXPECT_NE(s1->replica_devices[0], s1->replica_devices[1]);
  EXPECT_NE(s1->replica_devices[1], s1->replica_devices[2]);
  EXPECT_EQ(s1->storage_medium, ResourceKind::kSsd);
  EXPECT_EQ(s1->effective_consistency, ConsistencyLevel::kSequential);
  EXPECT_NE((*deployment)->StoreOf(spec_->graph.IdOf("S1")), nullptr);
}

TEST_F(DeployTest, SingleTenantModulesGetExclusiveDevices) {
  auto deployment = cloud_->Deploy(tenant_, *spec_);
  ASSERT_TRUE(deployment.ok());
  const Placement* a4 = (*deployment)->PlacementOf(spec_->graph.IdOf("A4"));
  const ResourceUnit* unit = (*deployment)->FindUnit(a4->unit);
  const DeviceId cpu_device = unit->PrimaryDevice(ResourceKind::kCpu);
  const Device* device =
      cloud_->datacenter().pool(DeviceKind::kCpuBlade).FindDevice(cpu_device);
  ASSERT_NE(device, nullptr);
  EXPECT_TRUE(device->exclusive());
  EXPECT_EQ(device->exclusive_tenant(), tenant_);
}

TEST_F(DeployTest, TeeIfCpuSelectsEnclaveOnCpu) {
  auto deployment = cloud_->Deploy(tenant_, *spec_);
  ASSERT_TRUE(deployment.ok());
  // A4 asked for CPU explicitly with tee_if_cpu -> enclave.
  const Placement* a4 = (*deployment)->PlacementOf(spec_->graph.IdOf("A4"));
  EXPECT_EQ(a4->env_kind, EnvKind::kTeeEnclave);
  // A2 is on GPU without TEE-GPU support -> not an enclave.
  const Placement* a2 = (*deployment)->PlacementOf(spec_->graph.IdOf("A2"));
  EXPECT_NE(a2->env_kind, EnvKind::kTeeEnclave);
}

TEST_F(DeployTest, TeardownReleasesEverything) {
  {
    auto deployment = cloud_->Deploy(tenant_, *spec_);
    ASSERT_TRUE(deployment.ok());
    EXPECT_FALSE(cloud_->datacenter().TotalAllocated().IsZero());
  }  // destructor tears down
  EXPECT_TRUE(cloud_->datacenter().TotalAllocated().IsZero());
}

TEST_F(DeployTest, InsufficientCapacityRollsBack) {
  UdcCloudConfig tiny;
  tiny.datacenter.racks = 1;
  tiny.datacenter.rack.gpu_boards = 0;  // medical needs GPUs
  UdcCloud small(tiny);
  const TenantId t = small.RegisterTenant("h");
  auto deployment = small.Deploy(t, *spec_);
  EXPECT_FALSE(deployment.ok());
  EXPECT_TRUE(small.datacenter().TotalAllocated().IsZero());
}

TEST_F(DeployTest, ConflictRejectPolicySurfacesConflict) {
  UdcCloudConfig config;
  config.scheduler.conflict_policy = ConflictPolicy::kReject;
  UdcCloud strict(config);
  const TenantId t = strict.RegisterTenant("h");
  // Two tasks accessing one data module with different explicit levels.
  const auto spec = ParseAppSpec(R"(
app conflict
data D size=1GiB
task R work=10
task W work=10
edge D -> R
edge W -> D
aspect R dist consistency=sequential
aspect W dist consistency=release
aspect D dist replication=2
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto deployment = strict.Deploy(t, *spec);
  ASSERT_FALSE(deployment.ok());
  EXPECT_EQ(deployment.status().code(), StatusCode::kConflict);
  // Default policy resolves to the strictest level instead.
  auto resolved = cloud_->Deploy(tenant_, *spec);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ((*resolved)->PlacementOf(spec->graph.IdOf("D"))->effective_consistency,
            ConsistencyLevel::kSequential);
}

class RuntimeTest : public DeployTest {
 protected:
  RuntimeTest() {
    auto deployment = cloud_->Deploy(tenant_, *spec_);
    EXPECT_TRUE(deployment.ok());
    deployment_ = std::move(*deployment);
    runtime_ = std::make_unique<DagRuntime>(cloud_->sim(), deployment_.get());
  }

  // What each module of the deployment holds on `device` of `pool`, by
  // module name; modules with no slice there are absent.
  std::map<std::string, int64_t> HoldersOf(PoolId pool, DeviceId device) const {
    std::map<std::string, int64_t> holders;
    for (const auto& [module, placement] : deployment_->placements()) {
      const ResourceUnit* unit = deployment_->FindUnit(placement.unit);
      for (const PoolAllocation& alloc : unit->allocations) {
        for (const AllocationSlice& slice : alloc.slices) {
          if (alloc.pool == pool && slice.device == device) {
            holders[placement.name] += slice.amount;
          }
        }
      }
    }
    return holders;
  }

  // Sabotage: on the first device, in placement order, that two or more
  // modules hold slices on (in the medical app A1, A4 and B1 share a CPU
  // blade), the provider lowers the tenant's row to the largest of their
  // holdings. The row covers each module's slices but not their sum.
  // Returns the modules holding slices there; TearDown() gives the units
  // back before the deployment is torn down.
  void LowerSharedRow(std::map<std::string, int64_t>* holders) {
    for (const auto& [module, placement] : deployment_->placements()) {
      for (const PoolAllocation& alloc :
           deployment_->FindUnit(placement.unit)->allocations) {
        for (const AllocationSlice& slice : alloc.slices) {
          *holders = HoldersOf(alloc.pool, slice.device);
          if (holders->size() < 2) {
            continue;
          }
          int64_t largest = 0;
          for (const auto& [name, amount] : *holders) {
            largest = std::max(largest, amount);
          }
          lowered_ = deployment_->datacenter()->PoolById(alloc.pool)->FindDevice(
              slice.device);
          ASSERT_NE(lowered_, nullptr);
          taken_ = lowered_->AllocatedBy(tenant_) - largest;
          ASSERT_GT(taken_, 0);
          ASSERT_TRUE(lowered_->Release(tenant_, taken_).ok());
          return;
        }
      }
    }
    FAIL() << "no device holds slices of two modules";
  }
  void TearDown() override {
    if (lowered_ != nullptr) {
      EXPECT_TRUE(lowered_->Allocate(tenant_, taken_).ok());
    }
  }

  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<DagRuntime> runtime_;
  Device* lowered_ = nullptr;
  int64_t taken_ = 0;
};

TEST_F(RuntimeTest, RunOnceProducesOrderedStages) {
  const auto report = runtime_->RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->stages.size(), 6u);
  EXPECT_GT(report->end_to_end, SimTime(0));
  // DAG order: A1 finishes before A2 starts, A2/A3 before A4.
  const StageStats* a1 = report->StageOf("A1");
  const StageStats* a2 = report->StageOf("A2");
  const StageStats* a4 = report->StageOf("A4");
  ASSERT_NE(a1, nullptr);
  ASSERT_NE(a2, nullptr);
  ASSERT_NE(a4, nullptr);
  EXPECT_LE(a1->finish, a2->start);
  EXPECT_LE(a2->finish, a4->start);
  EXPECT_GE(report->resource_cost.micro_usd(), 0);
}

TEST_F(RuntimeTest, GpuStageComputesFasterThanItWouldOnCpu) {
  const auto report = runtime_->RunOnce();
  ASSERT_TRUE(report.ok());
  const StageStats* a2 = report->StageOf("A2");  // 30000 units on GPU
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->compute_kind, ResourceKind::kGpu);
  // On a reference core 30000 units would be 30ms; the GPU slice must beat it.
  EXPECT_LT(a2->compute_time, SimTime::Millis(30));
}

TEST_F(RuntimeTest, ProtectionAddsCryptoTime) {
  // B1 reads S1 (encrypted+integrity) and S2 (encrypted+integrity):
  // its input time must exceed the bare transfer time.
  const auto report = runtime_->RunOnce();
  ASSERT_TRUE(report.ok());
  const StageStats* b1 = report->StageOf("B1");
  ASSERT_NE(b1, nullptr);
  EXPECT_GT(b1->input_time, SimTime(0));
}

TEST_F(RuntimeTest, CheckpointRecoveryBeatsReexecuteForLateFailures) {
  CheckpointStore checkpoints;
  const ModuleId a3 = spec_->graph.IdOf("A3");  // checkpointing enabled
  const auto with_ckpt =
      runtime_->SimulateFailure(a3, /*fail_fraction=*/0.9,
                                /*checkpoint_interval_fraction=*/0.2,
                                &checkpoints);
  ASSERT_TRUE(with_ckpt.ok()) << with_ckpt.status().ToString();

  // Compare against a clone of the module under re-execute handling: B1 has
  // no checkpointing; approximate by comparing to analytic re-execute cost.
  const auto stage = runtime_->ComputeStage(a3);
  ASSERT_TRUE(stage.ok());
  const SimTime reexec = Scale(stage->compute_time, 0.9) +
                         EnvProfile::DefaultFor(EnvKind::kLightweightVm).cold_start +
                         stage->compute_time;
  EXPECT_LT(*with_ckpt, reexec);
  EXPECT_GT(checkpoints.CountFor(a3), 0u);
}

TEST_F(RuntimeTest, FailFractionValidated) {
  CheckpointStore checkpoints;
  EXPECT_FALSE(runtime_
                   ->SimulateFailure(spec_->graph.IdOf("A3"), 1.5, 0.2,
                                     &checkpoints)
                   .ok());
}

TEST_F(RuntimeTest, TunerGrowsHotModules) {
  AdaptiveTuner tuner(cloud_->region_router(), deployment_.get());
  const ModuleId a4 = spec_->graph.IdOf("A4");
  const int64_t before =
      deployment_->ResourcesOf(a4).Get(ResourceKind::kCpu);
  for (int i = 0; i < 5; ++i) {
    const auto action = tuner.Observe(a4, 0.97);
    ASSERT_TRUE(action.ok()) << action.status().ToString();
  }
  const int64_t after = deployment_->ResourcesOf(a4).Get(ResourceKind::kCpu);
  EXPECT_GT(after, before);
  EXPECT_GT(tuner.resizes(), 0);
}

TEST_F(RuntimeTest, TunerShrinksColdModules) {
  AdaptiveTuner tuner(cloud_->region_router(), deployment_.get());
  const ModuleId b2 = spec_->graph.IdOf("B2");
  const int64_t before =
      deployment_->ResourcesOf(b2).Get(ResourceKind::kCpu);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tuner.Observe(b2, 0.05).ok());
  }
  const int64_t after = deployment_->ResourcesOf(b2).Get(ResourceKind::kCpu);
  EXPECT_LT(after, before);
  EXPECT_GE(after, 250);  // floor respected
}

// A shrink at the 250m floor changes nothing, so it brings no relief to
// expect: the average stays what the samples say, and a module that idled
// at the floor grows only once its own samples cross the high watermark.
TEST(TunerTest, NoOpShrinkAtTheFloorLeavesTheAverageAlone) {
  UdcCloud cloud;
  const TenantId tenant = cloud.RegisterTenant("t");
  const auto spec =
      ParseAppSpec("app x\ntask t work=1\naspect t resource cpu=250m\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto deployment = cloud.Deploy(tenant, *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const ModuleId task = spec->graph.IdOf("t");
  const auto cpu = [&] {
    return (*deployment)->ResourcesOf(task).Get(ResourceKind::kCpu);
  };
  ASSERT_EQ(cpu(), 250);

  AdaptiveTuner tuner(cloud.region_router(), deployment->get());
  for (int window = 0; window < 4; ++window) {
    const auto delta = tuner.Observe(task, 0.18);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    EXPECT_EQ(*delta, 0);
  }
  // The average climbs 0.43, 0.60, 0.72, 0.80: under the 0.85 watermark.
  for (int window = 0; window < 4; ++window) {
    ASSERT_TRUE(tuner.Observe(task, 1.0).ok());
  }
  EXPECT_EQ(cpu(), 250);
  EXPECT_EQ(tuner.resizes(), 0);
}


TEST_F(RuntimeTest, TeeGpuSupportEnablesEnclaveOnGpu) {
  // Graviton-style hardware support (sec. 3.3): with TEE-on-GPU available,
  // the provider realizes strong isolation for GPU modules with an enclave
  // instead of falling back to a single-tenant lightweight VM.
  UdcCloudConfig config;
  config.scheduler.tee_gpu_supported = true;
  UdcCloud graviton(config);
  const TenantId t = graviton.RegisterTenant("h");
  auto deployment = graviton.Deploy(t, *spec_);
  ASSERT_TRUE(deployment.ok());
  const Placement* a2 = (*deployment)->PlacementOf(spec_->graph.IdOf("A2"));
  EXPECT_EQ(a2->env_kind, EnvKind::kTeeEnclave);
}

TEST_F(RuntimeTest, BillLinesCoverEveryObject) {
  const Bill bill = cloud_->billing().BillFor(*deployment_, SimTime(0),
                                              SimTime::Hours(1));
  ASSERT_EQ(bill.lines.size(), deployment_->objects().size());
  Money sum;
  for (const BillLine& line : bill.lines) {
    EXPECT_GE(line.amount.micro_usd(), 0);
    sum += line.amount;
  }
  EXPECT_EQ(sum, bill.total);
  EXPECT_NE(bill.Table().find("TOTAL"), std::string::npos);
}

TEST_F(RuntimeTest, VerifierPassesHonestDeployment) {
  const auto report = cloud_->Verify(deployment_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->all_ok) << report->Table();
  // Strong-isolation modules got their environments checked.
  bool a4_env_checked = false;
  for (const auto& v : report->modules) {
    if (v.name == "A4") {
      a4_env_checked = v.env_checked;
      EXPECT_TRUE(v.env_ok);
    }
    if (v.name == "S1") {
      EXPECT_TRUE(v.replication_checked);
      EXPECT_TRUE(v.replication_ok);
    }
    if (v.name == "B2") {
      EXPECT_FALSE(v.env_checked);  // weak isolation: trust the provider
    }
  }
  EXPECT_TRUE(a4_env_checked);
}

TEST_F(RuntimeTest, VerifierDetectsIsolationDowngrade) {
  // Sabotage: replace A4's environment with a shared container (what a
  // cheating provider would do to save cost).
  const Placement* a4 = deployment_->PlacementOf(spec_->graph.IdOf("A4"));
  ResourceUnit* unit = deployment_->FindUnit(a4->unit);
  LaunchOptions cheap;
  cheap.kind = EnvKind::kContainer;
  cheap.tenancy = TenancyMode::kShared;
  unit->env = cloud_->envs().Launch(tenant_, a4->home, cheap, nullptr);
  cloud_->sim()->RunToCompletion();

  const auto report = cloud_->Verify(deployment_.get());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->all_ok);
  for (const auto& v : report->modules) {
    if (v.name == "A4") {
      EXPECT_TRUE(v.env_checked);
      EXPECT_FALSE(v.env_ok);
    }
  }
}

TEST_F(RuntimeTest, VerifierDetectsShrunkLedgerRow) {
  // Sabotage: the provider quietly takes back part of A4's CPU slice, so the
  // device's own ledger row for the tenant falls one unit below the slice.
  // The row still exists and still names the device. The row must cover
  // everything the deployment holds on the device, so every module with
  // slices there fails, not only A4.
  const Placement* a4 = deployment_->PlacementOf(spec_->graph.IdOf("A4"));
  const ResourceUnit* unit = deployment_->FindUnit(a4->unit);
  ASSERT_FALSE(unit->allocations.empty());
  const PoolAllocation& alloc = unit->allocations.front();
  ASSERT_FALSE(alloc.slices.empty());
  const AllocationSlice& slice = alloc.slices.front();
  ASSERT_GT(slice.amount, 1);
  const std::map<std::string, int64_t> holders =
      HoldersOf(alloc.pool, slice.device);
  ASSERT_TRUE(holders.contains("A4"));
  Device* device =
      deployment_->datacenter()->PoolById(alloc.pool)->FindDevice(slice.device);
  ASSERT_NE(device, nullptr);
  const int64_t taken = device->AllocatedBy(tenant_) - slice.amount + 1;
  ASSERT_TRUE(device->Release(tenant_, taken).ok());
  ASSERT_GT(device->AllocatedBy(tenant_), 0);

  const auto report = cloud_->Verify(deployment_.get());
  // Give the units back before anything else runs, teardown included.
  ASSERT_TRUE(device->Allocate(tenant_, taken).ok());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->all_ok);
  for (const auto& v : report->modules) {
    if (holders.contains(v.name)) {
      EXPECT_TRUE(v.resources_checked) << v.name;
      EXPECT_FALSE(v.resources_ok) << v.name;
      EXPECT_NE(v.detail.find("quotes"), std::string::npos) << v.detail;
    } else {
      EXPECT_TRUE(v.AllChecksPassed()) << v.name << ": " << v.detail;
    }
  }
  // With the row restored, the same deployment verifies again.
  const auto restored = cloud_->Verify(deployment_.get());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->all_ok) << restored->Table();
}

// The row on a device several modules share covers each module's slices
// but not their sum, so every one of them fails.
TEST_F(RuntimeTest, VerifierCatchesARowShortOfTheDeploymentsTotalOnADevice) {
  std::map<std::string, int64_t> holders;
  ASSERT_NO_FATAL_FAILURE(LowerSharedRow(&holders));
  const auto report = cloud_->Verify(deployment_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->all_ok) << report->Table();
  size_t failed = 0;
  for (const auto& v : report->modules) {
    if (holders.contains(v.name)) {
      ++failed;
      EXPECT_FALSE(v.resources_ok) << v.name;
      EXPECT_NE(v.detail.find("the deployment holds there"), std::string::npos)
          << v.detail;
    } else {
      EXPECT_TRUE(v.AllChecksPassed()) << v.name << ": " << v.detail;
    }
  }
  EXPECT_EQ(failed, holders.size());
}

// The same sabotage through VerifyModule, the continuous auditor's path:
// each module is checked against the deployment's whole holding on its
// devices, not against its own slices alone.
TEST_F(RuntimeTest, VerifyModuleCatchesARowShortOfTheDeploymentsTotalOnADevice) {
  std::map<std::string, int64_t> holders;
  ASSERT_NO_FATAL_FAILURE(LowerSharedRow(&holders));
  FulfillmentVerifier verifier(cloud_->sim(), cloud_->vendor_root(),
                               &cloud_->attestation());
  std::map<std::string, bool> resources_ok;
  for (const auto& [module, placement] : deployment_->placements()) {
    const auto v = verifier.VerifyModule(deployment_.get(), module);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    resources_ok[placement.name] = v->resources_ok;
  }
  for (const auto& [name, ok] : resources_ok) {
    EXPECT_EQ(ok, !holders.contains(name)) << name;
  }
}

// One resource quote per device the deployment holds slices on, however
// many of its modules share the device, plus one environment quote per
// verifiable task and one replica quote per distinct replica device.
TEST_F(RuntimeTest, VerifierQuotesEachDeviceTheDeploymentHoldsOnce) {
  std::set<std::pair<PoolId, DeviceId>> devices;
  size_t device_per_allocation = 0;  // what quoting per allocation would ask
  size_t environments = 0;
  size_t replicas = 0;
  for (const auto& [module, placement] : deployment_->placements()) {
    const AspectSet aspects = spec_->AspectsFor(module);
    for (const PoolAllocation& alloc :
         deployment_->FindUnit(placement.unit)->allocations) {
      std::set<DeviceId> in_allocation;
      for (const AllocationSlice& slice : alloc.slices) {
        devices.emplace(alloc.pool, slice.device);
        in_allocation.insert(slice.device);
      }
      device_per_allocation += in_allocation.size();
    }
    if (placement.kind == ModuleKind::kTask && aspects.exec.defined &&
        UserVerifiable(aspects.exec.isolation)) {
      ++environments;
    }
    if (placement.kind == ModuleKind::kData && aspects.dist.defined &&
        aspects.dist.replication_factor > 1) {
      replicas += std::set<DeviceId>(placement.replica_devices.begin(),
                                     placement.replica_devices.end())
                      .size();
    }
  }
  // The medical app's modules share devices, so the two rules differ here.
  ASSERT_GT(device_per_allocation, devices.size());

  const uint64_t before = cloud_->attestation().quotes_issued();
  const auto report = cloud_->Verify(deployment_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->all_ok) << report->Table();
  EXPECT_EQ(cloud_->attestation().quotes_issued() - before,
            devices.size() + environments + replicas);
}

TEST_F(RuntimeTest, VerifierRejectsRepeatedReplicaDevice) {
  // Sabotage: S1 declares replication=3, and the provider lists one device
  // three times. That device's replica quote is valid, but it counts once.
  Placement* s1 = deployment_->MutablePlacementOf(spec_->graph.IdOf("S1"));
  ASSERT_NE(s1, nullptr);
  ASSERT_EQ(s1->replica_devices.size(), 3u);
  const std::vector<DeviceId> honest = s1->replica_devices;
  s1->replica_devices.assign(honest.size(), honest.front());

  const auto report = cloud_->Verify(deployment_.get());
  // Put the honest list back before anything else runs, teardown included.
  s1->replica_devices = honest;
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->all_ok);
  for (const auto& v : report->modules) {
    if (v.name == "S1") {
      EXPECT_TRUE(v.replication_checked);
      EXPECT_FALSE(v.replication_ok);
      EXPECT_NE(v.detail.find("1 distinct"), std::string::npos) << v.detail;
    } else {
      EXPECT_TRUE(v.AllChecksPassed()) << v.name << ": " << v.detail;
    }
  }
}

TEST_F(RuntimeTest, BillingScalesWithTimeAndPremiums) {
  BillingEngine billing(cloud_->sim(), cloud_->prices());
  const Bill hour = billing.BillFor(*deployment_, SimTime(0), SimTime::Hours(1));
  const Bill two = billing.BillFor(*deployment_, SimTime(0), SimTime::Hours(2));
  EXPECT_GT(hour.total.micro_usd(), 0);
  EXPECT_NEAR(static_cast<double>(two.total.micro_usd()),
              2.0 * static_cast<double>(hour.total.micro_usd()),
              static_cast<double>(hour.total.micro_usd()) * 0.01);
  EXPECT_EQ(hour.lines.size(), 10u);
  // A pricier list raises the bill.
  BillingEngine expensive(cloud_->sim(), cloud_->prices().ScaledBy(1.3));
  const Bill dearer =
      expensive.BillFor(*deployment_, SimTime(0), SimTime::Hours(1));
  EXPECT_GT(dearer.total, hour.total);
}

}  // namespace
}  // namespace udc
