// Tests for the control-plane services layered on the core: the repair
// orchestrator, the actor-based executor and the adaptive loop it feeds,
// hybrid deployment, and the RPC frontend.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/core/actor_executor.h"
#include "src/core/frontend.h"
#include "src/core/hybrid.h"
#include "src/core/auditor.h"
#include "src/core/defrag.h"
#include "src/core/repair.h"
#include "src/core/runtime.h"
#include "src/core/tuner.h"
#include "src/common/strings.h"
#include "src/obs/chrome_trace.h"
#include "src/aspects/spec_parser.h"
#include "src/workload/medical.h"

namespace udc {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() {
    UdcCloudConfig config;
    config.datacenter.racks = 4;
    cloud_ = std::make_unique<UdcCloud>(config);
    tenant_ = cloud_->RegisterTenant("hospital");
    spec_ = std::make_unique<AppSpec>(std::move(*MedicalAppSpec()));
    auto deployment = cloud_->Deploy(tenant_, *spec_);
    EXPECT_TRUE(deployment.ok());
    deployment_ = std::move(*deployment);
  }

  std::unique_ptr<UdcCloud> cloud_;
  TenantId tenant_;
  std::unique_ptr<AppSpec> spec_;
  std::unique_ptr<Deployment> deployment_;
};

// The tenant's own check after a re-placement: every module passes, and a
// failure names the module and what failed.
void ExpectVerifies(UdcCloud& cloud, Deployment* deployment) {
  const auto report = cloud.Verify(deployment);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::string failures;
  for (const ModuleVerification& m : report->modules) {
    if (!m.AllChecksPassed()) {
      failures += m.name + ": " + m.detail + "\n";
    }
  }
  EXPECT_TRUE(report->all_ok) << failures;
}

DeviceId CpuDeviceOf(const Deployment& deployment, ModuleId module) {
  return deployment.FindUnit(deployment.PlacementOf(module)->unit)
      ->PrimaryDevice(ResourceKind::kCpu);
}

// Takes all free capacity of every CPU blade in racks [begin, end) except
// `keep`, for a tenant of its own.
void FillCpuBlades(UdcCloud& cloud, int begin, int end, DeviceId keep) {
  const Topology& topology = cloud.datacenter().topology();
  ResourcePool& pool = cloud.datacenter().pool(DeviceKind::kCpuBlade);
  for (const auto& d : pool.devices()) {
    const int rack = topology.RackOf(d->node());
    if (d->id() != keep && rack >= begin && rack < end &&
        d->free_capacity() > 0) {
      ASSERT_TRUE(d->Allocate(TenantId(999), d->free_capacity()).ok());
    }
  }
}

// Fails `module`'s CPU blade and repairs it.
std::vector<RepairAction> FailAndRepair(UdcCloud& cloud,
                                        Deployment* deployment,
                                        ModuleId module) {
  const DeviceId victim = CpuDeviceOf(*deployment, module);
  cloud.datacenter()
      .pool(DeviceKind::kCpuBlade)
      .FindDevice(victim)
      ->set_health(DeviceHealth::kFailed);
  CheckpointStore checkpoints;
  RepairService repair(cloud.region_router(), deployment, &checkpoints);
  return repair.HandleDeviceFailure(victim);
}

// --- RepairService -------------------------------------------------------

TEST_F(ServiceTest, RepairReplacesFailedComputeDevice) {
  CheckpointStore checkpoints;
  RepairService repair(cloud_->region_router(), deployment_.get(),
                       &checkpoints);

  const Placement* a4 = deployment_->PlacementOf(spec_->graph.IdOf("A4"));
  const ResourceUnit* unit = deployment_->FindUnit(a4->unit);
  const DeviceId victim = unit->PrimaryDevice(ResourceKind::kCpu);
  Device* device =
      cloud_->datacenter().pool(DeviceKind::kCpuBlade).FindDevice(victim);
  ASSERT_NE(device, nullptr);
  device->set_health(DeviceHealth::kFailed);

  const auto actions = repair.HandleDeviceFailure(victim);
  ASSERT_FALSE(actions.empty());
  bool a4_repaired = false;
  for (const RepairAction& action : actions) {
    if (action.module_name == "A4") {
      a4_repaired = true;
      EXPECT_TRUE(action.success) << action.detail;
      EXPECT_NE(action.replacement_device, victim);
      EXPECT_EQ(action.handling, FailureHandling::kCheckpointRestore);
      EXPECT_GT(action.recovery_time, SimTime(0));
    }
  }
  EXPECT_TRUE(a4_repaired);
  // The placement moved off the dead device.
  const Placement* after = deployment_->PlacementOf(spec_->graph.IdOf("A4"));
  const ResourceUnit* after_unit = deployment_->FindUnit(after->unit);
  EXPECT_NE(after_unit->PrimaryDevice(ResourceKind::kCpu), victim);
  // And the DAG still runs end to end.
  DagRuntime runtime(cloud_->sim(), deployment_.get());
  EXPECT_TRUE(runtime.RunOnce().ok());
}

// The relaunched environment runs the module's image, as the deploy
// launched it, so its measurement — what attestation binds — is unchanged.
TEST_F(ServiceTest, RepairRelaunchesTheModulesImage) {
  const ModuleId a4 = spec_->graph.IdOf("A4");
  const ExecEnvironment* before =
      deployment_->FindUnit(deployment_->PlacementOf(a4)->unit)->env;
  ASSERT_NE(before, nullptr);
  const Sha256Digest measurement = before->measurement();

  bool repaired = false;
  for (const RepairAction& action :
       FailAndRepair(*cloud_, deployment_.get(), a4)) {
    repaired |= action.module_name == "A4" && action.success;
  }
  ASSERT_TRUE(repaired);
  const ExecEnvironment* after =
      deployment_->FindUnit(deployment_->PlacementOf(a4)->unit)->env;
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(DigestEqual(after->measurement(), measurement));
}

// A DRAM slice is not single-device, so its replacement may span several
// modules: with every other DRAM module holding only half of A4's 2 GiB
// free, it does. Repair must keep every slice of the replacement, so A4
// still holds its whole demand and teardown returns every byte.
TEST_F(ServiceTest, RepairKeepsEverySliceOfASpanningReplacement) {
  const ModuleId a4 = spec_->graph.IdOf("A4");
  const auto a4_unit = [&] {
    return deployment_->FindUnit(deployment_->PlacementOf(a4)->unit);
  };
  const int64_t demand =
      deployment_->ResourcesOf(a4).Get(ResourceKind::kDram);
  ASSERT_EQ(demand, Bytes::GiB(2).bytes());
  const DeviceId victim = a4_unit()->PrimaryDevice(ResourceKind::kDram);
  ResourcePool& dram = cloud_->datacenter().pool(DeviceKind::kDramModule);
  std::vector<std::pair<Device*, int64_t>> filler;
  for (const auto& d : dram.devices()) {
    const int64_t take = d->free_capacity() - demand / 2;
    if (d->id() != victim && take > 0) {
      ASSERT_TRUE(d->Allocate(TenantId(999), take).ok());
      filler.emplace_back(d.get(), take);
    }
  }
  dram.FindDevice(victim)->set_health(DeviceHealth::kFailed);
  CheckpointStore checkpoints;
  RepairService repair(cloud_->region_router(), deployment_.get(),
                       &checkpoints);
  for (const RepairAction& action : repair.HandleDeviceFailure(victim)) {
    ASSERT_TRUE(action.success)
        << action.module_name << ": " << action.detail;
  }

  size_t slices = 0;
  for (const PoolAllocation& alloc : a4_unit()->allocations) {
    if (alloc.kind == ResourceKind::kDram) {
      slices += alloc.slices.size();
    }
  }
  EXPECT_GT(slices, 1u);  // the replacement did span modules
  EXPECT_EQ(deployment_->ResourcesOf(a4).Get(ResourceKind::kDram), demand);

  deployment_.reset();
  for (const auto& [device, amount] : filler) {
    ASSERT_TRUE(device->Release(TenantId(999), amount).ok());
  }
  EXPECT_EQ(cloud_->datacenter().TotalAllocated().Get(ResourceKind::kDram), 0);
}

// A4's DRAM module also backs four other tasks' memory and data module S3.
// Replacing it swaps their DRAM slices and nothing else: every task still
// runs on its compute device's node, in the environment it had, and the
// deployment verifies and tears down to nothing.
TEST_F(ServiceTest, MemoryRepairLeavesTasksWithTheirCompute) {
  std::map<ModuleId, const ExecEnvironment*> envs;
  for (const auto& [module, placement] : deployment_->placements()) {
    if (placement.kind == ModuleKind::kTask) {
      envs[module] = deployment_->FindUnit(placement.unit)->env;
    }
  }
  const DeviceId victim =
      deployment_->FindUnit(deployment_->PlacementOf(spec_->graph.IdOf("A4"))
                                ->unit)
          ->PrimaryDevice(ResourceKind::kDram);
  cloud_->datacenter()
      .pool(DeviceKind::kDramModule)
      .FindDevice(victim)
      ->set_health(DeviceHealth::kFailed);
  CheckpointStore checkpoints;
  RepairService repair(cloud_->region_router(), deployment_.get(),
                       &checkpoints);
  std::set<std::string> repaired;
  for (const RepairAction& action : repair.HandleDeviceFailure(victim)) {
    ASSERT_TRUE(action.success)
        << action.module_name << ": " << action.detail;
    repaired.insert(action.module_name);
  }
  EXPECT_EQ(repaired,
            (std::set<std::string>{"A1", "A2", "A3", "A4", "B1", "S3"}));

  for (const auto& [module, env] : envs) {
    const Placement* placement = deployment_->PlacementOf(module);
    SCOPED_TRACE(placement->name);
    const ResourceUnit* unit = deployment_->FindUnit(placement->unit);
    NodeId compute;
    for (const PoolAllocation& alloc : unit->allocations) {
      if (IsComputeKind(alloc.kind) && !alloc.slices.empty()) {
        compute = alloc.slices.front().node;
      }
    }
    ASSERT_TRUE(compute.valid());
    EXPECT_EQ(placement->home, compute);
    EXPECT_EQ(unit->env, env);
  }
  ExpectVerifies(*cloud_, deployment_.get());

  deployment_.reset();
  cloud_->sim()->RunToCompletion();
  EXPECT_TRUE(cloud_->datacenter().TotalAllocated().IsZero());
  EXPECT_EQ(cloud_->envs().live_count(), 0u);
  EXPECT_EQ(cloud_->attestation().provisioned_count(), 0u);
}

TEST_F(ServiceTest, RepairRebuildsFailedReplica) {
  CheckpointStore checkpoints;
  RepairService repair(cloud_->region_router(), deployment_.get(),
                       &checkpoints);

  const ModuleId s1 = spec_->graph.IdOf("S1");
  const Placement* placement = deployment_->PlacementOf(s1);
  ASSERT_EQ(placement->replica_devices.size(), 3u);
  const DeviceId victim = placement->replica_devices[1];
  Device* device =
      cloud_->datacenter().pool(DeviceKind::kSsdDrive).FindDevice(victim);
  ASSERT_NE(device, nullptr);
  device->set_health(DeviceHealth::kFailed);

  const auto actions = repair.HandleDeviceFailure(victim);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_TRUE(actions[0].success) << actions[0].detail;
  EXPECT_EQ(actions[0].handling, FailureHandling::kFailover);
  EXPECT_GT(actions[0].recovery_time, SimTime(0));  // re-silvering charged

  const Placement* after = deployment_->PlacementOf(s1);
  EXPECT_EQ(after->replica_devices.size(), 3u);
  for (const DeviceId d : after->replica_devices) {
    EXPECT_NE(d, victim);
  }
  // Store stays fully available for the declared factor.
  EXPECT_EQ(deployment_->StoreOf(s1)->config().replication_factor, 3);
}

TEST_F(ServiceTest, RepairAttachesToInjector) {
  CheckpointStore checkpoints;
  RepairService repair(cloud_->region_router(), deployment_.get(),
                       &checkpoints);
  repair.Attach(&cloud_->failures());

  const Placement* a2 = deployment_->PlacementOf(spec_->graph.IdOf("A2"));
  const ResourceUnit* unit = deployment_->FindUnit(a2->unit);
  const DeviceId victim = unit->PrimaryDevice(ResourceKind::kGpu);
  Device* device =
      cloud_->datacenter().pool(DeviceKind::kGpuBoard).FindDevice(victim);
  cloud_->failures().ScheduleFailure(device, SimTime::Seconds(1), SimTime(0));
  cloud_->sim()->RunToCompletion();

  EXPECT_GE(repair.repairs_attempted(), 1);
  EXPECT_GE(repair.repairs_succeeded(), 1);
}

// A1, A4 and B1 share one single-tenant CPU blade. Repair moves all three to
// one new blade and relaunches their environments there; the new host's
// root of trust must quote those environments, as the old host's did.
TEST_F(ServiceTest, RepairedDeploymentStillVerifies) {
  std::set<std::string> moved;
  std::set<DeviceId> targets;
  for (const RepairAction& action : FailAndRepair(
           *cloud_, deployment_.get(), spec_->graph.IdOf("A4"))) {
    ASSERT_TRUE(action.success) << action.module_name << ": "
                                << action.detail;
    if (action.replacement_device.valid()) {
      moved.insert(action.module_name);
      targets.insert(action.replacement_device);
    }
  }
  EXPECT_EQ(moved, (std::set<std::string>{"A1", "A4", "B1"}));
  EXPECT_EQ(targets.size(), 1u);
  ExpectVerifies(*cloud_, deployment_.get());
  deployment_.reset();
  EXPECT_EQ(cloud_->attestation().provisioned_count(), 0u);
}

// --- Re-placement keeps the hierarchy -------------------------------------

constexpr const char* kPinnedTask =
    "app pinned\ntask A work=100\naspect A resource cpu=8000m\n"
    "aspect A dist region=1\n";

// racks=8 in 4 cells in 2 regions: the region=1 task homes in rack 4
// (cell 2). With cell 2 full, its repair belongs in cell 3 — the other
// cell of region 1 — not in the first rack anywhere with room.
TEST(RepairHierarchyTest, PinnedTaskIsRepairedIntoItsRegionsOtherCell) {
  UdcCloudConfig config;
  config.datacenter.racks = 8;
  config.datacenter.cells = 4;
  config.datacenter.regions = 2;
  UdcCloud cloud(config);
  auto spec = ParseAppSpec(kPinnedTask);
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const ModuleId a = spec->graph.IdOf("A");
  const Topology& topology = cloud.datacenter().topology();
  ASSERT_EQ((*deployment)->PlacementOf(a)->rack, 4);

  FillCpuBlades(cloud, topology.CellRackBegin(2), topology.CellRackEnd(2),
                CpuDeviceOf(**deployment, a));
  const auto actions = FailAndRepair(cloud, deployment->get(), a);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_TRUE(actions[0].success) << actions[0].detail;
  EXPECT_EQ(topology.CellOf((*deployment)->PlacementOf(a)->rack), 3);
  ExpectVerifies(cloud, deployment->get());
}

// racks=4 in 2 cells in 2 regions: region 1 is one cell. With it full, the
// pinned task's repair fails and the task stays in region 1.
TEST(RepairHierarchyTest, PinnedTaskIsNotRepairedOutOfItsRegion) {
  UdcCloudConfig config;
  config.datacenter.racks = 4;
  config.datacenter.cells = 2;
  config.datacenter.regions = 2;
  UdcCloud cloud(config);
  auto spec = ParseAppSpec(kPinnedTask);
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const ModuleId a = spec->graph.IdOf("A");
  const Topology& topology = cloud.datacenter().topology();
  ASSERT_EQ(topology.RegionOfRack((*deployment)->PlacementOf(a)->rack), 1);

  FillCpuBlades(cloud, topology.CellRackBegin(1), topology.CellRackEnd(1),
                CpuDeviceOf(**deployment, a));
  const auto actions = FailAndRepair(cloud, deployment->get(), a);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_FALSE(actions[0].success);
  EXPECT_NE(actions[0].detail.find("no healthy replacement"),
            std::string::npos)
      << actions[0].detail;
  EXPECT_EQ(topology.RegionOfRack((*deployment)->PlacementOf(a)->rack), 1);
  EXPECT_EQ((*deployment)->ResourcesOf(a).Get(ResourceKind::kCpu), 0);
}

// racks=4 in 2 cells, no regions: a filler deploy takes cell 0's rack 0, so
// the task homes in rack 2 (cell 1). With rack 2 full, the repair belongs in
// rack 3 of the home cell, not in cell 0 next to the filler.
TEST(RepairHierarchyTest, RepairTriesTheHomeCellBeforeOtherCells) {
  UdcCloudConfig config;
  config.datacenter.racks = 4;
  config.datacenter.cells = 2;
  UdcCloud cloud(config);
  auto filler = ParseAppSpec(
      "app filler\ntask F work=100\naspect F resource cpu=16000m\n");
  auto spec = ParseAppSpec(
      "app a\ntask A work=100\naspect A resource cpu=8000m\n");
  ASSERT_TRUE(filler.ok());
  ASSERT_TRUE(spec.ok());
  auto filled = cloud.Deploy(cloud.RegisterTenant("f"), *filler);
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const ModuleId a = spec->graph.IdOf("A");
  ASSERT_EQ((*deployment)->PlacementOf(a)->rack, 2);

  FillCpuBlades(cloud, 2, 3, CpuDeviceOf(**deployment, a));
  const auto actions = FailAndRepair(cloud, deployment->get(), a);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_TRUE(actions[0].success) << actions[0].detail;
  EXPECT_EQ((*deployment)->PlacementOf(a)->rack, 3);
  ExpectVerifies(cloud, deployment->get());
}


TEST(RepairDomainTest, DomainMembersCoFail) {
  UdcCloudConfig config;
  config.datacenter.racks = 4;
  UdcCloud cloud(config);
  const TenantId tenant = cloud.RegisterTenant("t");
  auto spec = ParseAppSpec(R"(
app domains
task A work=5000
task B work=5000
task C work=5000
edge A -> B
aspect A resource cpu=1000m
aspect A exec isolation=strong tenancy=single
aspect B resource cpu=32000m
aspect C resource cpu=1000m
domain pair members=A,B
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto deployment = cloud.Deploy(tenant, *spec);
  ASSERT_TRUE(deployment.ok());

  CheckpointStore checkpoints;
  RepairService repair(cloud.region_router(), deployment->get(),
                       &checkpoints);

  // Fail only A's device (ensure it is not shared with B by checking ids).
  const Placement* a = (*deployment)->PlacementOf(spec->graph.IdOf("A"));
  const DeviceId victim =
      (*deployment)->FindUnit(a->unit)->PrimaryDevice(ResourceKind::kCpu);
  Device* device =
      cloud.datacenter().pool(DeviceKind::kCpuBlade).FindDevice(victim);
  ASSERT_NE(device, nullptr);
  device->set_health(DeviceHealth::kFailed);

  const auto actions = repair.HandleDeviceFailure(victim);
  bool a_repaired = false;
  bool b_cofailed = false;
  bool c_touched = false;
  for (const RepairAction& action : actions) {
    if (action.module_name == "A") {
      a_repaired = true;
    }
    if (action.module_name == "B" &&
        action.detail.find("co-failure") != std::string::npos) {
      b_cofailed = true;
      EXPECT_GT(action.recovery_time, SimTime(0));
    }
    if (action.module_name == "C") {
      c_touched = true;
    }
  }
  EXPECT_TRUE(a_repaired);
  // B co-fails with A; C (outside the domain) is untouched unless it shared
  // the device.
  const Placement* b = (*deployment)->PlacementOf(spec->graph.IdOf("B"));
  const Placement* c = (*deployment)->PlacementOf(spec->graph.IdOf("C"));
  const DeviceId b_dev =
      (*deployment)->FindUnit(b->unit)->PrimaryDevice(ResourceKind::kCpu);
  const DeviceId c_dev =
      (*deployment)->FindUnit(c->unit)->PrimaryDevice(ResourceKind::kCpu);
  if (b_dev != victim) {
    EXPECT_TRUE(b_cofailed);
  }
  if (c_dev != victim) {
    EXPECT_FALSE(c_touched);
  }
  EXPECT_EQ(cloud.sim()->metrics().counter("repair.cofailures"),
            b_cofailed ? 1 : 0);
}

// --- ActorExecutor -------------------------------------------------------

// Runs of `module` the executor started, read from its exec.task_run spans.
int TaskRuns(const Simulation& sim, std::string_view module) {
  int runs = 0;
  for (const Span& span : sim.spans().spans()) {
    const std::string* label = span.Label("module");
    if (span.name == "exec.task_run" && label != nullptr && *label == module) {
      ++runs;
    }
  }
  return runs;
}

// The busy fraction the executor published for `module` at the last close.
double UtilizationOf(const Simulation& sim, const std::string& module) {
  return sim.metrics().gauge("actor_exec.utilization", {{"module", module}});
}

// What the executor charges one run of `module`: the analytic stage time.
SimTime ServiceTimeOf(const DagRuntime& analytic, ModuleId module) {
  const auto stage = analytic.ComputeStage(module);
  if (!stage.ok()) {
    ADD_FAILURE() << stage.status().ToString();
    return SimTime(0);
  }
  return stage->input_time + stage->compute_time + stage->output_time;
}

TEST_F(ServiceTest, ActorExecutionMatchesDagShape) {
  AdaptiveTuner tuner(cloud_->region_router(), deployment_.get());
  ActorExecutor executor(cloud_->sim(), deployment_.get(), tuner);
  std::vector<InvocationResult> results;
  executor.Submit([&](const InvocationResult& r) { results.push_back(r); });
  cloud_->sim()->RunToCompletion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].latency(), SimTime(0));
  EXPECT_EQ(executor.completed(), 1u);

  // One unloaded invocation should be in the same ballpark as the analytic
  // runtime's critical path (both charge the same per-stage service times;
  // env_wait is excluded from the actor path).
  DagRuntime analytic(cloud_->sim(), deployment_.get());
  const auto report = analytic.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_LT(results[0].latency(), report->end_to_end * 2);
}

TEST_F(ServiceTest, ConcurrentInvocationsQueue) {
  AdaptiveTuner tuner(cloud_->region_router(), deployment_.get());
  ActorExecutor executor(cloud_->sim(), deployment_.get(), tuner);
  std::vector<SimTime> latencies;
  for (int i = 0; i < 5; ++i) {
    executor.Submit([&](const InvocationResult& r) {
      latencies.push_back(r.latency());
    });
  }
  cloud_->sim()->RunToCompletion();
  ASSERT_EQ(latencies.size(), 5u);
  // All submitted at t=0: later invocations wait behind earlier ones at the
  // bottleneck module, so latency is non-decreasing.
  for (size_t i = 1; i < latencies.size(); ++i) {
    EXPECT_GE(latencies[i], latencies[i - 1]);
  }
  EXPECT_GT(latencies.back(), latencies.front());
}

TEST_F(ServiceTest, ActorRecoveryReplaysLog) {
  AdaptiveTuner tuner(cloud_->region_router(), deployment_.get());
  ActorExecutor executor(cloud_->sim(), deployment_.get(), tuner);
  int completions = 0;
  executor.Submit([&](const InvocationResult&) { ++completions; });
  // Crash before the first window closes: until then A2's log still holds
  // the completed invocation's message.
  cloud_->sim()->RunUntil(ActorExecutor::kWindow / 2);
  EXPECT_EQ(completions, 1);

  const ModuleId a2 = spec_->graph.IdOf("A2");
  const auto replayed = executor.CrashAndRecover(a2);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GE(*replayed, 1u);  // its input message was logged
  cloud_->sim()->RunToCompletion();
  // Replay of a completed invocation is ignored (no double completion).
  EXPECT_EQ(completions, 1);
  // The window close dropped the messages of completed invocations, which
  // here is all of them.
  EXPECT_TRUE(executor.actors().LogOf(executor.ActorOf(a2))->empty());
}

// A4 joins A2 and A3. When it crashes after logging A2's input, the replay
// must not count that input twice: A4 waits for A3, runs once, and the
// invocation completes only after its other sink, B2, has run.
TEST_F(ServiceTest, CrashedJoinWaitsForEveryInput) {
  AdaptiveTuner tuner(cloud_->region_router(), deployment_.get());
  ActorExecutor executor(cloud_->sim(), deployment_.get(), tuner);
  std::vector<InvocationResult> results;
  executor.Submit([&](const InvocationResult& r) { results.push_back(r); });

  const ModuleId a4 = spec_->graph.IdOf("A4");
  const std::vector<ActorMessage>* a4_log =
      executor.actors().LogOf(executor.ActorOf(a4));
  ASSERT_NE(a4_log, nullptr);
  while (a4_log->empty() && cloud_->sim()->Step()) {
  }
  ASSERT_EQ(a4_log->size(), 1u);
  EXPECT_EQ(a4_log->front().from, executor.ActorOf(spec_->graph.IdOf("A2")));
  ASSERT_TRUE(executor.CrashAndRecover(a4).ok());
  cloud_->sim()->RunToCompletion();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(TaskRuns(*cloud_->sim(), "A4"), 1);
  EXPECT_EQ(TaskRuns(*cloud_->sim(), "B2"), 1);
  const Span* b2_run = cloud_->sim()->spans().Find("exec.task_run", "module",
                                                   "B2");
  ASSERT_NE(b2_run, nullptr);
  EXPECT_EQ(results[0].completed_at, b2_run->end);
}

// A steady stream: after one window, every task's measured busy fraction is
// the offered load, rate x service time.
TEST_F(ServiceTest, ExecutorUtilizationIsRateTimesServiceTime) {
  AdaptiveTuner tuner(cloud_->region_router(), deployment_.get());
  ActorExecutor executor(cloud_->sim(), deployment_.get(), tuner);
  constexpr double kRate = 5.0;  // invocations per second
  const SimTime gap = SimTime::Millis(200);
  for (SimTime t; t < ActorExecutor::kWindow; t += gap) {
    cloud_->sim()->At(t, [&executor] { executor.Submit(nullptr); });
  }
  cloud_->sim()->RunUntil(ActorExecutor::kWindow);

  DagRuntime analytic(cloud_->sim(), deployment_.get());
  for (const ModuleId task : spec_->graph.TaskIds()) {
    const std::string& name = spec_->graph.Find(task)->name;
    const double offered = kRate * ServiceTimeOf(analytic, task).seconds();
    EXPECT_NEAR(UtilizationOf(*cloud_->sim(), name), offered, 0.05 * offered)
        << name;
  }
}

// A module kept busy for three windows gets a larger slice through the
// executor, and its next run is shorter.
TEST(ExecutorTunerTest, HotModuleGrowsAndRunsFaster) {
  UdcCloudConfig config;
  config.datacenter.racks = 2;
  UdcCloud cloud(config);
  auto spec = ParseAppSpec(
      "app hot\ntask cnn work=30000000 out=64KiB\n"
      "aspect cnn resource gpu=250m dram=4GiB\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const ModuleId cnn = spec->graph.IdOf("cnn");
  DagRuntime analytic(cloud.sim(), deployment->get());
  const SimTime before = ServiceTimeOf(analytic, cnn);

  AdaptiveTuner tuner(cloud.region_router(), deployment->get());
  ActorExecutor executor(cloud.sim(), deployment->get(), tuner);
  // One arrival per service time: the slice never idles.
  for (SimTime t; t < ActorExecutor::kWindow * 3; t += before) {
    cloud.sim()->At(t, [&executor] { executor.Submit(nullptr); });
  }
  for (int w = 1; w <= 3; ++w) {
    cloud.sim()->RunUntil(ActorExecutor::kWindow * w);
    EXPECT_GT(UtilizationOf(*cloud.sim(), "cnn"), 0.85) << "window " << w;
  }
  EXPECT_GT((*deployment)->ResourcesOf(cnn).Get(ResourceKind::kGpu), 250);
  EXPECT_EQ(tuner.resizes(), 1);

  cloud.sim()->RunUntil(ActorExecutor::kWindow * 3 + before);
  std::vector<SimTime> latency;
  executor.Submit([&](const InvocationResult& r) {
    latency.push_back(r.latency());
  });
  cloud.sim()->RunToCompletion();
  ASSERT_EQ(latency.size(), 1u);
  EXPECT_LT(latency[0], before);
  EXPECT_EQ(latency[0], ServiceTimeOf(analytic, cnn));
}

// The window timer stops after a window with no run and nothing pending,
// so RunToCompletion returns.
TEST_F(ServiceTest, ExecutorWindowTimerStopsWhenIdle) {
  AdaptiveTuner tuner(cloud_->region_router(), deployment_.get());
  ActorExecutor executor(cloud_->sim(), deployment_.get(), tuner);
  const SimTime submitted = SimTime::Minutes(20);
  cloud_->sim()->RunUntil(submitted);
  executor.Submit(nullptr);
  const SimTime end = cloud_->sim()->RunToCompletion();
  EXPECT_EQ(executor.completed(), 1u);
  EXPECT_GT(end, submitted);
  EXPECT_LE(end, submitted + ActorExecutor::kWindow * 2);
}

// --- HybridDeployer ------------------------------------------------------

TEST_F(ServiceTest, HybridPrefersUdc) {
  IaasCloud iaas(cloud_->sim(), &cloud_->datacenter().topology(), 4);
  HybridDeployer hybrid(cloud_.get(), &iaas);
  const auto result = hybrid.Deploy(tenant_, *spec_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->path, HybridPath::kUdc);
  EXPECT_NE(result->udc, nullptr);
  EXPECT_EQ(hybrid.udc_deploys(), 1);
  EXPECT_EQ(hybrid.iaas_fallbacks(), 0);
}

TEST_F(ServiceTest, HybridFallsBackWhenPoolsExhausted) {
  // A UDC region with no GPUs cannot host the medical app; the hybrid path
  // lands it on the server fleet instead.
  UdcCloudConfig tiny;
  tiny.datacenter.racks = 1;
  tiny.datacenter.rack.gpu_boards = 0;
  UdcCloud small(tiny);
  const TenantId t = small.RegisterTenant("h");
  IaasCloud iaas(small.sim(), &small.datacenter().topology(), 8);
  HybridDeployer hybrid(&small, &iaas);

  const auto result = hybrid.Deploy(t, *spec_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->path, HybridPath::kIaas);
  EXPECT_EQ(result->instances.size(), spec_->graph.size());
  EXPECT_EQ(hybrid.iaas_fallbacks(), 1);
  // Instance economics: the fallback costs more per hour than UDC would.
  const Money iaas_cost = result->HourlyCost(small.billing(), iaas);
  EXPECT_GT(iaas_cost.micro_usd(), 0);
}

TEST_F(ServiceTest, HybridPropagatesRealErrors) {
  IaasCloud iaas(cloud_->sim(), &cloud_->datacenter().topology(), 4);
  HybridDeployer hybrid(cloud_.get(), &iaas);
  AppSpec broken;
  auto a = broken.graph.AddTask("a", 1);
  auto b = broken.graph.AddTask("b", 1);
  ASSERT_TRUE(broken.graph.AddEdge(*a, *b).ok());
  ASSERT_TRUE(broken.graph.AddEdge(*b, *a).ok());  // cycle
  const auto result = hybrid.Deploy(tenant_, broken);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(hybrid.iaas_fallbacks(), 0);  // no silent fallback on bad specs
}


// --- ContinuousAuditor ---------------------------------------------------

TEST_F(ServiceTest, AuditorQuietOnHonestProvider) {
  FulfillmentVerifier verifier(cloud_->sim(), cloud_->vendor_root(),
                               &cloud_->attestation());
  AuditorConfig config;
  config.sample_per_round = 0;  // audit everything
  ContinuousAuditor auditor(cloud_->sim(), &verifier, deployment_.get(),
                            config);
  EXPECT_TRUE(auditor.RunRound().empty());
  EXPECT_EQ(auditor.rounds(), 1);
  EXPECT_EQ(auditor.modules_audited(), 10);
}

TEST_F(ServiceTest, AuditorCatchesLateDowngrade) {
  FulfillmentVerifier verifier(cloud_->sim(), cloud_->vendor_root(),
                               &cloud_->attestation());
  AuditorConfig config;
  config.sample_per_round = 0;
  ContinuousAuditor auditor(cloud_->sim(), &verifier, deployment_.get(),
                            config);
  ASSERT_TRUE(auditor.RunRound().empty());

  // The provider swaps A4's enclave for a shared container after the fact.
  const Placement* a4 = deployment_->PlacementOf(spec_->graph.IdOf("A4"));
  ResourceUnit* unit = deployment_->FindUnit(a4->unit);
  LaunchOptions cheap;
  cheap.kind = EnvKind::kContainer;
  cheap.tenancy = TenancyMode::kShared;
  unit->env = cloud_->envs().Launch(tenant_, a4->home, cheap, nullptr);
  cloud_->sim()->RunToCompletion();

  const auto findings = auditor.RunRound();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].module_name, "A4");
  EXPECT_EQ(cloud_->sim()->metrics().counter("audit.violations"), 1);
}

TEST_F(ServiceTest, AuditorPeriodicRoundsRespectHorizon) {
  FulfillmentVerifier verifier(cloud_->sim(), cloud_->vendor_root(),
                               &cloud_->attestation());
  AuditorConfig config;
  config.period = SimTime::Minutes(10);
  config.sample_per_round = 2;
  ContinuousAuditor auditor(cloud_->sim(), &verifier, deployment_.get(),
                            config);
  int callbacks = 0;
  auditor.Start(SimTime::Hours(1),
                [&](const AuditFinding&) { ++callbacks; });
  cloud_->sim()->RunToCompletion();
  EXPECT_EQ(auditor.rounds(), 6);  // 10..60 minutes
  EXPECT_EQ(auditor.modules_audited(), 12);
  EXPECT_EQ(callbacks, 0);
  EXPECT_LE(cloud_->sim()->now(), SimTime::Hours(1) + SimTime::Minutes(1));
}


// --- Defragmenter --------------------------------------------------------

TEST(DefragTest, MeasuresAndConsolidatesFragmentation) {
  // A tight datacenter where a large DRAM ask must spill across modules.
  UdcCloudConfig config;
  config.datacenter.racks = 1;
  config.datacenter.rack.dram_modules = 4;  // 4 x 256 GiB
  UdcCloud cloud(config);
  const TenantId tenant = cloud.RegisterTenant("t");

  // Fill 200 GiB of one module so the next ask cannot fit on any single one.
  AllocationConstraints fill_constraints;
  fill_constraints.single_device = true;
  auto filler = cloud.datacenter()
                    .pool(DeviceKind::kDramModule)
                    .Allocate(TenantId(99), Bytes::GiB(200).bytes(),
                              fill_constraints);
  ASSERT_TRUE(filler.ok());
  // Every module now has at most 256 free except one with 56: a 300 GiB ask
  // must fragment (256 + 44).
  auto spec = ParseAppSpec(R"(
app frag
task big work=100
aspect big resource cpu=1000m dram=100GiB
)");
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(tenant, *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();

  Defragmenter defrag(cloud.region_router(), deployment->get());
  const FragmentationReport before = defrag.Measure();
  EXPECT_GE(before.fragmented, 1);
  EXPECT_GT(before.MeanSlices(), 1.0);

  // Free the filler: consolidation now has room.
  ASSERT_TRUE(cloud.datacenter()
                  .pool(DeviceKind::kDramModule)
                  .Release(*filler)
                  .ok());
  const auto result = defrag.Consolidate();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->moves, 1);
  EXPECT_GT(result->migration_time, SimTime(0));

  const FragmentationReport after = defrag.Measure();
  EXPECT_EQ(after.fragmented, 0);
  EXPECT_DOUBLE_EQ(after.MeanSlices(), 1.0);
  // No capacity leaked by the move.
  const int64_t held =
      (*deployment)->TotalResources().Get(ResourceKind::kDram);
  EXPECT_EQ(held, Bytes::GiB(100).bytes());

  // Each move is one defrag.consolidate span, which reaches the Chrome
  // export, which the flight recorder dumps.
  const SpanTracer& spans = cloud.sim()->spans();
  const std::vector<const Span*> moves = spans.SpansInCategory("defrag");
  ASSERT_EQ(moves.size(), static_cast<size_t>(result->moves));
  EXPECT_EQ(moves[0]->name, "defrag.consolidate");
  ASSERT_NE(moves[0]->Label("kind"), nullptr);
  EXPECT_EQ(*moves[0]->Label("kind"), "dram");
  ASSERT_NE(moves[0]->Label("amount"), nullptr);
  EXPECT_EQ(*moves[0]->Label("amount"),
            std::to_string(Bytes::GiB(100).bytes()));
  EXPECT_NE(ChromeTraceJson(spans, cloud.sim()->now())
                .find("defrag.consolidate"),
            std::string::npos);
}

TEST(DefragTest, NoOpWhenUnfragmented) {
  UdcCloud cloud;
  const TenantId tenant = cloud.RegisterTenant("t");
  auto spec = ParseAppSpec("app x\ntask t work=1\naspect t resource cpu=500m\n");
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(tenant, *spec);
  ASSERT_TRUE(deployment.ok());
  Defragmenter defrag(cloud.region_router(), deployment->get());
  EXPECT_EQ(defrag.Measure().fragmented, 0);
  const auto result = defrag.Consolidate();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->moves, 0);
}


TEST(DefragTest, ConsolidateIsIdempotent) {
  UdcCloud cloud;
  const TenantId tenant = cloud.RegisterTenant("t");
  auto spec = ParseAppSpec("app x\ntask t work=1\naspect t resource cpu=500m\n");
  auto deployment = cloud.Deploy(tenant, *spec);
  ASSERT_TRUE(deployment.ok());
  Defragmenter defrag(cloud.region_router(), deployment->get());
  ASSERT_TRUE(defrag.Consolidate().ok());
  const auto again = defrag.Consolidate();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->moves, 0);
}

// MeasuresAndConsolidatesFragmentation's setup: the consolidated DRAM lands
// on a module the deploy never used, whose root of trust must quote it.
TEST(DefragTest, ConsolidatedDeploymentStillVerifies) {
  UdcCloudConfig config;
  config.datacenter.racks = 1;
  config.datacenter.rack.dram_modules = 4;
  UdcCloud cloud(config);
  ResourcePool& dram = cloud.datacenter().pool(DeviceKind::kDramModule);
  AllocationConstraints fill_constraints;
  fill_constraints.single_device = true;
  auto filler = dram.Allocate(TenantId(99), Bytes::GiB(200).bytes(),
                              fill_constraints);
  ASSERT_TRUE(filler.ok());
  auto spec = ParseAppSpec(
      "app frag\ntask big work=100\naspect big resource cpu=1000m "
      "dram=100GiB\n");
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  Defragmenter defrag(cloud.region_router(), deployment->get());
  ASSERT_TRUE(dram.Release(*filler).ok());

  const auto result = defrag.Consolidate();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->moves, 1);
  ExpectVerifies(cloud, deployment->get());
  deployment->reset();
  EXPECT_EQ(cloud.attestation().provisioned_count(), 0u);
}

// A tuner grow spills an 8-core task from its filled blade onto a second
// one; with the filler gone, consolidation moves the compute onto one fresh
// blade. The task moves with it: every task's home is its compute slice's
// node and its environment runs there, the deployment verifies, and
// teardown leaves nothing allocated, launched or provisioned.
TEST(DefragTest, ConsolidatedComputeMovesItsTask) {
  UdcCloudConfig config;
  config.datacenter.racks = 2;
  UdcCloud cloud(config);
  auto spec = ParseAppSpec(
      "app grow\ntask big work=100\naspect big resource cpu=8000m\n");
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  Deployment* d = deployment->get();
  const ModuleId big = spec->graph.IdOf("big");
  const NodeId deployed_home = d->PlacementOf(big)->home;
  Device* blade = cloud.datacenter()
                      .pool(DeviceKind::kCpuBlade)
                      .FindDevice(CpuDeviceOf(*d, big));
  const int64_t filler = blade->free_capacity();
  ASSERT_TRUE(blade->Allocate(TenantId(999), filler).ok());
  AdaptiveTuner tuner(cloud.region_router(), d);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tuner.Observe(big, 0.99).ok());
  }
  ASSERT_EQ(d->ResourcesOf(big).Get(ResourceKind::kCpu), 12000);
  ASSERT_TRUE(blade->Release(TenantId(999), filler).ok());

  Defragmenter defrag(cloud.region_router(), d);
  ASSERT_EQ(defrag.Measure().fragmented, 1);
  const auto result = defrag.Consolidate();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->moves, 1);
  EXPECT_EQ(defrag.Measure().fragmented, 0);

  const Topology& topology = cloud.datacenter().topology();
  for (const auto& [module, placement] : d->placements()) {
    SCOPED_TRACE(placement.name);
    const ResourceUnit* unit = d->FindUnit(placement.unit);
    NodeId compute;
    for (const PoolAllocation& alloc : unit->allocations) {
      if (alloc.kind == placement.compute_kind) {
        compute = alloc.slices.front().node;
      }
    }
    EXPECT_EQ(placement.home, compute);
    EXPECT_EQ(placement.rack, topology.RackOf(compute));
    ASSERT_NE(unit->env, nullptr);
    EXPECT_EQ(unit->env->node(), compute);
  }
  EXPECT_NE(d->PlacementOf(big)->home, deployed_home);  // it did move
  ExpectVerifies(cloud, d);

  deployment->reset();
  cloud.sim()->RunToCompletion();
  EXPECT_TRUE(cloud.datacenter().TotalAllocated().IsZero());
  EXPECT_EQ(cloud.envs().live_count(), 0u);
  EXPECT_EQ(cloud.attestation().provisioned_count(), 0u);
}

// A compute repair moves a task into the other rack; consolidating its
// fragmented DRAM then lands in the rack the task runs in now, not the one
// it was deployed into.
TEST(DefragTest, ConsolidationPrefersTheTasksCurrentRack) {
  UdcCloudConfig config;
  config.datacenter.racks = 2;
  UdcCloud cloud(config);
  // 60 GiB free on every DRAM module, so a 100 GiB ask spans two.
  ResourcePool& dram = cloud.datacenter().pool(DeviceKind::kDramModule);
  for (const auto& module : dram.devices()) {
    ASSERT_TRUE(module->Allocate(TenantId(99), Bytes::GiB(196).bytes()).ok());
  }
  auto spec = ParseAppSpec(
      "app frag\ntask big work=100\naspect big resource cpu=1000m "
      "dram=100GiB\n");
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  Deployment* d = deployment->get();
  const ModuleId big = spec->graph.IdOf("big");
  for (const auto& module : dram.devices()) {
    ASSERT_TRUE(module->Release(TenantId(99), Bytes::GiB(196).bytes()).ok());
  }
  ASSERT_EQ(d->PlacementOf(big)->rack, 0);

  // Rack 0 has no blade left, so the repair moves the task to rack 1.
  FillCpuBlades(cloud, 0, 1, DeviceId::Invalid());
  for (const RepairAction& action : FailAndRepair(cloud, d, big)) {
    ASSERT_TRUE(action.success) << action.detail;
  }
  ASSERT_EQ(d->PlacementOf(big)->rack, 1);

  Defragmenter defrag(cloud.region_router(), d);
  ASSERT_EQ(defrag.Measure().fragmented, 1);
  const auto result = defrag.Consolidate();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->moves, 1);
  const ResourceUnit* unit = d->FindUnit(d->PlacementOf(big)->unit);
  for (const PoolAllocation& alloc : unit->allocations) {
    if (alloc.kind == ResourceKind::kDram) {
      ASSERT_EQ(alloc.slices.size(), 1u);
      EXPECT_EQ(cloud.datacenter().topology().RackOf(alloc.slices[0].node),
                1);
    }
  }
  ExpectVerifies(cloud, d);
}

// --- AdaptiveTuner --------------------------------------------------------

// 30000m on one 32-core blade grows by 1.5x to 45000m: the growth spills
// onto a second blade, whose root of trust must quote it.
TEST(TunerVerifyTest, GrowthSpilledOntoASecondBladeStillVerifies) {
  UdcCloudConfig config;
  config.datacenter.racks = 2;
  UdcCloud cloud(config);
  auto spec = ParseAppSpec(
      "app grow\ntask big work=100\naspect big resource cpu=30000m\n");
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const ModuleId big = spec->graph.IdOf("big");
  AdaptiveTuner tuner(cloud.region_router(), deployment->get());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tuner.Observe(big, 0.99).ok());
  }
  EXPECT_EQ((*deployment)->ResourcesOf(big).Get(ResourceKind::kCpu), 45000);
  const ResourceUnit* unit =
      (*deployment)->FindUnit((*deployment)->PlacementOf(big)->unit);
  std::set<DeviceId> blades;
  for (const PoolAllocation& alloc : unit->allocations) {
    for (const AllocationSlice& slice : alloc.slices) {
      if (alloc.kind == ResourceKind::kCpu) {
        blades.insert(slice.device);
      }
    }
  }
  EXPECT_EQ(blades.size(), 2u);
  ExpectVerifies(cloud, deployment->get());
  deployment->reset();
  EXPECT_EQ(cloud.attestation().provisioned_count(), 0u);
}

// A repair that finds no healthy replacement leaves the task's first
// compute slice empty on the dead blade, where its home and environment
// stay: the task is down. The tuner refuses to resize it. Otherwise a grow
// would spill its compute onto a healthy blade and the next shrink would
// erase the empty slice, leaving the compute on one node while home and
// environment name the dead one.
TEST(TunerVerifyTest, TaskARepairLeftWithoutComputeIsNotResized) {
  UdcCloudConfig config;
  config.datacenter.racks = 1;
  UdcCloud cloud(config);
  auto spec =
      ParseAppSpec("app down\ntask t work=100\naspect t resource cpu=1000m\n");
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const ModuleId t = spec->graph.IdOf("t");
  const DeviceId victim = CpuDeviceOf(**deployment, t);
  ResourcePool& blades = cloud.datacenter().pool(DeviceKind::kCpuBlade);
  for (const auto& blade : blades.devices()) {
    blade->set_health(DeviceHealth::kFailed);
  }
  CheckpointStore checkpoints;
  RepairService repair(cloud.region_router(), deployment->get(),
                       &checkpoints);
  const std::vector<RepairAction> actions = repair.HandleDeviceFailure(victim);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_FALSE(actions[0].success);
  for (const auto& blade : blades.devices()) {
    if (blade->id() != victim) {
      blade->set_health(DeviceHealth::kHealthy);
    }
  }

  // Hot windows that would grow a live task twice, then idle ones that
  // would shrink it.
  AdaptiveTuner tuner(cloud.region_router(), deployment->get());
  int refused = 0;
  for (const double utilization : {0.99, 0.99, 0.99, 0.99, 0.99, 0.99, 0.0,
                                   0.0}) {
    const Result<int64_t> delta = tuner.Observe(t, utilization);
    if (!delta.ok()) {
      EXPECT_EQ(delta.status().code(), StatusCode::kFailedPrecondition);
      ++refused;
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_EQ(tuner.resizes(), 0);
  const Placement* placement = (*deployment)->PlacementOf(t);
  const ResourceUnit* unit = (*deployment)->FindUnit(placement->unit);
  for (const PoolAllocation& alloc : unit->allocations) {
    if (alloc.kind == placement->compute_kind) {
      ASSERT_FALSE(alloc.slices.empty());
      EXPECT_EQ(alloc.slices.front().node, placement->home)
          << "home is not the first compute slice's node";
    }
  }
  ASSERT_NE(unit->env, nullptr);
  EXPECT_EQ(unit->env->node(), placement->home);
}

// --- Trace integration ---------------------------------------------------

TEST_F(ServiceTest, TraceRecordsControlPlaneEvents) {
  // Deployment placed every module: the scheduler emitted placement spans.
  const SpanTracer& spans = cloud_->sim()->spans();
  ASSERT_NE(spans.Find("sched.place_task", "module", "A2"), nullptr);
  ASSERT_NE(spans.Find("sched.place_data", "module", "S1"), nullptr);
  // Placement spans parent under the deploy span.
  const Span* place = spans.Find("sched.place_task", "module", "A2");
  const Span* deploy = spans.SpanById(place->parent_span_id);
  ASSERT_NE(deploy, nullptr);
  EXPECT_EQ(deploy->name, "sched.deploy");
  EXPECT_EQ(deploy->trace_id, place->trace_id);

  DagRuntime runtime(cloud_->sim(), deployment_.get());
  ASSERT_TRUE(runtime.RunOnce().ok());
  EXPECT_NE(spans.Find("exec.stage", "module", "A4"), nullptr);

  CheckpointStore checkpoints;
  RepairService repair(cloud_->region_router(), deployment_.get(),
                       &checkpoints);
  const Placement* a4 = deployment_->PlacementOf(spec_->graph.IdOf("A4"));
  const DeviceId victim =
      deployment_->FindUnit(a4->unit)->PrimaryDevice(ResourceKind::kCpu);
  cloud_->datacenter()
      .pool(DeviceKind::kCpuBlade)
      .FindDevice(victim)
      ->set_health(DeviceHealth::kFailed);
  const size_t actions = repair.HandleDeviceFailure(victim).size();

  // One repair.module span per action, labelled with how it ended.
  EXPECT_EQ(spans.SpansInCategory("repair").size(), actions);
  const Span* repaired = spans.Find("repair.module", "module", "A4");
  ASSERT_NE(repaired, nullptr);
  ASSERT_NE(repaired->Label("outcome"), nullptr);
  EXPECT_EQ(*repaired->Label("outcome"), "repaired");
  ASSERT_NE(repaired->Label("detail"), nullptr);
  EXPECT_TRUE(StartsWith(*repaired->Label("detail"), "re-placed "))
      << *repaired->Label("detail");
  // The repair's transaction nests under the module's span.
  const Span* txn = nullptr;
  for (const Span& span : spans.spans()) {
    if (span.name == "sched.txn" && span.parent_span_id == repaired->span_id) {
      txn = &span;
    }
  }
  ASSERT_NE(txn, nullptr);
  ASSERT_NE(txn->Label("purpose"), nullptr);
  EXPECT_EQ(*txn->Label("purpose"), "repair_task");
  EXPECT_EQ(txn->trace_id, repaired->trace_id);
  // The span reaches the Chrome export, which the flight recorder dumps.
  EXPECT_NE(ChromeTraceJson(spans, cloud_->sim()->now()).find("repair.module"),
            std::string::npos);
}

// The same parenting in every topology: whether the router places into one
// cell, into cells, or into regions of cells, the deploy span is
// the scope its txn span and every placement span open under — one trace
// per deploy, not one per span.
TEST(DeploySpanTest, PlacementSpansNestUnderTheDeployInEveryTopology) {
  struct Shape {
    int cells;
    int regions;
  };
  for (const Shape shape : {Shape{0, 0}, Shape{2, 0}, Shape{2, 2}}) {
    UdcCloudConfig config;
    config.datacenter.racks = 4;
    config.datacenter.cells = shape.cells;
    config.datacenter.regions = shape.regions;
    UdcCloud cloud(config);
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("hospital"), *MedicalAppSpec());
    ASSERT_TRUE(deployment.ok());
    const SpanTracer& spans = cloud.sim()->spans();
    const Span* deploy = spans.Find("sched.deploy");
    ASSERT_NE(deploy, nullptr);
    EXPECT_NE(deploy->Label("cell"), nullptr);
    EXPECT_NE(deploy->Label("region"), nullptr);
    for (const char* name :
         {"sched.txn", "sched.place_task", "sched.place_data"}) {
      const Span* child = spans.Find(name);
      ASSERT_NE(child, nullptr) << name;
      EXPECT_EQ(child->parent_span_id, deploy->span_id)
          << name << " cells=" << shape.cells
          << " regions=" << shape.regions;
      EXPECT_EQ(child->trace_id, deploy->trace_id)
          << name << " cells=" << shape.cells
          << " regions=" << shape.regions;
    }
  }
}

// --- CloudFrontend -------------------------------------------------------

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest() {
    cloud_ = std::make_unique<UdcCloud>();
    tenant_ = cloud_->RegisterTenant("hospital");
    const NodeId frontend_node =
        cloud_->datacenter().topology().AddNode(0, NodeRole::kServer);
    frontend_ = std::make_unique<CloudFrontend>(cloud_.get(), frontend_node);
    const NodeId client_node =
        cloud_->datacenter().topology().AddNode(0, NodeRole::kServer);
    client_ = std::make_unique<TenantClient>(cloud_->sim(), &cloud_->fabric(),
                                             client_node, frontend_node,
                                             tenant_);
  }

  using Method = void (TenantClient::*)(
      uint64_t, std::function<void(Result<std::string>)>);

  // Calls `method` on deployment `id` as `client` (the fixture's tenant by
  // default) and returns the response.
  std::string Call(Method method, uint64_t id,
                   TenantClient* client = nullptr) {
    std::string response;
    ((client != nullptr ? client : client_.get())->*method)(
        id, [&](Result<std::string> r) {
          response = r.ok() ? *r : "rpc-error:" + r.status().ToString();
        });
    cloud_->sim()->RunToCompletion();
    return response;
  }

  std::unique_ptr<UdcCloud> cloud_;
  TenantId tenant_;
  std::unique_ptr<CloudFrontend> frontend_;
  std::unique_ptr<TenantClient> client_;
};

TEST_F(FrontendTest, DeployVerifyBillTeardownOverRpc) {
  std::string deploy_response;
  client_->Deploy(MedicalAppUdcl(), [&](Result<std::string> r) {
    deploy_response = r.value_or("FAIL");
  });
  cloud_->sim()->RunToCompletion();
  ASSERT_TRUE(StartsWith(deploy_response, "ok:")) << deploy_response;
  uint64_t id = 0;
  ASSERT_TRUE(ParseUint64(
      std::string_view(deploy_response).substr(3), &id));
  EXPECT_EQ(frontend_->live_deployments(), 1u);

  const std::string verify = Call(&TenantClient::Verify, id);
  EXPECT_TRUE(StartsWith(verify, "ok:")) << verify;
  EXPECT_NE(verify.find("ALL PASS"), std::string::npos);

  const std::string bill = Call(&TenantClient::Bill, id);
  EXPECT_TRUE(StartsWith(bill, "ok:"));
  EXPECT_NE(bill.find("TOTAL"), std::string::npos);

  const std::string teardown = Call(&TenantClient::Teardown, id);
  EXPECT_EQ(teardown, "ok:released");
  EXPECT_EQ(frontend_->live_deployments(), 0u);
  EXPECT_TRUE(cloud_->datacenter().TotalAllocated().IsZero());
}

TEST_F(FrontendTest, RejectsMalformedSpecOverRpc) {
  std::string response;
  client_->Deploy("definitely not a udcl document", [&](Result<std::string> r) {
    response = r.value_or("FAIL");
  });
  cloud_->sim()->RunToCompletion();
  EXPECT_TRUE(StartsWith(response, "err:")) << response;
}

TEST_F(FrontendTest, TenantIsolationOnDeploymentIds) {
  std::string deploy_response;
  client_->Deploy(MedicalAppUdcl(), [&](Result<std::string> r) {
    deploy_response = r.value_or("FAIL");
  });
  cloud_->sim()->RunToCompletion();
  ASSERT_TRUE(StartsWith(deploy_response, "ok:"));
  uint64_t id = 0;
  ASSERT_TRUE(ParseUint64(std::string_view(deploy_response).substr(3), &id));

  // Another tenant cannot bill, verify or tear down this deployment.
  const TenantId other = cloud_->RegisterTenant("rival");
  const NodeId rival_node =
      cloud_->datacenter().topology().AddNode(0, NodeRole::kServer);
  TenantClient rival(cloud_->sim(), &cloud_->fabric(), rival_node,
                     frontend_->node(), other);
  for (const Method method : {&TenantClient::Verify, &TenantClient::Bill,
                              &TenantClient::Teardown}) {
    EXPECT_EQ(Call(method, id, &rival),
              "err:PERMISSION_DENIED: not your deployment");
  }
  EXPECT_EQ(frontend_->live_deployments(), 1u);  // still alive
}

TEST_F(FrontendTest, UnknownDeploymentIdRejected) {
  const std::string response = Call(&TenantClient::Bill, 999);
  EXPECT_TRUE(StartsWith(response, "err:"));
}

// The frontend's spec cache, seen through single deploy RPCs: the
// counters, the shared AppSpec and what stays deployable after eviction.
class FrontendSpecCacheTest : public FrontendTest {
 protected:
  // a2 asks for 9,000 cpus, more than any device holds.
  static constexpr const char* kTooBig =
      "app a\ntask a1 work=1\ntask a2 work=1\nedge a1 -> a2\n"
      "aspect a1 resource cpu=500m\naspect a2 resource cpu=9000000m\n";
  static constexpr const char* kSmall =
      "app b\ntask b1 work=1\ntask b2 work=1\nedge b1 -> b2\n"
      "aspect b1 resource cpu=500m\naspect b2 resource cpu=500m\n";

  // Sends one deploy RPC as `client` (the fixture's tenant by default) and
  // returns the deployment id, or "x" when the frontend answered an error.
  std::string Deploy(const std::string& udcl, TenantClient* client = nullptr) {
    std::string response;
    (client != nullptr ? client : client_.get())
        ->Deploy(udcl, [&](Result<std::string> r) {
          response = r.value_or("FAIL");
        });
    cloud_->sim()->RunToCompletion();
    if (StartsWith(response, "ok:")) {
      return response.substr(3);
    }
    EXPECT_TRUE(StartsWith(response, "err:")) << response;
    return "x";
  }

  uint64_t Id(const std::string& token) {
    uint64_t id = 0;
    EXPECT_TRUE(ParseUint64(token, &id)) << token;
    return id;
  }

  Deployment* Find(const std::string& token) {
    return frontend_->FindDeployment(Id(token));
  }

  int64_t Hits() const {
    return cloud_->sim()->metrics().counter("frontend.spec_cache_hits");
  }
  int64_t Misses() const {
    return cloud_->sim()->metrics().counter("frontend.spec_cache_misses");
  }
};

// A spec no device can hold, then one that fits, an unparseable text and
// the fitting one again, each its own deploy RPC. The rejected spec must
// leave nothing behind that changes how the next one is placed, and both
// deployments of the fitting text share its one cached spec.
TEST_F(FrontendSpecCacheTest, RejectedSpecDoesNotChangeTheNextSpecsPlacement) {
  const std::vector<std::string> tokens = {
      Deploy(kTooBig), Deploy(kSmall), Deploy("not udcl"), Deploy(kSmall)};
  EXPECT_EQ(tokens[0], "x");
  EXPECT_EQ(tokens[2], "x");
  Deployment* first = Find(tokens[1]);
  Deployment* second = Find(tokens[3]);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(&first->spec(), &second->spec());
  EXPECT_EQ(frontend_->live_deployments(), 2u);

  // Every admitted deploy feeds the deploy SLO's series; the rejected and
  // unparseable ones do not.
  const MetricsRegistry& metrics = cloud_->sim()->metrics();
  const MetricHistogram* latency =
      metrics.histogram("frontend.deploy_latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2);
  EXPECT_EQ(metrics.counter("frontend.deploys"), 2);
  // kTooBig parsed, so it stays cached though placement rejected it.
  EXPECT_EQ(Misses(), 3);
  EXPECT_EQ(Hits(), 1);
  EXPECT_EQ(frontend_->cached_specs(), 2u);
}

TEST_F(FrontendSpecCacheTest, ChangedTextNeverHitsAStaleEntry) {
  std::string changed = kSmall;
  const std::string from = "aspect b2 resource cpu=500m";
  changed.replace(changed.find(from), from.size(),
                  "aspect b2 resource cpu=1500m");
  Deployment* original = Find(Deploy(kSmall));
  Deployment* edited = Find(Deploy(changed));
  ASSERT_NE(original, nullptr);
  ASSERT_NE(edited, nullptr);
  EXPECT_EQ(Misses(), 2);
  EXPECT_EQ(Hits(), 0);
  const auto cpu_of_b2 = [](const Deployment* d) {
    return d->ResourcesOf(d->spec().graph.FindByName("b2")->id)
        .Get(ResourceKind::kCpu);
  };
  EXPECT_EQ(cpu_of_b2(original), 500);
  EXPECT_EQ(cpu_of_b2(edited), 1500);
}

TEST_F(FrontendSpecCacheTest, ParseFailureIsNotCached) {
  EXPECT_EQ(Deploy("not udcl"), "x");
  EXPECT_EQ(Deploy("not udcl"), "x");
  EXPECT_EQ(Misses(), 2);
  EXPECT_EQ(Hits(), 0);
  EXPECT_EQ(frontend_->cached_specs(), 0u);
}

// Three texts of a third of the budget each: the third one pushes the
// cache past its budget, and the entry that goes is the one used least
// recently, not the one cached first.
TEST_F(FrontendSpecCacheTest, BudgetEvictsTheLeastRecentlyUsedSpec) {
  const auto padded = [](char fill) {
    return std::string(kSmall) + "# " +
           std::string(CloudFrontend::kSpecCacheBytes / 3, fill) + "\n";
  };
  const std::string a = padded('a');
  const std::string b = padded('b');
  const std::string c = padded('c');
  const std::string first_a = Deploy(a);
  const std::string first_b = Deploy(b);
  Deploy(a);  // a is now the most recently used
  EXPECT_EQ(Hits(), 1);
  Deploy(c);  // over budget: b goes
  EXPECT_EQ(frontend_->cached_specs(), 2u);
  EXPECT_EQ(Misses(), 3);
  Deploy(a);
  EXPECT_EQ(Hits(), 2);
  Deploy(b);
  EXPECT_EQ(Misses(), 4);
  EXPECT_EQ(frontend_->live_deployments(), 6u);

  // The first deployment of b outlived its cache entry and still holds its
  // spec: it verifies and tears down like any other.
  const std::string verify = Call(&TenantClient::Verify, Id(first_b));
  EXPECT_NE(verify.find("ALL PASS"), std::string::npos) << verify;
  EXPECT_EQ(Call(&TenantClient::Teardown, Id(first_b)), "ok:released");
  EXPECT_EQ(frontend_->live_deployments(), 5u);
}

TEST_F(FrontendSpecCacheTest, TenantsDeployingOneTextShareOneSpec) {
  const TenantId other = cloud_->RegisterTenant("clinic");
  const NodeId other_node =
      cloud_->datacenter().topology().AddNode(0, NodeRole::kServer);
  TenantClient clinic(cloud_->sim(), &cloud_->fabric(), other_node,
                      frontend_->node(), other);
  const std::string mine = Deploy(MedicalAppUdcl());
  const std::string theirs = Deploy(MedicalAppUdcl(), &clinic);
  Deployment* a = Find(mine);
  Deployment* b = Find(theirs);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(&a->spec(), &b->spec());
  EXPECT_EQ(Hits(), 1);

  EXPECT_EQ(Call(&TenantClient::Teardown, Id(mine)), "ok:released");
  const std::string verify = Call(&TenantClient::Verify, Id(theirs), &clinic);
  EXPECT_NE(verify.find("ALL PASS"), std::string::npos) << verify;
}

}  // namespace
}  // namespace udc
