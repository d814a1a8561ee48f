// Tests for the control-plane services layered on the core: the repair
// orchestrator, the actor-based executor, hybrid deployment, and the RPC
// frontend.

#include <gtest/gtest.h>

#include "src/core/actor_executor.h"
#include "src/core/frontend.h"
#include "src/core/hybrid.h"
#include "src/core/auditor.h"
#include "src/core/defrag.h"
#include "src/core/monitor.h"
#include "src/core/repair.h"
#include "src/core/runtime.h"
#include "src/common/strings.h"
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

// --- RepairService -------------------------------------------------------

TEST_F(ServiceTest, RepairReplacesFailedComputeDevice) {
  CheckpointStore checkpoints;
  RepairService repair(cloud_->sim(), deployment_.get(), &cloud_->envs(),
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

TEST_F(ServiceTest, RepairRebuildsFailedReplica) {
  CheckpointStore checkpoints;
  RepairService repair(cloud_->sim(), deployment_.get(), &cloud_->envs(),
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
  RepairService repair(cloud_->sim(), deployment_.get(), &cloud_->envs(),
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
  RepairService repair(cloud.sim(), deployment->get(), &cloud.envs(),
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

TEST_F(ServiceTest, ActorExecutionMatchesDagShape) {
  ActorExecutor executor(cloud_->sim(), deployment_.get());
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
  ActorExecutor executor(cloud_->sim(), deployment_.get());
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
  ActorExecutor executor(cloud_->sim(), deployment_.get());
  int completions = 0;
  executor.Submit([&](const InvocationResult&) { ++completions; });
  cloud_->sim()->RunToCompletion();
  EXPECT_EQ(completions, 1);

  const ModuleId a2 = spec_->graph.IdOf("A2");
  const auto replayed = executor.CrashAndRecover(a2);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GE(*replayed, 1u);  // its input message was logged
  cloud_->sim()->RunToCompletion();
  // Replay of a completed invocation is ignored (no double completion).
  EXPECT_EQ(completions, 1);
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
                              fill_constraints,
                              cloud.datacenter().topology());
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

  Defragmenter defrag(cloud.sim(), deployment->get());
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
}

TEST(DefragTest, NoOpWhenUnfragmented) {
  UdcCloud cloud;
  const TenantId tenant = cloud.RegisterTenant("t");
  auto spec = ParseAppSpec("app x\ntask t work=1\naspect t resource cpu=500m\n");
  ASSERT_TRUE(spec.ok());
  auto deployment = cloud.Deploy(tenant, *spec);
  ASSERT_TRUE(deployment.ok());
  Defragmenter defrag(cloud.sim(), deployment->get());
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
  Defragmenter defrag(cloud.sim(), deployment->get());
  ASSERT_TRUE(defrag.Consolidate().ok());
  const auto again = defrag.Consolidate();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->moves, 0);
}

// --- Trace integration ---------------------------------------------------

TEST_F(ServiceTest, TraceRecordsControlPlaneEvents) {
  // Deployment placed every module: the scheduler emitted placement spans
  // (mirrored into the legacy trace as "name k=v" lines).
  const SpanTracer& spans = cloud_->sim()->spans();
  ASSERT_NE(spans.Find("sched.place_task", "module", "A2"), nullptr);
  ASSERT_NE(spans.Find("sched.place_data", "module", "S1"), nullptr);
  EXPECT_TRUE(cloud_->sim()->trace().Contains("sched", "module=A2"));
  EXPECT_TRUE(cloud_->sim()->trace().Contains("sched", "module=S1"));
  // Placement spans parent under the deploy span.
  const Span* place = spans.Find("sched.place_task", "module", "A2");
  const Span* deploy = spans.SpanById(place->parent_span_id);
  ASSERT_NE(deploy, nullptr);
  EXPECT_EQ(deploy->name, "sched.deploy");
  EXPECT_EQ(deploy->trace_id, place->trace_id);

  DagRuntime runtime(cloud_->sim(), deployment_.get());
  ASSERT_TRUE(runtime.RunOnce().ok());
  EXPECT_NE(spans.Find("exec.stage", "module", "A4"), nullptr);
  EXPECT_TRUE(cloud_->sim()->trace().Contains("exec", "module=A4"));

  CheckpointStore checkpoints;
  RepairService repair(cloud_->sim(), deployment_.get(), &cloud_->envs(),
                       &checkpoints);
  const Placement* a4 = deployment_->PlacementOf(spec_->graph.IdOf("A4"));
  const DeviceId victim =
      deployment_->FindUnit(a4->unit)->PrimaryDevice(ResourceKind::kCpu);
  cloud_->datacenter()
      .pool(DeviceKind::kCpuBlade)
      .FindDevice(victim)
      ->set_health(DeviceHealth::kFailed);
  (void)repair.HandleDeviceFailure(victim);
  EXPECT_TRUE(cloud_->sim()->trace().Contains("repair", "A4"));
}

// The same parenting in every topology: whether the router places into one
// unscoped cell, into cells, or into regions of cells, the deploy span is
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
    EXPECT_EQ(deploy->Label("region") != nullptr, shape.regions > 0);
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


// --- UtilizationMonitor --------------------------------------------------

TEST_F(ServiceTest, MonitorFlushesWindowsAndFeedsTuner) {
  AdaptiveTuner tuner(cloud_->sim(), deployment_.get());
  UtilizationMonitor monitor(cloud_->sim(), &tuner, SimTime::Minutes(10));
  const ModuleId a3 = spec_->graph.IdOf("A3");
  const int64_t before = deployment_->ResourcesOf(a3).Get(ResourceKind::kGpu);

  // A3 runs hot for an hour: ~95% busy per window.
  for (int minute = 0; minute < 60; ++minute) {
    cloud_->sim()->RunUntil(SimTime::Minutes(minute + 1));
    monitor.ReportBusy(a3, Scale(SimTime::Minutes(1), 0.95));
  }
  monitor.Flush();
  EXPECT_GE(monitor.windows_flushed(), 5);
  EXPECT_GT(monitor.LastUtilization(a3), 0.9);
  // The tuner grew the hot slice.
  EXPECT_GT(deployment_->ResourcesOf(a3).Get(ResourceKind::kGpu), before);
}

TEST_F(ServiceTest, MonitorObserveOnlyModeNeedsNoTuner) {
  UtilizationMonitor monitor(cloud_->sim(), nullptr, SimTime::Minutes(5));
  const ModuleId b2 = spec_->graph.IdOf("B2");
  cloud_->sim()->RunUntil(SimTime::Minutes(6));
  monitor.ReportBusy(b2, SimTime::Minutes(1));
  cloud_->sim()->RunUntil(SimTime::Minutes(12));
  monitor.Flush();
  EXPECT_GT(monitor.windows_flushed(), 0);
  // Utilization lands in a per-module labeled gauge, not a shared series.
  const MetricLabels b2_labels = {
      {"module",
       StrFormat("%llu", static_cast<unsigned long long>(b2.value()))}};
  EXPECT_GT(cloud_->sim()->metrics().gauge("monitor.utilization", b2_labels),
            0.0);
  EXPECT_GT(cloud_->sim()->metrics().counter("monitor.windows_flushed"), 0);
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

  std::string Call(void (TenantClient::*method)(uint64_t,
                                                std::function<void(Result<std::string>)>),
                   uint64_t id) {
    std::string response;
    (client_.get()->*method)(id, [&](Result<std::string> r) {
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
  std::string response;
  rival.Teardown(id, [&](Result<std::string> r) {
    response = r.value_or("FAIL");
  });
  cloud_->sim()->RunToCompletion();
  EXPECT_NE(response.find("PERMISSION_DENIED"), std::string::npos);
  EXPECT_EQ(frontend_->live_deployments(), 1u);  // still alive
}

TEST_F(FrontendTest, UnknownDeploymentIdRejected) {
  const std::string response = Call(&TenantClient::Bill, 999);
  EXPECT_TRUE(StartsWith(response, "err:"));
}

}  // namespace
}  // namespace udc
