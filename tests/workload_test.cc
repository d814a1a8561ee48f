#include <gtest/gtest.h>

#include "src/common/histogram.h"
#include "src/core/runtime.h"
#include "src/core/udc_cloud.h"
#include "src/workload/inference.h"
#include "src/workload/medical.h"
#include "src/workload/microservices.h"
#include "src/workload/tenants.h"

namespace udc {
namespace {

TEST(TenantMixTest, DeterministicPerSeed) {
  Rng a(5);
  Rng b(5);
  const auto mix_a = SampleTenantMix(a, 50);
  const auto mix_b = SampleTenantMix(b, 50);
  ASSERT_EQ(mix_a.size(), mix_b.size());
  for (size_t i = 0; i < mix_a.size(); ++i) {
    EXPECT_EQ(mix_a[i].demand, mix_b[i].demand);
    EXPECT_EQ(mix_a[i].lifetime, mix_b[i].lifetime);
  }
}

TEST(TenantMixTest, RespectsConfiguredFractions) {
  Rng rng(9);
  TenantMixConfig config;
  config.gpu_fraction = 0.5;
  const auto mix = SampleTenantMix(rng, 2000, config);
  int gpu = 0;
  for (const TenantDemand& d : mix) {
    if (d.gpu_heavy) {
      ++gpu;
      EXPECT_GT(d.demand.Get(ResourceKind::kGpu), 0);
      // The paper's shape: GPU tenants want few cores.
      EXPECT_LE(d.demand.Get(ResourceKind::kCpu), 4000);
    }
    EXPECT_GT(d.demand.Get(ResourceKind::kCpu), 0);
    EXPECT_GE(d.lifetime, SimTime::Minutes(10));
  }
  EXPECT_NEAR(static_cast<double>(gpu) / 2000.0, 0.5, 0.05);
}

TEST(TenantMixTest, DemandsAreHeavyTailed) {
  Rng rng(11);
  const auto mix = SampleTenantMix(rng, 5000);
  Histogram cores;
  for (const TenantDemand& d : mix) {
    cores.Add(static_cast<double>(d.demand.Get(ResourceKind::kCpu)) / 1000.0);
  }
  // Median small, p99 much larger: the long tail instance shapes can't fit.
  EXPECT_LT(cores.Median(), 6.0);
  EXPECT_GT(cores.P99(), 4.0 * cores.Median());
}

TEST(InferenceTraceTest, ArrivalsSortedWithinHorizon) {
  Rng rng(3);
  InferenceTraceConfig config;
  config.horizon = SimTime::Hours(2);
  const auto trace = GenerateInferenceTrace(rng, config);
  ASSERT_GT(trace.size(), 50u);
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_LT(trace[i].arrival, config.horizon);
    if (i > 0) {
      EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
    }
    EXPECT_GT(trace[i].work_units, 0);
  }
}

TEST(InferenceTraceTest, RateScalesCount) {
  Rng a(5);
  Rng b(5);
  InferenceTraceConfig slow;
  slow.mean_rate_per_hour = 30;
  InferenceTraceConfig fast;
  fast.mean_rate_per_hour = 300;
  const auto few = GenerateInferenceTrace(a, slow);
  const auto many = GenerateInferenceTrace(b, fast);
  EXPECT_GT(many.size(), few.size() * 5);
}

TEST(MicroserviceTest, GeneratesValidDeployableApp) {
  Rng rng(21);
  const auto spec = GenerateMicroserviceApp(rng);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->graph.Validate().ok());
  // chain(4) + fanout(2) + db.
  EXPECT_EQ(spec->graph.TaskIds().size(), 6u);
  EXPECT_EQ(spec->graph.DataIds().size(), 1u);

  UdcCloud cloud;
  const TenantId t = cloud.RegisterTenant("shop");
  auto deployment = cloud.Deploy(t, *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  DagRuntime runtime(cloud.sim(), deployment->get());
  const auto report = runtime.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->end_to_end, SimTime(0));
  // The db affinity pulled the chain tail into the db's rack.
  const Placement* tail = (*deployment)->PlacementOf(spec->graph.IdOf("svc3"));
  const Placement* db = (*deployment)->PlacementOf(spec->graph.IdOf("db"));
  EXPECT_EQ(tail->rack, db->rack);
}

TEST(MicroserviceTest, ConfigShapesTheGraph) {
  Rng rng(22);
  MicroserviceConfig config;
  config.chain_length = 7;
  config.fanout_services = 0;
  config.stateful_backend = false;
  const auto spec = GenerateMicroserviceApp(rng, config);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->graph.TaskIds().size(), 7u);
  EXPECT_TRUE(spec->graph.DataIds().empty());
  // Pure chain: topological order is the chain order.
  const auto topo = spec->graph.TopoOrder();
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(spec->graph.Find((*topo)[0])->name, "svc0");
  EXPECT_EQ(spec->graph.Find((*topo)[6])->name, "svc6");
}

TEST(MicroserviceTest, RejectsEmptyChain) {
  Rng rng(23);
  MicroserviceConfig config;
  config.chain_length = 0;
  EXPECT_FALSE(GenerateMicroserviceApp(rng, config).ok());
}

TEST(MedicalWorkloadTest, UdclTextStaysInSyncWithFigure2) {
  const auto spec = MedicalAppSpec();
  ASSERT_TRUE(spec.ok());
  // The edges of Figure 2, spelled out.
  const auto has_edge = [&](const char* from, const char* to) {
    for (const ModuleId succ : spec->graph.Successors(spec->graph.IdOf(from))) {
      if (spec->graph.Find(succ)->name == to) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_edge("S3", "A1"));
  EXPECT_TRUE(has_edge("A1", "A2"));
  EXPECT_TRUE(has_edge("A2", "A4"));
  EXPECT_TRUE(has_edge("S1", "A3"));
  EXPECT_TRUE(has_edge("A3", "A4"));
  EXPECT_TRUE(has_edge("S1", "B1"));
  EXPECT_TRUE(has_edge("S2", "B1"));
  EXPECT_TRUE(has_edge("B1", "S4"));
  EXPECT_TRUE(has_edge("S4", "B2"));
}

}  // namespace
}  // namespace udc
