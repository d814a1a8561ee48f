// E11 — Design-choice ablation (sec. 3.1-3.2): locality hints and the
// adaptive tuner.
//
// Runs the medical app under {locality on/off} x {tuner on/off} and reports
// cross-rack input edges, end-to-end latency, and the hourly bill. A tuner
// leg serves an hour of Poisson invocations through the actor executor,
// which feeds the tuner each module's measured busy fraction. Every leg
// then times one invocation at the same simulated time, after environment
// start-up, so the tuner gets no credit for a warm-up. Exits 1 unless each
// tuner leg both grew and shrank a slice.

#include <cmath>
#include <cstdio>

#include "src/core/actor_executor.h"
#include "src/core/runtime.h"
#include "src/core/tuner.h"
#include "src/core/udc_cloud.h"
#include "src/workload/medical.h"

namespace {

// At 11 invocations/s B2, the analytics stage (about 84 ms a run), is about
// 92% busy, above the tuner's 0.85 high watermark, while the diagnosis
// stages A1-A4 are 1-7% busy, below its 0.30 low watermark, so the tuner
// must both grow and shrink. At 10/s B2 sits at 84% and nothing grows.
constexpr double kInvocationsPerSecond = 11.0;
// When every leg times its invocation: after the tuner legs' hour of load
// and the executor's last windows (its timer stops by 1.5 h).
constexpr udc::SimTime kMeasureAt = udc::SimTime::Hours(2);

struct Outcome {
  long long cross_rack = 0;
  udc::SimTime end_to_end;
  udc::SimTime hot_stage_compute;  // A3, the busiest GPU stage
  udc::Money bill;
  long long grows = 0;
  long long shrinks = 0;
};

udc::Result<Outcome> RunConfig(bool locality, bool tuner_on) {
  udc::UdcCloudConfig config;
  config.datacenter.racks = 6;
  config.scheduler.use_locality_hints = locality;
  udc::UdcCloud cloud(config);
  const udc::TenantId tenant = cloud.RegisterTenant("hospital");
  UDC_ASSIGN_OR_RETURN(const udc::AppSpec spec, udc::MedicalAppSpec());
  UDC_ASSIGN_OR_RETURN(std::unique_ptr<udc::Deployment> deployment,
                       cloud.Deploy(tenant, spec));

  udc::AdaptiveTuner tuner(cloud.region_router(), deployment.get());
  udc::ActorExecutor executor(cloud.sim(), deployment.get(), tuner);
  if (tuner_on) {
    udc::Rng rng(11);
    for (double t = rng.NextExponential(kInvocationsPerSecond); t < 3600.0;
         t += rng.NextExponential(kInvocationsPerSecond)) {
      cloud.sim()->At(udc::SimTime::Micros(std::llround(t * 1e6)),
                      [&executor] { executor.Submit(nullptr); });
    }
  }
  cloud.sim()->RunUntil(kMeasureAt);

  udc::DagRuntime runtime(cloud.sim(), deployment.get());
  UDC_ASSIGN_OR_RETURN(const udc::RunReport report, runtime.RunOnce());
  Outcome outcome;
  outcome.cross_rack = report.cross_rack_transfers;
  outcome.end_to_end = report.end_to_end;
  const udc::StageStats* a3 = report.StageOf("A3");
  if (a3 != nullptr) {
    outcome.hot_stage_compute = a3->compute_time;
  }
  outcome.bill = cloud.billing()
                     .BillFor(*deployment, udc::SimTime(0), udc::SimTime::Hours(1))
                     .total;
  outcome.grows = cloud.sim()->metrics().counter("tuner.grows");
  outcome.shrinks = cloud.sim()->metrics().counter("tuner.shrinks");
  return outcome;
}

}  // namespace

int main() {
  std::printf("E11 — scheduler ablation: locality hints x adaptive tuner\n\n");
  std::printf("%-26s %12s %14s %14s %12s %8s %8s\n", "configuration",
              "cross-rack", "end-to-end", "A3 compute", "bill/hour", "grows",
              "shrinks");
  const struct {
    const char* name;
    bool locality;
    bool tuner;
  } kConfigs[] = {
      {"locality + tuner", true, true},
      {"locality only", true, false},
      {"tuner only", false, true},
      {"neither", false, false},
  };
  for (const auto& c : kConfigs) {
    const auto outcome = RunConfig(c.locality, c.tuner);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s: %s\n", c.name,
                   outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("%-26s %12lld %14s %14s %12s %8lld %8lld\n", c.name,
                outcome->cross_rack, outcome->end_to_end.ToString().c_str(),
                outcome->hot_stage_compute.ToString().c_str(),
                outcome->bill.ToString().c_str(), outcome->grows,
                outcome->shrinks);
    if (c.tuner && (outcome->grows == 0 || outcome->shrinks == 0)) {
      std::fprintf(stderr, "FAIL: %s did not both grow and shrink\n", c.name);
      return 1;
    }
  }
  std::printf("\npaper expectation: locality hints cut cross-rack data movement\n"
              "(sec. 3.1). The tuner right-sizes from measured utilization: idle\n"
              "GPU stages (A3) shrink and compute slower at a much lower bill,\n"
              "and the saturated analytics stage (B2) grows, shortening end-to-end\n"
              "latency — the fine-tuning loop of sec. 3.2. Neither knob changes\n"
              "correctness, only the cost/performance point.\n");
  return 0;
}
