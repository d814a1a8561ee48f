// E11 — Design-choice ablation (sec. 3.1-3.2): locality hints and the
// adaptive tuner.
//
// Runs the medical app under {locality on/off} x {tuner on/off} and reports
// cross-rack input edges, end-to-end latency, and the hourly bill after the
// tuner has right-sized over-provisioned modules.

#include <cstdio>

#include "src/core/runtime.h"
#include "src/core/tuner.h"
#include "src/core/udc_cloud.h"
#include "src/workload/medical.h"

namespace {

struct Outcome {
  long long cross_rack = 0;
  udc::SimTime end_to_end;
  udc::SimTime hot_stage_compute;  // A3, the hottest GPU stage
  udc::Money bill;
  long long resizes = 0;
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

  udc::DagRuntime runtime(cloud.sim(), deployment.get());
  Outcome outcome;
  if (tuner_on) {
    udc::AdaptiveTuner tuner(cloud.region_router(), deployment.get());
    // Feedback phase: the runtime observes actual utilization; B-pipeline
    // modules are over-provisioned in this scenario (low utilization),
    // A-pipeline GPU stages run hot.
    const std::map<std::string, double> utilization = {
        {"A1", 0.5}, {"A2", 0.92}, {"A3", 0.95},
        {"A4", 0.6}, {"B1", 0.12}, {"B2", 0.08},
    };
    for (int round = 0; round < 4; ++round) {
      for (const auto& [name, util] : utilization) {
        (void)tuner.Observe(spec.graph.IdOf(name), util);
      }
    }
    outcome.resizes = tuner.resizes();
  }
  UDC_ASSIGN_OR_RETURN(const udc::RunReport report, runtime.RunOnce());
  outcome.cross_rack = report.cross_rack_transfers;
  outcome.end_to_end = report.end_to_end;
  const udc::StageStats* a3 = report.StageOf("A3");
  if (a3 != nullptr) {
    outcome.hot_stage_compute = a3->compute_time;
  }
  outcome.bill = cloud.billing()
                     .BillFor(*deployment, udc::SimTime(0), udc::SimTime::Hours(1))
                     .total;
  return outcome;
}

}  // namespace

int main() {
  std::printf("E11 — scheduler ablation: locality hints x adaptive tuner\n\n");
  std::printf("%-26s %12s %14s %14s %12s %10s\n", "configuration",
              "cross-rack", "end-to-end", "A3 compute", "bill/hour",
              "resizes");
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
    std::printf("%-26s %12lld %14s %14s %12s %10lld\n", c.name,
                outcome->cross_rack, outcome->end_to_end.ToString().c_str(),
                outcome->hot_stage_compute.ToString().c_str(),
                outcome->bill.ToString().c_str(), outcome->resizes);
  }
  std::printf("\npaper expectation: locality hints cut cross-rack data movement\n"
              "(sec. 3.1). The tuner right-sizes: hot GPU stages (A3) grow and\n"
              "compute faster at a higher bill; over-provisioned B-pipeline\n"
              "modules shrink — the fine-tuning loop of sec. 3.2. Neither knob\n"
              "changes correctness, only the cost/performance point.\n");
  return 0;
}
