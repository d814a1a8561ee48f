// Event-triggered ML inference on UDC (the paper's claim-C4 scenario):
// a GPU-sliced, fine-grained deployment handles a bursty request stream,
// with warm pools hiding environment start latency and the adaptive tuner
// resizing the GPU slice as load changes. Compares against what the same
// stream costs on FaaS (CPU-only) and an always-on IaaS GPU box.

#include <algorithm>
#include <cstdio>

#include "src/baseline/faas.h"
#include "src/baseline/iaas.h"
#include "src/common/histogram.h"
#include "src/core/runtime.h"
#include "src/core/tuner.h"
#include "src/core/udc_cloud.h"
#include "src/workload/inference.h"

int main() {
  udc::UdcCloud cloud;
  const udc::TenantId tenant = cloud.RegisterTenant("ml-service");

  // A single-module app: one CNN inference task on a fractional GPU.
  const auto spec = udc::ParseAppSpec(R"(
app infer
task cnn work=30000 out=64KiB
aspect cnn resource gpu=250m dram=4GiB
aspect cnn exec isolation=medium
)");
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto deployment = cloud.Deploy(tenant, *spec);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }

  // Generate a bursty day of inference requests.
  udc::Rng rng(7);
  udc::InferenceTraceConfig trace_config;
  trace_config.horizon = udc::SimTime::Hours(6);
  const auto trace = udc::GenerateInferenceTrace(rng, trace_config);
  std::printf("trace: %zu requests over %s\n", trace.size(),
              trace_config.horizon.ToString().c_str());

  // UDC path: the deployed slice serves requests; the tuner watches load.
  udc::DagRuntime runtime(cloud.sim(), deployment->get());
  udc::AdaptiveTuner tuner(cloud.region_router(), deployment->get());
  auto stage = runtime.ComputeStage(spec->graph.IdOf("cnn"));
  if (!stage.ok()) {
    std::fprintf(stderr, "stage: %s\n", stage.status().ToString().c_str());
    return 1;
  }
  udc::SimTime service_time = stage->compute_time;
  udc::Histogram udc_latency;
  udc::SimTime busy_until;
  udc::SimTime window_start;
  udc::SimTime window_busy;
  for (const udc::InferenceRequest& req : trace) {
    // Queue behind the slice if it is busy (single-slice M/D/1-ish model).
    const udc::SimTime start = std::max(req.arrival, busy_until);
    const udc::SimTime service = service_time;
    busy_until = start + service;
    udc_latency.Add((busy_until - req.arrival).millis());
    window_busy += service;
    // Every 10 minutes, report utilization to the tuner.
    if (req.arrival - window_start > udc::SimTime::Minutes(10)) {
      const double util = std::min(
          1.5, window_busy.seconds() /
                   (req.arrival - window_start).seconds());
      (void)tuner.Observe(spec->graph.IdOf("cnn"), util);
      window_start = req.arrival;
      window_busy = udc::SimTime(0);
      // Slice size changes affect service time from here on.
      const auto new_stage = runtime.ComputeStage(spec->graph.IdOf("cnn"));
      if (new_stage.ok()) {
        service_time = new_stage->compute_time;
      }
    }
  }
  std::printf("\nUDC (fine-grained GPU slice + tuner):\n");
  std::printf("  latency  %s ms\n", udc_latency.Summary().c_str());
  std::printf("  tuner    %lld resizes, %lld migrations\n",
              static_cast<long long>(tuner.resizes()),
              static_cast<long long>(tuner.migrations()));
  cloud.sim()->RunUntil(trace_config.horizon);
  const udc::Bill bill = cloud.billing().BillToNow(**deployment);
  std::printf("  cost     %s for %s\n", bill.total.ToString().c_str(),
              trace_config.horizon.ToString().c_str());

  // FaaS path: CPU-only, pay per invocation.
  udc::Simulation faas_sim(1);
  udc::FaasCloud faas(&faas_sim);
  udc::Histogram faas_latency;
  udc::Money faas_cost;
  for (const udc::InferenceRequest& req : trace) {
    faas_sim.RunUntil(req.arrival);
    const udc::FaasInvocationResult r =
        faas.Invoke(udc::FaasFunction{"cnn", udc::Bytes::MiB(3008),
                                      req.work_units});
    faas_latency.Add(r.latency.millis());
    faas_cost += r.charge;
  }
  std::printf("\nFaaS (CPU-only serverless):\n");
  std::printf("  latency  %s ms (%llu cold starts)\n",
              faas_latency.Summary().c_str(),
              static_cast<unsigned long long>(faas.cold_starts()));
  std::printf("  cost     %s\n", faas_cost.ToString().c_str());

  // IaaS path: an always-on GPU instance.
  const udc::InstanceCatalog catalog = udc::InstanceCatalog::Ec2Style();
  const auto instance = catalog.CheapestFitting(
      udc::ResourceVector::MilliGpu(1000) + udc::ResourceVector::MilliCpu(1000) +
      udc::ResourceVector::Dram(udc::Bytes::GiB(16)));
  if (instance.ok()) {
    const double hours = trace_config.horizon.hours();
    std::printf("\nIaaS (always-on %s):\n", instance->name.c_str());
    std::printf("  latency  ~%.1f ms per request (no queueing, no cold start)\n",
                30000.0 / 40.0 / 1000.0);
    std::printf("  cost     $%.2f (%.1f h x %s/h, paid even when idle)\n",
                instance->hourly.dollars() * hours, hours,
                instance->hourly.ToString().c_str());
  }
  return 0;
}
