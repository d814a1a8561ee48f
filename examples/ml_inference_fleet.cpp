// Event-triggered ML inference on UDC (the paper's claim-C4 scenario):
// a GPU-sliced, fine-grained deployment handles a bursty request stream,
// with warm pools hiding environment start latency. The adaptive tuner
// watches the slice but never resizes it here: each request takes about
// 3.2 ms of the 250m slice, so its utilization stays far under the tuner's
// 0.30 low watermark, and the slice already sits at the tuner's 250m
// floor. The small slice, not tuning, is what makes the stream cheap.
// Compares against what the same stream costs on FaaS (CPU-only) and an
// always-on IaaS GPU box.

#include <cstdio>

#include "src/baseline/faas.h"
#include "src/baseline/iaas.h"
#include "src/common/histogram.h"
#include "src/core/actor_executor.h"
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

  // UDC path: each request enters the actor executor at its arrival time and
  // queues behind the slice while it is busy; the executor reports the
  // slice's utilization to the tuner every window.
  udc::AdaptiveTuner tuner(cloud.region_router(), deployment->get());
  udc::ActorExecutor executor(cloud.sim(), deployment->get(), tuner);
  udc::Histogram udc_latency;
  for (const udc::InferenceRequest& req : trace) {
    cloud.sim()->At(req.arrival, [&executor, &udc_latency] {
      executor.Submit([&udc_latency](const udc::InvocationResult& r) {
        udc_latency.Add(r.latency().millis());
      });
    });
  }
  cloud.sim()->RunUntil(trace_config.horizon);
  const udc::Bill bill = cloud.billing().BillToNow(**deployment);
  cloud.sim()->RunToCompletion();  // requests still queued at the horizon
  std::printf("\nUDC (fine-grained GPU slice + tuner):\n");
  std::printf("  latency  %s ms\n", udc_latency.Summary().c_str());
  const udc::ModuleId cnn = spec->graph.IdOf("cnn");
  std::printf("  tuner    %lld resizes, gpu slice %lldm\n",
              static_cast<long long>(tuner.resizes()),
              static_cast<long long>((*deployment)->ResourcesOf(cnn).Get(
                  udc::ResourceKind::kGpu)));
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
