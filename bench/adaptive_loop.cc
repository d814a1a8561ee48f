// E14 (ablation) — the closed adaptive loop of Design Principle 1.
//
// "These aspects will be fed to the cloud runtime, which customizes the
// infrastructure, runs the program, collects the feedback, and performs
// adaptive optimizations."
//
// An inference service starts deliberately under-provisioned (250m of a
// GPU). A bursty request stream drives it; every 15 simulated minutes the
// runtime reports the slice's utilization to the adaptive tuner, which
// grows or shrinks the slice. The table shows the loop converging: queueing
// latency collapses once the slice matches the offered load, and the slice
// shrinks back when the burst ends.

#include <algorithm>
#include <cstdio>

#include "src/common/histogram.h"
#include "src/core/runtime.h"
#include "src/core/tuner.h"
#include "src/core/udc_cloud.h"
#include "src/workload/inference.h"

int main() {
  udc::UdcCloud cloud;
  const udc::TenantId tenant = cloud.RegisterTenant("ml");
  const auto spec = udc::ParseAppSpec(R"(
app adaptive
task cnn work=3000000 out=64KiB  # video-scale inference, ~75ms on a V100
aspect cnn resource gpu=250m dram=4GiB
aspect cnn exec isolation=medium
)");
  auto deployment = cloud.Deploy(tenant, *spec);
  if (!deployment.ok()) {
    std::fprintf(stderr, "%s\n", deployment.status().ToString().c_str());
    return 1;
  }
  const udc::ModuleId cnn = spec->graph.IdOf("cnn");

  // Offered load: quiet, then a 2-hour burst, then quiet again.
  udc::Rng rng(17);
  std::vector<udc::InferenceRequest> trace;
  auto extend = [&](double rate_per_hour, double from_h, double to_h) {
    double t = from_h;
    for (;;) {
      t += rng.NextExponential(rate_per_hour);
      if (t >= to_h) {
        break;
      }
      udc::InferenceRequest req;
      req.arrival = udc::SimTime::Micros(static_cast<int64_t>(t * 3600e6));
      req.work_units = 3000000;
      trace.push_back(req);
    }
  };
  extend(2000, 0.0, 1.0);    // warm-up: ~17% of the initial slice
  extend(12000, 1.0, 3.0);   // burst: saturates the 250m slice
  extend(2000, 3.0, 5.0);    // cool-down

  udc::DagRuntime runtime(cloud.sim(), deployment->get());
  udc::AdaptiveTuner tuner(cloud.region_router(), deployment->get());

  std::printf("E14 (ablation) — adaptive feedback loop (tuner on)\n\n");
  std::printf("%-8s %10s %12s %12s %12s %10s\n", "window", "requests",
              "gpu slice", "p50 ms", "p99 ms", "util");

  const udc::SimTime window = udc::SimTime::Minutes(15);
  udc::SimTime busy_until;
  size_t next_request = 0;
  udc::SimTime service = runtime.ComputeStage(cnn)->compute_time;
  for (int w = 0; w < 20; ++w) {
    const udc::SimTime window_end = window * (w + 1);
    udc::Histogram latency;
    udc::SimTime busy_in_window;
    int requests = 0;
    while (next_request < trace.size() &&
           trace[next_request].arrival < window_end) {
      const udc::InferenceRequest& req = trace[next_request++];
      const udc::SimTime start = std::max(req.arrival, busy_until);
      busy_until = start + service;
      busy_in_window += service;
      latency.Add((busy_until - req.arrival).millis());
      ++requests;
    }
    const double util = std::min(
        2.0, busy_in_window.seconds() / window.seconds());
    (void)tuner.Observe(cnn, util);
    const auto stage = runtime.ComputeStage(cnn);
    if (stage.ok()) {
      service = stage->compute_time;
    }
    const int64_t slice =
        (*deployment)->ResourcesOf(cnn).Get(udc::ResourceKind::kGpu);
    std::printf("%-8d %10d %11lldm %12.1f %12.1f %9.0f%%\n", w, requests,
                static_cast<long long>(slice), latency.Median(), latency.P99(),
                util * 100.0);
  }
  std::printf("\ntuner: %lld resizes (%lld grows/shrinks recorded in metrics)\n",
              static_cast<long long>(tuner.resizes()),
              static_cast<long long>(
                  cloud.sim()->metrics().counter("tuner.grows") +
                  cloud.sim()->metrics().counter("tuner.shrinks")));
  std::printf("\npaper expectation: the burst saturates the initial slice (p99\n"
              "explodes); within a few feedback windows the tuner grows the\n"
              "slice until latency collapses, then reclaims it after the burst —\n"
              "no human in the loop, exactly the sec. 3 runtime feedback cycle.\n");
  return 0;
}
