// E13 (ablation) — the cost of making fulfillment verifiable.
//
// DESIGN.md makes verification a first-class feature (quotes for
// environments, resource-ledger rows and replicas). This bench quantifies
// what that costs as applications grow: quotes issued and verifier CPU time
// per full-deployment verification, at 12..384 modules, plus the continuous
// auditor's steady-state quote rate. It first prints which SHA-256
// compression the process selected, since the verifier time depends on it.
//
// Gate (exit 1): at 384 modules a verification issues at most
// kMaxQuotesPerModule quotes per module. Quote counts are deterministic,
// so the gate does not depend on the host. Runs as the
// attestation_overhead_smoke ctest.

#include <chrono>
#include <cstdio>

#include "src/core/auditor.h"
#include "src/core/udc_cloud.h"
#include "src/crypto/sha256.h"

namespace {

// One resource quote per device the deployment holds slices on, one
// environment quote per verifiable task and one per replica come to 0.7 per
// module at 384 modules, since modules share devices. Quoting each
// module's devices separately reads 2.6, and quoting whole pools again
// pushes this past 15.
constexpr double kMaxQuotesPerModule = 1.0;

// A wide fan-out app with n tasks and n/5 replicated data modules.
udc::AppSpec MakeApp(int tasks) {
  udc::AppSpec spec;
  spec.graph.set_app_name("scale");
  for (int i = 0; i < tasks; ++i) {
    auto id = spec.graph.AddTask("t" + std::to_string(i), 1000);
    udc::AspectSet aspects = udc::ProviderDefaults();
    aspects.resource.defined = true;
    aspects.resource.objective = udc::ResourceObjective::kExplicit;
    aspects.resource.demand = udc::ResourceVector::MilliCpu(250) +
                              udc::ResourceVector::Dram(udc::Bytes::MiB(256));
    // Every 3rd module wants verifiable strong isolation.
    if (i % 3 == 0) {
      aspects.exec.defined = true;
      aspects.exec.isolation = udc::IsolationLevel::kStrong;
      aspects.exec.tenancy = udc::TenancyMode::kShared;  // enclave, shared ok
      aspects.exec.explicit_env = udc::EnvKind::kTeeEnclave;
    }
    spec.aspects[*id] = aspects;
  }
  for (int i = 0; i < tasks / 5; ++i) {
    auto id = spec.graph.AddData("d" + std::to_string(i), udc::Bytes::GiB(1));
    udc::AspectSet aspects = udc::ProviderDefaults();
    aspects.dist.defined = true;
    aspects.dist.replication_factor = 2;
    spec.aspects[*id] = aspects;
  }
  return spec;
}

}  // namespace

int main() {
  std::printf("E13 (ablation) — attestation & verification overhead at scale\n");
  // The verifier's time is mostly SHA-256, so name the compression that ran.
  std::printf("sha256 compression: %s\n\n",
              udc::internal::Sha256UsesShaExtensions()
                  ? "x86-64 SHA extensions"
                  : "portable loop");
  std::printf("%-10s %12s %14s %16s %18s\n", "modules", "quotes", "verify ms",
              "quotes/module", "us per module");

  double quotes_per_module = 0.0;  // at the largest app
  for (const int tasks : {10, 20, 40, 80, 160, 320}) {
    udc::UdcCloudConfig config;
    config.datacenter.racks = 8;
    config.datacenter.rack.cpu_blades = 16;
    config.datacenter.rack.dram_modules = 16;
    udc::UdcCloud cloud(config);
    const udc::TenantId tenant = cloud.RegisterTenant("t");
    const udc::AppSpec spec = MakeApp(tasks);
    auto deployment = cloud.Deploy(tenant, spec);
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy %d: %s\n", tasks,
                   deployment.status().ToString().c_str());
      return 1;
    }
    const uint64_t quotes_before = cloud.attestation().quotes_issued();
    const auto wall_start = std::chrono::steady_clock::now();
    auto verification = cloud.Verify(deployment->get());
    const auto wall_end = std::chrono::steady_clock::now();
    if (!verification.ok() || !verification->all_ok) {
      std::fprintf(stderr, "verification failed at %d modules\n", tasks);
      return 1;
    }
    const uint64_t quotes = cloud.attestation().quotes_issued() - quotes_before;
    const double ms =
        std::chrono::duration<double, std::milli>(wall_end - wall_start)
            .count();
    const size_t modules = spec.graph.size();
    quotes_per_module =
        static_cast<double>(quotes) / static_cast<double>(modules);
    std::printf("%-10zu %12llu %14.2f %16.1f %18.1f\n", modules,
                static_cast<unsigned long long>(quotes), ms, quotes_per_module,
                ms * 1000.0 / static_cast<double>(modules));
  }

  // Steady-state audit load on the medical-sized app.
  udc::UdcCloud cloud;
  const udc::TenantId tenant = cloud.RegisterTenant("t");
  const udc::AppSpec spec = MakeApp(40);
  auto deployment = cloud.Deploy(tenant, spec);
  if (deployment.ok()) {
    udc::FulfillmentVerifier verifier(cloud.sim(), cloud.vendor_root(),
                                      &cloud.attestation());
    udc::AuditorConfig audit_config;
    audit_config.period = udc::SimTime::Minutes(5);
    audit_config.sample_per_round = 3;
    udc::ContinuousAuditor auditor(cloud.sim(), &verifier, deployment->get(),
                                   audit_config);
    const uint64_t before = cloud.attestation().quotes_issued();
    auditor.Start(udc::SimTime::Hours(24));
    cloud.sim()->RunToCompletion();
    const uint64_t issued = cloud.attestation().quotes_issued() - before;
    std::printf("\ncontinuous audit, 24h, 3 modules / 5 min: %lld rounds,\n"
                "%llu quotes (%.1f quotes/hour) — negligible next to the\n"
                "workload's own traffic.\n",
                static_cast<long long>(auditor.rounds()),
                static_cast<unsigned long long>(issued),
                static_cast<double>(issued) / 24.0);
  }
  std::printf("\nshape: quotes and verifier time grow linearly in module count.\n"
              "A verification quotes each device the deployment holds slices on\n"
              "once, reading the tenant's row there against everything the\n"
              "deployment holds on it, so it costs the same whatever the size\n"
              "of the pools, and modules sharing a device share its quote.\n");
  if (quotes_per_module > kMaxQuotesPerModule) {
    std::fprintf(stderr, "GATE FAILED: %.1f quotes per module at 384 modules "
                         "(max %.1f)\n",
                 quotes_per_module, kMaxQuotesPerModule);
    return 1;
  }
  std::printf("gate: %.1f quotes per module at 384 modules (max %.1f)\n",
              quotes_per_module, kMaxQuotesPerModule);
  return 0;
}
