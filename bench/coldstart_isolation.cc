// E6 — Claim C3 (sec. 3.3 challenge): "secure environments are usually
// slower to start up; (cold) starting many environments for many modules
// can significantly slow down the entire application."
//
// Three phases:
//   1. Per-kind startup table: cold start, warm start, CPU overhead, and the
//      break-even module runtime at which the cold start falls below 10% of
//      total time.
//   2. 50-module fan-out amortization, three legs per kind on identical
//      workloads: all-cold (nothing banked), the default tenant-scoped warm
//      pool (per-tenant prewarm; reported as "legacy-warm", the name of the
//      (kind, tenant) map it replaced), and the store sharing across
//      tenants — tenant A's teardowns bank warm slots that tenant B's
//      fan-out of the *identical image* then consumes cross-tenant. Gated: store-on amortization >= 3x all-cold
//      for both TEE kinds, at least one cross-tenant warm start, and the
//      content-bound image quote minted exactly once per content.
//   3. slo.exec.warm_hit_ratio evaluated over the store leg via the SLO
//      engine; a breach fails the bench.
//
// Writes BENCH_coldstart.json (working directory) with the table, per-kind
// fan-out timings, store counters (hit ratio, evictions, bytes deduped,
// cross-tenant starts, quotes minted) and every gate verdict.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/attest/attestation_service.h"
#include "src/exec/env_manager.h"
#include "src/exec/env_store.h"
#include "src/obs/slo.h"
#include "src/sim/simulation.h"

namespace {

constexpr int kFanOut = 50;

struct FanOutResult {
  udc::EnvKind kind = udc::EnvKind::kContainer;
  udc::SimTime all_cold;
  udc::SimTime legacy_warm;
  udc::SimTime store_on;          // tenant B's fan-out window only
  double store_amortization = 0;  // all_cold / store_on
  double warm_hit_ratio = 0;      // over both tenants' launches
  int64_t cross_tenant_warm = 0;
  uint64_t quotes_minted = 0;
  int64_t bytes_deduped = 0;
  int64_t evictions = 0;
  bool slo_ok = false;
};

// Sequential worst case: each launch begins when the previous is ready.
udc::SimTime RunFanOut(udc::Simulation& sim, udc::EnvManager& mgr,
                       udc::TenantId tenant, const udc::LaunchOptions& options) {
  const udc::SimTime start = sim.now();
  for (int i = 0; i < kFanOut; ++i) {
    sim.RunToCompletion();
    mgr.Launch(tenant, udc::NodeId(1), options, nullptr);
  }
  sim.RunToCompletion();
  return sim.now() - start;
}

FanOutResult RunKind(udc::EnvKind kind) {
  FanOutResult r;
  r.kind = kind;
  udc::LaunchOptions options;
  options.kind = kind;
  options.image = "fanout-module-v1";

  {  // Leg 1: all cold: nothing is ever banked.
    udc::Simulation sim(1);
    udc::EnvManager mgr(&sim);
    r.all_cold = RunFanOut(sim, mgr, udc::TenantId(1), options);
  }

  {  // Leg 2: the default store, each tenant's own pool per kind (sharing
     // off), prewarmed to depth.
    udc::Simulation sim(1);
    udc::EnvManager mgr(&sim);
    mgr.Prewarm(kind, udc::TenantId(1), kFanOut);
    r.legacy_warm = RunFanOut(sim, mgr, udc::TenantId(1), options);
  }

  {  // Leg 3: the store sharing across tenants. Tenant A runs the image and
    // banks warm slots on teardown; tenant B fans out the identical image
    // and rides them cross-tenant. Only B's window is measured — A's builds
    // are the amortized investment.
    udc::Simulation sim(1);
    udc::AttestationService attest(&sim, udc::KeyFromString("bench-vendor"));
    udc::EnvStoreConfig config;
    config.share_across_tenants = true;
    udc::EnvManager mgr(&sim, config);
    mgr.set_content_quote_hook([&attest](const udc::Sha256Digest& digest,
                                         udc::Bytes size, bool live) {
      if (live) {
        attest.AcquireImageQuote(digest, size);
      } else {
        attest.ReleaseImageQuote(digest);
      }
    });
    {
      udc::SloSpec spec;
      spec.name = "slo.exec.warm_hit_ratio";
      spec.kind = udc::SloSpec::SourceKind::kGauge;
      spec.source = "exec.warm_hit_ratio";
      spec.cmp = udc::SloSpec::Cmp::kGe;
      // Tenant A's banking launches are cold by construction, so the
      // two-tenant scenario tops out at 0.5; breach below 0.45 means the
      // store failed to convert B's fan-out.
      spec.threshold = 0.45;
      spec.window = udc::SimTime::Seconds(3600);
      sim.slos().AddObjective(std::move(spec));
    }

    std::vector<udc::ExecEnvironment*> envs;
    for (int i = 0; i < kFanOut; ++i) {
      sim.RunToCompletion();
      envs.push_back(mgr.Launch(udc::TenantId(1), udc::NodeId(1), options,
                                nullptr));
    }
    sim.RunToCompletion();
    for (udc::ExecEnvironment* env : envs) {
      (void)mgr.Stop(env, /*keep_warm=*/true);
    }
    r.store_on = RunFanOut(sim, mgr, udc::TenantId(2), options);
    r.warm_hit_ratio = mgr.warm_hit_ratio();
    r.cross_tenant_warm = mgr.cross_tenant_warm_starts();
    r.quotes_minted = attest.image_quotes_minted();
    r.bytes_deduped = mgr.store()->bytes_deduped();
    r.evictions = mgr.store()->evictions();
    sim.slos().Tick(sim.now());
    r.slo_ok = sim.slos().AllOk();
  }
  r.store_amortization = r.all_cold.seconds() / r.store_on.seconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = udc::bench::ParseSmokeFlag(argc, argv);
  std::printf("E6 / claim C3 — startup cost by isolation choice%s\n\n",
              smoke ? " (smoke)" : "");
  std::printf("%-22s %-10s %10s %10s %8s %14s\n", "environment", "isolation",
              "cold", "warm", "cpu-ovh", "10%%-breakeven");
  for (int i = 0; i < udc::kNumEnvKinds; ++i) {
    const auto kind = static_cast<udc::EnvKind>(i);
    const udc::EnvProfile p = udc::EnvProfile::DefaultFor(kind);
    // cold <= 0.1 * (cold + runtime)  =>  runtime >= 9 * cold.
    const udc::SimTime breakeven = udc::Scale(p.cold_start, 9.0);
    std::printf("%-22s %-10s %10s %10s %7.2fx %14s\n",
                std::string(udc::EnvKindName(kind)).c_str(),
                std::string(udc::IsolationLevelName(
                                udc::IsolationOf(kind, udc::TenancyMode::kShared)))
                    .c_str(),
                p.cold_start.ToString().c_str(),
                p.warm_start.ToString().c_str(), p.cpu_overhead,
                breakeven.ToString().c_str());
  }

  const udc::EnvKind kKinds[] = {
      udc::EnvKind::kContainer, udc::EnvKind::kLightweightVm,
      udc::EnvKind::kTeeEnclave, udc::EnvKind::kTeeVm};
  std::printf("\n%d-module fan-out (sequential worst case):\n", kFanOut);
  std::printf("%-22s %12s %12s %12s %9s %6s %6s\n", "environment", "all-cold",
              "legacy-warm", "store-on", "amortize", "xten", "quotes");
  std::vector<FanOutResult> results;
  for (const auto kind : kKinds) {
    FanOutResult r = RunKind(kind);
    std::printf("%-22s %12s %12s %12s %8.1fx %6lld %6llu\n",
                std::string(udc::EnvKindName(kind)).c_str(),
                r.all_cold.ToString().c_str(), r.legacy_warm.ToString().c_str(),
                r.store_on.ToString().c_str(), r.store_amortization,
                static_cast<long long>(r.cross_tenant_warm),
                static_cast<unsigned long long>(r.quotes_minted));
    results.push_back(r);
  }

  // --- Gates. The store must amortize TEE cold starts >= 3x, share warm
  // slots across tenants, and bind exactly one quote per distinct content.
  bool ok = true;
  for (const FanOutResult& r : results) {
    const bool tee = r.kind == udc::EnvKind::kTeeEnclave ||
                     r.kind == udc::EnvKind::kTeeVm;
    if (tee && r.store_amortization < 3.0) {
      std::fprintf(stderr, "FAIL: %s store amortization %.2fx < 3x\n",
                   std::string(udc::EnvKindName(r.kind)).c_str(),
                   r.store_amortization);
      ok = false;
    }
    if (r.cross_tenant_warm < 1) {
      std::fprintf(stderr, "FAIL: %s recorded no cross-tenant warm start\n",
                   std::string(udc::EnvKindName(r.kind)).c_str());
      ok = false;
    }
    if (r.quotes_minted != 1) {
      std::fprintf(stderr,
                   "FAIL: %s minted %llu image quotes for one content "
                   "(want exactly 1)\n",
                   std::string(udc::EnvKindName(r.kind)).c_str(),
                   static_cast<unsigned long long>(r.quotes_minted));
      ok = false;
    }
    if (!r.slo_ok) {
      std::fprintf(stderr, "FAIL: %s breached slo.exec.warm_hit_ratio\n",
                   std::string(udc::EnvKindName(r.kind)).c_str());
      ok = false;
    }
  }

  udc::bench::JsonFile json("BENCH_coldstart.json");
  if (json) {
    FILE* f = json.get();
    std::fprintf(f, "{\n  \"bench\": \"coldstart_isolation\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n  \"fan_out\": %d,\n",
                 smoke ? "true" : "false", kFanOut);
    std::fprintf(f, "  \"profiles\": [\n");
    for (int i = 0; i < udc::kNumEnvKinds; ++i) {
      const auto kind = static_cast<udc::EnvKind>(i);
      const udc::EnvProfile p = udc::EnvProfile::DefaultFor(kind);
      std::fprintf(f,
                   "    {\"kind\": \"%s\", \"cold_us\": %lld, \"warm_us\": "
                   "%lld, \"cpu_overhead\": %.3f}%s\n",
                   std::string(udc::EnvKindName(kind)).c_str(),
                   static_cast<long long>(p.cold_start.micros()),
                   static_cast<long long>(p.warm_start.micros()),
                   p.cpu_overhead, i + 1 < udc::kNumEnvKinds ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"fanout\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const FanOutResult& r = results[i];
      std::fprintf(
          f,
          "    {\"kind\": \"%s\", \"all_cold_us\": %lld, "
          "\"legacy_warm_us\": %lld, \"store_on_us\": %lld, "
          "\"store_amortization\": %.2f, \"warm_hit_ratio\": %.3f, "
          "\"cross_tenant_warm_starts\": %lld, \"image_quotes_minted\": %llu, "
          "\"bytes_deduped\": %lld, \"evictions\": %lld, \"slo_ok\": %s}%s\n",
          std::string(udc::EnvKindName(r.kind)).c_str(),
          static_cast<long long>(r.all_cold.micros()),
          static_cast<long long>(r.legacy_warm.micros()),
          static_cast<long long>(r.store_on.micros()), r.store_amortization,
          r.warm_hit_ratio, static_cast<long long>(r.cross_tenant_warm),
          static_cast<unsigned long long>(r.quotes_minted),
          static_cast<long long>(r.bytes_deduped),
          static_cast<long long>(r.evictions),
          r.slo_ok ? "true" : "false",
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"gates\": {\"tee_amortization_min\": 3.0, "
                 "\"pass\": %s}\n}\n",
                 ok ? "true" : "false");
  }

  std::printf(
      "\npaper expectation: TEE kinds pay order-of-seconds cold starts —\n"
      "far above containers — so fine-grained secure modules need warm\n"
      "pools to amortize. The content-addressed store extends the pool\n"
      "across tenants: identical images hash to one content, so tenant B's\n"
      "fan-out starts warm off tenant A's teardowns (gate: >= 3x for TEE\n"
      "kinds) with the attestation quote minted once per content.\n");
  if (!ok) {
    std::fprintf(stderr, "coldstart_isolation: GATES FAILED\n");
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
