// udcctl — command-line driver for the UDC simulator.
//
//   udcctl validate <spec.udcl>             parse + validate a spec
//   udcctl deploy   <spec.udcl>             deploy, run once, verify, bill
//   udcctl demo                             the built-in medical app (Figure 2)
//   udcctl metrics  [spec.udcl]             run the cycle, print Prometheus
//                                           text exposition on stdout
//   udcctl trace --chrome <out.json> [spec.udcl]
//                                           run the cycle, write the span
//                                           trace as Chrome trace_event JSON
//   udcctl slo      [spec.udcl]             run the cycle under the default
//                                           SLO set, print the verdict table
//   udcctl record dump --out <path> [spec.udcl]
//                                           run the cycle, dump the flight
//                                           recorder (Chrome trace + metrics
//                                           snapshot)
//   udcctl regions [flags] [spec.udcl]      churn the spec through the
//                                           region-federated control plane,
//                                           print the per-region table
//
// Reads udcl from a file (or the embedded medical app when the spec argument
// is omitted), runs the full deploy/run/verify/bill cycle on a fresh
// simulated cloud, and prints the reports.
//
// Exit codes: 0 success, 1 runtime failure (parse/deploy/verify/IO errors,
// SLO breach), 2 usage error (unknown subcommand or bad arguments).

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/aspects/aspects.h"
#include "src/common/strings.h"
#include "src/core/runtime.h"
#include "src/crypto/sha256.h"
#include "src/core/udc_cloud.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/exposition.h"
#include "src/obs/slo.h"
#include "src/workload/medical.h"

namespace {

// Exit-code contract: bad invocations are distinguishable from runtime
// failures so scripts can tell "I called it wrong" (2) from "the cloud is
// unhealthy" (1).
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

int Usage() {
  std::fprintf(
      stderr,
      "usage: udcctl <command> [args]\n"
      "\n"
      "commands:\n"
      "  validate <spec.udcl>      parse + validate a spec; prints the module\n"
      "                            graph and per-module aspect sets\n"
      "  deploy <spec.udcl>        deploy, run once, verify, bill; prints\n"
      "                            every report\n"
      "  demo                      `deploy` of the built-in medical app\n"
      "                            (paper Figure 2)\n"
      "  metrics [spec.udcl]       run the cycle, print the Prometheus text\n"
      "                            exposition on stdout\n"
      "  trace --chrome <out.json> [spec.udcl]\n"
      "                            run the cycle, write the span trace as\n"
      "                            Chrome trace_event JSON (open in\n"
      "                            chrome://tracing or ui.perfetto.dev)\n"
      "  slo [spec.udcl]           run the cycle under the default SLO set\n"
      "                            (deploy latency, repair convergence,\n"
      "                            run-report health), print the verdict\n"
      "                            table; exits 1 if any objective breached\n"
      "  record dump --out <path> [spec.udcl]\n"
      "                            run the cycle, dump the always-on flight\n"
      "                            recorder: <path> gets the Chrome trace,\n"
      "                            <path>.metrics.json the metrics snapshot\n"
      "  cells [--racks N] [--cells N] [--deploys N] [spec.udcl]\n"
      "                            churn the spec through the cell-\n"
      "                            partitioned control plane and print the\n"
      "                            per-cell capacity/latency table\n"
      "                            (defaults: 8 racks, 2 cells, 8 deploys)\n"
      "  store [--racks N] [--tenants N] [--deploys N] [spec.udcl]\n"
      "                            churn the spec through several tenants on\n"
      "                            a store-enabled cloud and print the\n"
      "                            content-addressed store's per-rack\n"
      "                            occupancy, hit/miss/eviction counts,\n"
      "                            dedupe factor and top contents by refs\n"
      "                            (defaults: 4 racks, 3 tenants, 9 deploys)\n"
      "  regions [--racks N] [--cells N] [--regions N] [--deploys N]\n"
      "          [spec.udcl]\n"
      "                            churn the spec through the federated\n"
      "                            (region-partitioned) control plane and\n"
      "                            print the per-region capacity, deploy,\n"
      "                            WAN-traffic and store-replication table\n"
      "                            (defaults: 8 racks, 4 cells, 2 regions,\n"
      "                            12 deploys)\n"
      "\n"
      "omitting [spec.udcl] uses the embedded medical app\n"
      "\n"
      "exit codes: 0 success, 1 runtime failure, 2 usage error\n");
  return kExitUsage;
}

udc::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return udc::Status(udc::NotFoundError("cannot open " + path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int Validate(const std::string& text) {
  const auto spec = udc::ParseAppSpec(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "INVALID: %s\n", spec.status().ToString().c_str());
    return kExitRuntime;
  }
  std::printf("OK: %s\n%s", spec->graph.app_name().c_str(),
              spec->graph.DebugString().c_str());
  for (const udc::ModuleId id : spec->graph.ModuleIds()) {
    const udc::AspectSet aspects = spec->AspectsFor(id);
    std::printf("  %-8s %s\n", spec->graph.Find(id)->name.c_str(),
                aspects.ToString().c_str());
  }
  return 0;
}

// Runs the full deploy/run/verify/bill cycle against `cloud`. When `verbose`,
// prints every report; otherwise stays quiet so the caller can emit a single
// machine-readable artifact (metrics, trace) on stdout.
int RunCycle(const std::string& text, udc::UdcCloud* cloud, bool verbose) {
  const auto spec = udc::ParseAppSpec(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.status().ToString().c_str());
    return kExitRuntime;
  }
  const udc::TenantId tenant = cloud->RegisterTenant("udcctl");
  auto deployment = cloud->Deploy(tenant, *spec);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 deployment.status().ToString().c_str());
    return kExitRuntime;
  }
  if (verbose) {
    std::printf("%s\n", (*deployment)->DebugString().c_str());
  }

  udc::DagRuntime runtime(cloud->sim(), deployment->get());
  const auto report = runtime.RunOnce();
  if (!report.ok()) {
    std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
    return kExitRuntime;
  }
  if (verbose) {
    std::printf("%s\n", report->Table().c_str());
    std::printf("%s\n", report->breakdown.Table().c_str());
  }

  const auto verification = cloud->Verify(deployment->get());
  if (!verification.ok()) {
    std::fprintf(stderr, "verify: %s\n",
                 verification.status().ToString().c_str());
    return kExitRuntime;
  }
  if (verbose) {
    std::printf("%s\n", verification->Table().c_str());
  }

  cloud->sim()->RunUntil(udc::SimTime::Hours(1));
  if (verbose) {
    std::printf("%s",
                cloud->billing().BillToNow(**deployment).Table().c_str());
  }
  return verification->all_ok ? 0 : kExitRuntime;
}

int Deploy(const std::string& text) {
  udc::UdcCloud cloud;
  return RunCycle(text, &cloud, /*verbose=*/true);
}

int Metrics(const std::string& text) {
  udc::UdcCloud cloud;
  const int rc = RunCycle(text, &cloud, /*verbose=*/false);
  if (rc != 0) {
    return rc;
  }
  std::printf("%s", udc::PrometheusExposition(cloud.sim()->metrics()).c_str());
  return 0;
}

int Trace(const std::string& text, const std::string& out_path) {
  udc::UdcCloud cloud;
  const int rc = RunCycle(text, &cloud, /*verbose=*/false);
  if (rc != 0) {
    return rc;
  }
  const udc::Status status = udc::WriteChromeTrace(
      cloud.sim()->spans(), cloud.sim()->now(), out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
    return kExitRuntime;
  }
  std::printf("wrote %zu spans to %s (open in chrome://tracing)\n",
              cloud.sim()->spans().spans().size(), out_path.c_str());
  return 0;
}

// The built-in objective set `udcctl slo` judges a run against. Windows span
// the whole run (EvaluateNow at the end); thresholds are generous — the
// point of the CLI gate is "did anything go badly wrong", the tight
// per-layer budgets live in the benches.
void RegisterDefaultObjectives(udc::SloEngine* slos) {
  {
    udc::SloSpec spec;
    spec.name = "slo.frontend.deploy_latency_p99";
    spec.kind = udc::SloSpec::SourceKind::kHistogramQuantile;
    spec.source = "frontend.deploy_latency_ms";
    spec.quantile = 0.99;
    spec.threshold = 60'000.0;  // a deploy should be live within a minute
    spec.window = udc::SimTime::Hours(2);
    slos->AddObjective(std::move(spec));
  }
  {
    udc::SloSpec spec;
    spec.name = "slo.repair.convergence_p99";
    spec.kind = udc::SloSpec::SourceKind::kHistogramQuantile;
    spec.source = "repair.convergence_ms";
    spec.quantile = 0.99;
    spec.threshold = 300'000.0;  // repairs converge within five minutes
    spec.window = udc::SimTime::Hours(2);
    slos->AddObjective(std::move(spec));
  }
  {
    udc::SloSpec spec;
    spec.name = "slo.core.run_end_to_end_ms";
    spec.kind = udc::SloSpec::SourceKind::kHistogramQuantile;
    spec.source = "core.run_end_to_end_ms";
    spec.quantile = 0.99;
    spec.threshold = 3'600'000.0;  // a DAG run finishes within an hour
    spec.window = udc::SimTime::Hours(2);
    slos->AddObjective(std::move(spec));
  }
  {
    udc::SloSpec spec;
    spec.name = "slo.exec.warm_hit_ratio";
    spec.kind = udc::SloSpec::SourceKind::kGauge;
    spec.source = "exec.warm_hit_ratio";
    spec.cmp = udc::SloSpec::Cmp::kGe;
    // Generous on purpose: the gauge reads 1.0 before any start and a
    // single-cycle run is all cold starts, so anything above zero passes.
    // The tight fan-out budget lives in bench/coldstart_isolation.
    spec.threshold = 0.0;
    spec.window = udc::SimTime::Hours(2);
    slos->AddObjective(std::move(spec));
  }
}

int Slo(const std::string& text) {
  udc::UdcCloud cloud;
  // Register before the cycle so histogram sources are in sketch mode from
  // the first Observe (AddObjective flips them).
  RegisterDefaultObjectives(&cloud.sim()->slos());
  const int rc = RunCycle(text, &cloud, /*verbose=*/false);
  if (rc != 0) {
    return rc;
  }
  cloud.sim()->slos().EvaluateNow(cloud.sim()->now());
  std::printf("%s", cloud.sim()->slos().Report().c_str());
  return cloud.sim()->slos().AllOk() ? 0 : kExitRuntime;
}

// `udcctl cells`: the hierarchical control plane made visible. Builds a
// cell-partitioned cloud, churns the spec through the router, and prints a
// per-cell capacity/latency table — the operator's view of how the router
// spread the load and what each cell's placement tail looks like.
int Cells(const std::string& text, int racks, int cells, int deploys) {
  udc::UdcCloudConfig config;
  config.datacenter.racks = racks;
  config.datacenter.cells = cells;
  config.scheduler.record_place_latency = true;
  udc::UdcCloud cloud(config);
  if (cloud.datacenter().topology().cell_count() == 0) {
    std::fprintf(stderr, "cells: need at least 1 cell (got --cells %d)\n",
                 cells);
    return kExitUsage;
  }

  const auto spec = udc::ParseAppSpec(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.status().ToString().c_str());
    return kExitRuntime;
  }
  const auto shared_spec = std::make_shared<const udc::AppSpec>(*spec);
  // Deployments stay resident so the table shows a loaded datacenter.
  std::vector<std::unique_ptr<udc::Deployment>> live;
  int ok = 0, failed = 0;
  for (int i = 0; i < deploys; ++i) {
    const udc::TenantId tenant =
        cloud.RegisterTenant("cells-" + std::to_string(i));
    auto deployment = cloud.Deploy(tenant, shared_spec);
    if (deployment.ok()) {
      ++ok;
      live.push_back(std::move(*deployment));
    } else {
      ++failed;
    }
    cloud.sim()->RunToCompletion();
  }

  udc::RegionRouter* router = cloud.region_router();
  const udc::Topology& topo = cloud.datacenter().topology();
  const udc::ResourcePool& cpu_pool =
      cloud.datacenter().pool(udc::DeviceKind::kCpuBlade);
  const udc::FreeCapacityIndex& index = cpu_pool.PlacementIndex(topo);
  const std::vector<int64_t>& free =
      router->CellFreeSummary(udc::DeviceKind::kCpuBlade);

  // Per-cell cpu capacity from the device list (cells may be ragged: the
  // last cell owns whatever racks remain).
  std::vector<int64_t> capacity(static_cast<size_t>(router->cell_count()), 0);
  for (udc::Device* device : cloud.datacenter().AllDevices()) {
    if (device->kind() != udc::DeviceKind::kCpuBlade) {
      continue;
    }
    const int cell = index.CellOf(device);
    if (cell >= 0) {
      capacity[static_cast<size_t>(cell)] += device->capacity();
    }
  }

  std::printf("%d cells over %d racks (%zu devices), %d deploys (%d ok, "
              "%d failed)\n\n",
              router->cell_count(), topo.rack_count(),
              cloud.datacenter().AllDevices().size(), deploys, ok, failed);
  std::printf("cell   racks      cpu free/capacity      util  deploys"
              "   place p50/p99 (us)\n");
  for (int c = 0; c < router->cell_count(); ++c) {
    const int64_t cap = capacity[static_cast<size_t>(c)];
    const int64_t cell_free = free[static_cast<size_t>(c)];
    const double util =
        cap > 0 ? 100.0 * static_cast<double>(cap - cell_free) /
                      static_cast<double>(cap)
                : 0.0;
    const udc::MetricHistogram* latency = cloud.sim()->metrics().histogram(
        "sched.cell_place_latency_us",
        {{"cell", udc::StrFormat("%d", c)}});
    std::printf("%4d   [%2d,%2d)  %9lld / %-9lld  %5.1f%%  %7lld",
                c, topo.CellRackBegin(c), topo.CellRackEnd(c),
                static_cast<long long>(cell_free),
                static_cast<long long>(cap), util,
                static_cast<long long>(router->CellDeploys(c)));
    if (latency != nullptr && latency->count() > 0) {
      std::printf("   %8.1f / %-8.1f\n", latency->Quantile(0.5),
                  latency->Quantile(0.99));
    } else {
      std::printf("          - / -\n");
    }
  }
  std::printf("\ncross-cell deploys: %lld, module spills: %lld\n",
              static_cast<long long>(router->cross_cell_deploys()),
              static_cast<long long>(router->cell_fallbacks()));
  return failed == 0 ? 0 : kExitRuntime;
}

// `udcctl regions`: the federated control plane made visible. Builds a
// region-partitioned, store-enabled cloud and churns the spec with
// deploys pinned to regions in phases: the first phase all lands in
// region 0, later phases move to the remaining regions. Deployments
// past a small live window are torn down keep-warm, so by the time a
// later phase starts, its content is banked only in earlier regions —
// its first deploys pull it across the WAN (a remote start) and
// replicate it into their own region, after which starts there are
// served locally again. The table is the
// operator's view of that federation: per-region cell range, capacity
// and utilisation, deploy counts, WAN bytes out/in, and remote fetches;
// the footer gives the WAN totals and the store's replication hit ratio
// (warmish starts served in-region vs. needing the WAN).
int Regions(const std::string& text, int racks, int cells, int regions,
            int deploys) {
  udc::UdcCloudConfig config;
  config.datacenter.racks = racks;
  config.datacenter.cells = cells;
  config.datacenter.regions = regions;
  config.env_store.enabled = true;
  config.env_store.share_across_tenants = true;
  config.scheduler.record_place_latency = true;
  udc::UdcCloud cloud(config);
  if (cloud.datacenter().topology().region_count() == 0) {
    std::fprintf(stderr, "regions: need at least 1 region (got --regions %d)\n",
                 regions);
    return kExitUsage;
  }

  const auto spec = udc::ParseAppSpec(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.status().ToString().c_str());
    return kExitRuntime;
  }
  udc::RegionRouter* router = cloud.region_router();
  // One copy of the spec per region, whole-app pinned there via the region
  // affinity aspect, so demand provably lands in every region and the
  // cross-region store tier gets exercised.
  std::vector<std::shared_ptr<const udc::AppSpec>> pinned;
  for (int r = 0; r < router->region_count(); ++r) {
    udc::AppSpec copy = *spec;
    for (const udc::ModuleId id : copy.graph.ModuleIds()) {
      udc::AspectSet aspects = copy.AspectsFor(id);
      aspects.dist.region_affinity = r;
      copy.aspects[id] = aspects;
    }
    pinned.push_back(std::make_shared<const udc::AppSpec>(std::move(copy)));
  }

  // Keep a small window of deployments live (so the table shows load) and
  // tear down the rest keep-warm (so the store's replication tier runs).
  std::deque<std::unique_ptr<udc::Deployment>> live;
  const size_t window =
      static_cast<size_t>(deploys / 4 > 1 ? deploys / 4 : 1);
  int ok = 0, failed = 0;
  for (int i = 0; i < deploys; ++i) {
    const udc::TenantId tenant =
        cloud.RegisterTenant("regions-" + std::to_string(i));
    // Phased pinning: deploys sweep region 0 first, then the rest, so
    // later regions start with nothing local and must replicate.
    const int target = i * router->region_count() / deploys;
    auto deployment = cloud.Deploy(tenant, pinned[static_cast<size_t>(target)]);
    cloud.sim()->RunToCompletion();
    if (deployment.ok()) {
      ++ok;
      live.push_back(std::move(*deployment));
    } else {
      ++failed;
    }
    while (live.size() > window) {
      for (udc::ResourceUnit* unit : live.front()->units()) {
        if (unit->env != nullptr) {
          (void)cloud.envs().Stop(unit->env, /*keep_warm=*/true);
          unit->env = nullptr;
        }
      }
      live.pop_front();
    }
  }
  cloud.sim()->RunToCompletion();

  const udc::Topology& topo = cloud.datacenter().topology();
  const udc::ResourcePool& cpu_pool =
      cloud.datacenter().pool(udc::DeviceKind::kCpuBlade);
  const udc::FreeCapacityIndex& index = cpu_pool.PlacementIndex(topo);
  const std::vector<int64_t>& free =
      router->RegionFreeSummary(udc::DeviceKind::kCpuBlade);

  // Per-region cpu capacity from the device list (regions may be ragged:
  // the last region owns whatever cells remain).
  std::vector<int64_t> capacity(static_cast<size_t>(router->region_count()),
                                0);
  for (udc::Device* device : cloud.datacenter().AllDevices()) {
    if (device->kind() != udc::DeviceKind::kCpuBlade) {
      continue;
    }
    const int cell = index.CellOf(device);
    const int region = topo.RegionOf(cell);
    if (region >= 0) {
      capacity[static_cast<size_t>(region)] += device->capacity();
    }
  }
  // Remote fetches aggregated onto the region that did the fetching.
  const udc::EnvStore* store = cloud.envs().store();
  std::vector<int64_t> remote(static_cast<size_t>(router->region_count()), 0);
  for (const udc::EnvStore::RackStats& r : store->PerRackStats()) {
    const int region = topo.RegionOfRack(r.rack);
    if (region >= 0) {
      remote[static_cast<size_t>(region)] += r.remote_hits;
    }
  }

  std::printf("%d regions over %d cells / %d racks (%zu devices), %d deploys "
              "(%d ok, %d failed)\n\n",
              router->region_count(), router->cell_count(), topo.rack_count(),
              cloud.datacenter().AllDevices().size(), deploys, ok, failed);
  std::printf("region  cells     cpu free/capacity      util  deploys"
              "   wan out/in (MiB)  remote   place p50/p99 (us)\n");
  for (int r = 0; r < router->region_count(); ++r) {
    const int64_t cap = capacity[static_cast<size_t>(r)];
    const int64_t region_free = free[static_cast<size_t>(r)];
    const double util =
        cap > 0 ? 100.0 * static_cast<double>(cap - region_free) /
                      static_cast<double>(cap)
                : 0.0;
    const udc::MetricHistogram* latency = cloud.sim()->metrics().histogram(
        "sched.region_place_latency_us",
        {{"region", udc::StrFormat("%d", r)}});
    std::printf("%6d  [%2d,%2d)  %9lld / %-9lld  %5.1f%%  %7lld"
                "   %7.1f / %-7.1f  %6lld",
                r, topo.RegionCellBegin(r), topo.RegionCellEnd(r),
                static_cast<long long>(region_free),
                static_cast<long long>(cap), util,
                static_cast<long long>(router->RegionDeploys(r)),
                static_cast<double>(cloud.fabric().wan_bytes_out(r)) /
                    (1024.0 * 1024.0),
                static_cast<double>(cloud.fabric().wan_bytes_in(r)) /
                    (1024.0 * 1024.0),
                static_cast<long long>(remote[static_cast<size_t>(r)]));
    if (latency != nullptr && latency->count() > 0) {
      std::printf("   %8.1f / %-8.1f\n", latency->Quantile(0.5),
                  latency->Quantile(0.99));
    } else {
      std::printf("          - / -\n");
    }
  }

  const int64_t local_warmish = store->hits() + store->tepid_hits();
  const int64_t warmish = local_warmish + store->remote_hits();
  std::printf("\ncross-region deploys: %lld, module spills: %lld\n",
              static_cast<long long>(router->cross_region_deploys()),
              static_cast<long long>(router->region_fallbacks()));
  std::printf("wan: %llu transfers, %.1f MiB total\n",
              static_cast<unsigned long long>(
                  cloud.fabric().wan_messages_sent()),
              static_cast<double>(cloud.fabric().wan_bytes_sent()) /
                  (1024.0 * 1024.0));
  std::printf("store: %lld warm / %lld tepid / %lld remote / %lld cold; "
              "replication hit ratio %.2f (in-region warmish starts)\n",
              static_cast<long long>(store->hits()),
              static_cast<long long>(store->tepid_hits()),
              static_cast<long long>(store->remote_hits()),
              static_cast<long long>(store->misses()),
              warmish > 0 ? static_cast<double>(local_warmish) /
                                static_cast<double>(warmish)
                          : 1.0);
  return failed == 0 ? 0 : kExitRuntime;
}

// `udcctl store`: the content-addressed warm-environment store made
// visible. Builds a store-enabled cloud, churns the same spec through
// several tenants (identical module images, so contents dedupe and warm
// slots cross tenants), and prints the operator's view: per-rack cache
// occupancy, hit/miss/eviction counts, the dedupe factor, and the top
// contents by refcount.
int Store(const std::string& text, int racks, int tenants, int deploys) {
  udc::UdcCloudConfig config;
  config.datacenter.racks = racks;
  config.env_store.enabled = true;
  config.env_store.share_across_tenants = true;
  udc::UdcCloud cloud(config);

  const auto spec = udc::ParseAppSpec(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.status().ToString().c_str());
    return kExitRuntime;
  }
  const auto shared_spec = std::make_shared<const udc::AppSpec>(*spec);

  std::vector<udc::TenantId> ids;
  for (int t = 0; t < tenants; ++t) {
    ids.push_back(cloud.RegisterTenant("store-" + std::to_string(t)));
  }
  // Each deploy is torn down keep-warm before the next tenant deploys, so
  // later tenants ride the earlier tenants' warm slots by content.
  int ok = 0, failed = 0;
  for (int i = 0; i < deploys; ++i) {
    auto deployment = cloud.Deploy(ids[static_cast<size_t>(i) % ids.size()],
                                   shared_spec);
    cloud.sim()->RunToCompletion();
    if (!deployment.ok()) {
      ++failed;
      continue;
    }
    ++ok;
    for (udc::ResourceUnit* unit : (*deployment)->units()) {
      if (unit->env != nullptr) {
        (void)cloud.envs().Stop(unit->env, /*keep_warm=*/true);
        unit->env = nullptr;
      }
    }
  }
  cloud.sim()->RunToCompletion();

  const udc::EnvStore* store = cloud.envs().store();
  std::printf("content-addressed env store: %d racks, %d tenants, %d deploys "
              "(%d ok, %d failed)\n\n",
              racks, tenants, deploys, ok, failed);
  std::printf("contents: %zu distinct (%zu live), %lld warm slots, "
              "resident %s, dedupe %.2fx\n",
              store->distinct_contents(), store->live_contents(),
              static_cast<long long>(store->total_warm_slots()),
              store->resident_bytes().ToString().c_str(),
              store->DedupeFactor());
  std::printf("starts: hit ratio %.2f (%lld warm / %lld tepid / %lld cold), "
              "%lld cross-tenant, %lld evictions, quotes minted %llu\n\n",
              cloud.envs().warm_hit_ratio(),
              static_cast<long long>(store->hits()),
              static_cast<long long>(store->tepid_hits()),
              static_cast<long long>(store->misses()),
              static_cast<long long>(cloud.envs().cross_tenant_warm_starts()),
              static_cast<long long>(store->evictions()),
              static_cast<unsigned long long>(
                  cloud.attestation().image_quotes_minted()));

  std::printf("rack   entries  warm   resident      hits  tepid  miss  "
              "evict\n");
  for (const udc::EnvStore::RackStats& r : store->PerRackStats()) {
    std::printf("%4d   %7zu  %4lld   %-10s %5lld  %5lld  %4lld  %5lld\n",
                r.rack, r.entries, static_cast<long long>(r.warm_slots),
                r.resident.ToString().c_str(),
                static_cast<long long>(r.hits),
                static_cast<long long>(r.tepid_hits),
                static_cast<long long>(r.misses),
                static_cast<long long>(r.evictions));
  }

  std::printf("\ntop contents by refcount:\n");
  std::printf("content           size        refs  warm  racks\n");
  for (const udc::EnvStore::ContentStats& c : store->TopByRefs(10)) {
    std::printf("%.16s  %-10s %5lld %5lld  %5d\n",
                udc::DigestToHex(c.digest).c_str(),
                c.size.ToString().c_str(), static_cast<long long>(c.refs),
                static_cast<long long>(c.warm_slots), c.racks_resident);
  }
  return failed == 0 ? 0 : kExitRuntime;
}

int RecordDump(const std::string& text, const std::string& out_path) {
  udc::UdcCloud cloud;
  const int rc = RunCycle(text, &cloud, /*verbose=*/false);
  if (rc != 0) {
    return rc;
  }
  const udc::Status status = cloud.sim()->flight_recorder().Dump(
      out_path, &cloud.sim()->metrics(), "explicit trigger: udcctl record dump");
  if (!status.ok()) {
    std::fprintf(stderr, "record dump: %s\n", status.ToString().c_str());
    return kExitRuntime;
  }
  std::printf(
      "wrote %zu flight-recorder records to %s (open in chrome://tracing)\n"
      "wrote metrics snapshot to %s.metrics.json\n",
      cloud.sim()->flight_recorder().retained(), out_path.c_str(),
      out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "demo") {
    return Deploy(udc::MedicalAppUdcl());
  }
  if (command == "metrics" || command == "slo") {
    std::string text = udc::MedicalAppUdcl();
    if (argc >= 3) {
      const auto file = ReadFile(argv[2]);
      if (!file.ok()) {
        std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
        return kExitRuntime;
      }
      text = *file;
    }
    return command == "metrics" ? Metrics(text) : Slo(text);
  }
  if (command == "trace") {
    if (argc < 4 || std::string(argv[2]) != "--chrome") {
      return Usage();
    }
    std::string text = udc::MedicalAppUdcl();
    if (argc >= 5) {
      const auto file = ReadFile(argv[4]);
      if (!file.ok()) {
        std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
        return kExitRuntime;
      }
      text = *file;
    }
    return Trace(text, argv[3]);
  }
  if (command == "cells") {
    int racks = 8, cells = 2, deploys = 8;
    std::string text = udc::MedicalAppUdcl();
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if ((arg == "--racks" || arg == "--cells" || arg == "--deploys") &&
          i + 1 < argc) {
        const int value = std::atoi(argv[++i]);
        if (value <= 0) {
          return Usage();
        }
        (arg == "--racks" ? racks : arg == "--cells" ? cells : deploys) =
            value;
      } else if (!arg.empty() && arg[0] == '-') {
        return Usage();
      } else {
        const auto file = ReadFile(arg);
        if (!file.ok()) {
          std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
          return kExitRuntime;
        }
        text = *file;
      }
    }
    return Cells(text, racks, cells, deploys);
  }
  if (command == "regions") {
    int racks = 8, cells = 4, regions = 2, deploys = 12;
    std::string text = udc::MedicalAppUdcl();
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if ((arg == "--racks" || arg == "--cells" || arg == "--regions" ||
           arg == "--deploys") &&
          i + 1 < argc) {
        const int value = std::atoi(argv[++i]);
        if (value <= 0) {
          return Usage();
        }
        (arg == "--racks"     ? racks
         : arg == "--cells"   ? cells
         : arg == "--regions" ? regions
                              : deploys) = value;
      } else if (!arg.empty() && arg[0] == '-') {
        return Usage();
      } else {
        const auto file = ReadFile(arg);
        if (!file.ok()) {
          std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
          return kExitRuntime;
        }
        text = *file;
      }
    }
    return Regions(text, racks, cells, regions, deploys);
  }
  if (command == "store") {
    int racks = 4, tenants = 3, deploys = 9;
    std::string text = udc::MedicalAppUdcl();
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if ((arg == "--racks" || arg == "--tenants" || arg == "--deploys") &&
          i + 1 < argc) {
        const int value = std::atoi(argv[++i]);
        if (value <= 0) {
          return Usage();
        }
        (arg == "--racks" ? racks : arg == "--tenants" ? tenants : deploys) =
            value;
      } else if (!arg.empty() && arg[0] == '-') {
        return Usage();
      } else {
        const auto file = ReadFile(arg);
        if (!file.ok()) {
          std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
          return kExitRuntime;
        }
        text = *file;
      }
    }
    return Store(text, racks, tenants, deploys);
  }
  if (command == "record") {
    if (argc < 5 || std::string(argv[2]) != "dump" ||
        std::string(argv[3]) != "--out") {
      return Usage();
    }
    std::string text = udc::MedicalAppUdcl();
    if (argc >= 6) {
      const auto file = ReadFile(argv[5]);
      if (!file.ok()) {
        std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
        return kExitRuntime;
      }
      text = *file;
    }
    return RecordDump(text, argv[4]);
  }
  if (argc < 3) {
    return Usage();
  }
  const auto text = ReadFile(argv[2]);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return kExitRuntime;
  }
  if (command == "validate") {
    return Validate(*text);
  }
  if (command == "deploy") {
    return Deploy(*text);
  }
  return Usage();
}
