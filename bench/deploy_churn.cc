// Deploy-churn macro-benchmark: the control plane under churn, from one
// datacenter's worth of tenants to a million.
//
// Every phase deploys seed-fixed microservice specs through a live window:
// past it the oldest deployment is torn down, so placement always works
// against fragmented free lists rather than a pristine datacenter. After
// every in-process leg the cloud must be drained: pools empty, no live
// environment, no provisioned attestation identity and no live env-store
// ref. The phases and what fails the run:
//   - indexed: 1,000 tenants over 480 racks (10,080 devices). Reports
//     deploys/s, simulator events/s and per-deploy placement percentiles.
//   - frontend RPC: "deploy" RPCs of one repeated udcl text, which the
//     frontend's spec cache parses once, versus deploy RPCs of texts no
//     earlier deploy sent (the same text plus a comment line), interleaved
//     in groups. The median per-group CPU-time ratio (fresh over repeat)
//     must be >= 1.2x, the repeat leg must miss the cache exactly once, the
//     fresh leg must never hit it, and both must admit every deploy.
//   - abort-heavy: a one-rack datacenter where about half the deploys abort
//     on pool exhaustion. Aborts must happen and core.txn_aborted must
//     count them.
//   - warm store: the default pool's decisions (admit/reject, start modes,
//     per-(kind, tenant) warm occupancy) must hash to a frozen value with
//     warm starts seen. Then sharing on under abort churn: aborts must
//     happen, and each must leave the store's warm slots and refs exactly
//     as it found them.
//   - txn overhead: an empty Begin+Commit must cost <= 5% of the indexed
//     placement p50.
//   - obs overhead: the same churn against a cloud with the place-latency
//     sketch and SLO engine on and one with both off, blocks interleaved.
//     The placement p50 ratio must be <= 1.03x or the paired delta
//     <= 1.5us, the on cloud's SLOs must hold and its flight recorder must
//     hold spans. Both clouds trace spans, so the gate does not price them.
//   - scale: the router over 400 cells versus the same router over one
//     cell holding every rack, 1M tenants over 840,000 devices. Decisions
//     and pre-drain occupancy must match, slo.sched.cell_place_p99 must hold,
//     and the cells leg must reach >= 3x the one-cell deploys/s (armed at
//     >= 100k devices).
//   - federation: one region must keep the frozen decision hash and
//     pre-drain occupancy. Then 4 regions over an asymmetric WAN, with
//     skewed demand and a pinned abort tail, must abort, spill across
//     regions and fetch over the WAN with zero refund violations, and hold
//     slo.sched.region_place_p99.
//
// Writes BENCH_hotpath.json into the working directory and exits 1 when a
// gate fails. `--smoke` runs every phase a few thousand times smaller in
// under a second; it is the deploy_churn_smoke ctest.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/frontend.h"
#include "src/core/placement_engine.h"
#include "src/core/placement_txn.h"
#include "src/core/udc_cloud.h"
#include "src/obs/slo.h"
#include "src/workload/medical.h"
#include "src/workload/microservices.h"

namespace {

// Process CPU time, not wall time, for the ratio gates: on a contended host
// wall time charges whichever side runs while a neighbour steals the core.
// The workload is single-threaded and deterministic, so CPU time measures
// the same thing minus the scheduling noise.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

udc::UdcCloudConfig Topology(int racks, int cells = 0, int regions = 0) {
  udc::UdcCloudConfig config;
  config.datacenter.racks = racks;
  config.datacenter.cells = cells;
  config.datacenter.regions = regions;
  return config;
}

// A drained cloud holds nothing: every pool empty, no live environment, no
// provisioned attestation identity and no live env-store ref. Warm slots
// banked on purpose are credit, not leakage: every content ref left must be
// backed by a slot, which live_env_refs() == 0 certifies.
bool Drained(udc::UdcCloud& cloud) {
  return cloud.datacenter().TotalAllocated() == udc::ResourceVector() &&
         cloud.envs().live_count() == 0 &&
         cloud.attestation().provisioned_count() == 0 &&
         cloud.envs().store()->live_env_refs() == 0;
}

// The deployments a leg keeps alive, oldest first. Evicting one destroys
// it, and Deployment::Teardown stops its environments cold and releases
// its slices and identities. A keep-warm eviction stops the environments
// with keep_warm first, so the store banks a warm slot for each.
class LiveSet {
 public:
  explicit LiveSet(udc::UdcCloud& cloud) : cloud_(cloud) {}

  void Add(std::unique_ptr<udc::Deployment> deployment) {
    live_.push_back(std::move(deployment));
  }

  // Evicts the oldest deployment; a no-op when none is live.
  void EvictOldest(bool keep_warm) {
    if (live_.empty()) {
      return;
    }
    if (keep_warm) {
      for (udc::ResourceUnit* unit : live_.front()->units()) {
        if (unit->env != nullptr) {
          (void)cloud_.envs().Stop(unit->env, /*keep_warm=*/true);
          unit->env = nullptr;
        }
      }
    }
    live_.pop_front();
  }

  // Evicts oldest first until at most `window` deployments are live.
  void EvictPast(int window, bool keep_warm) {
    while (static_cast<int>(live_.size()) > window) {
      EvictOldest(keep_warm);
    }
  }

  // Tears every deployment down, oldest first, and runs the simulation
  // until it is idle.
  void Drain() {
    EvictPast(0, /*keep_warm=*/false);
    cloud_.sim()->RunToCompletion();
  }

 private:
  udc::UdcCloud& cloud_;
  std::deque<std::unique_ptr<udc::Deployment>> live_;
};

// A generous p99 bound on the router's place-latency sketch: the check is
// that telemetry reports sane numbers, not a tight budget.
void AddPlaceP99Objective(udc::UdcCloud& cloud, const char* name) {
  udc::SloSpec spec;
  spec.name = name;
  spec.kind = udc::SloSpec::SourceKind::kHistogramQuantile;
  spec.source = "sched.place_latency_us";
  spec.quantile = 0.99;
  spec.threshold = 500'000.0;  // half a wall-clock second per placement
  spec.window = udc::SimTime::Hours(24);
  cloud.sim()->slos().AddObjective(std::move(spec));
}

struct SloOutcome {
  bool ok = false;
  std::string report;
};

// Evaluates the cloud's objectives once, at its current time.
SloOutcome JudgeSlos(udc::UdcCloud& cloud) {
  udc::SloEngine& slos = cloud.sim()->slos();
  slos.Tick(cloud.sim()->now());
  return {slos.AllOk(), slos.Report()};
}

// Deploys `spec` for `tenant`. A failed deploy's rollback must leave the
// env store exactly as it found it, every warm slot it consumed refunded
// and every content ref unwound; each miss counts in `*refund_violations`.
udc::Result<std::unique_ptr<udc::Deployment>> DeployRefunding(
    udc::UdcCloud& cloud, udc::TenantId tenant, const udc::AppSpec& spec,
    long long* refund_violations) {
  const udc::EnvStore* store = cloud.envs().store();
  const int64_t slots_before = store->total_warm_slots();
  const int64_t refs_before = store->live_env_refs();
  auto deployment = cloud.Deploy(tenant, spec);
  if (!deployment.ok() && (store->total_warm_slots() != slots_before ||
                           store->live_env_refs() != refs_before)) {
    ++*refund_violations;
  }
  return deployment;
}

// --- Indexed churn: the default path at datacenter scale.

struct ChurnConfig {
  int racks = 480;        // 21 devices/rack -> 10,080 devices
  int deploys = 1000;     // tenants churned through the cloud
  int live_window = 64;   // deployments kept alive at any instant
};

struct ChurnResult {
  double wall_seconds = 0;
  double deploys_per_sec = 0;
  double events_per_sec = 0;
  long long deploys = 0;
  long long failures = 0;
  long long devices = 0;
  udc::Histogram placement_us;
  bool clean = false;
};

// One full churn run. The spec list is pre-generated so every phase places
// an identical workload and spec generation stays out of the timed region.
ChurnResult RunChurn(const ChurnConfig& config,
                     const std::vector<udc::AppSpec>& specs) {
  udc::UdcCloud cloud(Topology(config.racks));

  ChurnResult result;
  result.devices =
      static_cast<long long>(cloud.datacenter().AllDevices().size());

  LiveSet live(cloud);
  const auto churn = [&] {
    for (int i = 0; i < config.deploys; ++i) {
      const udc::TenantId tenant =
          cloud.RegisterTenant("tenant-" + std::to_string(i));
      const udc::AppSpec& spec = specs[i % specs.size()];

      const auto t0 = std::chrono::steady_clock::now();
      auto deployment = cloud.Deploy(tenant, spec);
      const auto t1 = std::chrono::steady_clock::now();
      result.placement_us.Add(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      if (!deployment.ok()) {
        ++result.failures;
        continue;
      }
      ++result.deploys;
      live.Add(std::move(*deployment));

      // Let env starts and replication wiring fire before the next deploy.
      cloud.sim()->RunToCompletion();
      live.EvictPast(config.live_window, /*keep_warm=*/false);
    }
    live.Drain();
  };
  // The shared harness wraps the single churn pass: churn has no warm/steady
  // split — fragmentation building up IS the workload.
  const udc::bench::MeasureResult timed =
      udc::bench::Measure(/*warmup_rounds=*/0, /*rounds=*/1, churn);

  result.wall_seconds = timed.wall_seconds;
  if (result.wall_seconds > 0) {
    result.deploys_per_sec =
        static_cast<double>(result.deploys) / result.wall_seconds;
    result.events_per_sec =
        static_cast<double>(cloud.sim()->events_executed()) /
        result.wall_seconds;
  }
  result.clean = Drained(cloud);
  return result;
}

// --- Frontend RPC: a repeated udcl text versus a fresh one.

struct RpcResult {
  long long deploys = 0;
  long long failures = 0;
  double cpu_seconds = 0;
  double deploys_per_sec = 0;
  long long spec_cache_hits = 0;  // the frontend's counters after the leg
  long long spec_cache_misses = 0;
};

struct FrontendComparison {
  RpcResult repeat;
  RpcResult fresh;
  double speedup = 0;  // median over groups of fresh-cost / repeat-cost
  bool clean = false;  // both clouds drained
};

// One frontend + tenant-client stack over its own cloud, driven entirely by
// RPC the way a real tenant would drive it.
struct FrontendEnv {
  explicit FrontendEnv(int racks) {
    cloud = std::make_unique<udc::UdcCloud>(Topology(racks));
    const udc::TenantId tenant = cloud->RegisterTenant("rpc-churn");
    const udc::NodeId frontend_node =
        cloud->datacenter().topology().AddNode(0, udc::NodeRole::kServer);
    frontend = std::make_unique<udc::CloudFrontend>(cloud.get(), frontend_node);
    const udc::NodeId client_node =
        cloud->datacenter().topology().AddNode(0, udc::NodeRole::kServer);
    client = std::make_unique<udc::TenantClient>(
        cloud->sim(), &cloud->fabric(), client_node, frontend_node, tenant);
  }

  // Sends one deploy RPC per text, evicting down to `window` after each,
  // and records the group's CPU time per deploy. Only the deploy RPCs and
  // the event drain they trigger are timed: the evictions keep the live
  // sets of both legs equal but are the same work on both, so timing them
  // would only dilute the ratio.
  void TimedGroup(const std::vector<std::string>& texts, int window) {
    double seconds = 0;
    for (const std::string& text : texts) {
      const double t0 = CpuSeconds();
      client->Deploy(text, [this](udc::Result<std::string> r) { Record(r); });
      cloud->sim()->RunToCompletion();
      seconds += CpuSeconds() - t0;
      EvictTo(window);
    }
    group_us.push_back(seconds * 1e6 / static_cast<double>(texts.size()));
    result.cpu_seconds += seconds;
  }

  // Parses a deploy response: "ok:" then the deployment id.
  void Record(const udc::Result<std::string>& r) {
    uint64_t id = 0;
    if (r.ok() && r->rfind("ok:", 0) == 0 &&
        udc::ParseUint64(std::string_view(*r).substr(3), &id)) {
      ++result.deploys;
      live.push_back(id);
    } else {
      ++result.failures;
    }
  }

  void EvictTo(int target) {
    while (static_cast<int>(live.size()) > target) {
      client->Teardown(live.front(), [](udc::Result<std::string>) {});
      live.pop_front();
      cloud->sim()->RunToCompletion();
    }
  }

  // Tears every deployment down, reads the spec cache's counters and
  // takes the median group cost past the first `skip` groups.
  void Finish(size_t skip) {
    EvictTo(0);
    cloud->sim()->RunToCompletion();
    const udc::MetricsRegistry& metrics = cloud->sim()->metrics();
    result.spec_cache_hits = metrics.counter("frontend.spec_cache_hits");
    result.spec_cache_misses = metrics.counter("frontend.spec_cache_misses");
    const double us = Median(
        {group_us.begin() + static_cast<long>(skip), group_us.end()});
    result.deploys_per_sec = us > 0 ? 1e6 / us : 0;
  }

  std::unique_ptr<udc::UdcCloud> cloud;
  std::unique_ptr<udc::CloudFrontend> frontend;
  std::unique_ptr<udc::TenantClient> client;
  std::deque<uint64_t> live;
  std::vector<double> group_us;  // CPU time per deploy, one per group
  RpcResult result;
};

// Deploy churn as a tenant actually experiences it: udcl text over the
// frontend's one deploy RPC, against two identical clouds. The repeat leg
// sends the same text every time, so every deploy after the first finds
// its spec in the frontend's spec cache. The fresh leg sends a text no
// earlier deploy sent (the same text plus a "# deploy <k>" comment line,
// built outside the timed region), so every deploy misses and parses: the
// same spec and the same placements, plus the parse.
//
// The two legs run INTERLEAVED in groups of group_size deploys. Adjacent-
// in-time groups see the same CPU frequency and cache pressure, so the
// per-group cost ratio cancels drift that would otherwise swamp a tight
// ratio gate on a busy host; the reported speedup is the median of those
// per-group ratios (the first warmup group is discarded).
FrontendComparison RunFrontendComparison(int racks, int deploys, int window,
                                         int group_size,
                                         const std::string& udcl_text) {
  FrontendEnv repeat(racks);
  FrontendEnv fresh(racks);
  for (int base = 0; base < deploys; base += group_size) {
    const int count = std::min(group_size, deploys - base);
    std::vector<std::string> fresh_texts;
    for (int i = 0; i < count; ++i) {
      fresh_texts.push_back(
          udc::StrFormat("%s\n# deploy %d\n", udcl_text.c_str(), base + i));
    }
    repeat.TimedGroup(std::vector<std::string>(count, udcl_text), window);
    fresh.TimedGroup(fresh_texts, window);
  }
  // Discard the warmup group (cold code paths and allocator arenas), then
  // take medians: per-leg group cost for the throughput numbers, per-group
  // ratio for the gated speedup.
  const size_t skip = repeat.group_us.size() > 1 ? 1 : 0;
  repeat.Finish(skip);
  fresh.Finish(skip);

  FrontendComparison comparison;
  comparison.repeat = repeat.result;
  comparison.fresh = fresh.result;
  comparison.clean = Drained(*repeat.cloud) && Drained(*fresh.cloud);
  std::vector<double> ratios;
  for (size_t i = skip; i < repeat.group_us.size(); ++i) {
    if (repeat.group_us[i] > 0) {
      ratios.push_back(fresh.group_us[i] / repeat.group_us[i]);
    }
  }
  comparison.speedup = Median(ratios);
  return comparison;
}

// --- Obs overhead: always-on telemetry priced against the placement path.

// The ratio gate alone is unsound at smoke scale: 3% of a ~20us placement
// is under the per-block median noise floor (allocator arenas, icache,
// CPUTIME clock reads over 16-sample blocks swing the paired medians by
// more than a microsecond), so the smoke run would flake on noise while
// measuring a true overhead of ~0. The absolute budget expresses the other
// half of the always-on claim — telemetry never costs more than this many
// microseconds per deploy, full stop — and the gate trips only when BOTH
// bounds are exceeded. At full scale 3% of the p50 exceeds the budget, so
// the ratio is the binding constraint there, unchanged.
constexpr double kObsAbsoluteBudgetUs = 1.5;

struct ObsOverheadResult {
  long long deploys_on = 0;
  long long deploys_off = 0;
  double p50_on_us = 0;     // per-deploy placement p50, telemetry on
  double p50_off_us = 0;    // per-deploy placement p50, telemetry off
  double p50_ratio = 0;     // p50_on / p50_off — the gated number
  double p50_delta_us = 0;  // median per-block paired (on - off) median
  double block_ratio = 0;   // median per-block CPU ratio incl. SLO ticks
  size_t recorder_retained = 0;
  uint64_t recorder_total = 0;
  SloOutcome slo;
  bool clean = false;  // both clouds drained
};

// One side of the obs comparison: its cloud, live set and placement times.
struct ObsSide {
  ObsSide(const udc::UdcCloudConfig& config, const char* prefix)
      : cloud(config), live(cloud), prefix(prefix) {}

  // Deploys `count` specs starting at `base`, draining events after each,
  // records per-deploy CPU placement time (CPU, not wall: a preemption
  // mid-deploy would otherwise charge this side for the neighbour's
  // timeslice) and returns the block's CPU cost. Eviction runs outside the
  // timed region (identical work on both sides).
  double RunBlock(const std::vector<udc::AppSpec>& specs, int base, int count,
                  int window) {
    std::vector<udc::TenantId> tenants;
    tenants.reserve(count);
    for (int i = 0; i < count; ++i) {
      tenants.push_back(
          cloud.RegisterTenant(std::string(prefix) + std::to_string(base + i)));
    }
    block_us.clear();
    const double c0 = CpuSeconds();
    for (int i = 0; i < count; ++i) {
      const double t0 = CpuSeconds();
      auto deployment =
          cloud.Deploy(tenants[i], specs[(base + i) % specs.size()]);
      const double us = (CpuSeconds() - t0) * 1e6;
      placement_us.Add(us);
      block_us.push_back(us);
      if (deployment.ok()) {
        ++deployed;
        live.Add(std::move(*deployment));
      }
      cloud.sim()->RunToCompletion();
    }
    const double cost = CpuSeconds() - c0;
    live.EvictPast(window, /*keep_warm=*/false);
    cloud.sim()->RunToCompletion();
    return cost;
  }

  udc::UdcCloud cloud;
  LiveSet live;
  const char* prefix;
  udc::Histogram placement_us;
  std::vector<double> block_us;  // the last block's per-deploy times
  long long deployed = 0;
};

// The always-on claim, measured: identical churn against two clouds, one
// with wall-clock placement latency into a sketch histogram and the SLO
// engine ticking every block, and one with both off. The SLO objectives
// are armed on the instrumented cloud alone; both clouds record spans,
// which is all the flight recorder dumps, so the ratio leaves out what the
// span log costs. Blocks of one full spec cycle interleave — alternating which
// cloud goes first, so neither side systematically inherits the other's
// warm caches.
//
// The gated number is the placement p50 ratio: medians over the full paired
// sample sets are stable to ~1-2% where per-block CPU totals swing ±5-7%
// on a busy host, so the block CPU ratio (which also absorbs the per-block
// SLO tick) is reported as context, not gated.
ObsOverheadResult RunObsOverhead(int racks, int deploys, int window,
                                 const std::vector<udc::AppSpec>& specs) {
  udc::UdcCloudConfig config = Topology(racks);
  config.scheduler.record_place_latency = true;
  ObsSide on(config, "on-");
  config.scheduler.record_place_latency = false;
  ObsSide off(config, "off-");

  // Machine-checked objectives on the instrumented cloud. Thresholds are
  // generous — the gate is "telemetry reports sane numbers", the tight
  // budget is the 1.03x cost ratio below.
  AddPlaceP99Objective(on.cloud, "slo.sched.place_latency_p99");
  {
    udc::SloSpec spec;
    spec.name = "slo.sched.placement_throughput";
    spec.kind = udc::SloSpec::SourceKind::kCounterRate;
    spec.source = "core.tasks_placed";
    spec.cmp = udc::SloSpec::Cmp::kGe;
    spec.threshold = 1e-9;  // any forward progress at all
    spec.window = udc::SimTime::Hours(24);
    on.cloud.sim()->slos().AddObjective(std::move(spec));
  }

  std::vector<double> block_ratios;  // per-block CPU-cost ratio
  std::vector<double> p50_ratios;    // per-block placement-median ratio
  std::vector<double> p50_deltas;    // per-block paired median delta, us
  const int block = static_cast<int>(specs.size());
  int block_index = 0;
  for (int base = 0; base < deploys; base += block, ++block_index) {
    const int count = std::min(block, deploys - base);
    const auto run_on = [&] {
      const double cost = on.RunBlock(specs, base, count, window);
      // Evaluating the objectives is part of what "SLO engine active"
      // costs; it runs once per block, outside the per-deploy windows, so
      // it lands in the block CPU cost only.
      const double s0 = CpuSeconds();
      on.cloud.sim()->slos().Tick(on.cloud.sim()->now());
      return cost + (CpuSeconds() - s0);
    };
    double off_cost, on_cost;
    if (block_index % 2 == 0) {
      off_cost = off.RunBlock(specs, base, count, window);
      on_cost = run_on();
    } else {
      on_cost = run_on();
      off_cost = off.RunBlock(specs, base, count, window);
    }
    if (block_index == 0) {
      continue;  // warmup block: cold allocator arenas, cold icache
    }
    if (off_cost > 0) {
      block_ratios.push_back(on_cost / off_cost);
    }
    const double off_med = Median(off.block_us);
    if (off_med > 0) {
      const double on_med = Median(on.block_us);
      p50_ratios.push_back(on_med / off_med);
      p50_deltas.push_back(on_med - off_med);
    }
  }
  on.live.Drain();
  off.live.Drain();

  ObsOverheadResult result;
  result.deploys_on = on.deployed;
  result.deploys_off = off.deployed;
  result.block_ratio = Median(std::move(block_ratios));
  // The gated number: median over per-block paired placement-median ratios.
  // Each ratio compares medians of deploys that ran within microseconds of
  // each other, so host drift cancels; the outer median discards blocks
  // where a burst of contention hit one side only.
  result.p50_ratio = Median(std::move(p50_ratios));
  result.p50_delta_us = Median(std::move(p50_deltas));
  result.p50_on_us = on.placement_us.Quantile(0.5);
  result.p50_off_us = off.placement_us.Quantile(0.5);
  result.slo = JudgeSlos(on.cloud);
  result.recorder_retained = on.cloud.sim()->flight_recorder().retained();
  result.recorder_total = on.cloud.sim()->flight_recorder().total_recorded();
  result.clean = Drained(on.cloud) && Drained(off.cloud);
  return result;
}

// --- Abort-heavy: transactions rolled back on pool exhaustion.

struct AbortResult {
  long long attempts = 0;
  long long deploys = 0;
  long long aborts = 0;
  double abort_fraction = 0;
  long long txn_committed = 0;
  long long txn_aborted = 0;
  bool clean = false;
};

// Drives deploys into a deliberately undersized datacenter so a large
// fraction of transactions abort on pool exhaustion, then drains.
AbortResult RunAbortChurn(int racks, int deploys,
                          const std::vector<udc::AppSpec>& specs) {
  udc::UdcCloud cloud(Topology(racks));

  AbortResult result;
  LiveSet live(cloud);
  for (int i = 0; i < deploys; ++i) {
    const udc::TenantId tenant =
        cloud.RegisterTenant("abort-" + std::to_string(i));
    ++result.attempts;
    auto deployment = cloud.Deploy(tenant, specs[i % specs.size()]);
    if (deployment.ok()) {
      ++result.deploys;
      live.Add(std::move(*deployment));
    } else {
      ++result.aborts;
      // Free a little capacity so the run keeps mixing commits and aborts
      // instead of failing every deploy once full.
      live.EvictOldest(/*keep_warm=*/false);
    }
    cloud.sim()->RunToCompletion();
  }
  live.Drain();

  result.abort_fraction =
      result.attempts > 0
          ? static_cast<double>(result.aborts) / result.attempts
          : 0;
  result.txn_committed = cloud.sim()->metrics().counter("core.txn_committed");
  result.txn_aborted = cloud.sim()->metrics().counter("core.txn_aborted");
  result.clean = Drained(cloud);
  return result;
}

// --- Warm-store phase: the environment store under churn.
//
// Two legs. The decision leg runs a keep-warm churn on the default store
// (each tenant's own pool per kind) and hashes every decision the env layer
// makes (admit/reject, per-unit start mode, per-(kind, tenant) warm
// occupancy after every step). The hash is frozen: the retired (kind,
// tenant) map and the sharing-off store both produced it, so the default
// pool must keep making the map's decisions. The abort leg then turns
// sharing on over the same undersized one-rack datacenter the abort-heavy
// phase uses (~48% of deploys abort on pool exhaustion) and checks exact
// rollback refunds: a failed deploy leaves warm-slot totals and store
// refcounts untouched.

// The decision leg's frozen hashes at smoke and at full size.
constexpr uint64_t kWarmStoreHashSmoke = 0xa764581de04c4407ull;
constexpr uint64_t kWarmStoreHashFull = 0xd517e486b32dab67ull;

struct DecisionLeg {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  long long warm_starts = 0;
  long long deploys = 0;
  bool clean = false;
};

struct WarmStoreResult {
  DecisionLeg decisions;
  uint64_t frozen_hash = 0;
  bool decisions_ok = false;

  long long attempts = 0;
  long long deploys = 0;
  long long aborts = 0;
  double abort_fraction = 0;
  long long refund_violations = 0;
  double warm_hit_ratio = 0;
  long long warm_starts = 0;
  long long cross_tenant_warm = 0;
  long long evictions = 0;
  long long live_store_refs_after_drain = -1;
  bool clean = false;
};

DecisionLeg RunDecisionLeg(int racks, int deploys, int window,
                           const std::vector<udc::AppSpec>& specs) {
  udc::UdcCloud cloud(Topology(racks));

  DecisionLeg leg;
  const auto mix = [&leg](uint64_t v) {
    leg.hash = (leg.hash ^ v) * 1099511628211ull;
  };
  // A fixed tenant set cycled through, so (kind, tenant) warm pools are
  // actually revisited and warm decisions happen.
  std::vector<udc::TenantId> tenants;
  for (int t = 0; t < 8; ++t) {
    tenants.push_back(cloud.RegisterTenant("store-" + std::to_string(t)));
  }
  LiveSet live(cloud);
  const auto mix_occupancy = [&] {
    for (int k = 0; k < udc::kNumEnvKinds; ++k) {
      for (const udc::TenantId tenant : tenants) {
        mix(static_cast<uint64_t>(
            cloud.envs().WarmSlots(static_cast<udc::EnvKind>(k), tenant)));
      }
    }
  };
  for (int i = 0; i < deploys; ++i) {
    auto deployment =
        cloud.Deploy(tenants[i % tenants.size()], specs[i % specs.size()]);
    mix(deployment.ok() ? 0x600Du : 0xBADu);
    if (deployment.ok()) {
      ++leg.deploys;
      for (udc::ResourceUnit* unit : (*deployment)->units()) {
        if (unit->env != nullptr) {
          mix(static_cast<uint64_t>(unit->env->start_mode()));
        }
      }
      live.Add(std::move(*deployment));
    }
    cloud.sim()->RunToCompletion();
    live.EvictPast(window, /*keep_warm=*/true);
    mix_occupancy();
  }
  live.Drain();
  mix(static_cast<uint64_t>(cloud.envs().live_count()));
  mix_occupancy();
  leg.warm_starts = cloud.sim()->metrics().counter("exec.warm_starts");
  leg.clean = Drained(cloud);
  return leg;
}

WarmStoreResult RunWarmStorePhase(int diff_racks, int diff_deploys,
                                  int diff_window, uint64_t frozen_hash,
                                  int abort_deploys,
                                  const std::vector<udc::AppSpec>& specs,
                                  const std::vector<udc::AppSpec>& heavy_specs) {
  WarmStoreResult result;

  // Leg 1: the default pool's decisions against their frozen hash.
  result.decisions =
      RunDecisionLeg(diff_racks, diff_deploys, diff_window, specs);
  result.frozen_hash = frozen_hash;
  result.decisions_ok = result.decisions.hash == frozen_hash;

  // Leg 2: sharing on under abort churn. Undersized datacenter, oversized
  // apps, keep-warm teardowns on the failure path so the store carries real
  // warm credit while ~half the transactions roll back through it.
  udc::UdcCloudConfig config = Topology(/*racks=*/1);
  config.env_store.share_across_tenants = true;
  udc::UdcCloud cloud(config);

  std::vector<udc::TenantId> tenants;
  for (int t = 0; t < 4; ++t) {
    tenants.push_back(cloud.RegisterTenant("churn-" + std::to_string(t)));
  }
  LiveSet live(cloud);
  for (int i = 0; i < abort_deploys; ++i) {
    ++result.attempts;
    auto deployment = DeployRefunding(cloud, tenants[i % tenants.size()],
                                      heavy_specs[i % heavy_specs.size()],
                                      &result.refund_violations);
    if (deployment.ok()) {
      ++result.deploys;
      live.Add(std::move(*deployment));
    } else {
      ++result.aborts;
      live.EvictOldest(/*keep_warm=*/true);
    }
    cloud.sim()->RunToCompletion();
  }
  live.Drain();

  result.abort_fraction =
      result.attempts > 0
          ? static_cast<double>(result.aborts) / result.attempts
          : 0;
  result.warm_hit_ratio = cloud.envs().warm_hit_ratio();
  result.warm_starts = cloud.sim()->metrics().counter("exec.warm_starts");
  result.cross_tenant_warm =
      cloud.sim()->metrics().counter("exec.cross_tenant_warm_starts");
  result.evictions = cloud.sim()->metrics().counter("exec.evictions");
  result.live_store_refs_after_drain = cloud.envs().store()->live_env_refs();
  result.clean = Drained(cloud);
  return result;
}

// The per-transaction cost of the wrapper itself: an empty Begin+Commit,
// i.e. what every no-abort deploy pays for being transactional. CPU time,
// not wall time: this feeds a 5% ratio gate against the indexed placement
// p50, and under a parallel ctest run a neighbour stealing the core for a
// few milliseconds mid-loop would otherwise inflate the numerator alone.
double MeasureEmptyTxnUs(int iterations) {
  udc::UdcCloud cloud(Topology(/*racks=*/2));
  udc::PlacementEngine& engine = cloud.region_router()->engine();

  const double t0 = CpuSeconds();
  for (int i = 0; i < iterations; ++i) {
    udc::PlacementTxn txn = engine.Begin("bench_overhead");
    (void)txn.Commit();
  }
  return (CpuSeconds() - t0) * 1e6 / iterations;
}

// --- Scale-out phase: the hierarchical control plane at datacenter scale.
//
// One leg per topology — the router over one cell holding every rack (the
// flat datacenter, whose rack pick ranks every rack), and the router over
// many cells — each churning the SAME deploy sequence (same
// specs, same order, same live-window eviction) against its own cloud of
// identical geometry. The full configuration registers >= 1M tenants over
// >= 100k devices; the gate is aggregate deploys/sec >= 3x the one-cell
// baseline, armed only at that scale (the smoke configuration runs the
// identical code but is far too small for the baseline's O(racks) rack
// pick to hurt).
//
// The baseline doubles as a differential oracle: both legs must make
// byte-identical per-deploy admit/reject decisions (FNV-1a hash over the
// outcome stream) and end the churn with byte-identical per-pool allocated
// totals. Placement p50/p99 come from the router's aggregate
// sched.place_latency_us sketch, per-cell p99 from its per-cell
// sched.cell_place_latency_us sketches, and the slo.sched.cell_place_p99
// objective is machine-checked on the cells leg.

struct ScaleLeg {
  long long deploys = 0;
  long long failures = 0;
  long long devices = 0;
  long long tenants = 0;
  double wall_seconds = 0;
  double deploys_per_sec = 0;
  uint64_t decision_hash = 0;  // FNV-1a over per-deploy ok/fail outcomes
  std::array<long long, udc::kNumDeviceKinds> allocated_pre_drain{};
  bool clean_after_drain = false;
  double p50_us = 0;  // 0 unless the cloud records place latency
  double p99_us = 0;
};

// The differential contract between two legs of one deploy sequence: the
// same admit/reject stream.
bool SameDecisions(const ScaleLeg& a, const ScaleLeg& b) {
  return a.decision_hash == b.decision_hash && a.deploys == b.deploys &&
         a.failures == b.failures;
}

struct ScaleResult {
  int racks = 0;
  int cell_count = 0;
  int live_window = 0;
  ScaleLeg baseline;
  ScaleLeg cells;
  double speedup = 0;  // cells deploys/sec over baseline deploys/sec
  bool gate_armed = false;
  bool decisions_match = false;
  bool occupancy_match = false;
  SloOutcome slo;
  long long cross_cell_deploys = 0;
  long long cell_fallbacks = 0;
  std::vector<long long> cell_deploys;  // per cell: deploys homed there
  std::vector<double> cell_p99_us;      // per cell: placement p99
};

// One churn leg against an already-constructed cloud.
ScaleLeg RunScaleLeg(udc::UdcCloud& cloud, int deploys, int window,
                     const std::vector<std::shared_ptr<const udc::AppSpec>>&
                         specs) {
  ScaleLeg leg;
  leg.devices = static_cast<long long>(cloud.datacenter().AllDevices().size());
  leg.decision_hash = 1469598103934665603ull;  // FNV-1a offset basis

  LiveSet live(cloud);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < deploys; ++i) {
    const udc::TenantId tenant =
        cloud.RegisterTenant("s-" + std::to_string(i));
    ++leg.tenants;
    auto deployment = cloud.Deploy(tenant, specs[i % specs.size()]);
    leg.decision_hash =
        (leg.decision_hash ^ (deployment.ok() ? 1u : 0u)) * 1099511628211ull;
    if (deployment.ok()) {
      ++leg.deploys;
      live.Add(std::move(*deployment));
    } else {
      ++leg.failures;
    }
    cloud.sim()->RunToCompletion();
    live.EvictPast(window, /*keep_warm=*/false);
  }
  const auto t1 = std::chrono::steady_clock::now();
  leg.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (leg.wall_seconds > 0) {
    leg.deploys_per_sec =
        static_cast<double>(leg.deploys) / leg.wall_seconds;
  }

  // Pre-drain occupancy: the steady-state working set both legs must agree
  // on byte-for-byte (same admits + atomic placements => same totals).
  for (int k = 0; k < udc::kNumDeviceKinds; ++k) {
    leg.allocated_pre_drain[static_cast<size_t>(k)] =
        cloud.datacenter().pool(static_cast<udc::DeviceKind>(k))
            .TotalAllocated();
  }

  live.Drain();
  leg.clean_after_drain = Drained(cloud);
  if (const udc::MetricHistogram* h =
          cloud.sim()->metrics().histogram("sched.place_latency_us")) {
    leg.p50_us = h->Quantile(0.5);
    leg.p99_us = h->Quantile(0.99);
  }
  return leg;
}

ScaleResult RunScalePhase(int racks, int cells, int deploys, int window,
                          const std::vector<std::shared_ptr<const udc::AppSpec>>&
                              specs) {
  ScaleResult result;
  result.racks = racks;
  result.cell_count = cells;
  result.live_window = window;

  // Legs run sequentially in their own scopes: at full scale each cloud
  // models 840,000 devices, so only one lives at a time.
  {
    udc::UdcCloudConfig config = Topology(racks);
    config.scheduler.record_place_latency = true;
    udc::UdcCloud cloud(config);
    result.baseline = RunScaleLeg(cloud, deploys, window, specs);
  }
  {
    udc::UdcCloudConfig config = Topology(racks, cells);
    config.scheduler.record_place_latency = true;
    udc::UdcCloud cloud(config);
    AddPlaceP99Objective(cloud, "slo.sched.cell_place_p99");
    result.cells = RunScaleLeg(cloud, deploys, window, specs);
    udc::RegionRouter* router = cloud.region_router();
    for (int c = 0; c < router->cell_count(); ++c) {
      result.cell_deploys.push_back(router->CellDeploys(c));
      const udc::MetricHistogram* h = cloud.sim()->metrics().histogram(
          "sched.cell_place_latency_us",
          {{"cell", udc::StrFormat("%d", c)}});
      result.cell_p99_us.push_back(h != nullptr ? h->Quantile(0.99) : 0.0);
    }
    result.cross_cell_deploys = router->cross_cell_deploys();
    result.cell_fallbacks = router->cell_fallbacks();
    result.slo = JudgeSlos(cloud);
  }

  result.speedup = result.baseline.deploys_per_sec > 0
                       ? result.cells.deploys_per_sec /
                             result.baseline.deploys_per_sec
                       : 0;
  result.gate_armed = result.cells.devices >= 100'000;
  result.decisions_match = SameDecisions(result.baseline, result.cells);
  result.occupancy_match =
      result.baseline.allocated_pre_drain == result.cells.allocated_pre_drain;
  return result;
}

// --- Federation phase: the region-partitioned control plane over a WAN.
//
// Two legs. The one-region leg is a scale-phase leg over the federated
// leg's racks and cells, all in one region. Its admit/reject hash (FNV-1a
// over the outcome stream) and pre-drain pool occupancy are frozen: a
// topology without regions produced them while it was a configuration of
// its own, and regions = 1 matched it byte for byte. The federated leg
// then runs 4 regions over an asymmetric WAN link matrix with
// deliberately skewed tenant demand (60% of deploys pinned to region 0 via
// the dist region affinity aspect) and the content-addressed env store
// on: keep-warm churn banks warm images in the hot region, deploys
// routed to the cold regions pull them back over the WAN (remote-tier
// starts, pull-through replication), and a pinned abort tail exhausts the
// hot region so rolled-back cross-region deploys exercise exact refunds.

// The one-region leg's frozen decision hash and pre-drain occupancy (per
// device kind), at smoke and at full size.
struct FrozenLeg {
  uint64_t hash;
  std::array<long long, udc::kNumDeviceKinds> occupancy;
};
constexpr FrozenLeg kOneRegionSmoke = {
    0x60b9425578cfdfb3ull,
    {158738, 0, 0, 173425033216, 0, 1958505086976, 0, 0}};
constexpr FrozenLeg kOneRegionFull = {
    0x17379969961fd513ull,
    {428440, 0, 0, 460412944384, 0, 5222680231936, 0, 0}};

struct FederationResult {
  int racks = 0;
  int cell_count = 0;
  int region_count = 0;
  int live_window = 0;
  ScaleLeg one_region_leg;
  FrozenLeg frozen{};
  bool decisions_match = false;
  bool occupancy_match = false;

  long long fed_deploys = 0;
  long long fed_failures = 0;
  long long refund_violations = 0;
  long long cross_region_deploys = 0;
  long long region_fallbacks = 0;
  std::vector<long long> region_deploys;  // per region: deploys homed there
  std::vector<long long> wan_bytes_out;   // per region
  std::vector<long long> wan_bytes_in;    // per region
  long long wan_messages = 0;
  long long wan_bytes = 0;
  long long remote_starts = 0;
  long long remote_hits = 0;
  double region_place_p99_us = 0;
  bool fed_clean = false;
  SloOutcome slo;
};

// A copy of `base` with `modules` pinned to `region` via the dist aspect.
// Modules without explicit aspects start from ProviderDefaults, so nothing
// else about their treatment changes. Pinning only the data modules homes
// the deploy on the region but leaves its tasks free to spill into other
// regions when it runs out: the cross-region single-transaction path.
udc::AppSpec PinToRegion(const udc::AppSpec& base,
                         const std::vector<udc::ModuleId>& modules,
                         int region) {
  udc::AppSpec pinned = base;
  for (const udc::ModuleId m : modules) {
    auto it = pinned.aspects.find(m);
    if (it == pinned.aspects.end()) {
      it = pinned.aspects.emplace(m, udc::ProviderDefaults()).first;
    }
    it->second.dist.region_affinity = region;
  }
  return pinned;
}

FederationResult RunFederationPhase(
    int racks, int cells, int regions, int deploys, int window,
    int abort_tail, const FrozenLeg& frozen,
    const std::vector<std::shared_ptr<const udc::AppSpec>>& shared_specs,
    const std::vector<udc::AppSpec>& specs,
    const std::vector<udc::AppSpec>& heavy_specs) {
  FederationResult result;
  result.racks = racks;
  result.cell_count = cells;
  result.region_count = regions;
  result.live_window = window;
  result.frozen = frozen;

  {
    udc::UdcCloud cloud(Topology(racks, cells));
    result.one_region_leg = RunScaleLeg(cloud, deploys, window, shared_specs);
  }
  result.decisions_match = result.one_region_leg.decision_hash == frozen.hash;
  result.occupancy_match =
      result.one_region_leg.allocated_pre_drain == frozen.occupancy;

  // Federated leg: N regions, asymmetric WAN, skewed demand, env store on.
  udc::UdcCloudConfig config = Topology(racks, cells, regions);
  config.scheduler.record_place_latency = true;
  config.env_store.share_across_tenants = true;
  udc::UdcCloud cloud(config);
  // Asymmetric link matrix: every directed pair gets its own latency and
  // bandwidth, and (i, j) differs from (j, i) — cheap one way, slow the
  // other, like real WAN routes.
  for (int i = 0; i < regions; ++i) {
    for (int j = 0; j < regions; ++j) {
      if (i == j) {
        continue;
      }
      udc::WanLinkParams link;
      link.latency = udc::SimTime::Millis(8 + 7 * i + 13 * j);
      link.bw_mbps = 400.0 + 150.0 * ((i * regions + j) % 3);
      cloud.fabric().SetWanLink(i, j, link);
    }
  }
  AddPlaceP99Objective(cloud, "slo.sched.region_place_p99");

  std::vector<udc::AppSpec> pinned;
  pinned.reserve(specs.size());
  for (const udc::AppSpec& spec : specs) {
    pinned.push_back(PinToRegion(spec, spec.graph.ModuleIds(), 0));
  }

  LiveSet live(cloud);
  const auto deploy = [&](const std::string& tenant_name,
                          const udc::AppSpec& spec) {
    auto deployment = DeployRefunding(cloud, cloud.RegisterTenant(tenant_name),
                                      spec, &result.refund_violations);
    if (!deployment.ok()) {
      ++result.fed_failures;
      return false;
    }
    ++result.fed_deploys;
    live.Add(std::move(*deployment));
    return true;
  };
  // Skewed churn: 60% of deploys pinned to region 0, the rest routed by
  // free capacity (which the skew pushes toward the other regions). Warm
  // teardowns bank content in whichever region served the deploy, so the
  // hot region accumulates warm images that cold-region launches then
  // fetch over the WAN.
  for (int i = 0; i < deploys; ++i) {
    const size_t slot = static_cast<size_t>(i) % specs.size();
    deploy("fed-" + std::to_string(i), i % 5 < 3 ? pinned[slot] : specs[slot]);
    cloud.sim()->RunToCompletion();
    live.EvictPast(window, /*keep_warm=*/true);
  }
  // Abort tail: oversized apps, alternating whole-app and data-only pins to
  // the (already hot) region 0. A whole-app pin strikes every other region
  // from the candidate list, so exhaustion aborts the whole transaction —
  // each rolled-back deploy must leave the store's warm slots and refcounts
  // exactly as it found them. A data-only pin homes the deploy on region 0
  // but lets its tasks spill across the WAN once the region is full
  // (cross-region legs staged and unwound inside the same transaction).
  for (int i = 0; i < abort_tail; ++i) {
    const udc::AppSpec& base =
        heavy_specs[static_cast<size_t>(i) % heavy_specs.size()];
    const udc::AppSpec heavy = PinToRegion(
        base, i % 2 == 0 ? base.graph.ModuleIds() : base.graph.DataIds(), 0);
    if (!deploy("fed-abort-" + std::to_string(i), heavy)) {
      live.EvictOldest(/*keep_warm=*/true);
    }
    cloud.sim()->RunToCompletion();
  }
  live.Drain();

  udc::RegionRouter* router = cloud.region_router();
  for (int r = 0; r < router->region_count(); ++r) {
    result.region_deploys.push_back(router->RegionDeploys(r));
    result.wan_bytes_out.push_back(cloud.fabric().wan_bytes_out(r));
    result.wan_bytes_in.push_back(cloud.fabric().wan_bytes_in(r));
  }
  result.cross_region_deploys = router->cross_region_deploys();
  result.region_fallbacks = router->region_fallbacks();
  result.wan_messages =
      static_cast<long long>(cloud.fabric().wan_messages_sent());
  result.wan_bytes = cloud.fabric().wan_bytes_sent();
  result.remote_starts = cloud.sim()->metrics().counter("exec.remote_starts");
  result.remote_hits = cloud.envs().store()->remote_hits();
  if (const udc::MetricHistogram* h =
          cloud.sim()->metrics().histogram("sched.place_latency_us")) {
    result.region_place_p99_us = h->Quantile(0.99);
  }
  result.slo = JudgeSlos(cloud);
  result.fed_clean = Drained(cloud);
  return result;
}

void PrintFederation(const FederationResult& f) {
  std::printf("federation: %d racks / %d cells / %d regions, window %d\n",
              f.racks, f.cell_count, f.region_count, f.live_window);
  std::printf("  one region: decisions %s (%016llx, frozen %016llx), "
              "occupancy %s, drain %s\n",
              f.decisions_match ? "match" : "DIVERGED",
              static_cast<unsigned long long>(f.one_region_leg.decision_hash),
              static_cast<unsigned long long>(f.frozen.hash),
              f.occupancy_match ? "match" : "DIVERGED",
              f.one_region_leg.clean_after_drain ? "clean" : "DIRTY");
  std::printf("  federated: %lld deploys / %lld failed, %lld cross-region, "
              "%lld module spills, %lld refund violations, drain %s\n",
              f.fed_deploys, f.fed_failures, f.cross_region_deploys,
              f.region_fallbacks, f.refund_violations,
              f.fed_clean ? "clean" : "DIRTY");
  std::printf("  per-region deploys:");
  for (size_t r = 0; r < f.region_deploys.size(); ++r) {
    std::printf(" r%zu=%lld", r, f.region_deploys[r]);
  }
  std::printf("\n  wan: %lld transfers / %.1f MiB, remote starts %lld "
              "(store remote hits %lld), region place p99 %.1fus, SLO %s\n",
              f.wan_messages,
              static_cast<double>(f.wan_bytes) / (1024.0 * 1024.0),
              f.remote_starts, f.remote_hits, f.region_place_p99_us,
              f.slo.ok ? "OK" : "BREACHED");
}

void PrintResult(const char* label, const ChurnResult& r) {
  std::printf("%-8s %8.1f deploys/s %12.0f events/s  placement p50=%.1fus "
              "p95=%.1fus p99=%.1fus  (%lld deploys, %lld failed, %.2fs)\n",
              label, r.deploys_per_sec, r.events_per_sec,
              r.placement_us.Quantile(0.5), r.placement_us.Quantile(0.95),
              r.placement_us.Quantile(0.99), r.deploys, r.failures,
              r.wall_seconds);
}

void PrintScale(const ScaleResult& s) {
  std::printf("scale: %d racks / %lld devices / %d cells, %lld tenants, "
              "window %d\n",
              s.racks, s.cells.devices, s.cell_count, s.cells.tenants,
              s.live_window);
  std::printf("  one cell %8.1f deploys/s  p50=%.1fus p99=%.1fus  "
              "(%lld ok, %lld failed, %.1fs)\n",
              s.baseline.deploys_per_sec, s.baseline.p50_us,
              s.baseline.p99_us, s.baseline.deploys, s.baseline.failures,
              s.baseline.wall_seconds);
  std::printf("  cells    %8.1f deploys/s  p50=%.1fus p99=%.1fus  "
              "(%lld ok, %lld failed, %.1fs)\n",
              s.cells.deploys_per_sec, s.cells.p50_us, s.cells.p99_us,
              s.cells.deploys, s.cells.failures, s.cells.wall_seconds);
  std::vector<double> p99s = s.cell_p99_us;
  std::sort(p99s.begin(), p99s.end());
  const double min_p99 = p99s.empty() ? 0 : p99s.front();
  const double med_p99 = p99s.empty() ? 0 : p99s[p99s.size() / 2];
  const double max_p99 = p99s.empty() ? 0 : p99s.back();
  std::printf("  speedup %.2fx (gate 3.0x, %s), per-cell p99 "
              "min=%.1f med=%.1f max=%.1fus, cross-cell %lld deploys / "
              "%lld module spills\n",
              s.speedup, s.gate_armed ? "armed" : "unarmed: sub-scale",
              min_p99, med_p99, max_p99, s.cross_cell_deploys,
              s.cell_fallbacks);
  std::printf("  differential: decisions %s, occupancy %s, drain %s/%s, "
              "SLO %s\n",
              s.decisions_match ? "match" : "DIVERGED",
              s.occupancy_match ? "match" : "DIVERGED",
              s.baseline.clean_after_drain ? "clean" : "DIRTY",
              s.cells.clean_after_drain ? "clean" : "DIRTY",
              s.slo.ok ? "OK" : "BREACHED");
}

// Every phase's result, written once as BENCH_hotpath.json.
struct Report {
  bool smoke = false;
  ChurnConfig config;
  ChurnResult indexed;
  int group_size = 0;
  FrontendComparison frontend;
  AbortResult abort;
  WarmStoreResult warm_store;
  double empty_txn_us = 0;
  double overhead_pct = 0;
  ObsOverheadResult obs;
  ScaleResult scale;
  FederationResult fed;
};

const char* Bool(bool b) { return b ? "true" : "false"; }

void WriteJson(const Report& r) {
  udc::bench::JsonFile json("BENCH_hotpath.json");
  if (!json) {
    return;
  }
  FILE* f = json.get();
  const ChurnResult& indexed = r.indexed;
  std::fprintf(f,
               "{\n  \"benchmark\": \"deploy_churn\",\n"
               "  \"config\": {\"racks\": %d, \"devices\": %lld, "
               "\"deploys\": %d, \"live_window\": %d, \"host_cores\": %d, "
               "\"smoke\": %s},\n",
               r.config.racks, indexed.devices, r.config.deploys,
               r.config.live_window, udc::bench::HostCores(), Bool(r.smoke));
  std::fprintf(f,
               "  \"indexed\": {\n"
               "    \"deploys\": %lld,\n"
               "    \"failures\": %lld,\n"
               "    \"wall_seconds\": %.4f,\n"
               "    \"deploys_per_sec\": %.2f,\n"
               "    \"events_per_sec\": %.0f,\n"
               "    \"placement_us\": {\"p50\": %.2f, \"p95\": %.2f, "
               "\"p99\": %.2f, \"mean\": %.2f},\n"
               "    \"clean_after_drain\": %s\n"
               "  },\n",
               indexed.deploys, indexed.failures, indexed.wall_seconds,
               indexed.deploys_per_sec, indexed.events_per_sec,
               indexed.placement_us.Quantile(0.5),
               indexed.placement_us.Quantile(0.95),
               indexed.placement_us.Quantile(0.99),
               indexed.placement_us.Mean(), Bool(indexed.clean));
  const RpcResult& repeat = r.frontend.repeat;
  const RpcResult& fresh = r.frontend.fresh;
  const AbortResult& abort = r.abort;
  std::fprintf(f,
               "  \"txn\": {\n"
               "    \"group_size\": %d,\n"
               "    \"empty_txn_us\": %.3f,\n"
               "    \"overhead_pct_vs_indexed_p50\": %.2f,\n"
               "    \"frontend_repeat\": {\"deploys\": %lld, \"failures\": "
               "%lld, \"cpu_seconds\": %.4f, \"deploys_per_sec\": %.2f, "
               "\"spec_cache_hits\": %lld, \"spec_cache_misses\": %lld},\n"
               "    \"frontend_fresh\": {\"deploys\": %lld, \"failures\": "
               "%lld, \"cpu_seconds\": %.4f, \"deploys_per_sec\": %.2f, "
               "\"spec_cache_hits\": %lld, \"spec_cache_misses\": %lld},\n"
               "    \"frontend_repeat_speedup\": %.2f,\n"
               "    \"frontend_clean_after_drain\": %s,\n"
               "    \"abort_phase\": {\"attempts\": %lld, \"deploys\": %lld, "
               "\"aborts\": %lld, \"abort_fraction\": %.2f, "
               "\"txn_committed\": %lld, \"txn_aborted\": %lld, "
               "\"clean_after_drain\": %s}\n"
               "  },\n",
               r.group_size, r.empty_txn_us, r.overhead_pct, repeat.deploys,
               repeat.failures, repeat.cpu_seconds, repeat.deploys_per_sec,
               repeat.spec_cache_hits, repeat.spec_cache_misses,
               fresh.deploys, fresh.failures, fresh.cpu_seconds,
               fresh.deploys_per_sec, fresh.spec_cache_hits,
               fresh.spec_cache_misses, r.frontend.speedup,
               Bool(r.frontend.clean), abort.attempts,
               abort.deploys, abort.aborts, abort.abort_fraction,
               abort.txn_committed, abort.txn_aborted, Bool(abort.clean));
  const WarmStoreResult& ws = r.warm_store;
  std::fprintf(f,
               "  \"warm_store\": {\n"
               "    \"decisions\": {\"hash\": \"%016llx\", "
               "\"frozen_hash\": \"%016llx\", \"warm_starts\": %lld, "
               "\"matches_frozen\": %s, \"clean_after_drain\": %s},\n"
               "    \"abort_churn\": {\"attempts\": %lld, \"deploys\": %lld, "
               "\"aborts\": %lld, \"abort_fraction\": %.2f, "
               "\"refund_violations\": %lld, \"warm_hit_ratio\": %.3f, "
               "\"warm_starts\": %lld, \"cross_tenant_warm_starts\": %lld, "
               "\"evictions\": %lld, \"live_store_refs_after_drain\": %lld, "
               "\"clean_after_drain\": %s}\n"
               "  },\n",
               static_cast<unsigned long long>(ws.decisions.hash),
               static_cast<unsigned long long>(ws.frozen_hash),
               ws.decisions.warm_starts, Bool(ws.decisions_ok),
               Bool(ws.decisions.clean), ws.attempts, ws.deploys, ws.aborts,
               ws.abort_fraction, ws.refund_violations, ws.warm_hit_ratio,
               ws.warm_starts, ws.cross_tenant_warm, ws.evictions,
               ws.live_store_refs_after_drain, Bool(ws.clean));
  const ObsOverheadResult& obs = r.obs;
  std::fprintf(f,
               "  \"obs_overhead\": {\n"
               "    \"deploys_on\": %lld,\n"
               "    \"deploys_off\": %lld,\n"
               "    \"placement_p50_on_us\": %.2f,\n"
               "    \"placement_p50_off_us\": %.2f,\n"
               "    \"placement_p50_ratio\": %.4f,\n"
               "    \"placement_p50_delta_us\": %.4f,\n"
               "    \"gate_p50_ratio\": 1.03,\n"
               "    \"gate_p50_delta_us\": %.1f,\n"
               "    \"median_block_cost_ratio\": %.4f,\n"
               "    \"recorder_retained\": %zu,\n"
               "    \"recorder_total_recorded\": %llu,\n"
               "    \"slo_all_ok\": %s,\n"
               "    \"clean_after_drain\": %s\n"
               "  },\n",
               obs.deploys_on, obs.deploys_off, obs.p50_on_us, obs.p50_off_us,
               obs.p50_ratio, obs.p50_delta_us, kObsAbsoluteBudgetUs,
               obs.block_ratio, obs.recorder_retained,
               static_cast<unsigned long long>(obs.recorder_total),
               Bool(obs.slo.ok), Bool(obs.clean));

  const ScaleResult& s = r.scale;
  const auto emit_leg = [f](const char* name, const ScaleLeg& leg) {
    std::fprintf(f,
                 "    \"%s\": {\"deploys\": %lld, \"failures\": %lld, "
                 "\"tenants\": %lld, \"wall_seconds\": %.2f, "
                 "\"deploys_per_sec\": %.1f, \"placement_us\": "
                 "{\"p50\": %.2f, \"p99\": %.2f}, "
                 "\"clean_after_drain\": %s},\n",
                 name, leg.deploys, leg.failures, leg.tenants,
                 leg.wall_seconds, leg.deploys_per_sec, leg.p50_us,
                 leg.p99_us, Bool(leg.clean_after_drain));
  };
  std::fprintf(f,
               "  \"scale\": {\n"
               "    \"racks\": %d,\n"
               "    \"cell_count\": %d,\n"
               "    \"devices\": %lld,\n"
               "    \"live_window\": %d,\n",
               s.racks, s.cell_count, s.cells.devices, s.live_window);
  emit_leg("baseline", s.baseline);
  emit_leg("cells", s.cells);
  std::fprintf(f,
               "    \"speedup\": %.2f,\n"
               "    \"gate_speedup\": 3.0,\n"
               "    \"gate_armed\": %s,\n"
               "    \"decisions_match\": %s,\n"
               "    \"occupancy_match\": %s,\n"
               "    \"slo_cell_place_p99_ok\": %s,\n"
               "    \"cross_cell_deploys\": %lld,\n"
               "    \"cell_fallbacks\": %lld,\n"
               "    \"per_cell\": [",
               s.speedup, Bool(s.gate_armed), Bool(s.decisions_match),
               Bool(s.occupancy_match), Bool(s.slo.ok), s.cross_cell_deploys,
               s.cell_fallbacks);
  for (size_t c = 0; c < s.cell_p99_us.size(); ++c) {
    std::fprintf(f, "%s\n      {\"cell\": %zu, \"deploys\": %lld, "
                 "\"p99_us\": %.2f}",
                 c == 0 ? "" : ",", c, s.cell_deploys[c], s.cell_p99_us[c]);
  }
  std::fprintf(f, "\n    ]\n  },\n");

  const FederationResult& fed = r.fed;
  std::fprintf(f,
               "  \"federation\": {\n"
               "    \"racks\": %d,\n"
               "    \"cell_count\": %d,\n"
               "    \"region_count\": %d,\n"
               "    \"live_window\": %d,\n"
               "    \"one_region\": {\"hash\": \"%016llx\", "
               "\"frozen_hash\": \"%016llx\", \"decisions_match\": %s, "
               "\"occupancy_match\": %s},\n"
               "    \"deploys\": %lld,\n"
               "    \"failures\": %lld,\n"
               "    \"refund_violations\": %lld,\n"
               "    \"cross_region_deploys\": %lld,\n"
               "    \"region_fallbacks\": %lld,\n"
               "    \"wan_transfers\": %lld,\n"
               "    \"wan_bytes\": %lld,\n"
               "    \"remote_starts\": %lld,\n"
               "    \"store_remote_hits\": %lld,\n"
               "    \"region_place_p99_us\": %.2f,\n"
               "    \"slo_region_place_p99_ok\": %s,\n"
               "    \"clean_after_drain\": %s,\n"
               "    \"per_region\": [",
               fed.racks, fed.cell_count, fed.region_count, fed.live_window,
               static_cast<unsigned long long>(
                   fed.one_region_leg.decision_hash),
               static_cast<unsigned long long>(fed.frozen.hash),
               Bool(fed.decisions_match), Bool(fed.occupancy_match),
               fed.fed_deploys, fed.fed_failures, fed.refund_violations,
               fed.cross_region_deploys, fed.region_fallbacks,
               fed.wan_messages, fed.wan_bytes, fed.remote_starts,
               fed.remote_hits, fed.region_place_p99_us, Bool(fed.slo.ok),
               Bool(fed.fed_clean));
  for (size_t i = 0; i < fed.region_deploys.size(); ++i) {
    std::fprintf(f,
                 "%s\n      {\"region\": %zu, \"deploys\": %lld, "
                 "\"wan_bytes_out\": %lld, \"wan_bytes_in\": %lld}",
                 i == 0 ? "" : ",", i, fed.region_deploys[i],
                 fed.wan_bytes_out[i], fed.wan_bytes_in[i]);
  }
  std::fprintf(f, "\n    ]\n  }\n}\n");
}

// One gate: when `pass` is false, prints "FAIL: " and the message to stderr
// and clears `*ok`.
__attribute__((format(printf, 3, 4))) void Gate(bool pass, bool* ok,
                                                const char* format, ...) {
  if (pass) {
    return;
  }
  *ok = false;
  std::fputs("FAIL: ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
}

// Every gate of every phase (see the header comment); true when all pass.
bool CheckGates(const Report& r) {
  bool ok = true;
  Gate(r.indexed.clean, &ok, "indexed churn leaked state after drain\n");
  Gate(r.frontend.clean, &ok,
       "frontend RPC phase leaked state after drain\n");
  Gate(r.frontend.speedup >= 1.2, &ok,
       "repeated-text deploy RPCs %.2fx fresh-text deploy RPCs, gate is "
       "1.2x\n",
       r.frontend.speedup);
  const RpcResult& repeat = r.frontend.repeat;
  const RpcResult& fresh = r.frontend.fresh;
  Gate(repeat.failures == 0 && fresh.failures == 0 &&
           repeat.spec_cache_misses == 1 &&
           repeat.spec_cache_hits == repeat.deploys - 1 &&
           fresh.spec_cache_hits == 0 &&
           fresh.spec_cache_misses == fresh.deploys,
       &ok, "frontend legs: repeat %lld ok, %lld failed, %lld/%lld "
       "spec-cache hits/misses (want one miss); fresh %lld ok, %lld failed, "
       "%lld/%lld (want no hit)\n",
       repeat.deploys, repeat.failures, repeat.spec_cache_hits,
       repeat.spec_cache_misses, fresh.deploys, fresh.failures,
       fresh.spec_cache_hits, fresh.spec_cache_misses);

  const AbortResult& abort = r.abort;
  Gate(abort.clean, &ok, "abort-heavy phase leaked state\n");
  Gate(abort.aborts != 0 && abort.txn_aborted >= abort.aborts, &ok,
       "abort-heavy phase did not exercise aborts (aborts=%lld, "
       "core.txn_aborted=%lld)\n",
       abort.aborts, abort.txn_aborted);

  const WarmStoreResult& ws = r.warm_store;
  Gate(ws.decisions_ok, &ok,
       "the default warm pool's decisions diverged from their frozen hash "
       "(%016llx, frozen %016llx)\n",
       static_cast<unsigned long long>(ws.decisions.hash),
       static_cast<unsigned long long>(ws.frozen_hash));
  Gate(ws.decisions.warm_starts != 0, &ok,
       "warm-store decision leg saw no warm starts — it never exercised the "
       "pool\n");
  Gate(ws.decisions.clean, &ok,
       "warm-store decision leg leaked state after drain\n");
  Gate(ws.aborts != 0 && ws.refund_violations == 0, &ok,
       "warm-store abort churn (aborts=%lld, refund violations=%lld, want "
       "aborts>0 and violations=0)\n",
       ws.aborts, ws.refund_violations);
  Gate(ws.clean, &ok,
       "warm-store abort churn leaked state after drain (%lld live store "
       "refs)\n",
       ws.live_store_refs_after_drain);

  Gate(r.overhead_pct <= 5.0, &ok,
       "empty-txn overhead %.2f%% of placement p50, gate is 5%%\n",
       r.overhead_pct);

  const ObsOverheadResult& obs = r.obs;
  Gate(obs.p50_ratio <= 1.03 || obs.p50_delta_us <= kObsAbsoluteBudgetUs,
       &ok,
       "placement p50 with observability on is %.3fx (+%.2fus) over the off "
       "configuration, gate is 1.03x with a %.1fus absolute budget\n",
       obs.p50_ratio, obs.p50_delta_us, kObsAbsoluteBudgetUs);
  Gate(obs.slo.ok, &ok,
       "an SLO objective breached during the obs overhead phase\n%s",
       obs.slo.report.c_str());
  Gate(obs.recorder_total != 0, &ok,
       "flight recorder captured nothing in the on mode\n");
  Gate(obs.clean, &ok, "obs overhead phase leaked state after drain\n");

  const ScaleResult& s = r.scale;
  Gate(s.decisions_match, &ok,
       "cell and baseline legs diverged on admit/reject decisions (baseline "
       "%lld/%lld hash %llx, cells %lld/%lld hash %llx)\n",
       s.baseline.deploys, s.baseline.failures,
       static_cast<unsigned long long>(s.baseline.decision_hash),
       s.cells.deploys, s.cells.failures,
       static_cast<unsigned long long>(s.cells.decision_hash));
  Gate(s.occupancy_match, &ok,
       "cell and baseline legs diverged on pre-drain pool occupancy\n");
  Gate(s.baseline.clean_after_drain && s.cells.clean_after_drain, &ok,
       "scale phase leaked state after drain\n");
  Gate(s.slo.ok, &ok,
       "the scale phase breached slo.sched.cell_place_p99\n%s",
       s.slo.report.c_str());
  Gate(!s.gate_armed || s.speedup >= 3.0, &ok,
       "cell-partitioned control plane %.2fx the one-cell baseline at %lld "
       "devices, gate is 3x\n",
       s.speedup, s.cells.devices);

  const FederationResult& f = r.fed;
  Gate(f.decisions_match && f.occupancy_match, &ok,
       "the one-region leg moved off its frozen decisions (hash %016llx, "
       "frozen %016llx) or pre-drain occupancy\n",
       static_cast<unsigned long long>(f.one_region_leg.decision_hash),
       static_cast<unsigned long long>(f.frozen.hash));
  Gate(f.one_region_leg.clean_after_drain && f.fed_clean, &ok,
       "federation phase leaked state after drain\n");
  Gate(f.refund_violations == 0, &ok,
       "%lld cross-region refund violations — a rolled-back deploy moved the "
       "env store\n",
       f.refund_violations);
  Gate(f.fed_failures != 0, &ok,
       "federation abort tail never aborted — refund exactness was not "
       "exercised\n");
  Gate(f.cross_region_deploys != 0, &ok,
       "no deploy spanned regions — the cross-region single-transaction "
       "spill path was not exercised\n");
  Gate(f.wan_messages != 0 && f.remote_starts != 0, &ok,
       "federation phase exercised no WAN traffic (transfers=%lld, remote "
       "starts=%lld)\n",
       f.wan_messages, f.remote_starts);
  Gate(f.slo.ok, &ok,
       "the federation phase breached slo.sched.region_place_p99\n%s",
       f.slo.report.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Report report;
  report.smoke = udc::bench::ParseSmokeFlag(argc, argv);
  const bool smoke = report.smoke;
  ChurnConfig& config = report.config;
  if (smoke) {
    config.racks = 96;
    config.deploys = 160;
    config.live_window = 16;
  }

  // Every phase places byte-identical workloads: same specs, same order.
  udc::Rng spec_rng(0xC10DDu);
  std::vector<udc::AppSpec> specs;
  for (int i = 0; i < 16; ++i) {
    udc::MicroserviceConfig ms;
    ms.chain_length = 3 + static_cast<int>(spec_rng.NextUint64(3));
    ms.fanout_services = 1 + static_cast<int>(spec_rng.NextUint64(2));
    auto spec = udc::GenerateMicroserviceApp(spec_rng, ms);
    if (!spec.ok()) {
      std::fprintf(stderr, "spec generation failed: %s\n",
                   spec.status().message().c_str());
      return 1;
    }
    specs.push_back(std::move(*spec));
  }

  // The abort phases want scarcity, not headroom: deliberately oversized
  // apps so a steady fraction of placements hit pool exhaustion
  // mid-transaction. Drawn from the same RNG stream right after `specs`.
  std::vector<udc::AppSpec> heavy_specs;
  for (int i = 0; i < 8; ++i) {
    udc::MicroserviceConfig ms;
    ms.chain_length = 5 + static_cast<int>(spec_rng.NextUint64(2));
    ms.fanout_services = 3;
    ms.stateful_backend = true;
    ms.work_scale = 6.0 + static_cast<double>(spec_rng.NextUint64(4));
    auto spec = udc::GenerateMicroserviceApp(spec_rng, ms);
    if (!spec.ok()) {
      std::fprintf(stderr, "heavy spec generation failed: %s\n",
                   spec.status().message().c_str());
      return 1;
    }
    heavy_specs.push_back(std::move(*spec));
  }

  // The scale differential and the one-region leg deploy one immutable
  // catalog spec per slot via the shared-spec overload — at a million
  // deploys the per-deploy AppSpec copy would dominate the very path being
  // measured.
  std::vector<std::shared_ptr<const udc::AppSpec>> shared_specs;
  shared_specs.reserve(specs.size());
  for (const udc::AppSpec& spec : specs) {
    shared_specs.push_back(std::make_shared<const udc::AppSpec>(spec));
  }

  std::printf("deploy_churn: %d racks, %d deploys, window %d%s\n",
              config.racks, config.deploys, config.live_window,
              smoke ? " (smoke)" : "");

  report.indexed = RunChurn(config, specs);
  const ChurnResult& indexed = report.indexed;
  PrintResult("indexed", indexed);

  // The tenant-visible comparison: deploy RPCs of one repeated udcl text
  // versus deploy RPCs of texts never sent before, same frontend.
  report.group_size = smoke ? 16 : 32;
  const int rpc_deploys = smoke ? 320 : 640;
  report.frontend =
      RunFrontendComparison(config.racks, rpc_deploys, config.live_window,
                            report.group_size, udc::MedicalAppUdcl());
  const FrontendComparison& frontend = report.frontend;
  std::printf("frontend: repeat %.1f deploys/s (%lld ok, %lld failed, "
              "%lld/%lld spec-cache hits/misses), fresh %.1f deploys/s "
              "(%lld ok, %lld failed, %lld/%lld) -> %.2fx\n",
              frontend.repeat.deploys_per_sec, frontend.repeat.deploys,
              frontend.repeat.failures, frontend.repeat.spec_cache_hits,
              frontend.repeat.spec_cache_misses,
              frontend.fresh.deploys_per_sec, frontend.fresh.deploys,
              frontend.fresh.failures, frontend.fresh.spec_cache_hits,
              frontend.fresh.spec_cache_misses, frontend.speedup);

  report.abort = RunAbortChurn(/*racks=*/1, smoke ? 60 : 400, heavy_specs);
  const AbortResult& abort = report.abort;
  std::printf("abort-heavy: %lld attempts, %lld deploys, %lld aborts "
              "(%.0f%%), txn committed=%lld aborted=%lld, drain %s\n",
              abort.attempts, abort.deploys, abort.aborts,
              abort.abort_fraction * 100, abort.txn_committed,
              abort.txn_aborted, abort.clean ? "clean" : "DIRTY");

  report.warm_store = RunWarmStorePhase(
      /*diff_racks=*/smoke ? 24 : 96, /*diff_deploys=*/smoke ? 120 : 480,
      /*diff_window=*/16,
      /*frozen_hash=*/smoke ? kWarmStoreHashSmoke : kWarmStoreHashFull,
      /*abort_deploys=*/smoke ? 60 : 400, specs, heavy_specs);
  const WarmStoreResult& warm_store = report.warm_store;
  std::printf("warm-store: decisions %s (%016llx, frozen %016llx, "
              "%lld warm starts)\n",
              warm_store.decisions_ok ? "match" : "DIVERGED",
              static_cast<unsigned long long>(warm_store.decisions.hash),
              static_cast<unsigned long long>(warm_store.frozen_hash),
              warm_store.decisions.warm_starts);
  std::printf("warm-store abort churn: %lld attempts, %lld aborts (%.0f%%), "
              "%lld refund violations, hit ratio %.2f (%lld warm, %lld "
              "cross-tenant), drain %s (%lld live refs)\n",
              warm_store.attempts, warm_store.aborts,
              warm_store.abort_fraction * 100, warm_store.refund_violations,
              warm_store.warm_hit_ratio, warm_store.warm_starts,
              warm_store.cross_tenant_warm,
              warm_store.clean ? "clean" : "DIRTY",
              warm_store.live_store_refs_after_drain);

  report.empty_txn_us = MeasureEmptyTxnUs(smoke ? 20000 : 200000);
  const double indexed_p50 = indexed.placement_us.Quantile(0.5);
  report.overhead_pct =
      indexed_p50 > 0 ? 100.0 * report.empty_txn_us / indexed_p50 : 0;
  std::printf("txn overhead: %.3fus per empty txn = %.2f%% of indexed "
              "placement p50 (%.1fus)\n",
              report.empty_txn_us, report.overhead_pct, indexed_p50);

  // At smoke size the gated number is a median over per-block paired
  // deltas, and 160 deploys only yield 9 post-warmup blocks — few enough
  // that one noisy block lands the median itself in the noise band. Run
  // the obs phase 4x longer at smoke (still ~100ms for both clouds) so
  // the median sits on ~39 blocks; at full size the phase is already long.
  const int obs_deploys = smoke ? config.deploys * 4 : config.deploys;
  report.obs = RunObsOverhead(config.racks, obs_deploys, config.live_window,
                              specs);
  const ObsOverheadResult& obs = report.obs;
  std::printf("obs overhead: p50 on=%.1fus off=%.1fus -> %.3fx "
              "(gate 1.03x or %+.2fus vs budget %.1fus), "
              "block cost %.3fx, recorder retained %zu/%llu, SLOs %s\n",
              obs.p50_on_us, obs.p50_off_us, obs.p50_ratio, obs.p50_delta_us,
              kObsAbsoluteBudgetUs, obs.block_ratio,
              obs.recorder_retained,
              static_cast<unsigned long long>(obs.recorder_total),
              obs.slo.ok ? "OK" : "BREACHED");
  std::printf("%s", obs.slo.report.c_str());

  // Full scale: 40000 racks = 840,000 devices in 400 cells (100 racks /
  // 2,100 devices per cell), one million tenants churned through a live
  // window. The rack count sets the baseline's O(racks) per-pick cost; at
  // this size the one-cell rack pick dwarfs the shared per-deploy floor
  // (~30us of tenant/env/window bookkeeping both legs pay), which is what
  // the 3x aggregate gate is measuring. Smoke runs the identical code a
  // few thousand times smaller.
  report.scale = RunScalePhase(
      /*racks=*/smoke ? 240 : 40000, /*cells=*/smoke ? 8 : 400,
      /*deploys=*/smoke ? 1200 : 1'000'000, /*window=*/smoke ? 64 : 512,
      shared_specs);
  PrintScale(report.scale);

  // Federation geometry is deliberately small per region (4 racks each at
  // smoke size): the phase measures correctness under scarcity — skew,
  // spills, WAN fetches, aborts — not throughput. The abort tail is sized
  // to overrun the pinned region and keep mixing commits and aborts once
  // it is full.
  report.fed = RunFederationPhase(
      /*racks=*/smoke ? 16 : 32, /*cells=*/8, /*regions=*/4,
      /*deploys=*/smoke ? 240 : 2000, /*window=*/smoke ? 24 : 64,
      /*abort_tail=*/smoke ? 160 : 400,
      /*frozen=*/smoke ? kOneRegionSmoke : kOneRegionFull, shared_specs, specs,
      heavy_specs);
  PrintFederation(report.fed);

  WriteJson(report);

  // Failing any gate fails the run, and with it the deploy_churn_smoke
  // ctest.
  return CheckGates(report) ? 0 : 1;
}
