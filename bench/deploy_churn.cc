// Deploy-churn macro-benchmark: the control-plane hot path under load.
//
// Deploys and tears down ~1k microservice tenants against a ~10k-device
// datacenter and reports deploys/sec, simulator events/sec, and per-deploy
// placement-time percentiles. A sliding window of live deployments keeps
// the pools fragmented the way long-running churn does, so the allocator
// sees realistic free lists rather than a pristine datacenter.
//
// PR 5 adds transaction-focused phases on top of the indexed churn:
//   - batched (in-process): the same workload submitted through
//     UdcCloud::DeployAll in fixed-size batches (demand resolution and rack
//     scoring amortized per batch, one event-drain per batch instead of per
//     deploy). Informational — placement is a small slice of deploy cost,
//     so the in-process win is modest.
//   - frontend RPC: the tenant-visible comparison — one "deploy" RPC per
//     app versus one "deploy_batch" RPC per batch, identical udcl text.
//     Batching amortizes parsing of repeated texts, per-request fabric
//     traffic, and per-deploy frontend/scheduler spans; gated at >= 1.2x
//     single-deploy RPC throughput. The modes run interleaved at batch
//     granularity and the gate takes the median per-group CPU-time ratio,
//     so drift and spikes on a contended host can't skew it.
//   - abort-heavy: a deliberately undersized datacenter where a large
//     fraction of deploys hit pool exhaustion and the transaction aborts.
//     After draining, pool aggregates, live environments and the
//     attestation registry must all read zero — a leak fails the run.
//   - txn overhead: the cost of an empty Begin+Commit, gated at <= 5% of
//     the indexed placement p50 so the transaction wrapper stays invisible
//     on the no-abort path.
//
// The observability PR adds:
//   - obs overhead: the same churn against two clouds — one with the flight
//     recorder enabled, wall-clock placement latency recorded into a sketch
//     histogram, and the SLO engine evaluating per block; one with all of it
//     off. Blocks interleave (alternating which cloud goes first) and the
//     gate is the placement p50 ratio, <= 1.03x, with a 1.5us absolute
//     budget floor: always-on telemetry must cost no more than 3% of the
//     placement hot path, or at worst 1.5us per deploy where the hot path
//     is so cheap that 3% of it sits under the clock's per-block noise
//     floor (the smoke configuration). The per-block CPU
//     ratio (which also absorbs the SLO tick) is reported unguarded. The
//     on-cloud's SLO verdicts are machine-checked — a breach fails the run.
//
// The hierarchical control-plane PR adds:
//   - scale-out: the router over 400 cells (per-cell schedulers over
//     partitioned capacity) versus the same router over one unscoped cell
//     at datacenter scale — 40,000 racks / 840,000 devices, one million
//     tenants churned through a live window. Gated at >= 3x the one-cell
//     baseline's aggregate deploys/sec (armed only at >= 100k devices), on
//     byte-identical admit/reject decisions and pre-drain pool occupancy
//     between the legs, and on the slo.sched.cell_place_p99 objective.
//     Per-cell placement p99 lands in the JSON. `--scale-only` runs just
//     this phase (the smoke-sized variant is its own ctest).
//
// Writes BENCH_hotpath.json into the working directory. `--smoke` runs a
// small configuration in a few hundred milliseconds; the CI wires it up as
// a ctest so the benchmark itself cannot rot.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
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
};

// One full churn run. The spec list is pre-generated so every phase places
// an identical workload and spec generation stays out of the timed region.
ChurnResult RunChurn(const ChurnConfig& config,
                     const std::vector<udc::AppSpec>& specs) {
  udc::UdcCloudConfig cloud_config;
  cloud_config.datacenter.racks = config.racks;
  udc::UdcCloud cloud(cloud_config);

  ChurnResult result;
  result.devices =
      static_cast<long long>(cloud.datacenter().AllDevices().size());

  std::deque<std::unique_ptr<udc::Deployment>> live;
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
      live.push_back(std::move(*deployment));

      // Let env starts and replication wiring fire before the next deploy.
      cloud.sim()->RunToCompletion();

      while (static_cast<int>(live.size()) > config.live_window) {
        std::unique_ptr<udc::Deployment>& oldest = live.front();
        for (udc::ResourceUnit* unit : oldest->units()) {
          if (unit->env != nullptr) {
            (void)cloud.envs().Stop(unit->env, /*keep_warm=*/false);
            unit->env = nullptr;
          }
        }
        live.pop_front();  // destructor releases the pool allocations
      }
    }
    // Drain: stop every environment still running, release every slice.
    for (auto& deployment : live) {
      for (udc::ResourceUnit* unit : deployment->units()) {
        if (unit->env != nullptr) {
          (void)cloud.envs().Stop(unit->env, /*keep_warm=*/false);
          unit->env = nullptr;
        }
      }
    }
    live.clear();
    cloud.sim()->RunToCompletion();
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
  return result;
}

// Same churn, but submitted in fixed-size batches through DeployAll: one
// tenant per batch, one event-drain per batch, per-deploy placement time
// amortized over the batch.
ChurnResult RunBatchedChurn(const ChurnConfig& config, int batch_size,
                            const std::vector<udc::AppSpec>& specs) {
  udc::UdcCloudConfig cloud_config;
  cloud_config.datacenter.racks = config.racks;
  udc::UdcCloud cloud(cloud_config);

  ChurnResult result;
  result.devices =
      static_cast<long long>(cloud.datacenter().AllDevices().size());

  std::deque<std::unique_ptr<udc::Deployment>> live;
  const auto churn = [&] {
    for (int base = 0; base < config.deploys; base += batch_size) {
      const int count = std::min(batch_size, config.deploys - base);
      const udc::TenantId tenant =
          cloud.RegisterTenant("batch-" + std::to_string(base));
      // Evict ahead of the batch so the live set peaks at the same window
      // the single-deploy mode holds (window eviction there runs after
      // every deploy, here once per batch).
      while (static_cast<int>(live.size()) >
             std::max(0, config.live_window - count)) {
        live.pop_front();  // ~Deployment tears down envs and allocations
      }
      std::vector<const udc::AppSpec*> batch;
      batch.reserve(count);
      for (int i = 0; i < count; ++i) {
        batch.push_back(&specs[(base + i) % specs.size()]);
      }

      const auto t0 = std::chrono::steady_clock::now();
      auto deployed = cloud.DeployAll(tenant, batch);
      const auto t1 = std::chrono::steady_clock::now();
      const double per_deploy_us =
          std::chrono::duration<double, std::micro>(t1 - t0).count() / count;
      for (auto& deployment : deployed) {
        result.placement_us.Add(per_deploy_us);
        if (!deployment.ok()) {
          ++result.failures;
          continue;
        }
        ++result.deploys;
        live.push_back(std::move(*deployment));
      }
      cloud.sim()->RunToCompletion();
    }
    live.clear();
    cloud.sim()->RunToCompletion();
  };
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
  return result;
}

struct RpcResult {
  long long deploys = 0;
  long long failures = 0;
  double cpu_seconds = 0;
  double deploys_per_sec = 0;
};

struct FrontendComparison {
  RpcResult single;
  RpcResult batched;
  double speedup = 0;  // median over groups of single-cost / batched-cost
};

// Process CPU time, not wall time: the single/batched comparison is a tight
// ratio gate, and on a contended host wall time charges whichever mode runs
// while a neighbour steals the core. The workload is single-threaded and
// deterministic, so CPU time measures the same thing minus the scheduling
// noise.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One frontend + tenant-client stack over its own cloud, driven entirely by
// RPC the way a real tenant would drive it.
struct FrontendEnv {
  explicit FrontendEnv(int racks) {
    udc::UdcCloudConfig cloud_config;
    cloud_config.datacenter.racks = racks;
    cloud = std::make_unique<udc::UdcCloud>(cloud_config);
    const udc::TenantId tenant = cloud->RegisterTenant("rpc-churn");
    const udc::NodeId frontend_node =
        cloud->datacenter().topology().AddNode(0, udc::NodeRole::kServer);
    frontend = std::make_unique<udc::CloudFrontend>(cloud.get(), frontend_node);
    const udc::NodeId client_node =
        cloud->datacenter().topology().AddNode(0, udc::NodeRole::kServer);
    client = std::make_unique<udc::TenantClient>(
        cloud->sim(), &cloud->fabric(), client_node, frontend_node, tenant);
  }

  // Parses a deploy/deploy_batch response: "ok:" then comma-separated
  // deployment ids, with "x" marking a failed slot.
  void Record(const udc::Result<std::string>& r) {
    if (!r.ok() || r->rfind("ok:", 0) != 0) {
      ++result.failures;
      return;
    }
    const std::string_view ids = std::string_view(*r).substr(3);
    size_t start = 0;
    while (start <= ids.size()) {
      size_t end = ids.find(',', start);
      if (end == std::string_view::npos) {
        end = ids.size();
      }
      const std::string_view token = ids.substr(start, end - start);
      uint64_t id = 0;
      if (udc::ParseUint64(token, &id)) {
        ++result.deploys;
        live.push_back(id);
      } else {
        ++result.failures;
      }
      start = end + 1;
    }
  }

  void EvictTo(int target) {
    while (static_cast<int>(live.size()) > target) {
      client->Teardown(live.front(), [](udc::Result<std::string>) {});
      live.pop_front();
      cloud->sim()->RunToCompletion();
    }
  }

  std::unique_ptr<udc::UdcCloud> cloud;
  std::unique_ptr<udc::CloudFrontend> frontend;
  std::unique_ptr<udc::TenantClient> client;
  std::deque<uint64_t> live;
  RpcResult result;
};

// Deploy churn as a tenant actually experiences it: udcl text over the
// frontend RPC path, one "deploy" call per app versus one "deploy_batch"
// call per batch. Batching amortizes udcl parsing of repeated texts,
// per-request fabric traffic, frontend spans and header handling, and the
// per-deploy scheduler span.
//
// The two modes run INTERLEAVED at batch granularity against separate
// clouds: a group of batch_size single-deploy RPCs, then the equivalent
// deploy_batch RPC, and so on. Adjacent-in-time groups see the same CPU
// frequency and cache pressure, so the per-group cost ratio cancels drift
// that would otherwise swamp a tight ratio gate on a busy host; the
// reported speedup is the median of those per-group ratios (the first
// warmup group is discarded). Only the deploy RPCs (and the event drain
// they trigger) are timed — teardown evictions keep the live set
// comparable between modes but are identical per-deploy work, so including
// them would only dilute the ratio.
FrontendComparison RunFrontendComparison(int racks, int deploys, int window,
                                         int batch_size,
                                         const std::string& udcl_text) {
  FrontendEnv single(racks);
  FrontendEnv batched(racks);

  std::vector<double> single_group_us;
  std::vector<double> batched_group_us;
  for (int base = 0; base < deploys; base += batch_size) {
    const int count = std::min(batch_size, deploys - base);

    double single_s = 0;
    for (int i = 0; i < count; ++i) {
      const double t0 = CpuSeconds();
      single.client->Deploy(
          udcl_text, [&](udc::Result<std::string> r) { single.Record(r); });
      single.cloud->sim()->RunToCompletion();
      single_s += CpuSeconds() - t0;
      single.EvictTo(window);
    }
    single_group_us.push_back(single_s * 1e6 / count);
    single.result.cpu_seconds += single_s;

    batched.EvictTo(std::max(0, window - count));
    const double t0 = CpuSeconds();
    {
      // Building the batch payload (N copies of the text) is part of what a
      // batching client pays, so it stays inside the timed region.
      const std::vector<std::string> texts(count, udcl_text);
      batched.client->DeployBatch(
          texts, [&](udc::Result<std::string> r) { batched.Record(r); });
      batched.cloud->sim()->RunToCompletion();
    }
    const double batched_s = CpuSeconds() - t0;
    batched_group_us.push_back(batched_s * 1e6 / count);
    batched.result.cpu_seconds += batched_s;
  }
  single.EvictTo(0);
  single.cloud->sim()->RunToCompletion();
  batched.EvictTo(0);
  batched.cloud->sim()->RunToCompletion();

  FrontendComparison comparison;
  comparison.single = single.result;
  comparison.batched = batched.result;
  // Discard the warmup group (cold code paths and allocator arenas), then
  // take medians: per-mode group cost for the throughput numbers, per-group
  // ratio for the gated speedup.
  const size_t skip = single_group_us.size() > 1 ? 1 : 0;
  const auto median = [](std::vector<double> v) {
    if (v.empty()) {
      return 0.0;
    }
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  std::vector<double> ratios;
  for (size_t i = skip; i < single_group_us.size(); ++i) {
    if (batched_group_us[i] > 0) {
      ratios.push_back(single_group_us[i] / batched_group_us[i]);
    }
  }
  comparison.speedup = median(ratios);
  const double single_us = median(
      {single_group_us.begin() + static_cast<long>(skip), single_group_us.end()});
  const double batched_us =
      median({batched_group_us.begin() + static_cast<long>(skip),
              batched_group_us.end()});
  if (single_us > 0) {
    comparison.single.deploys_per_sec = 1e6 / single_us;
  }
  if (batched_us > 0) {
    comparison.batched.deploys_per_sec = 1e6 / batched_us;
  }
  return comparison;
}

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
  bool slo_ok = false;
  std::string slo_report;
};

// The always-on claim, measured: identical churn against two clouds, one
// with full observability (flight recorder on, wall-clock placement latency
// into a sketch histogram, SLO engine ticking every block) and one with all
// of it off. Blocks of one full spec cycle interleave — alternating which
// cloud goes first, so neither mode systematically inherits the other's
// warm caches — and both modes collect per-deploy placement times from
// steady_clock windows around Deploy.
//
// The gated number is the placement p50 ratio: medians over the full paired
// sample sets are stable to ~1-2% where per-block CPU totals swing ±5-7%
// on a busy host, so the block CPU ratio (which also absorbs the per-block
// SLO tick) is reported as context, not gated.
ObsOverheadResult RunObsOverhead(int racks, int deploys, int window,
                                 const std::vector<udc::AppSpec>& specs) {
  const auto make_cloud = [&](bool obs_on) {
    udc::UdcCloudConfig cloud_config;
    cloud_config.datacenter.racks = racks;
    cloud_config.scheduler.record_place_latency = obs_on;
    auto cloud = std::make_unique<udc::UdcCloud>(cloud_config);
    cloud->sim()->flight_recorder().set_enabled(obs_on);
    return cloud;
  };
  auto cloud_on = make_cloud(true);
  auto cloud_off = make_cloud(false);

  // Machine-checked objectives on the instrumented cloud. Thresholds are
  // generous — the gate is "telemetry reports sane numbers", the tight
  // budget is the 1.03x cost ratio below.
  {
    udc::SloSpec spec;
    spec.name = "slo.sched.place_latency_p99";
    spec.kind = udc::SloSpec::SourceKind::kHistogramQuantile;
    spec.source = "sched.place_latency_us";
    spec.quantile = 0.99;
    spec.threshold = 500'000.0;  // half a wall-clock second per placement
    spec.window = udc::SimTime::Hours(24);
    cloud_on->sim()->slos().AddObjective(std::move(spec));
  }
  {
    udc::SloSpec spec;
    spec.name = "slo.sched.placement_throughput";
    spec.kind = udc::SloSpec::SourceKind::kCounterRate;
    spec.source = "core.tasks_placed";
    spec.cmp = udc::SloSpec::Cmp::kGe;
    spec.threshold = 1e-9;  // any forward progress at all
    spec.window = udc::SimTime::Hours(24);
    cloud_on->sim()->slos().AddObjective(std::move(spec));
  }

  ObsOverheadResult result;
  udc::Histogram on_us;
  udc::Histogram off_us;
  std::vector<double> block_ratios;   // per-block CPU-cost ratio
  std::vector<double> p50_ratios;     // per-block placement-median ratio
  std::vector<double> p50_deltas;     // per-block paired median delta, us
  std::deque<std::unique_ptr<udc::Deployment>> live_on;
  std::deque<std::unique_ptr<udc::Deployment>> live_off;

  const int block = static_cast<int>(specs.size());
  const auto median = [](std::vector<double> v) {
    if (v.empty()) {
      return 0.0;
    }
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  // One cloud's half of a block: deploy `count` specs, drain events, record
  // per-deploy CPU placement time (CPU, not wall: a preemption mid-deploy
  // would otherwise charge the victim mode for the neighbour's timeslice),
  // return the block's CPU cost. Eviction runs outside the timed region
  // (identical work in both modes). `block_samples` gets this block's
  // per-deploy times for the paired per-block medians.
  const auto run_block =
      [&](udc::UdcCloud* cloud, std::deque<std::unique_ptr<udc::Deployment>>*
              live, udc::Histogram* placement, std::vector<double>*
              block_samples, long long* deployed, int base, int count,
          const char* prefix) {
        std::vector<udc::TenantId> tenants;
        tenants.reserve(count);
        for (int i = 0; i < count; ++i) {
          tenants.push_back(cloud->RegisterTenant(
              std::string(prefix) + std::to_string(base + i)));
        }
        block_samples->clear();
        const double c0 = CpuSeconds();
        for (int i = 0; i < count; ++i) {
          const double t0 = CpuSeconds();
          auto deployment = cloud->Deploy(tenants[i], specs[(base + i) %
                                                            specs.size()]);
          const double us = (CpuSeconds() - t0) * 1e6;
          placement->Add(us);
          block_samples->push_back(us);
          if (deployment.ok()) {
            ++*deployed;
            live->push_back(std::move(*deployment));
          }
          cloud->sim()->RunToCompletion();
        }
        const double cost = CpuSeconds() - c0;
        while (static_cast<int>(live->size()) > window) {
          live->pop_front();
        }
        cloud->sim()->RunToCompletion();
        return cost;
      };

  std::vector<double> on_samples;
  std::vector<double> off_samples;
  int block_index = 0;
  for (int base = 0; base < deploys; base += block, ++block_index) {
    const int count = std::min(block, deploys - base);
    const auto run_off = [&] {
      return run_block(cloud_off.get(), &live_off, &off_us, &off_samples,
                       &result.deploys_off, base, count, "off-");
    };
    const auto run_on = [&] {
      const double cost =
          run_block(cloud_on.get(), &live_on, &on_us, &on_samples,
                    &result.deploys_on, base, count, "on-");
      // Evaluating the objectives is part of what "SLO engine active"
      // costs; it runs once per block, outside the per-deploy windows, so
      // it lands in the block CPU cost only.
      const double s0 = CpuSeconds();
      cloud_on->sim()->slos().EvaluateNow(cloud_on->sim()->now());
      return cost + (CpuSeconds() - s0);
    };
    // Alternate which cloud goes first so neither mode systematically runs
    // with the other's warm caches.
    double off_cost, on_cost;
    if (block_index % 2 == 0) {
      off_cost = run_off();
      on_cost = run_on();
    } else {
      on_cost = run_on();
      off_cost = run_off();
    }
    if (block_index == 0) {
      continue;  // warmup block: cold allocator arenas, cold icache
    }
    if (off_cost > 0) {
      block_ratios.push_back(on_cost / off_cost);
    }
    const double off_med = median(off_samples);
    if (off_med > 0) {
      const double on_med = median(on_samples);
      p50_ratios.push_back(on_med / off_med);
      p50_deltas.push_back(on_med - off_med);
    }
  }
  live_on.clear();
  live_off.clear();
  cloud_on->sim()->RunToCompletion();
  cloud_off->sim()->RunToCompletion();

  result.block_ratio = median(std::move(block_ratios));
  // The gated number: median over per-block paired placement-median ratios.
  // Each ratio compares medians of deploys that ran within microseconds of
  // each other, so host drift cancels; the outer median discards blocks
  // where a burst of contention hit one mode only.
  result.p50_ratio = median(std::move(p50_ratios));
  result.p50_delta_us = median(std::move(p50_deltas));
  result.p50_on_us = on_us.Quantile(0.5);
  result.p50_off_us = off_us.Quantile(0.5);
  cloud_on->sim()->slos().EvaluateNow(cloud_on->sim()->now());
  result.slo_ok = cloud_on->sim()->slos().AllOk();
  result.slo_report = cloud_on->sim()->slos().Report();
  result.recorder_retained = cloud_on->sim()->flight_recorder().retained();
  result.recorder_total =
      cloud_on->sim()->flight_recorder().total_recorded();
  return result;
}

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
// fraction of transactions abort on pool exhaustion, then drains everything
// and checks that nothing leaked: pool aggregates, live environments and
// the attestation registry must all read zero.
AbortResult RunAbortChurn(int racks, int deploys,
                          const std::vector<udc::AppSpec>& specs) {
  udc::UdcCloudConfig cloud_config;
  cloud_config.datacenter.racks = racks;
  udc::UdcCloud cloud(cloud_config);

  AbortResult result;
  std::deque<std::unique_ptr<udc::Deployment>> live;
  for (int i = 0; i < deploys; ++i) {
    const udc::TenantId tenant =
        cloud.RegisterTenant("abort-" + std::to_string(i));
    ++result.attempts;
    auto deployment = cloud.Deploy(tenant, specs[i % specs.size()]);
    if (deployment.ok()) {
      ++result.deploys;
      live.push_back(std::move(*deployment));
    } else {
      ++result.aborts;
      // Free a little capacity so the run keeps mixing commits and aborts
      // instead of failing every deploy once full.
      if (!live.empty()) {
        live.pop_front();
      }
    }
    cloud.sim()->RunToCompletion();
  }
  live.clear();
  cloud.sim()->RunToCompletion();

  result.abort_fraction =
      result.attempts > 0
          ? static_cast<double>(result.aborts) / result.attempts
          : 0;
  result.txn_committed = cloud.sim()->metrics().counter("core.txn_committed");
  result.txn_aborted = cloud.sim()->metrics().counter("core.txn_aborted");
  result.clean =
      cloud.datacenter().TotalAllocated() == udc::ResourceVector() &&
      cloud.envs().live_count() == 0 &&
      cloud.attestation().provisioned_count() == 0;
  return result;
}

// --- Warm-store phase: the content-addressed environment store under churn.
//
// Two legs. The differential leg runs the same keep-warm churn twice — once
// on the legacy (kind, tenant) pool, once on the store with cross-tenant
// sharing disabled — and hashes every decision the env layer makes
// (admit/reject, per-unit start mode, per-(kind, tenant) warm occupancy
// after every step). The hashes must be byte-identical: sharing off, the
// store IS the legacy pool. The abort leg then turns sharing on over the
// same undersized one-rack datacenter the abort-heavy phase uses (~48% of
// deploys abort on pool exhaustion) and checks exact rollback refunds — a
// failed deploy leaves warm-slot totals and store refcounts untouched — and
// a leak-free drain: zero live store refs once everything stops.

struct DecisionLeg {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  long long warm_starts = 0;
  long long deploys = 0;
};

struct WarmStoreResult {
  DecisionLeg legacy;
  DecisionLeg oracle;
  bool differential_ok = false;

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

DecisionLeg RunDecisionLeg(const udc::EnvStoreConfig& store_config, int racks,
                           int deploys, int window,
                           const std::vector<udc::AppSpec>& specs) {
  udc::UdcCloudConfig cloud_config;
  cloud_config.datacenter.racks = racks;
  cloud_config.env_store = store_config;
  udc::UdcCloud cloud(cloud_config);

  DecisionLeg leg;
  const auto mix = [&leg](uint64_t v) {
    leg.hash = (leg.hash ^ v) * 1099511628211ull;
  };
  // A fixed tenant set cycled through, so (kind, tenant) warm pools are
  // actually revisited and warm decisions happen in both legs.
  std::vector<udc::TenantId> tenants;
  for (int t = 0; t < 8; ++t) {
    tenants.push_back(cloud.RegisterTenant("store-" + std::to_string(t)));
  }
  std::deque<std::unique_ptr<udc::Deployment>> live;
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
      live.push_back(std::move(*deployment));
    }
    cloud.sim()->RunToCompletion();
    while (static_cast<int>(live.size()) > window) {
      for (udc::ResourceUnit* unit : live.front()->units()) {
        if (unit->env != nullptr) {
          (void)cloud.envs().Stop(unit->env, /*keep_warm=*/true);
          unit->env = nullptr;
        }
      }
      live.pop_front();
    }
    mix_occupancy();
  }
  for (auto& deployment : live) {
    for (udc::ResourceUnit* unit : deployment->units()) {
      if (unit->env != nullptr) {
        (void)cloud.envs().Stop(unit->env, /*keep_warm=*/false);
        unit->env = nullptr;
      }
    }
  }
  live.clear();
  cloud.sim()->RunToCompletion();
  mix(static_cast<uint64_t>(cloud.envs().live_count()));
  mix_occupancy();
  leg.warm_starts = cloud.sim()->metrics().counter("exec.warm_starts");
  return leg;
}

WarmStoreResult RunWarmStorePhase(int diff_racks, int diff_deploys,
                                  int diff_window, int abort_deploys,
                                  const std::vector<udc::AppSpec>& specs,
                                  const std::vector<udc::AppSpec>& heavy_specs) {
  WarmStoreResult result;

  // Leg 1: the differential. Legacy pool vs store-with-sharing-off on the
  // identical workload must hash identically.
  udc::EnvStoreConfig legacy_config;  // enabled = false: legacy pool
  result.legacy =
      RunDecisionLeg(legacy_config, diff_racks, diff_deploys, diff_window, specs);
  udc::EnvStoreConfig oracle_config;
  oracle_config.enabled = true;
  oracle_config.share_across_tenants = false;
  result.oracle =
      RunDecisionLeg(oracle_config, diff_racks, diff_deploys, diff_window, specs);
  result.differential_ok = result.legacy.hash == result.oracle.hash &&
                           result.legacy.deploys == result.oracle.deploys;

  // Leg 2: sharing on under abort churn. Undersized datacenter, oversized
  // apps, keep-warm teardowns on the failure path so the store carries real
  // warm credit while ~half the transactions roll back through it.
  udc::UdcCloudConfig cloud_config;
  cloud_config.datacenter.racks = 1;
  cloud_config.env_store.enabled = true;
  cloud_config.env_store.share_across_tenants = true;
  udc::UdcCloud cloud(cloud_config);
  const udc::EnvStore* store = cloud.envs().store();

  std::vector<udc::TenantId> tenants;
  for (int t = 0; t < 4; ++t) {
    tenants.push_back(cloud.RegisterTenant("churn-" + std::to_string(t)));
  }
  std::deque<std::unique_ptr<udc::Deployment>> live;
  for (int i = 0; i < abort_deploys; ++i) {
    ++result.attempts;
    const int64_t slots_before = store->total_warm_slots();
    const int64_t refs_before = store->live_env_refs();
    auto deployment = cloud.Deploy(tenants[i % tenants.size()],
                                   heavy_specs[i % heavy_specs.size()]);
    if (deployment.ok()) {
      ++result.deploys;
      live.push_back(std::move(*deployment));
    } else {
      ++result.aborts;
      // Exact refund: the rolled-back deploy must be invisible to the
      // store — every warm slot it consumed refunded to its source, every
      // content ref unwound.
      if (store->total_warm_slots() != slots_before ||
          store->live_env_refs() != refs_before) {
        ++result.refund_violations;
      }
      if (!live.empty()) {
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
  }
  live.clear();
  cloud.sim()->RunToCompletion();

  result.abort_fraction =
      result.attempts > 0
          ? static_cast<double>(result.aborts) / result.attempts
          : 0;
  result.warm_hit_ratio = cloud.envs().warm_hit_ratio();
  result.warm_starts = cloud.sim()->metrics().counter("exec.warm_starts");
  result.cross_tenant_warm =
      cloud.sim()->metrics().counter("exec.cross_tenant_warm_starts");
  result.evictions = cloud.sim()->metrics().counter("exec.evictions");
  result.live_store_refs_after_drain = store->live_env_refs();
  // Leak-free drain: no live envs, no live store refs, no allocations, no
  // provisioned identities. Warm slots banked on purpose are credit, not
  // leakage — every remaining content ref must be backed by a warm slot,
  // which live_env_refs() == 0 certifies.
  result.clean =
      cloud.datacenter().TotalAllocated() == udc::ResourceVector() &&
      cloud.envs().live_count() == 0 &&
      cloud.attestation().provisioned_count() == 0 &&
      result.live_store_refs_after_drain == 0;
  return result;
}

// The per-transaction cost of the wrapper itself: an empty Begin+Commit,
// i.e. what every no-abort deploy pays for being transactional. CPU time,
// not wall time: this feeds a 5% ratio gate against the indexed placement
// p50, and under a parallel ctest run a neighbour stealing the core for a
// few milliseconds mid-loop would otherwise inflate the numerator alone.
double MeasureEmptyTxnUs(int iterations) {
  udc::UdcCloudConfig cloud_config;
  cloud_config.datacenter.racks = 2;
  udc::UdcCloud cloud(cloud_config);
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
// One leg per topology — the router over one unscoped cell (one global
// index, the flat datacenter), and the router over per-cell schedulers on
// a cell-partitioned index — each churning the SAME deploy sequence (same
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
  double p50_us = 0;
  double p99_us = 0;
};

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
  bool slo_ok = false;
  std::string slo_report;
  long long cross_cell_deploys = 0;
  long long cell_fallbacks = 0;
  std::vector<long long> cell_deploys;  // per cell: deploys homed there
  std::vector<double> cell_p99_us;      // per cell: placement p99
};

// One churn leg against an already-constructed cloud. Spans are bounded
// (set_max_spans) so a million deploy spans cannot grow the trace buffer
// unboundedly — identical setting in both legs, so the comparison is fair.
ScaleLeg RunScaleLeg(udc::UdcCloud& cloud, int deploys, int window,
                     const std::vector<std::shared_ptr<const udc::AppSpec>>&
                         specs) {
  ScaleLeg leg;
  leg.devices = static_cast<long long>(cloud.datacenter().AllDevices().size());
  leg.decision_hash = 1469598103934665603ull;  // FNV-1a offset basis
  cloud.sim()->spans().set_max_spans(1 << 16);

  std::deque<std::unique_ptr<udc::Deployment>> live;
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
      live.push_back(std::move(*deployment));
    } else {
      ++leg.failures;
    }
    cloud.sim()->RunToCompletion();
    while (static_cast<int>(live.size()) > window) {
      for (udc::ResourceUnit* unit : live.front()->units()) {
        if (unit->env != nullptr) {
          (void)cloud.envs().Stop(unit->env, /*keep_warm=*/false);
          unit->env = nullptr;
        }
      }
      live.pop_front();
    }
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

  for (auto& deployment : live) {
    for (udc::ResourceUnit* unit : deployment->units()) {
      if (unit->env != nullptr) {
        (void)cloud.envs().Stop(unit->env, /*keep_warm=*/false);
        unit->env = nullptr;
      }
    }
  }
  live.clear();
  cloud.sim()->RunToCompletion();
  leg.clean_after_drain =
      cloud.datacenter().TotalAllocated() == udc::ResourceVector() &&
      cloud.envs().live_count() == 0;
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
  // models half a million devices, so only one lives at a time.
  {
    udc::UdcCloudConfig config;
    config.datacenter.racks = racks;
    config.scheduler.record_place_latency = true;
    udc::UdcCloud cloud(config);
    result.baseline = RunScaleLeg(cloud, deploys, window, specs);
    if (const udc::MetricHistogram* h =
            cloud.sim()->metrics().histogram("sched.place_latency_us")) {
      result.baseline.p50_us = h->Quantile(0.5);
      result.baseline.p99_us = h->Quantile(0.99);
    }
  }
  {
    udc::UdcCloudConfig config;
    config.datacenter.racks = racks;
    config.datacenter.cells = cells;
    config.scheduler.record_place_latency = true;
    udc::UdcCloud cloud(config);
    {
      udc::SloSpec spec;
      spec.name = "slo.sched.cell_place_p99";
      spec.kind = udc::SloSpec::SourceKind::kHistogramQuantile;
      spec.source = "sched.place_latency_us";
      spec.quantile = 0.99;
      spec.threshold = 500'000.0;  // sanity bound, not a tight budget
      spec.window = udc::SimTime::Hours(24);
      cloud.sim()->slos().AddObjective(std::move(spec));
    }
    result.cells = RunScaleLeg(cloud, deploys, window, specs);
    if (const udc::MetricHistogram* h =
            cloud.sim()->metrics().histogram("sched.place_latency_us")) {
      result.cells.p50_us = h->Quantile(0.5);
      result.cells.p99_us = h->Quantile(0.99);
    }
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
    cloud.sim()->slos().EvaluateNow(cloud.sim()->now());
    result.slo_ok = cloud.sim()->slos().AllOk();
    result.slo_report = cloud.sim()->slos().Report();
  }

  result.speedup = result.baseline.deploys_per_sec > 0
                       ? result.cells.deploys_per_sec /
                             result.baseline.deploys_per_sec
                       : 0;
  result.gate_armed = result.cells.devices >= 100'000;
  result.decisions_match =
      result.baseline.decision_hash == result.cells.decision_hash &&
      result.baseline.deploys == result.cells.deploys &&
      result.baseline.failures == result.cells.failures;
  result.occupancy_match =
      result.baseline.allocated_pre_drain == result.cells.allocated_pre_drain;
  return result;
}

// --- Federation phase: the region-partitioned control plane over a WAN.
//
// Three legs. The differential pair runs the SAME deploy sequence through
// the router with regions=0 (all cells one region, region aspects ignored)
// and with regions=1 over identical geometry — the region layer collapsed
// to one region must make byte-identical admit/reject decisions (FNV-1a
// over the outcome stream) and end with byte-identical pool occupancy, the
// same contract the scale phase holds between one cell and many. The
// federated leg then runs 4 regions over an asymmetric WAN link matrix
// with deliberately skewed tenant demand (60% of deploys pinned to region
// 0 via the dist region affinity aspect) and the content-addressed env
// store on: keep-warm churn banks warm images in the hot region, deploys
// routed to the cold regions pull them back over the WAN (remote-tier
// starts, pull-through replication), and a pinned abort tail exhausts the
// hot region so rolled-back cross-region deploys exercise exact refunds.
// Gates: differential identical, clean drains, zero refund violations,
// WAN + remote tiers actually exercised, and the machine-checked
// slo.sched.region_place_p99 objective.

struct FederationResult {
  int racks = 0;
  int cell_count = 0;
  int region_count = 0;
  int live_window = 0;
  ScaleLeg cells_leg;    // regions = 0 oracle
  ScaleLeg region1_leg;  // region router, regions = 1
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
  long long store_hits = 0;
  double region_place_p99_us = 0;
  bool fed_clean = false;
  bool slo_ok = false;
  std::string slo_report;
};

// A copy of `base` with every module pinned to `region` via the dist
// aspect — modules without explicit aspects start from ProviderDefaults so
// nothing else about their treatment changes.
udc::AppSpec PinToRegion(const udc::AppSpec& base, int region) {
  udc::AppSpec pinned = base;
  for (const udc::ModuleId m : pinned.graph.ModuleIds()) {
    auto it = pinned.aspects.find(m);
    if (it == pinned.aspects.end()) {
      it = pinned.aspects.emplace(m, udc::ProviderDefaults()).first;
    }
    it->second.dist.region_affinity = region;
  }
  return pinned;
}

// Pins only the data modules to `region`. The router homes the deploy on
// the first pinned module's region, but the tasks stay free to spill into
// other regions when the home region runs out — the cross-region
// single-transaction path.
udc::AppSpec PinDataToRegion(const udc::AppSpec& base, int region) {
  udc::AppSpec pinned = base;
  for (const udc::ModuleId m : pinned.graph.DataIds()) {
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
    int abort_tail,
    const std::vector<std::shared_ptr<const udc::AppSpec>>& shared_specs,
    const std::vector<udc::AppSpec>& specs,
    const std::vector<udc::AppSpec>& heavy_specs) {
  FederationResult result;
  result.racks = racks;
  result.cell_count = cells;
  result.region_count = regions;
  result.live_window = window;

  // Differential pair: regions=0 vs regions=1, same sequence.
  {
    udc::UdcCloudConfig config;
    config.datacenter.racks = racks;
    config.datacenter.cells = cells;
    udc::UdcCloud cloud(config);
    result.cells_leg = RunScaleLeg(cloud, deploys, window, shared_specs);
  }
  {
    udc::UdcCloudConfig config;
    config.datacenter.racks = racks;
    config.datacenter.cells = cells;
    config.datacenter.regions = 1;
    udc::UdcCloud cloud(config);
    result.region1_leg = RunScaleLeg(cloud, deploys, window, shared_specs);
  }
  result.decisions_match =
      result.cells_leg.decision_hash == result.region1_leg.decision_hash &&
      result.cells_leg.deploys == result.region1_leg.deploys &&
      result.cells_leg.failures == result.region1_leg.failures;
  result.occupancy_match = result.cells_leg.allocated_pre_drain ==
                           result.region1_leg.allocated_pre_drain;

  // Federated leg: N regions, asymmetric WAN, skewed demand, env store on.
  udc::UdcCloudConfig config;
  config.datacenter.racks = racks;
  config.datacenter.cells = cells;
  config.datacenter.regions = regions;
  config.scheduler.record_place_latency = true;
  config.env_store.enabled = true;
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
  {
    udc::SloSpec spec;
    spec.name = "slo.sched.region_place_p99";
    spec.kind = udc::SloSpec::SourceKind::kHistogramQuantile;
    spec.source = "sched.place_latency_us";
    spec.quantile = 0.99;
    spec.threshold = 500'000.0;  // sanity bound, not a tight budget
    spec.window = udc::SimTime::Hours(24);
    cloud.sim()->slos().AddObjective(std::move(spec));
  }
  const udc::EnvStore* store = cloud.envs().store();

  std::vector<udc::AppSpec> pinned;
  pinned.reserve(specs.size());
  for (const udc::AppSpec& spec : specs) {
    pinned.push_back(PinToRegion(spec, 0));
  }

  const auto stop_front = [&](std::deque<std::unique_ptr<udc::Deployment>>*
                                  live, bool keep_warm) {
    for (udc::ResourceUnit* unit : live->front()->units()) {
      if (unit->env != nullptr) {
        (void)cloud.envs().Stop(unit->env, keep_warm);
        unit->env = nullptr;
      }
    }
    live->pop_front();
  };

  std::deque<std::unique_ptr<udc::Deployment>> live;
  // Skewed churn: 60% of deploys pinned to region 0, the rest routed by
  // free capacity (which the skew pushes toward the other regions). Warm
  // teardowns bank content in whichever region served the deploy, so the
  // hot region accumulates warm images that cold-region launches then
  // fetch over the WAN.
  for (int i = 0; i < deploys; ++i) {
    const udc::TenantId tenant =
        cloud.RegisterTenant("fed-" + std::to_string(i));
    const bool pin = i % 5 < 3;
    const udc::AppSpec& spec =
        pin ? pinned[static_cast<size_t>(i) % pinned.size()]
            : specs[static_cast<size_t>(i) % specs.size()];
    const int64_t slots_before = store->total_warm_slots();
    const int64_t refs_before = store->live_env_refs();
    auto deployment = cloud.Deploy(tenant, spec);
    if (deployment.ok()) {
      ++result.fed_deploys;
      live.push_back(std::move(*deployment));
    } else {
      ++result.fed_failures;
      if (store->total_warm_slots() != slots_before ||
          store->live_env_refs() != refs_before) {
        ++result.refund_violations;
      }
    }
    cloud.sim()->RunToCompletion();
    while (static_cast<int>(live.size()) > window) {
      stop_front(&live, /*keep_warm=*/true);
    }
  }
  // Abort tail: oversized apps, alternating pinned to the (already hot)
  // region 0 and unpinned. The pin strikes every other region from the
  // candidate list, so exhaustion aborts the whole transaction — each
  // rolled-back deploy must leave the store's warm slots and refcounts
  // exactly as it found them. The unpinned ones fill the remaining
  // regions until a deploy no longer fits its home region whole and its
  // modules spill across the WAN (cross-region legs staged and unwound
  // inside the same transaction).
  for (int i = 0; i < abort_tail; ++i) {
    const udc::TenantId tenant =
        cloud.RegisterTenant("fed-abort-" + std::to_string(i));
    const udc::AppSpec& base =
        heavy_specs[static_cast<size_t>(i) % heavy_specs.size()];
    const udc::AppSpec heavy =
        i % 2 == 0 ? PinToRegion(base, 0) : PinDataToRegion(base, 0);
    const int64_t slots_before = store->total_warm_slots();
    const int64_t refs_before = store->live_env_refs();
    auto deployment = cloud.Deploy(tenant, heavy);
    if (deployment.ok()) {
      ++result.fed_deploys;
      live.push_back(std::move(*deployment));
    } else {
      ++result.fed_failures;
      if (store->total_warm_slots() != slots_before ||
          store->live_env_refs() != refs_before) {
        ++result.refund_violations;
      }
      if (!live.empty()) {
        stop_front(&live, /*keep_warm=*/true);
      }
    }
    cloud.sim()->RunToCompletion();
  }
  while (!live.empty()) {
    stop_front(&live, /*keep_warm=*/false);
  }
  cloud.sim()->RunToCompletion();

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
  result.remote_hits = store->remote_hits();
  result.store_hits = store->hits();
  if (const udc::MetricHistogram* h =
          cloud.sim()->metrics().histogram("sched.place_latency_us")) {
    result.region_place_p99_us = h->Quantile(0.99);
  }
  cloud.sim()->slos().EvaluateNow(cloud.sim()->now());
  result.slo_ok = cloud.sim()->slos().AllOk();
  result.slo_report = cloud.sim()->slos().Report();
  result.fed_clean =
      cloud.datacenter().TotalAllocated() == udc::ResourceVector() &&
      cloud.envs().live_count() == 0 &&
      store->live_env_refs() == 0;
  return result;
}

void PrintFederation(const FederationResult& f) {
  std::printf("federation: %d racks / %d cells / %d regions, window %d\n",
              f.racks, f.cell_count, f.region_count, f.live_window);
  std::printf("  differential (regions=0 vs regions=1): decisions %s "
              "(%016llx / %016llx), occupancy %s, drain %s/%s\n",
              f.decisions_match ? "match" : "DIVERGED",
              static_cast<unsigned long long>(f.cells_leg.decision_hash),
              static_cast<unsigned long long>(f.region1_leg.decision_hash),
              f.occupancy_match ? "match" : "DIVERGED",
              f.cells_leg.clean_after_drain ? "clean" : "DIRTY",
              f.region1_leg.clean_after_drain ? "clean" : "DIRTY");
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
              f.slo_ok ? "OK" : "BREACHED");
}

// Federation gates, shared by the full run and --federation-only.
bool CheckFederationGates(const FederationResult& f) {
  bool ok = true;
  if (!f.decisions_match || !f.occupancy_match) {
    std::fprintf(stderr,
                 "FAIL: the router with regions=1 diverged from regions=0 "
                 "(hashes %016llx / %016llx)\n",
                 static_cast<unsigned long long>(f.cells_leg.decision_hash),
                 static_cast<unsigned long long>(
                     f.region1_leg.decision_hash));
    ok = false;
  }
  if (!f.cells_leg.clean_after_drain || !f.region1_leg.clean_after_drain ||
      !f.fed_clean) {
    std::fprintf(stderr, "FAIL: federation phase leaked state after drain\n");
    ok = false;
  }
  if (f.refund_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld cross-region refund violations — a rolled-back "
                 "deploy moved the env store\n",
                 f.refund_violations);
    ok = false;
  }
  if (f.fed_failures == 0) {
    std::fprintf(stderr,
                 "FAIL: federation abort tail never aborted — refund "
                 "exactness was not exercised\n");
    ok = false;
  }
  if (f.cross_region_deploys == 0) {
    std::fprintf(stderr,
                 "FAIL: no deploy spanned regions — the cross-region "
                 "single-transaction spill path was not exercised\n");
    ok = false;
  }
  if (f.wan_messages == 0 || f.remote_starts == 0) {
    std::fprintf(stderr,
                 "FAIL: federation phase exercised no WAN traffic "
                 "(transfers=%lld, remote starts=%lld)\n",
                 f.wan_messages, f.remote_starts);
    ok = false;
  }
  if (!f.slo_ok) {
    std::fprintf(stderr,
                 "FAIL: slo.sched.region_place_p99 breached during the "
                 "federation phase\n%s",
                 f.slo_report.c_str());
    ok = false;
  }
  return ok;
}

// The "federation" section of BENCH_hotpath.json — emitted by the full
// report and by --federation-only.
void EmitFederationSection(FILE* f, const FederationResult& fed) {
  std::fprintf(f,
               "  \"federation\": {\n"
               "    \"racks\": %d,\n"
               "    \"cell_count\": %d,\n"
               "    \"region_count\": %d,\n"
               "    \"live_window\": %d,\n"
               "    \"differential\": {\"cells_hash\": \"%016llx\", "
               "\"region1_hash\": \"%016llx\", \"decisions_match\": %s, "
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
               static_cast<unsigned long long>(fed.cells_leg.decision_hash),
               static_cast<unsigned long long>(fed.region1_leg.decision_hash),
               fed.decisions_match ? "true" : "false",
               fed.occupancy_match ? "true" : "false", fed.fed_deploys,
               fed.fed_failures, fed.refund_violations,
               fed.cross_region_deploys, fed.region_fallbacks,
               fed.wan_messages, fed.wan_bytes, fed.remote_starts,
               fed.remote_hits, fed.region_place_p99_us,
               fed.slo_ok ? "true" : "false",
               fed.fed_clean ? "true" : "false");
  for (size_t r = 0; r < fed.region_deploys.size(); ++r) {
    std::fprintf(f,
                 "%s\n      {\"region\": %zu, \"deploys\": %lld, "
                 "\"wan_bytes_out\": %lld, \"wan_bytes_in\": %lld}",
                 r == 0 ? "" : ",", r, fed.region_deploys[r],
                 fed.wan_bytes_out[r], fed.wan_bytes_in[r]);
  }
  std::fprintf(f, "\n    ]\n  }");
}

// --federation-only report: header + federation section, same artifact
// path as the full report.
void WriteFederationOnlyJson(bool smoke, const FederationResult& fed) {
  udc::bench::JsonFile json("BENCH_hotpath.json");
  if (!json) {
    return;
  }
  FILE* f = json.get();
  std::fprintf(f,
               "{\n  \"benchmark\": \"deploy_churn\",\n"
               "  \"mode\": \"federation-only\",\n"
               "  \"host_cores\": %d,\n"
               "  \"smoke\": %s,\n",
               udc::bench::HostCores(), smoke ? "true" : "false");
  EmitFederationSection(f, fed);
  std::fprintf(f, "\n}\n");
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
              s.slo_ok ? "OK" : "BREACHED");
}

// Scale-phase gates, shared by the full run and --scale-only.
bool CheckScaleGates(const ScaleResult& s) {
  bool ok = true;
  if (!s.decisions_match) {
    std::fprintf(stderr,
                 "FAIL: cell and baseline legs diverged on admit/reject "
                 "decisions (baseline %lld/%lld hash %llx, cells %lld/%lld "
                 "hash %llx)\n",
                 s.baseline.deploys, s.baseline.failures,
                 static_cast<unsigned long long>(s.baseline.decision_hash),
                 s.cells.deploys, s.cells.failures,
                 static_cast<unsigned long long>(s.cells.decision_hash));
    ok = false;
  }
  if (!s.occupancy_match) {
    std::fprintf(stderr,
                 "FAIL: cell and baseline legs diverged on pre-drain pool "
                 "occupancy\n");
    ok = false;
  }
  if (!s.baseline.clean_after_drain || !s.cells.clean_after_drain) {
    std::fprintf(stderr, "FAIL: scale phase leaked state after drain\n");
    ok = false;
  }
  if (!s.slo_ok) {
    std::fprintf(stderr,
                 "FAIL: slo.sched.cell_place_p99 breached during the scale "
                 "phase\n%s",
                 s.slo_report.c_str());
    ok = false;
  }
  if (s.gate_armed && s.speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: cell-partitioned control plane %.2fx the "
                 "one-cell baseline at %lld devices, gate is 3x\n",
                 s.speedup, s.cells.devices);
    ok = false;
  }
  return ok;
}

// The "scale" section: what the CI artifact uploads and what the README
// cites for the 1M-tenant claim. Emitted by both the full report and the
// --scale-only report.
void EmitScaleSection(FILE* f, const ScaleResult& s) {
  auto emit_leg = [f](const char* name, const ScaleLeg& leg) {
    std::fprintf(f,
                 "    \"%s\": {\"deploys\": %lld, \"failures\": %lld, "
                 "\"tenants\": %lld, \"wall_seconds\": %.2f, "
                 "\"deploys_per_sec\": %.1f, \"placement_us\": "
                 "{\"p50\": %.2f, \"p99\": %.2f}, "
                 "\"clean_after_drain\": %s}",
                 name, leg.deploys, leg.failures, leg.tenants,
                 leg.wall_seconds, leg.deploys_per_sec, leg.p50_us,
                 leg.p99_us, leg.clean_after_drain ? "true" : "false");
  };
  std::fprintf(f,
               "  \"scale\": {\n"
               "    \"racks\": %d,\n"
               "    \"cell_count\": %d,\n"
               "    \"devices\": %lld,\n"
               "    \"live_window\": %d,\n",
               s.racks, s.cell_count, s.cells.devices, s.live_window);
  emit_leg("baseline", s.baseline);
  std::fprintf(f, ",\n");
  emit_leg("cells", s.cells);
  std::fprintf(f,
               ",\n    \"speedup_deploys_per_sec\": %.2f,\n"
               "    \"gate_speedup\": 3.0,\n"
               "    \"gate_armed\": %s,\n"
               "    \"decisions_match\": %s,\n"
               "    \"occupancy_match\": %s,\n"
               "    \"slo_cell_place_p99_ok\": %s,\n"
               "    \"cross_cell_deploys\": %lld,\n"
               "    \"cell_fallbacks\": %lld,\n"
               "    \"per_cell\": [",
               s.speedup, s.gate_armed ? "true" : "false",
               s.decisions_match ? "true" : "false",
               s.occupancy_match ? "true" : "false",
               s.slo_ok ? "true" : "false", s.cross_cell_deploys,
               s.cell_fallbacks);
  for (size_t c = 0; c < s.cell_p99_us.size(); ++c) {
    std::fprintf(f, "%s\n      {\"cell\": %zu, \"deploys\": %lld, "
                 "\"p99_us\": %.2f}",
                 c == 0 ? "" : ",", c, s.cell_deploys[c], s.cell_p99_us[c]);
  }
  std::fprintf(f, "\n    ]\n  }");
}

// --scale-only report: header + scale section. Same file name, so the CI
// artifact path is identical no matter which mode produced it.
void WriteScaleOnlyJson(bool smoke, const ScaleResult& scale) {
  udc::bench::JsonFile json("BENCH_hotpath.json");
  if (!json) {
    return;
  }
  FILE* f = json.get();
  std::fprintf(f,
               "{\n  \"benchmark\": \"deploy_churn\",\n"
               "  \"mode\": \"scale-only\",\n"
               "  \"host_cores\": %d,\n"
               "  \"smoke\": %s,\n",
               udc::bench::HostCores(), smoke ? "true" : "false");
  EmitScaleSection(f, scale);
  std::fprintf(f, "\n}\n");
}

void WriteJson(const ChurnConfig& config, bool smoke,
               const ChurnResult& indexed,
               const ChurnResult& batched, int batch_size,
               const AbortResult& abort, const WarmStoreResult& warm_store,
               double empty_txn_us, double overhead_pct,
               const RpcResult& rpc_single, const RpcResult& rpc_batched,
               double rpc_speedup, const ObsOverheadResult& obs,
               const ScaleResult& scale, const FederationResult& fed) {
  udc::bench::JsonFile json("BENCH_hotpath.json");
  if (!json) {
    return;
  }
  FILE* f = json.get();
  auto emit_mode = [f](const char* name, const ChurnResult& r) {
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"deploys\": %lld,\n"
                 "    \"failures\": %lld,\n"
                 "    \"wall_seconds\": %.4f,\n"
                 "    \"deploys_per_sec\": %.2f,\n"
                 "    \"events_per_sec\": %.0f,\n"
                 "    \"placement_us\": {\"p50\": %.2f, \"p95\": %.2f, "
                 "\"p99\": %.2f, \"mean\": %.2f}\n"
                 "  }",
                 name, r.deploys, r.failures, r.wall_seconds,
                 r.deploys_per_sec, r.events_per_sec,
                 r.placement_us.Quantile(0.5), r.placement_us.Quantile(0.95),
                 r.placement_us.Quantile(0.99), r.placement_us.Mean());
  };
  std::fprintf(f, "{\n  \"benchmark\": \"deploy_churn\",\n");
  std::fprintf(f,
               "  \"config\": {\"racks\": %d, \"devices\": %lld, "
               "\"deploys\": %d, \"live_window\": %d, \"host_cores\": %d, "
               "\"smoke\": %s},\n",
               config.racks, indexed.devices, config.deploys,
               config.live_window, udc::bench::HostCores(),
               smoke ? "true" : "false");
  emit_mode("indexed", indexed);
  std::fprintf(f, ",\n");
  emit_mode("batched", batched);
  const double batched_speedup =
      indexed.deploys_per_sec > 0
          ? batched.deploys_per_sec / indexed.deploys_per_sec
          : 0;
  std::fprintf(f,
               ",\n  \"txn\": {\n"
               "    \"batch_size\": %d,\n"
               "    \"batched_speedup_vs_indexed\": %.2f,\n"
               "    \"empty_txn_us\": %.3f,\n"
               "    \"overhead_pct_vs_indexed_p50\": %.2f,\n"
               "    \"frontend_single\": {\"deploys\": %lld, \"failures\": "
               "%lld, \"cpu_seconds\": %.4f, \"deploys_per_sec\": %.2f},\n"
               "    \"frontend_batched\": {\"deploys\": %lld, \"failures\": "
               "%lld, \"cpu_seconds\": %.4f, \"deploys_per_sec\": %.2f},\n"
               "    \"frontend_batched_speedup\": %.2f,\n"
               "    \"abort_phase\": {\"attempts\": %lld, \"deploys\": %lld, "
               "\"aborts\": %lld, \"abort_fraction\": %.2f, "
               "\"txn_committed\": %lld, \"txn_aborted\": %lld, "
               "\"clean_after_drain\": %s}\n"
               "  }",
               batch_size, batched_speedup, empty_txn_us, overhead_pct,
               rpc_single.deploys, rpc_single.failures,
               rpc_single.cpu_seconds, rpc_single.deploys_per_sec,
               rpc_batched.deploys, rpc_batched.failures,
               rpc_batched.cpu_seconds, rpc_batched.deploys_per_sec,
               rpc_speedup, abort.attempts, abort.deploys, abort.aborts,
               abort.abort_fraction, abort.txn_committed, abort.txn_aborted,
               abort.clean ? "true" : "false");
  std::fprintf(f,
               ",\n  \"warm_store\": {\n"
               "    \"differential\": {\"legacy_hash\": \"%016llx\", "
               "\"oracle_hash\": \"%016llx\", \"legacy_warm_starts\": %lld, "
               "\"oracle_warm_starts\": %lld, \"identical\": %s},\n"
               "    \"abort_churn\": {\"attempts\": %lld, \"deploys\": %lld, "
               "\"aborts\": %lld, \"abort_fraction\": %.2f, "
               "\"refund_violations\": %lld, \"warm_hit_ratio\": %.3f, "
               "\"warm_starts\": %lld, \"cross_tenant_warm_starts\": %lld, "
               "\"evictions\": %lld, \"live_store_refs_after_drain\": %lld, "
               "\"clean_after_drain\": %s}\n"
               "  }",
               static_cast<unsigned long long>(warm_store.legacy.hash),
               static_cast<unsigned long long>(warm_store.oracle.hash),
               warm_store.legacy.warm_starts, warm_store.oracle.warm_starts,
               warm_store.differential_ok ? "true" : "false",
               warm_store.attempts, warm_store.deploys, warm_store.aborts,
               warm_store.abort_fraction, warm_store.refund_violations,
               warm_store.warm_hit_ratio, warm_store.warm_starts,
               warm_store.cross_tenant_warm, warm_store.evictions,
               warm_store.live_store_refs_after_drain,
               warm_store.clean ? "true" : "false");
  std::fprintf(f,
               ",\n  \"obs_overhead\": {\n"
               "    \"deploys_on\": %lld,\n"
               "    \"deploys_off\": %lld,\n"
               "    \"placement_p50_on_us\": %.2f,\n"
               "    \"placement_p50_off_us\": %.2f,\n"
               "    \"placement_p50_ratio\": %.4f,\n"
               "    \"placement_p50_delta_us\": %.4f,\n"
               "    \"gate_p50_ratio\": 1.03,\n"
               "    \"gate_p50_delta_us\": 1.5,\n"
               "    \"median_block_cost_ratio\": %.4f,\n"
               "    \"recorder_retained\": %zu,\n"
               "    \"recorder_total_recorded\": %llu,\n"
               "    \"slo_all_ok\": %s\n"
               "  },\n",
               obs.deploys_on, obs.deploys_off, obs.p50_on_us, obs.p50_off_us,
               obs.p50_ratio, obs.p50_delta_us, obs.block_ratio,
               obs.recorder_retained,
               static_cast<unsigned long long>(obs.recorder_total),
               obs.slo_ok ? "true" : "false");
  EmitScaleSection(f, scale);
  std::fprintf(f, ",\n");
  EmitFederationSection(f, fed);
  std::fprintf(f, "\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = udc::bench::ParseSmokeFlag(argc, argv);
  bool scale_only = false;
  bool federation_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale-only") == 0) {
      scale_only = true;
    }
    if (std::strcmp(argv[i], "--federation-only") == 0) {
      federation_only = true;
    }
  }

  ChurnConfig config;
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
  // mid-transaction. Generated here (before any mode dispatch) so every
  // mode sees identical specs from the shared RNG stream.
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

  // The scale phase deploys one immutable catalog spec per slot via the
  // shared-spec overload — at a million deploys the per-deploy AppSpec copy
  // would dominate the very path being measured.
  std::vector<std::shared_ptr<const udc::AppSpec>> shared_specs;
  shared_specs.reserve(specs.size());
  for (const udc::AppSpec& spec : specs) {
    shared_specs.push_back(std::make_shared<const udc::AppSpec>(spec));
  }
  // Full scale: 40000 racks = 840,000 devices in 400 cells (100 racks /
  // 2,100 devices per cell), one million tenants churned through a live
  // window. The rack count sets the baseline's O(racks) per-pick cost; at
  // this size the one-cell rack pick dwarfs the shared
  // per-deploy floor (~30us of tenant/env/window bookkeeping both legs
  // pay), which is what the 3x aggregate gate is measuring. Smoke runs
  // the identical code a few thousand times smaller.
  const int scale_racks = smoke ? 240 : 40000;
  const int scale_cells = smoke ? 8 : 400;
  const int scale_deploys = smoke ? 1200 : 1'000'000;
  const int scale_window = smoke ? 64 : 512;

  // Federation geometry is deliberately small per region (4 racks each at
  // smoke size): the phase measures correctness under scarcity — skew,
  // spills, WAN fetches, aborts — not throughput.
  const int fed_racks = smoke ? 16 : 32;
  const int fed_cells = 8;
  const int fed_regions = 4;
  const int fed_deploys = smoke ? 240 : 2000;
  const int fed_window = smoke ? 24 : 64;
  // Sized to overrun the pinned region (4 racks) and keep mixing commits
  // and aborts once it is full.
  const int fed_abort_tail = smoke ? 160 : 400;

  if (federation_only) {
    std::printf("deploy_churn --federation-only: %d racks, %d cells, "
                "%d regions, %d deploys, window %d%s\n",
                fed_racks, fed_cells, fed_regions, fed_deploys, fed_window,
                smoke ? " (smoke)" : "");
    const FederationResult fed = RunFederationPhase(
        fed_racks, fed_cells, fed_regions, fed_deploys, fed_window,
        fed_abort_tail, shared_specs, specs, heavy_specs);
    PrintFederation(fed);
    WriteFederationOnlyJson(smoke, fed);
    return CheckFederationGates(fed) ? 0 : 1;
  }

  if (scale_only) {
    std::printf("deploy_churn --scale-only: %d racks, %d cells, %d deploys, "
                "window %d%s\n",
                scale_racks, scale_cells, scale_deploys, scale_window,
                smoke ? " (smoke)" : "");
    const ScaleResult scale = RunScalePhase(scale_racks, scale_cells,
                                            scale_deploys, scale_window,
                                            shared_specs);
    PrintScale(scale);
    WriteScaleOnlyJson(smoke, scale);
    return CheckScaleGates(scale) ? 0 : 1;
  }

  std::printf("deploy_churn: %d racks, %d deploys, window %d%s\n",
              config.racks, config.deploys, config.live_window,
              smoke ? " (smoke)" : "");

  const ChurnResult indexed = RunChurn(config, specs);
  PrintResult("indexed", indexed);

  const int batch_size = smoke ? 16 : 32;
  const ChurnResult batched = RunBatchedChurn(config, batch_size, specs);
  PrintResult("batched", batched);
  const double batched_speedup =
      indexed.deploys_per_sec > 0
          ? batched.deploys_per_sec / indexed.deploys_per_sec
          : 0;
  std::printf("batched vs indexed (in-process): %.2fx deploys/sec "
              "(batch size %d)\n",
              batched_speedup, batch_size);

  // The tenant-visible comparison: one deploy RPC per app versus one
  // deploy_batch RPC per batch, same udcl text, same frontend.
  const std::string udcl = udc::MedicalAppUdcl();
  const int rpc_deploys = smoke ? 320 : 640;
  const FrontendComparison frontend = RunFrontendComparison(
      config.racks, rpc_deploys, config.live_window, batch_size, udcl);
  const RpcResult& rpc_single = frontend.single;
  const RpcResult& rpc_batched = frontend.batched;
  const double rpc_speedup = frontend.speedup;
  std::printf("frontend: single %.1f deploys/s (%lld ok, %lld failed), "
              "batched %.1f deploys/s (%lld ok, %lld failed) -> %.2fx\n",
              rpc_single.deploys_per_sec, rpc_single.deploys,
              rpc_single.failures, rpc_batched.deploys_per_sec,
              rpc_batched.deploys, rpc_batched.failures, rpc_speedup);

  const AbortResult abort =
      RunAbortChurn(/*racks=*/1, smoke ? 60 : 400, heavy_specs);
  std::printf("abort-heavy: %lld attempts, %lld deploys, %lld aborts "
              "(%.0f%%), txn committed=%lld aborted=%lld, drain %s\n",
              abort.attempts, abort.deploys, abort.aborts,
              abort.abort_fraction * 100, abort.txn_committed,
              abort.txn_aborted, abort.clean ? "clean" : "DIRTY");

  const WarmStoreResult warm_store = RunWarmStorePhase(
      /*diff_racks=*/smoke ? 24 : 96, /*diff_deploys=*/smoke ? 120 : 480,
      /*diff_window=*/16, /*abort_deploys=*/smoke ? 60 : 400, specs,
      heavy_specs);
  std::printf("warm-store: differential %s (legacy %016llx / oracle %016llx, "
              "%lld warm starts each leg)\n",
              warm_store.differential_ok ? "identical" : "DIVERGED",
              static_cast<unsigned long long>(warm_store.legacy.hash),
              static_cast<unsigned long long>(warm_store.oracle.hash),
              warm_store.oracle.warm_starts);
  std::printf("warm-store abort churn: %lld attempts, %lld aborts (%.0f%%), "
              "%lld refund violations, hit ratio %.2f (%lld warm, %lld "
              "cross-tenant), drain %s (%lld live refs)\n",
              warm_store.attempts, warm_store.aborts,
              warm_store.abort_fraction * 100, warm_store.refund_violations,
              warm_store.warm_hit_ratio, warm_store.warm_starts,
              warm_store.cross_tenant_warm,
              warm_store.clean ? "clean" : "DIRTY",
              warm_store.live_store_refs_after_drain);

  const double empty_txn_us = MeasureEmptyTxnUs(smoke ? 20000 : 200000);
  const double indexed_p50 = indexed.placement_us.Quantile(0.5);
  const double overhead_pct =
      indexed_p50 > 0 ? 100.0 * empty_txn_us / indexed_p50 : 0;
  std::printf("txn overhead: %.3fus per empty txn = %.2f%% of indexed "
              "placement p50 (%.1fus)\n",
              empty_txn_us, overhead_pct, indexed_p50);

  // At smoke size the gated number is a median over per-block paired
  // deltas, and 160 deploys only yield 9 post-warmup blocks — few enough
  // that one noisy block lands the median itself in the noise band. Run
  // the obs phase 4x longer at smoke (still ~100ms for both clouds) so
  // the median sits on ~39 blocks; at full size the phase is already long.
  const int obs_deploys = smoke ? config.deploys * 4 : config.deploys;
  const ObsOverheadResult obs = RunObsOverhead(
      config.racks, obs_deploys, config.live_window, specs);
  std::printf("obs overhead: p50 on=%.1fus off=%.1fus -> %.3fx "
              "(gate 1.03x or %+.2fus vs budget %.1fus), "
              "block cost %.3fx, recorder retained %zu/%llu, SLOs %s\n",
              obs.p50_on_us, obs.p50_off_us, obs.p50_ratio, obs.p50_delta_us,
              kObsAbsoluteBudgetUs, obs.block_ratio,
              obs.recorder_retained,
              static_cast<unsigned long long>(obs.recorder_total),
              obs.slo_ok ? "OK" : "BREACHED");
  std::printf("%s", obs.slo_report.c_str());

  const ScaleResult scale = RunScalePhase(scale_racks, scale_cells,
                                          scale_deploys, scale_window,
                                          shared_specs);
  PrintScale(scale);

  const FederationResult fed = RunFederationPhase(
      fed_racks, fed_cells, fed_regions, fed_deploys, fed_window,
      fed_abort_tail, shared_specs, specs, heavy_specs);
  PrintFederation(fed);

  WriteJson(config, smoke, indexed, batched, batch_size, abort, warm_store,
            empty_txn_us, overhead_pct, rpc_single, rpc_batched, rpc_speedup,
            obs, scale, fed);

  // Transaction gates (see header comment). Failing any of them fails the
  // ctest that runs this benchmark.
  bool ok = true;
  if (!abort.clean) {
    std::fprintf(stderr, "FAIL: abort-heavy phase leaked state\n");
    ok = false;
  }
  if (abort.aborts == 0 || abort.txn_aborted < abort.aborts) {
    std::fprintf(stderr,
                 "FAIL: abort-heavy phase did not exercise aborts "
                 "(aborts=%lld, core.txn_aborted=%lld)\n",
                 abort.aborts, abort.txn_aborted);
    ok = false;
  }
  if (!warm_store.differential_ok) {
    std::fprintf(stderr,
                 "FAIL: store with sharing off diverged from the legacy "
                 "warm pool (legacy %016llx, oracle %016llx)\n",
                 static_cast<unsigned long long>(warm_store.legacy.hash),
                 static_cast<unsigned long long>(warm_store.oracle.hash));
    ok = false;
  }
  if (warm_store.legacy.warm_starts == 0) {
    std::fprintf(stderr,
                 "FAIL: warm-store differential saw no warm starts — the "
                 "legs never exercised the pools\n");
    ok = false;
  }
  if (warm_store.aborts == 0 || warm_store.refund_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: warm-store abort churn (aborts=%lld, refund "
                 "violations=%lld, want aborts>0 and violations=0)\n",
                 warm_store.aborts, warm_store.refund_violations);
    ok = false;
  }
  if (!warm_store.clean) {
    std::fprintf(stderr,
                 "FAIL: warm-store abort churn leaked state after drain "
                 "(%lld live store refs)\n",
                 warm_store.live_store_refs_after_drain);
    ok = false;
  }
  if (rpc_speedup < 1.2) {
    std::fprintf(stderr,
                 "FAIL: batched deploy RPCs %.2fx single-deploy RPCs, "
                 "gate is 1.2x\n",
                 rpc_speedup);
    ok = false;
  }
  if (overhead_pct > 5.0) {
    std::fprintf(stderr,
                 "FAIL: empty-txn overhead %.2f%% of placement p50, "
                 "gate is 5%%\n",
                 overhead_pct);
    ok = false;
  }
  if (obs.p50_ratio > 1.03 && obs.p50_delta_us > kObsAbsoluteBudgetUs) {
    std::fprintf(stderr,
                 "FAIL: placement p50 with observability on is %.3fx "
                 "(+%.2fus) over the off configuration, gate is 1.03x with "
                 "a %.1fus absolute budget\n",
                 obs.p50_ratio, obs.p50_delta_us, kObsAbsoluteBudgetUs);
    ok = false;
  }
  if (!obs.slo_ok) {
    std::fprintf(stderr, "FAIL: an SLO objective breached during the obs "
                         "overhead phase\n%s",
                 obs.slo_report.c_str());
    ok = false;
  }
  if (obs.recorder_total == 0) {
    std::fprintf(stderr,
                 "FAIL: flight recorder captured nothing in the on mode\n");
    ok = false;
  }
  if (!CheckScaleGates(scale)) {
    ok = false;
  }
  if (!CheckFederationGates(fed)) {
    ok = false;
  }
  return ok ? 0 : 1;
}
