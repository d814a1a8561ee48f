#include "perfbench/bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/workload/microservices.h"

namespace udcbench {

void Die(const std::string& message) {
  std::fprintf(stderr, "udcbench: %s\n", message.c_str());
  std::exit(1);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<udc::AppSpec> MicroserviceCatalog(udc::Rng& rng) {
  constexpr int kCatalogSize = 48;
  std::vector<udc::AppSpec> catalog;
  for (int i = 0; i < kCatalogSize; ++i) {
    udc::MicroserviceConfig config;
    config.chain_length = 2 + i % 4;
    config.fanout_services = (i / 4) % 3;
    config.stateful_backend = (i / 12) % 4 != 0;
    config.work_scale = rng.NextDoubleInRange(0.5, 2.0);
    auto spec = udc::GenerateMicroserviceApp(rng, config);
    if (!spec.ok()) {
      Die("catalog generation failed: " + spec.status().ToString());
    }
    catalog.push_back(std::move(*spec));
  }
  return catalog;
}

bool SimStats::SameAs(const SimStats& other) const {
  return attempted == other.attempted && rejected == other.rejected &&
         start_ms.sorted_samples() == other.start_ms.sorted_samples() &&
         invoke_ms.sorted_samples() == other.invoke_ms.sorted_samples() &&
         usd_sum == other.usd_sum && usd_count == other.usd_count &&
         wan_bytes == other.wan_bytes &&
         fingerprint.value() == other.fingerprint.value();
}

Counters Counters::Read(udc::UdcCloud& cloud) {
  const udc::MetricsRegistry& metrics = cloud.sim()->metrics();
  Counters c;
  c.txn_committed = metrics.counter("core.txn_committed");
  c.txn_aborted = metrics.counter("core.txn_aborted");
  c.txn_ops_staged = metrics.counter("core.txn_ops_staged");
  c.txn_ops_undone = metrics.counter("core.txn_ops_undone");
  if (const udc::CellRouter* router = cloud.cell_router()) {
    c.cell_fallbacks = router->cell_fallbacks();
    c.cross_cell_deploys = router->cross_cell_deploys();
  }
  if (const udc::RegionRouter* router = cloud.region_router()) {
    c.region_fallbacks = router->region_fallbacks();
    c.cross_region_deploys = router->cross_region_deploys();
  }
  c.warm_starts = metrics.counter("exec.warm_starts");
  c.tepid_starts = metrics.counter("exec.tepid_starts");
  c.remote_starts = metrics.counter("exec.remote_starts");
  c.cold_starts = metrics.counter("exec.cold_starts");
  c.launches_cancelled = metrics.counter("exec.launches_cancelled");
  c.evictions = metrics.counter("exec.evictions");
  c.messages_delivered =
      static_cast<int64_t>(cloud.fabric().messages_delivered());
  c.wan_messages_sent =
      static_cast<int64_t>(cloud.fabric().wan_messages_sent());
  c.wan_bytes_sent = cloud.fabric().wan_bytes_sent();
  c.image_quotes_minted =
      static_cast<int64_t>(cloud.attestation().image_quotes_minted());
  c.events = static_cast<int64_t>(cloud.sim()->events_executed());
  c.recorder_records =
      static_cast<int64_t>(cloud.sim()->flight_recorder().total_recorded());
  return c;
}

Counters Counters::operator-(const Counters& base) const {
  Counters d;
  d.txn_committed = txn_committed - base.txn_committed;
  d.txn_aborted = txn_aborted - base.txn_aborted;
  d.txn_ops_staged = txn_ops_staged - base.txn_ops_staged;
  d.txn_ops_undone = txn_ops_undone - base.txn_ops_undone;
  d.cell_fallbacks = cell_fallbacks - base.cell_fallbacks;
  d.cross_cell_deploys = cross_cell_deploys - base.cross_cell_deploys;
  d.region_fallbacks = region_fallbacks - base.region_fallbacks;
  d.cross_region_deploys = cross_region_deploys - base.cross_region_deploys;
  d.warm_starts = warm_starts - base.warm_starts;
  d.tepid_starts = tepid_starts - base.tepid_starts;
  d.remote_starts = remote_starts - base.remote_starts;
  d.cold_starts = cold_starts - base.cold_starts;
  d.launches_cancelled = launches_cancelled - base.launches_cancelled;
  d.evictions = evictions - base.evictions;
  d.messages_delivered = messages_delivered - base.messages_delivered;
  d.wan_messages_sent = wan_messages_sent - base.wan_messages_sent;
  d.wan_bytes_sent = wan_bytes_sent - base.wan_bytes_sent;
  d.image_quotes_minted = image_quotes_minted - base.image_quotes_minted;
  d.events = events - base.events;
  d.recorder_records = recorder_records - base.recorder_records;
  return d;
}

bool KnownWorkload(const std::string& name) {
  return name == "fleet_churn" || name == "federation_skew" ||
         name == "tenant_lifecycle";
}

// Full sizes follow the workload definitions; the tiny sizes only exercise
// every code path of the benchmark in a fraction of a second.
Sizes SizesFor(const std::string& name, bool tiny) {
  if (name == "fleet_churn") {
    // 40,000 racks = 840,000 devices in 400 cells.
    return tiny ? Sizes{.racks = 240, .cells = 8, .window = 32, .warmup = 64,
                        .block = 64, .reference_blocks = 2}
                : Sizes{.racks = 40000, .cells = 400, .window = 512,
                        .warmup = 8192, .block = 4096, .reference_blocks = 4};
  }
  if (name == "federation_skew") {
    // The fleet geometry in 4 regions; the env store needs about 5k deploys
    // before its warm slots reach steady occupancy.
    return tiny ? Sizes{.racks = 64, .cells = 16, .regions = 4, .window = 32,
                        .warmup = 128, .block = 64, .reference_blocks = 2}
                : Sizes{.racks = 40000, .cells = 400, .regions = 4,
                        .window = 512, .warmup = 6144, .block = 512,
                        .reference_blocks = 8};
  }
  // The warmup of 64 windows makes set-up last over a second, long enough
  // that setup_s is not set by the host's sub-second speed swings. Four
  // reference blocks give start_ms_p99 more than ten samples beyond it.
  return tiny ? Sizes{.racks = 24, .window = 8, .warmup = 16, .block = 16,
                      .reference_blocks = 2}
              : Sizes{.racks = 480, .window = 64, .warmup = 4096, .block = 256,
                      .reference_blocks = 4};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const Sizes& sizes) {
  if (name == "tenant_lifecycle") {
    return MakeLifecycleWorkload(seed, sizes);
  }
  return MakeChurnWorkload(seed, sizes, name == "federation_skew");
}

std::unique_ptr<udc::UdcCloud> MakeCloud(uint64_t seed, const Sizes& sizes,
                                         bool env_store) {
  udc::UdcCloudConfig config;
  config.seed = seed;
  config.datacenter.racks = sizes.racks;
  config.datacenter.cells = sizes.cells;
  config.datacenter.regions = sizes.regions;
  config.env_store.enabled = env_store;
  config.env_store.share_across_tenants = env_store;
  auto cloud = std::make_unique<udc::UdcCloud>(config);
  // Asymmetric WAN: each directed region pair has its own latency and
  // bandwidth, and (i, j) differs from (j, i).
  for (int i = 0; i < sizes.regions; ++i) {
    for (int j = 0; j < sizes.regions; ++j) {
      if (i != j) {
        udc::WanLinkParams link;
        link.latency = udc::SimTime::Millis(8 + 7 * i + 13 * j);
        link.bw_mbps = 400.0 + 150.0 * ((i * sizes.regions + j) % 3);
        cloud->fabric().SetWanLink(i, j, link);
      }
    }
  }
  return cloud;
}

double StartMillis(const udc::Deployment& deployment) {
  udc::SimTime ready = deployment.deployed_at();
  for (const auto& [module, placement] : deployment.placements()) {
    ready = std::max(ready, placement.env_ready_at);
  }
  return (ready - deployment.deployed_at()).millis();
}

void MixDeploy(Fingerprint* fingerprint, const udc::Deployment* deployment) {
  fingerprint->Mix(deployment != nullptr ? 1 : 0);
  if (deployment == nullptr) {
    return;
  }
  for (const auto& [module, placement] : deployment->placements()) {
    const udc::ResourceUnit* unit = deployment->FindUnit(placement.unit);
    const int mode = unit != nullptr && unit->env != nullptr
                         ? static_cast<int>(unit->env->start_mode())
                         : -1;
    fingerprint->Mix(module.value());
    fingerprint->Mix(static_cast<uint64_t>(placement.rack));
    fingerprint->Mix(static_cast<uint64_t>(mode));
  }
}

void ProbeNextStart(udc::UdcCloud& cloud, const udc::Deployment& deployment,
                    LayerTimers* timers) {
  const Clock::time_point probe_start = Clock::now();
  for (const auto& [module, placement] : deployment.placements()) {
    const udc::ResourceUnit* unit = deployment.FindUnit(placement.unit);
    if (placement.kind != udc::ModuleKind::kTask || unit == nullptr ||
        unit->env == nullptr) {
      continue;
    }
    // The same options the scheduler launched the module with.
    udc::LaunchOptions options;
    options.kind = placement.env_kind;
    options.tenancy = unit->env->tenancy();
    options.image = placement.name;
    LayerTimer timer(&timers->next_start_us);
    (void)cloud.envs().NextStartLatency(placement.env_kind, deployment.tenant(),
                                        options, placement.home);
  }
  timers->probe_us += MicrosSince(probe_start);
}

void CheckDrained(udc::UdcCloud& cloud, const std::string& label,
                  std::vector<std::string>* errors) {
  if (!(cloud.datacenter().TotalAllocated() == udc::ResourceVector())) {
    errors->push_back(label + ": pool capacity still allocated after drain");
  }
  if (cloud.envs().live_count() != 0) {
    errors->push_back(label + ": live environments after drain");
  }
  if (cloud.attestation().provisioned_count() != 0) {
    errors->push_back(label + ": attestation identities still provisioned");
  }
  const udc::EnvStore* store = cloud.envs().store();
  if (store != nullptr && store->live_env_refs() != 0) {
    errors->push_back(label + ": live env store references after drain");
  }
}

}  // namespace udcbench
