#include "src/exec/env_manager.h"

#include <utility>

#include "src/hw/topology.h"

namespace udc {

EnvManager::EnvManager(Simulation* sim, const EnvStoreConfig& store_config)
    : sim_(sim),
      store_(&sim->metrics(), store_config),
      warm_starts_(sim->metrics().CounterSeries("exec.warm_starts")),
      cold_starts_(sim->metrics().CounterSeries("exec.cold_starts")),
      tepid_starts_(sim->metrics().CounterSeries("exec.tepid_starts")),
      remote_starts_(sim->metrics().CounterSeries("exec.remote_starts")),
      prewarmed_(sim->metrics().CounterSeries("exec.prewarmed")),
      cross_tenant_warm_starts_(
          sim->metrics().CounterSeries("exec.cross_tenant_warm_starts")),
      launches_cancelled_(
          sim->metrics().CounterSeries("exec.launches_cancelled")),
      warm_start_latency_ms_(
          sim->metrics().HistogramSeries("exec.warm_start_latency_ms")),
      cold_start_latency_ms_(
          sim->metrics().HistogramSeries("exec.cold_start_latency_ms")),
      tepid_start_latency_ms_(
          sim->metrics().HistogramSeries("exec.tepid_start_latency_ms")),
      remote_start_latency_ms_(
          sim->metrics().HistogramSeries("exec.remote_start_latency_ms")),
      start_latency_ms_(
          sim->metrics().HistogramSeries("exec.start_latency_ms")),
      warm_hit_ratio_(sim->metrics().GaugeSeries("exec.warm_hit_ratio")) {
  // No launches yet: a hit ratio of 1.0 is the vacuous truth and keeps the
  // SLO objective green until a cold start actually happens.
  sim_->metrics().Set(warm_hit_ratio_, 1.0);
}

void EnvManager::set_content_quote_hook(EnvStore::ContentLiveHook hook) {
  store_.set_content_live_hook(std::move(hook));
}

void EnvManager::set_topology(const Topology* topology) {
  topology_ = topology;
  if (topology == nullptr) {
    return;
  }
  // Hand the store its rack -> region map so a rack miss distinguishes
  // same-region (tepid) from cross-region (remote) sources.
  std::vector<int> rack_regions(static_cast<size_t>(topology->rack_count()));
  for (int r = 0; r < topology->rack_count(); ++r) {
    rack_regions[static_cast<size_t>(r)] = topology->RegionOfRack(r);
  }
  store_.set_rack_regions(std::move(rack_regions));
}

void EnvManager::set_wan_cost_hook(EnvStore::WanCostFn hook) {
  store_.set_wan_cost_hook(std::move(hook));
}

int EnvManager::RackForNode(NodeId node) const {
  // Sharing off, the store keeps one cache: skip the lookup.
  if (topology_ == nullptr || !store_.config().share_across_tenants) {
    return 0;
  }
  const int rack = topology_->RackOf(node);
  return rack < 0 ? 0 : rack;
}

double EnvManager::warm_hit_ratio() const {
  const MetricsRegistry& metrics = sim_->metrics();
  const int64_t warmish = metrics.value(warm_starts_) +
                          metrics.value(tepid_starts_) +
                          metrics.value(remote_starts_);
  const int64_t total = warmish + metrics.value(cold_starts_);
  if (total == 0) {
    return 1.0;
  }
  return static_cast<double>(warmish) / static_cast<double>(total);
}

int64_t EnvManager::cross_tenant_warm_starts() const {
  return sim_->metrics().value(cross_tenant_warm_starts_);
}

ExecEnvironment* EnvManager::Launch(
    TenantId tenant, NodeId node, const LaunchOptions& options,
    std::function<void(ExecEnvironment*)> on_ready) {
  const uint64_t id = next_id_++;
  auto env = std::make_unique<ExecEnvironment>(id, options.kind,
                                               options.tenancy, tenant, node);
  env->SetImage(options.image);
  const EnvProfile profile = EnvProfile::DefaultFor(options.kind);
  env->set_profile(profile);
  ExecEnvironment* raw = env.get();

  const Sha256Digest& digest =
      store_.Intern(options.kind, options.tenancy, tenant, options.image,
                    profile.memory_overhead);
  const int rack = RackForNode(node);
  const EnvStore::AcquireResult acq =
      store_.AcquireForLaunch(digest, rack, tenant, options.allow_warm);
  const EnvStartMode mode = acq.mode;
  SimTime start_latency = profile.cold_start;
  if (mode == EnvStartMode::kWarm) {
    start_latency = profile.warm_start;
  } else if (mode == EnvStartMode::kTepid || mode == EnvStartMode::kRemote) {
    start_latency = profile.warm_start + acq.fetch_latency;
  }
  if (mode != EnvStartMode::kCold && acq.slot_tenant != tenant.value()) {
    sim_->metrics().Increment(cross_tenant_warm_starts_);
  }
  envs_.emplace(id, LiveEnv{std::move(env), digest, acq.source_rack,
                            acq.slot_tenant, rack});

  switch (mode) {
    case EnvStartMode::kWarm:
      sim_->metrics().Increment(warm_starts_);
      sim_->metrics().Observe(warm_start_latency_ms_, start_latency.millis());
      break;
    case EnvStartMode::kTepid:
      sim_->metrics().Increment(tepid_starts_);
      sim_->metrics().Observe(tepid_start_latency_ms_, start_latency.millis());
      break;
    case EnvStartMode::kRemote:
      sim_->metrics().Increment(remote_starts_);
      sim_->metrics().Observe(remote_start_latency_ms_,
                              start_latency.millis());
      break;
    case EnvStartMode::kCold:
      sim_->metrics().Increment(cold_starts_);
      sim_->metrics().Observe(cold_start_latency_ms_, start_latency.millis());
      break;
  }
  sim_->metrics().Observe(start_latency_ms_, start_latency.millis());
  sim_->metrics().Set(warm_hit_ratio_, warm_hit_ratio());
  raw->set_start_mode(mode);

  const uint64_t span = sim_->spans().Begin(
      "exec", "exec.env_start",
      {{"kind", std::string(EnvKindName(options.kind))},
       {"mode", std::string(EnvStartModeName(mode))},
       {"image", options.image}});
  raw->set_state(EnvState::kStarting);
  raw->set_ready_at(sim_->now() + start_latency);
  // Capture the id, not the pointer: the environment may be stopped (and
  // destroyed) before the ready event fires. 56-byte capture — inside the
  // event queue's inline buffer.
  sim_->After(start_latency, [this, id, span,
                              on_ready = std::move(on_ready)] {
    sim_->spans().End(span);
    const auto it = envs_.find(id);
    if (it == envs_.end()) {
      return;  // stopped before it became ready
    }
    it->second.env->set_state(EnvState::kReady);
    if (on_ready) {
      on_ready(it->second.env.get());
    }
  });
  return raw;
}

Status EnvManager::Stop(ExecEnvironment* env, bool keep_warm) {
  const auto it = envs_.find(env->id());
  if (it == envs_.end() || it->second.env.get() != env) {
    return NotFoundError("environment not owned by this manager");
  }
  const LiveEnv& live = it->second;
  store_.ReleaseEnv(live.digest, live.local_rack, env->tenant(), keep_warm);
  envs_.erase(it);  // reap: stopped environments are not retained
  return OkStatus();
}

Status EnvManager::CancelLaunch(ExecEnvironment* env) {
  const auto it = envs_.find(env->id());
  if (it == envs_.end() || it->second.env.get() != env) {
    return NotFoundError("environment not owned by this manager");
  }
  // The launch's slot (if any) goes back to the exact rack it was consumed
  // from, with its original provenance: a rolled back deploy leaves the
  // store exactly as it found it.
  const LiveEnv& live = it->second;
  store_.RefundCancelled(live.digest, env->start_mode(), live.source_rack,
                         live.slot_tenant, live.local_rack);
  sim_->metrics().Increment(launches_cancelled_);
  envs_.erase(it);  // the pending ready event no-ops on the missing id
  return OkStatus();
}

void EnvManager::Prewarm(EnvKind kind, TenantId tenant, int count,
                         std::string_view image, TenancyMode tenancy,
                         NodeId node) {
  if (count <= 0) {
    return;
  }
  sim_->metrics().Increment(prewarmed_, count);
  const Sha256Digest& digest = store_.Intern(
      kind, tenancy, tenant, image, EnvProfile::DefaultFor(kind).memory_overhead);
  store_.Prewarm(digest, RackForNode(node), tenant, count);
}

int EnvManager::WarmSlots(EnvKind kind, TenantId tenant) const {
  const Sha256Digest* digest =
      store_.FindKey(kind, TenancyMode::kShared, tenant, "default");
  return digest == nullptr ? 0 : static_cast<int>(store_.TotalSlots(*digest));
}

SimTime EnvManager::NextStartLatency(EnvKind kind, TenantId tenant,
                                     const LaunchOptions& options) const {
  return NextStartLatency(kind, tenant, options, NodeId(0));
}

SimTime EnvManager::NextStartLatency(EnvKind kind, TenantId tenant,
                                     const LaunchOptions& options,
                                     NodeId node) const {
  const EnvProfile profile = EnvProfile::DefaultFor(kind);
  const Sha256Digest* digest =
      store_.FindKey(kind, options.tenancy, tenant, options.image);
  if (digest == nullptr) {
    return profile.cold_start;  // never interned: no slot anywhere
  }
  const EnvStore::PeekResult peek =
      store_.Peek(*digest, RackForNode(node), options.allow_warm);
  switch (peek.mode) {
    case EnvStartMode::kWarm:
      return profile.warm_start;
    case EnvStartMode::kTepid:
    case EnvStartMode::kRemote:
      return profile.warm_start + peek.fetch_latency;
    case EnvStartMode::kCold:
      break;
  }
  return profile.cold_start;
}

}  // namespace udc
