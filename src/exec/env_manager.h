// Environment lifecycle manager.
//
// Launches execution environments on the simulation clock, charging cold or
// warm start per the environment's profile. Warm slots — the mitigation the
// paper implies for the cold-start challenge of fine-grained secure
// environments (bench E6 measures it) — live in one pool, the EnvStore
// (env_store.h). With EnvStoreConfig::share_across_tenants off (the
// default) a slot is banked against (kind, tenant): each tenant's own pool
// per kind, whose dead keys are reclaimed and which mints no image quote.
// With it on, a slot is banked against the image's SHA-256 content key in
// rack-local caches, so identical modules from different tenants share
// warm slots, a rack miss with a remote hit pays a tepid (or, across
// regions, a WAN-priced remote) fetch, and a global miss builds cold.

#ifndef UDC_SRC_EXEC_ENV_MANAGER_H_
#define UDC_SRC_EXEC_ENV_MANAGER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/exec/env_store.h"
#include "src/exec/environment.h"
#include "src/sim/simulation.h"

namespace udc {

class Topology;

struct LaunchOptions {
  EnvKind kind = EnvKind::kContainer;
  TenancyMode tenancy = TenancyMode::kShared;
  std::string image = "default";
  // When true and a warm slot exists, start warm; otherwise cold.
  bool allow_warm = true;
};

class EnvManager {
 public:
  explicit EnvManager(Simulation* sim,
                      const EnvStoreConfig& store_config = EnvStoreConfig());

  EnvManager(const EnvManager&) = delete;
  EnvManager& operator=(const EnvManager&) = delete;

  // Rack mapping for the store's rack-local caches; without a topology all
  // nodes share rack 0, and with sharing off the store keeps one cache
  // anyway. This also hands the store the topology's rack -> region map,
  // which arms the cross-region remote tier when there are regions to
  // fetch from.
  void set_topology(const Topology* topology);
  // Forwarded to the store: prices cross-region remote fetches over the
  // caller's WAN model (UdcCloud wires the fabric's per-link params in).
  void set_wan_cost_hook(EnvStore::WanCostFn hook);
  // Forwarded to the store: with sharing on, fires on content refcount
  // 0 <-> 1 transitions so the owner can mint/release content-bound
  // attestation quotes without a dependency cycle onto src/attest.
  void set_content_quote_hook(EnvStore::ContentLiveHook hook);

  // Launches an environment for `tenant` on `node`. `on_ready` fires on the
  // simulation clock when the environment reaches kReady (and is skipped if
  // the environment was stopped first). The returned pointer stays valid
  // until Stop is called.
  ExecEnvironment* Launch(TenantId tenant, NodeId node,
                          const LaunchOptions& options,
                          std::function<void(ExecEnvironment*)> on_ready);

  // Stops and reaps the environment; when `keep_warm`, a warm slot is
  // credited against the launch's store key (on the environment's rack
  // with sharing on) so a future launch starts warm. The environment is
  // destroyed — churn workloads (launch/stop per request) hold no dead
  // environments. `env` is invalid after a successful Stop.
  Status Stop(ExecEnvironment* env, bool keep_warm);

  // Undoes a Launch: reaps the environment and refunds the warm slot the
  // launch consumed (to the exact rack it came from, with its original
  // provenance), so cancelling restores the warm pool exactly. Used by
  // placement transactions rolling back a deploy. `env` is invalid after a
  // successful CancelLaunch.
  Status CancelLaunch(ExecEnvironment* env);

  // Pre-provisions `count` warm slots of `kind` for `tenant` (no time charge
  // at call site; real systems fill pools in the background). Counted into
  // `exec.prewarmed` so bench hit-ratio math can discount free credits. The
  // slots bank against the store key of (kind, tenant, `image`, `tenancy`)
  // on `node`'s rack.
  void Prewarm(EnvKind kind, TenantId tenant, int count,
               std::string_view image = "default",
               TenancyMode tenancy = TenancyMode::kShared,
               NodeId node = NodeId(0));

  size_t live_count() const { return envs_.size(); }
  // Warm slots a launch of (kind, tenant) with the default image could
  // consume; content-specific counts come from store()->TotalSlots.
  int WarmSlots(EnvKind kind, TenantId tenant) const;

  // Start latency the next Launch of (kind, tenant) would pay. Uses the
  // kind's cost profile, as Launch does, and the same rack-tier decision
  // Launch would make for `node` (warm on the local rack, tepid or remote
  // fetch from another one, cold).
  SimTime NextStartLatency(EnvKind kind, TenantId tenant,
                           const LaunchOptions& options) const;
  SimTime NextStartLatency(EnvKind kind, TenantId tenant,
                           const LaunchOptions& options, NodeId node) const;

  // The warm pool; never null.
  EnvStore* store() { return &store_; }
  const EnvStore* store() const { return &store_; }
  // Warm/tepid/remote starts over all starts so far (1.0 before any
  // launch), read from the exec.*_starts series.
  double warm_hit_ratio() const;
  int64_t cross_tenant_warm_starts() const;

 private:
  // The store rack `node` maps to.
  int RackForNode(NodeId node) const;

  // A live environment and the store provenance of its launch, consulted
  // by Stop/CancelLaunch.
  struct LiveEnv {
    std::unique_ptr<ExecEnvironment> env;
    Sha256Digest digest{};
    int source_rack = -1;
    uint64_t slot_tenant = 0;
    int local_rack = 0;
  };

  Simulation* sim_;
  const Topology* topology_ = nullptr;
  EnvStore store_;
  uint64_t next_id_ = 0;
  // Keyed by environment id: O(1) reap on Stop, and the on_ready callback
  // can check liveness by id instead of risking a dangling pointer.
  std::unordered_map<uint64_t, LiveEnv> envs_;

  // Interned metric series for the per-launch hot path.
  CounterHandle warm_starts_;
  CounterHandle cold_starts_;
  CounterHandle tepid_starts_;
  CounterHandle remote_starts_;
  CounterHandle prewarmed_;
  CounterHandle cross_tenant_warm_starts_;
  CounterHandle launches_cancelled_;
  HistogramHandle warm_start_latency_ms_;
  HistogramHandle cold_start_latency_ms_;
  HistogramHandle tepid_start_latency_ms_;
  HistogramHandle remote_start_latency_ms_;
  HistogramHandle start_latency_ms_;
  GaugeHandle warm_hit_ratio_;
};

}  // namespace udc

#endif  // UDC_SRC_EXEC_ENV_MANAGER_H_
