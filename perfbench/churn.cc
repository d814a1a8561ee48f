// fleet_churn and federation_skew: tenants deploy catalog apps through
// UdcCloud::Deploy (shared specs, no parsing, no RPC) into a sliding window
// of live deployments at 40,000 racks.
//
// fleet_churn keeps every other setting at its default: legacy warm pool,
// no regions, and evicted deployments stop cold. Its time goes to the cell
// router, the per-cell schedulers, pool allocation and teardown.
//
// federation_skew splits the racks into 4 regions over an asymmetric WAN,
// turns on the content-addressed env store with cross-tenant sharing, keeps
// evicted environments warm, pins 60% of deploys to region 0 and gives 2%
// of deploys a module no device can hold, so they abort after staging the
// rest of the app. Its time goes to the store's rack-miss search and remote
// tier, the WAN model, the region router and transaction rollback.

#include <algorithm>
#include <deque>
#include <string>

#include "perfbench/bench.h"
#include "src/common/strings.h"

namespace udcbench {
namespace {

// In federation_skew every 50th deploy is an overreach deploy, and each
// other deploy is pinned to region 0 with probability 3/5. Drawing the pin
// per deploy matters: a repeating pin pattern locks the region router and
// the store into seed-specific periodic regimes whose speeds differ by half.
constexpr int64_t kOverreachEvery = 50;
// The traced run probes NextStartLatency on every n-th admitted deploy.
constexpr int64_t kProbeEvery = 8;

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

// `base` plus a last task that asks for more cores than any CPU blade
// has. Every other module stages first (data, then tasks in topological
// order), so the deploy aborts with work to roll back.
udc::AppSpec WithOverreachTask(const udc::AppSpec& base) {
  udc::AppSpec spec = base;
  const std::vector<udc::ModuleId> tasks = spec.graph.TaskIds();
  auto task = spec.graph.AddTask("overreach", 1000.0, udc::Bytes::KiB(4));
  if (!task.ok()) {
    Die("overreach task: " + task.status().ToString());
  }
  for (const udc::ModuleId before : tasks) {
    if (!spec.graph.AddEdge(before, *task).ok()) {
      Die("overreach edge rejected");
    }
  }
  udc::AspectSet aspects = udc::ProviderDefaults();
  aspects.resource.defined = true;
  aspects.resource.objective = udc::ResourceObjective::kExplicit;
  aspects.resource.demand = udc::ResourceVector::MilliCpu(48000);
  spec.aspects[*task] = aspects;
  return spec;
}

class ChurnWorkload : public Workload {
 public:
  ChurnWorkload(uint64_t seed, const Sizes& sizes, bool federated)
      : seed_(seed), federated_(federated), window_(sizes.window) {
    udc::Rng rng(seed);
    for (udc::AppSpec& spec : MicroserviceCatalog(rng)) {
      if (federated_) {
        const udc::AppSpec pinned = PinToRegion(spec, 0);
        overreach_.push_back(std::make_shared<const udc::AppSpec>(
            PinToRegion(WithOverreachTask(spec), 0)));
        pinned_.push_back(std::make_shared<const udc::AppSpec>(pinned));
      }
      catalog_.push_back(std::make_shared<const udc::AppSpec>(std::move(spec)));
    }

    cloud_ = MakeCloud(seed, sizes, /*env_store=*/federated_);
  }

  udc::UdcCloud& cloud() override { return *cloud_; }

  DeployResult Step(int64_t index, SimStats* sim,
                    LayerTimers* timers) override {
    const uint64_t pick = Mix64(seed_ ^ static_cast<uint64_t>(index));
    const size_t spec_index = pick % catalog_.size();
    const bool overreach = federated_ && index % kOverreachEvery == 0;
    const bool pinned = federated_ && (pick >> 32) % 5 < 3;
    const std::shared_ptr<const udc::AppSpec>& spec =
        overreach ? overreach_[spec_index]
        : pinned  ? pinned_[spec_index]
                  : catalog_[spec_index];

    const udc::TenantId tenant = cloud_->RegisterTenant(
        udc::StrFormat("t%lld", static_cast<long long>(index)));
    const udc::EnvStore* store = cloud_->envs().store();
    const int64_t slots_before =
        store != nullptr ? store->total_warm_slots() : 0;
    const int64_t refs_before = store != nullptr ? store->live_env_refs() : 0;

    DeployResult result;
    const Clock::time_point start = Clock::now();
    udc::Result<std::unique_ptr<udc::Deployment>> deployment = [&] {
      LayerTimer timer(timers != nullptr ? &timers->deploy_us : nullptr);
      return cloud_->Deploy(tenant, spec);
    }();
    result.admitted = deployment.ok();
    // A rolled-back deploy must leave the store exactly as it found it.
    const bool refunded =
        result.admitted || store == nullptr ||
        (store->total_warm_slots() == slots_before &&
         store->live_env_refs() == refs_before);
    {
      LayerTimer timer(timers != nullptr ? &timers->drain_us : nullptr);
      cloud_->sim()->RunToCompletion();
    }
    result.deploy_us = MicrosSince(start);
    result.as_expected = result.admitted != overreach && refunded;

    ++sim->attempted;
    MixDeploy(&sim->fingerprint,
              result.admitted ? deployment->get() : nullptr);
    if (!result.admitted) {
      ++sim->rejected;
      return result;
    }
    sim->start_ms.Add(StartMillis(**deployment));
    if (timers != nullptr && index % kProbeEvery == 0) {
      ProbeNextStart(*cloud_, **deployment, timers);
    }
    live_.push_back(std::move(*deployment));
    while (static_cast<int>(live_.size()) > window_) {
      result.as_expected =
          EvictOldest(/*keep_warm=*/federated_, timers) && result.as_expected;
    }
    return result;
  }

  void Drain(std::vector<std::string>* errors) override {
    bool stopped = true;
    while (!live_.empty()) {
      stopped = EvictOldest(/*keep_warm=*/false, nullptr) && stopped;
    }
    cloud_->sim()->RunToCompletion();
    if (!stopped) {
      errors->push_back("EnvManager::Stop failed during the drain");
    }
    CheckDrained(*cloud_, federated_ ? "federation_skew" : "fleet_churn",
                 errors);
  }

 private:
  // Stops the oldest live deployment's environments and destroys it.
  bool EvictOldest(bool keep_warm, LayerTimers* timers) {
    bool ok = true;
    for (udc::ResourceUnit* unit : live_.front()->units()) {
      if (unit->env != nullptr) {
        LayerTimer timer(timers != nullptr ? &timers->stop_us : nullptr);
        ok = cloud_->envs().Stop(unit->env, keep_warm).ok() && ok;
        unit->env = nullptr;
      }
    }
    LayerTimer timer(timers != nullptr ? &timers->teardown_us : nullptr);
    live_.pop_front();
    return ok;
  }

  const uint64_t seed_;
  const bool federated_;
  const int window_;
  std::vector<std::shared_ptr<const udc::AppSpec>> catalog_;
  std::vector<std::shared_ptr<const udc::AppSpec>> pinned_;
  std::vector<std::shared_ptr<const udc::AppSpec>> overreach_;
  std::unique_ptr<udc::UdcCloud> cloud_;
  // Declared after the cloud: deployments die before what they reference.
  std::deque<std::unique_ptr<udc::Deployment>> live_;
};

}  // namespace

std::unique_ptr<Workload> MakeChurnWorkload(uint64_t seed, const Sizes& sizes,
                                            bool federated) {
  return std::make_unique<ChurnWorkload>(seed, sizes, federated);
}

}  // namespace udcbench
