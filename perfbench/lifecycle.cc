// tenant_lifecycle: each tenant's client drives the provider frontend over
// its RPC plane the way the paper's users would. It sends its app as udcl
// text through `deploy`, runs four invocations with DagRuntime::RunOnce,
// calls `verify` and `bill`, and is torn down through `teardown` once it
// leaves a 64-tenant live window. The cloud is 480 racks in the default
// configuration (flat scheduler, legacy warm pool), so this is the only
// workload that parses udcl, crosses the RPC plane, verifies attestation
// quotes, bills and runs invocations.
//
// The apps are the Figure-2 medical app (TEE enclaves, GPU slices,
// replicated encrypted stores) and the microservice catalog the other two
// workloads deploy, written as udcl. Each tenant picks one of them with
// equal odds.

#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "perfbench/bench.h"
#include "src/common/strings.h"
#include "src/core/frontend.h"
#include "src/workload/medical.h"

namespace udcbench {
namespace {

constexpr int kInvocations = 4;
// The traced run probes NextStartLatency on every n-th tenant.
constexpr int64_t kProbeEvery = 4;

using Reply = std::optional<udc::Result<std::string>>;
using Callback = std::function<void(udc::Result<std::string>)>;

// A byte count as a udcl size literal, in the largest unit that holds it
// exactly.
std::string SizeLiteral(udc::Bytes size) {
  static constexpr struct {
    const char* suffix;
    int64_t scale;
  } kUnits[] = {{"GiB", int64_t{1} << 30},
                {"MiB", int64_t{1} << 20},
                {"KiB", int64_t{1} << 10}};
  const int64_t bytes = size.bytes();
  for (const auto& unit : kUnits) {
    if (bytes != 0 && bytes % unit.scale == 0) {
      return udc::StrFormat("%lld%s", static_cast<long long>(bytes / unit.scale),
                            unit.suffix);
    }
  }
  return udc::StrFormat("%lldB", static_cast<long long>(bytes));
}

// The udcl text of a catalog app: its modules, edges and locality hints,
// and each module's resource demand, isolation, protection and
// replication. FromCatalog checks that nothing else was set.
std::string ToUdcl(const udc::AppSpec& spec) {
  const udc::ModuleGraph& graph = spec.graph;
  const auto name = [&graph](udc::ModuleId id) {
    return graph.Find(id)->name;
  };
  std::string text = "app " + graph.app_name() + "\n";
  for (const udc::ModuleId id : graph.ModuleIds()) {
    const udc::Module& m = *graph.Find(id);
    text += m.kind == udc::ModuleKind::kTask
                ? udc::StrFormat("task %s work=%.17g out=%s\n", m.name.c_str(),
                                 m.work_units,
                                 SizeLiteral(m.output_size).c_str())
                : udc::StrFormat("data %s size=%s\n", m.name.c_str(),
                                 SizeLiteral(m.data_size).c_str());
  }
  for (const udc::ModuleId id : graph.ModuleIds()) {
    for (const udc::ModuleId next : graph.Successors(id)) {
      text += "edge " + name(id) + " -> " + name(next) + "\n";
    }
  }
  for (const udc::LocalityHint& hint : graph.locality_hints()) {
    text += (hint.is_affinity ? "affinity " : "colocate ") + name(hint.a) +
            " " + name(hint.b) + "\n";
  }
  for (const udc::ModuleId id : graph.ModuleIds()) {
    const udc::AspectSet aspects = spec.AspectsFor(id);
    if (aspects.resource.defined) {
      text += "aspect " + name(id) + " resource";
      for (int k = 0; k < udc::kNumResourceKinds; ++k) {
        const auto kind = static_cast<udc::ResourceKind>(k);
        const int64_t amount = aspects.resource.demand.Get(kind);
        if (amount != 0) {
          const std::string value =
              udc::IsComputeKind(kind)
                  ? udc::StrFormat("%lldm", static_cast<long long>(amount))
                  : SizeLiteral(udc::Bytes(amount));
          text += udc::StrFormat(
              " %s=%s", std::string(udc::ResourceKindName(kind)).c_str(),
              value.c_str());
        }
      }
      text += "\n";
    }
    const udc::ExecEnvAspect& exec = aspects.exec;
    if (exec.defined) {
      text += "aspect " + name(id) + " exec isolation=" +
              std::string(udc::IsolationLevelName(exec.isolation));
      text += exec.tenancy == udc::TenancyMode::kSingleTenant
                  ? " tenancy=single"
                  : "";
      text += exec.protection.integrity ? " integrity" : "";
      text += exec.protection.encryption ? " encrypt" : "";
      text += "\n";
    }
    const udc::DistAspect& dist = aspects.dist;
    if (dist.defined) {
      text += udc::StrFormat("aspect %s dist replication=%d", name(id).c_str(),
                             dist.replication_factor);
      text += dist.consistency_specified
                  ? " consistency=" +
                        std::string(udc::ConsistencyLevelName(dist.consistency))
                  : "";
      text += "\n";
    }
  }
  return text;
}

// The udcl text of a catalog app, checked to parse back into the same app.
std::string FromCatalog(const udc::AppSpec& spec) {
  std::string text = ToUdcl(spec);
  const udc::Result<udc::AppSpec> parsed = udc::ParseAppSpec(text);
  bool same = parsed.ok() &&
              parsed->graph.DebugString() == spec.graph.DebugString();
  for (const udc::ModuleId id : spec.graph.ModuleIds()) {
    same = same &&
           parsed->AspectsFor(id).ToString() == spec.AspectsFor(id).ToString() &&
           parsed->AspectsFor(id).resource.demand ==
               spec.AspectsFor(id).resource.demand &&
           parsed->graph.Find(id)->work_units ==
               spec.graph.Find(id)->work_units &&
           parsed->graph.Successors(id) == spec.graph.Successors(id);
  }
  if (!same) {
    Die("a catalog app does not survive udcl:\n" + text);
  }
  return text;
}

// "ok:" followed by a body containing `needle`.
bool Succeeded(const Reply& reply, std::string_view needle) {
  return reply.has_value() && reply->ok() &&
         udc::StartsWith(**reply, "ok:") &&
         (*reply)->find(needle) != std::string::npos;
}

class LifecycleWorkload : public Workload {
 public:
  LifecycleWorkload(uint64_t seed, const Sizes& sizes)
      : seed_(seed), window_(sizes.window) {
    udc::Rng rng(seed);
    apps_.push_back(udc::MedicalAppUdcl());
    for (const udc::AppSpec& spec : MicroserviceCatalog(rng)) {
      apps_.push_back(FromCatalog(spec));
    }

    cloud_ = MakeCloud(seed, sizes, /*env_store=*/false);
    udc::Topology& topology = cloud_->datacenter().topology();
    frontend_ = std::make_unique<udc::CloudFrontend>(
        cloud_.get(), topology.AddNode(0, udc::NodeRole::kServer));
    // One client node per tenant that can be alive at once.
    for (int i = 0; i < window_ + 2; ++i) {
      free_nodes_.push_back(topology.AddNode(0, udc::NodeRole::kServer));
    }
  }

  udc::UdcCloud& cloud() override { return *cloud_; }

  DeployResult Step(int64_t index, SimStats* sim,
                    LayerTimers* timers) override {
    const std::string& udcl =
        apps_[Mix64(seed_ ^ static_cast<uint64_t>(index)) % apps_.size()];
    if (timers != nullptr) {
      const Clock::time_point probe_start = Clock::now();
      {
        LayerTimer timer(&timers->parse_us);
        (void)udc::ParseAppSpec(udcl);
      }
      timers->probe_us += MicrosSince(probe_start);
    }

    Tenant tenant;
    tenant.id = cloud_->RegisterTenant(
        udc::StrFormat("t%lld", static_cast<long long>(index)));
    tenant.node = free_nodes_.back();
    free_nodes_.pop_back();
    tenant.client = std::make_unique<udc::TenantClient>(
        cloud_->sim(), &cloud_->fabric(), tenant.node, frontend_->node(),
        tenant.id);

    DeployResult result;
    Reply deployed;
    const Clock::time_point start = Clock::now();
    tenant.client->Deploy(udcl, [&deployed](udc::Result<std::string> r) {
      deployed = std::move(r);
    });
    if (timers != nullptr) {
      // The frontend parses and places the app inside the kernel event that
      // delivers the request: step until its handler has run.
      LayerTimer timer(&timers->deploy_us);
      const size_t before = frontend_->live_deployments();
      while (!deployed.has_value() &&
             frontend_->live_deployments() == before && cloud_->sim()->Step()) {
      }
    }
    {
      LayerTimer timer(timers != nullptr ? &timers->drain_us : nullptr);
      cloud_->sim()->RunToCompletion();
    }
    result.deploy_us = MicrosSince(start);

    uint64_t id = 0;
    udc::Deployment* deployment =
        Succeeded(deployed, "") &&
                udc::ParseUint64(std::string_view(**deployed).substr(3), &id)
            ? frontend_->FindDeployment(id)
            : nullptr;
    ++sim->attempted;
    MixDeploy(&sim->fingerprint, deployment);
    result.admitted = deployment != nullptr;
    if (!result.admitted) {
      ++sim->rejected;
      result.as_expected = false;
      free_nodes_.push_back(tenant.node);
      return result;
    }
    sim->start_ms.Add(StartMillis(*deployment));

    bool ok = true;
    udc::DagRuntime runtime(cloud_->sim(), deployment);
    for (int i = 0; i < kInvocations; ++i) {
      udc::Result<udc::RunReport> report = [&] {
        LayerTimer timer(timers != nullptr ? &timers->invoke_us : nullptr);
        return runtime.RunOnce();
      }();
      ok = ok && report.ok();
      if (report.ok()) {
        sim->invoke_ms.Add(report->end_to_end.millis());
      }
    }

    const uint64_t quotes_before = cloud_->attestation().quotes_issued();
    const Reply verified = RoundTrip(
        [&](Callback done) { tenant.client->Verify(id, std::move(done)); },
        timers != nullptr ? &timers->verify_us : nullptr);
    ok = ok && Succeeded(verified, "overall: ALL PASS");
    if (timers != nullptr) {
      ++timers->verifies;
      timers->quotes_issued +=
          cloud_->attestation().quotes_issued() - quotes_before;
    }
    const Reply billed = RoundTrip(
        [&](Callback done) { tenant.client->Bill(id, std::move(done)); },
        timers != nullptr ? &timers->bill_us : nullptr);
    ok = ok && Succeeded(billed, "TOTAL");

    const udc::SimTime now = cloud_->sim()->now();
    sim->usd_sum += cloud_->billing()
                        .BillFor(*deployment, now, now + udc::SimTime::Hours(1))
                        .total.dollars();
    ++sim->usd_count;
    if (timers != nullptr && index % kProbeEvery == 0) {
      ProbeNextStart(*cloud_, *deployment, timers);
    }

    tenant.deployment = id;
    live_.push_back(std::move(tenant));
    while (static_cast<int>(live_.size()) > window_) {
      ok = TeardownOldest(timers) && ok;
    }
    result.as_expected = ok;
    return result;
  }

  void Drain(std::vector<std::string>* errors) override {
    bool released = true;
    while (!live_.empty()) {
      released = TeardownOldest(nullptr) && released;
    }
    cloud_->sim()->RunToCompletion();
    if (!released || frontend_->live_deployments() != 0) {
      errors->push_back("tenant_lifecycle: teardown RPCs left deployments");
    }
    CheckDrained(*cloud_, "tenant_lifecycle", errors);
  }

 private:
  struct Tenant {
    udc::TenantId id;
    udc::NodeId node;
    std::unique_ptr<udc::TenantClient> client;
    uint64_t deployment = 0;
  };

  // Issues one RPC through `call` and drains the simulation.
  Reply RoundTrip(const std::function<void(Callback)>& call,
                  udc::Histogram* sink) {
    Reply reply;
    LayerTimer timer(sink);
    call([&reply](udc::Result<std::string> r) { reply = std::move(r); });
    cloud_->sim()->RunToCompletion();
    return reply;
  }

  bool TeardownOldest(LayerTimers* timers) {
    Tenant& oldest = live_.front();
    const Reply released = RoundTrip(
        [&](Callback done) {
          oldest.client->Teardown(oldest.deployment, std::move(done));
        },
        timers != nullptr ? &timers->teardown_us : nullptr);
    free_nodes_.push_back(oldest.node);
    live_.pop_front();
    return Succeeded(released, "released");
  }

  const uint64_t seed_;
  const int window_;
  std::vector<std::string> apps_;
  std::unique_ptr<udc::UdcCloud> cloud_;
  std::unique_ptr<udc::CloudFrontend> frontend_;
  std::vector<udc::NodeId> free_nodes_;
  // Declared last: clients unbind from the fabric before the cloud dies.
  std::deque<Tenant> live_;
};

}  // namespace

std::unique_ptr<Workload> MakeLifecycleWorkload(uint64_t seed,
                                                const Sizes& sizes) {
  return std::make_unique<LifecycleWorkload>(seed, sizes);
}

}  // namespace udcbench
