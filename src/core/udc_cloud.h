// UdcCloud: the top-level facade — "the cloud" a UDC user talks to.
//
// Assembles the full provider stack (simulation, disaggregated datacenter,
// fabric, switch programs, environment manager, attestation, scheduler,
// billing) behind a small API:
//
//   UdcCloud cloud(UdcCloudConfig{});
//   TenantId hospital = cloud.RegisterTenant("hospital");
//   auto spec = ParseAppSpec(udcl_text);
//   auto deployment = cloud.Deploy(hospital, *spec);
//   DagRuntime runtime(cloud.sim(), deployment->get());
//   auto report = runtime.RunOnce();
//   auto verification = cloud.Verify(deployment->get());
//   Bill bill = cloud.billing().BillToNow(**deployment);
//
// This is the API the examples/ directory exercises.

#ifndef UDC_SRC_CORE_UDC_CLOUD_H_
#define UDC_SRC_CORE_UDC_CLOUD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/billing.h"
#include "src/core/cell_router.h"
#include "src/core/region_router.h"
#include "src/core/runtime.h"
#include "src/core/scheduler.h"
#include "src/core/verifier.h"
#include "src/hw/failure.h"

namespace udc {

struct UdcCloudConfig {
  uint64_t seed = 42;
  DatacenterConfig datacenter;
  SchedulerConfig scheduler;
  BillingConfig billing;
  // Content-addressed warm-environment store (src/exec/env_store.h).
  // Disabled by default: the legacy (kind, tenant) pool is the
  // differential oracle the store is gated against.
  EnvStoreConfig env_store;
  // Default WAN link between regions (applies only when
  // DatacenterConfig::regions > 0; per-link overrides via
  // fabric().SetWanLink). Asymmetric routes get their params per direction.
  WanLinkParams wan;
  std::string vendor_key_seed = "udc-vendor-root-v1";
};

class UdcCloud {
 public:
  explicit UdcCloud(const UdcCloudConfig& config = UdcCloudConfig());

  UdcCloud(const UdcCloud&) = delete;
  UdcCloud& operator=(const UdcCloud&) = delete;

  // --- Tenant lifecycle.
  TenantId RegisterTenant(const std::string& name);
  const std::string& TenantName(TenantId id) const;

  // --- Deployment. With DatacenterConfig::cells > 0 deploys route through
  // the hierarchical control plane (CellRouter over per-cell schedulers);
  // otherwise the single scheduler places directly.
  Result<std::unique_ptr<Deployment>> Deploy(TenantId tenant,
                                             const AppSpec& spec);
  // Shared-spec overload: the deployment references the caller's immutable
  // spec instead of copying it — the cheap path when one catalog spec is
  // deployed for many tenants (keep the spec alive and unchanged while
  // deployments reference it).
  Result<std::unique_ptr<Deployment>> Deploy(
      TenantId tenant, std::shared_ptr<const AppSpec> spec);
  // Batched deploy: demands resolved and racks scored once per batch.
  // Each spec commits/aborts its own placement transaction; results are
  // positional.
  std::vector<Result<std::unique_ptr<Deployment>>> DeployAll(
      TenantId tenant, const std::vector<const AppSpec*>& specs);

  // --- Verification (user side: trusts only the vendor key).
  Result<VerificationReport> Verify(Deployment* deployment);

  // --- Component access.
  Simulation* sim() { return &sim_; }
  DisaggregatedDatacenter& datacenter() { return datacenter_; }
  Fabric& fabric() { return fabric_; }
  EnvManager& envs() { return env_manager_; }
  AttestationService& attestation() { return attestation_; }
  UdcScheduler& scheduler() { return scheduler_; }
  // Non-null only when the datacenter is cell-partitioned.
  CellRouter* cell_router() { return cell_router_.get(); }
  // Non-null only when the datacenter is region-partitioned; when set it
  // is the deploy entry point (above the cells path).
  RegionRouter* region_router() { return region_router_.get(); }
  BillingEngine& billing() { return billing_; }
  FailureInjector& failures() { return failure_injector_; }
  SwitchSequencer& sequencer() { return sequencer_; }
  const PriceList& prices() const { return prices_; }
  const Key256& vendor_root() const { return vendor_root_; }

 private:
  Simulation sim_;
  DisaggregatedDatacenter datacenter_;
  Fabric fabric_;
  SwitchSequencer sequencer_;
  EnvManager env_manager_;
  Key256 vendor_root_;
  AttestationService attestation_;
  PriceList prices_;
  UdcScheduler scheduler_;
  std::unique_ptr<CellRouter> cell_router_;  // only when cells > 0
  std::unique_ptr<RegionRouter> region_router_;  // only when regions > 0
  BillingEngine billing_;
  FailureInjector failure_injector_;
  FulfillmentVerifier verifier_;
  std::vector<std::string> tenant_names_;
  IdGenerator<TenantId> tenant_ids_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_UDC_CLOUD_H_
