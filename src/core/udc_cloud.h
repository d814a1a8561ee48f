// UdcCloud: the top-level facade — "the cloud" a UDC user talks to.
//
// Assembles the full provider stack (simulation, disaggregated datacenter,
// fabric, environment manager, attestation, the region router that places
// every deploy, billing) behind a small API:
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
  // The one warm pool (src/exec/env_store.h): each tenant's own per kind by
  // default; `share_across_tenants` shares identical images' warm slots
  // across tenants, racks and regions.
  EnvStoreConfig env_store;
};

class UdcCloud {
 public:
  explicit UdcCloud(const UdcCloudConfig& config = UdcCloudConfig());

  UdcCloud(const UdcCloud&) = delete;
  UdcCloud& operator=(const UdcCloud&) = delete;

  // --- Tenant lifecycle.
  TenantId RegisterTenant(const std::string& name);
  const std::string& TenantName(TenantId id) const;

  // --- Deployment. Every deploy goes through the region router's one
  // Deploy call, whatever the topology: a flat datacenter is one region of
  // one cell (see region_router.h for how DatacenterConfig::cells and
  // ::regions collapse the hierarchy). A batch is that many calls.
  //
  // Copies `spec` into the deployment.
  Result<std::unique_ptr<Deployment>> Deploy(TenantId tenant,
                                             const AppSpec& spec);
  // Shared-spec overload: the deployment references the caller's immutable
  // spec instead of copying it — the cheap path when one catalog spec is
  // deployed for many tenants (keep the spec alive and unchanged while
  // deployments reference it).
  Result<std::unique_ptr<Deployment>> Deploy(
      TenantId tenant, std::shared_ptr<const AppSpec> spec);

  // --- Verification (user side: trusts only the vendor key).
  Result<VerificationReport> Verify(Deployment* deployment);

  // --- Component access.
  Simulation* sim() { return &sim_; }
  DisaggregatedDatacenter& datacenter() { return datacenter_; }
  Fabric& fabric() { return fabric_; }
  EnvManager& envs() { return env_manager_; }
  AttestationService& attestation() { return attestation_; }
  // The deploy path; never null.
  RegionRouter* region_router() { return &router_; }
  // perfbench, frozen with the benchmark, spells the retired cells-only name.
  CellRouter* cell_router() { return &router_; }
  BillingEngine& billing() { return billing_; }
  FailureInjector& failures() { return failure_injector_; }
  const PriceList& prices() const { return prices_; }
  const Key256& vendor_root() const { return vendor_root_; }

 private:
  Simulation sim_;
  DisaggregatedDatacenter datacenter_;
  Fabric fabric_;
  EnvManager env_manager_;
  Key256 vendor_root_;
  AttestationService attestation_;
  PriceList prices_;
  RegionRouter router_;
  BillingEngine billing_;
  FailureInjector failure_injector_;
  FulfillmentVerifier verifier_;
  std::vector<std::string> tenant_names_;
  IdGenerator<TenantId> tenant_ids_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_UDC_CLOUD_H_
