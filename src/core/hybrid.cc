#include "src/core/hybrid.h"

namespace udc {

Money HybridDeployment::HourlyCost(const BillingEngine& billing,
                                   const IaasCloud& iaas) const {
  if (path == HybridPath::kUdc && udc != nullptr) {
    return billing.BillFor(*udc, SimTime(0), SimTime::Hours(1)).total;
  }
  Money total;
  for (const IaasInstance& instance : instances) {
    total += iaas.BillFor(instance, SimTime::Hours(1));
  }
  return total;
}

HybridDeployer::HybridDeployer(UdcCloud* cloud, IaasCloud* iaas)
    : cloud_(cloud), iaas_(iaas) {}

Result<HybridDeployment> HybridDeployer::Deploy(TenantId tenant,
                                                const AppSpec& spec) {
  HybridDeployment result;
  auto udc_attempt = cloud_->Deploy(tenant, spec);
  if (udc_attempt.ok()) {
    result.path = HybridPath::kUdc;
    result.udc = std::move(*udc_attempt);
    ++udc_deploys_;
    return result;
  }
  if (udc_attempt.status().code() != StatusCode::kResourceExhausted) {
    return udc_attempt.status();
  }

  // Fallback: one cheapest-fitting instance per module, from the resolved
  // demands (the user's aspects still decide *what* is needed; only the
  // packaging becomes coarse). IaaS instances are outside the engine's
  // managed resources, so each launch stages a custom terminate-undo: a
  // partial fallback aborts as one unit.
  DryRunProfiler profiler(&cloud_->datacenter(), &cloud_->prices());
  result.path = HybridPath::kIaas;
  PlacementTxn txn = cloud_->region_router()->engine().Begin("hybrid_iaas");
  for (const ModuleId module : spec.graph.ModuleIds()) {
    const Module* m = spec.graph.Find(module);
    const AspectSet aspects = spec.AspectsFor(module);
    UDC_ASSIGN_OR_RETURN(const ResolvedDemand resolved,
                         ResolveDemand(*m, aspects.resource, profiler));
    ResourceVector demand = resolved.demand;
    // Instances offer no NVM/HDD tiers; fold storage into SSD. FPGA-shaped
    // demands land on GPU instances (the closest accelerator the catalog
    // sells).
    demand.Add(ResourceKind::kSsd, demand.Get(ResourceKind::kNvm) +
                                       demand.Get(ResourceKind::kHdd));
    demand.Set(ResourceKind::kNvm, 0);
    demand.Set(ResourceKind::kHdd, 0);
    demand.Add(ResourceKind::kGpu, demand.Get(ResourceKind::kFpga));
    demand.Set(ResourceKind::kFpga, 0);
    auto instance = iaas_->LaunchForDemand(tenant, demand);
    if (!instance.ok()) {
      txn.Abort();  // terminates the instances launched so far
      return instance.status();
    }
    txn.StageUndo([iaas = iaas_, id = instance->id] {
      (void)iaas->Terminate(id);
    });
    result.instances.push_back(*std::move(instance));
  }
  (void)txn.Commit();
  ++iaas_fallbacks_;
  return result;
}

}  // namespace udc
