#include "src/core/verifier.h"

#include <algorithm>

#include "src/common/strings.h"

namespace udc {

std::string VerificationReport::Table() const {
  std::string out = StrFormat("%-8s %-12s %-12s %-12s\n", "module", "env",
                              "resources", "replication");
  auto cell = [](bool checked, bool ok) {
    return checked ? (ok ? "PASS" : "FAIL") : "n/a";
  };
  for (const ModuleVerification& v : modules) {
    out += StrFormat("%-8s %-12s %-12s %-12s\n", v.name.c_str(),
                     cell(v.env_checked, v.env_ok),
                     cell(v.resources_checked, v.resources_ok),
                     cell(v.replication_checked, v.replication_ok));
  }
  out += StrFormat("overall: %s\n", all_ok ? "ALL PASS" : "FAILURES");
  return out;
}

FulfillmentVerifier::FulfillmentVerifier(Simulation* sim,
                                         const Key256& vendor_root,
                                         AttestationService* attestation)
    : sim_(sim), verifier_(vendor_root), attestation_(attestation) {}

Status FulfillmentVerifier::CheckEnvironment(Deployment* deployment,
                                             const Placement& placement,
                                             const AspectSet& aspects) {
  const ResourceUnit* unit = deployment->FindUnit(placement.unit);
  if (unit == nullptr || unit->env == nullptr) {
    return FailedPreconditionError("no environment to verify");
  }
  UDC_ASSIGN_OR_RETURN(const Quote quote,
                       attestation_->QuoteEnvironment(*unit->env));
  // Rebuild the expected claim from the *user's* knowledge: their aspect and
  // the environment parameters the provider reported out-of-band.
  const std::string expected = EnvironmentReport(
      unit->env->measurement(), IsolationLevelName(unit->env->isolation()),
      unit->env->tenancy() == TenancyMode::kSingleTenant ? "single" : "shared",
      deployment->tenant().value());
  UDC_RETURN_IF_ERROR(verifier_.VerifyClaim(quote, expected));
  // The quoted isolation must be at least what the user asked for.
  if (aspects.exec.defined &&
      static_cast<int>(unit->env->isolation()) <
          static_cast<int>(aspects.exec.isolation)) {
    return VerificationFailedError(StrFormat(
        "isolation downgrade: wanted %s got %s",
        std::string(IsolationLevelName(aspects.exec.isolation)).c_str(),
        std::string(IsolationLevelName(unit->env->isolation())).c_str()));
  }
  return OkStatus();
}

FulfillmentVerifier::Holdings FulfillmentVerifier::HoldingsOf(
    Deployment* deployment) {
  Holdings holdings;
  for (const ResourceUnit* unit : deployment->units()) {
    for (const PoolAllocation& alloc : unit->allocations) {
      for (const AllocationSlice& slice : alloc.slices) {
        holdings[{alloc.pool, slice.device}].amount += slice.amount;
      }
    }
  }
  return holdings;
}

Status FulfillmentVerifier::CheckResources(Deployment* deployment,
                                           const Placement& placement,
                                           Holdings* holdings) {
  const ResourceUnit* unit = deployment->FindUnit(placement.unit);
  if (unit == nullptr) {
    return FailedPreconditionError("no resource unit");
  }
  // The module passes when every device its slices sit on passes. Each
  // device is quoted the first time any module asks, and its verdict holds
  // for every module with slices there.
  for (const PoolAllocation& alloc : unit->allocations) {
    for (const AllocationSlice& slice : alloc.slices) {
      DeviceHolding& holding = (*holdings)[{alloc.pool, slice.device}];
      if (!holding.verdict.has_value()) {
        holding.verdict =
            CheckHolding(deployment, alloc.pool, slice.device, holding.amount);
      }
      if (!holding.verdict->ok()) {
        return *holding.verdict;
      }
    }
  }
  return OkStatus();
}

Status FulfillmentVerifier::CheckHolding(Deployment* deployment,
                                         PoolId pool_id, DeviceId device,
                                         int64_t held) {
  const ResourcePool* pool = deployment->datacenter()->PoolById(pool_id);
  if (pool == nullptr) {
    return FailedPreconditionError("allocation names an unknown pool");
  }
  const std::string_view kind = ResourceKindName(pool->resource_kind());
  // The device's signed ledger row for this tenant must cover everything
  // the deployment holds there. The row may also count the tenant's other
  // deployments on the device, so it must be at least, not equal to, the
  // holding.
  UDC_ASSIGN_OR_RETURN(
      const Quote quote,
      attestation_->QuoteResource(*pool, device, deployment->tenant()));
  UDC_ASSIGN_OR_RETURN(const int64_t quoted, ParseResourceReport(quote.report));
  if (quote.signer_device != device.value()) {
    return VerificationFailedError("resource quote signed by another device");
  }
  // The claim is re-rendered from what the user knows (device, kind,
  // tenant) plus the quoted amount, so only the amount is taken on the
  // quote's word, and then checked against the holding.
  UDC_RETURN_IF_ERROR(verifier_.VerifyClaim(
      quote, ResourceReport(device.value(), kind, deployment->tenant().value(),
                            quoted)));
  if (quoted < held) {
    return VerificationFailedError(StrFormat(
        "device %llu quotes %lld of the %lld %s the deployment holds there",
        static_cast<unsigned long long>(device.value()),
        static_cast<long long>(quoted), static_cast<long long>(held),
        std::string(kind).c_str()));
  }
  return OkStatus();
}

Status FulfillmentVerifier::CheckReplication(Deployment* deployment,
                                             const Placement& placement,
                                             const AspectSet& aspects) {
  const int declared = aspects.dist.replication_factor;
  if (static_cast<int>(placement.replica_devices.size()) < declared) {
    return VerificationFailedError(
        StrFormat("only %zu replicas placed, %d declared",
                  placement.replica_devices.size(), declared));
  }
  const std::vector<DeviceId>& devices = placement.replica_devices;
  int valid = 0;
  for (auto device = devices.begin(); device != devices.end(); ++device) {
    // A device listed again holds the same copy: it counts once.
    if (std::find(devices.begin(), device, *device) != device) {
      continue;
    }
    UDC_ASSIGN_OR_RETURN(const Quote quote,
                         attestation_->QuoteReplica(device->value(),
                                                    placement.name,
                                                    deployment->tenant()));
    UDC_RETURN_IF_ERROR(verifier_.VerifyClaim(
        quote, ReplicationReport(placement.name, device->value(),
                                 deployment->tenant().value())));
    ++valid;
  }
  if (valid < declared) {
    return VerificationFailedError(
        StrFormat("%d distinct replica devices quoted, %d declared", valid,
                  declared));
  }
  return OkStatus();
}

Result<ModuleVerification> FulfillmentVerifier::Check(Deployment* deployment,
                                                      ModuleId module,
                                                      Holdings* holdings) {
  const Placement* placement = deployment->PlacementOf(module);
  if (placement == nullptr) {
    return Status(NotFoundError("module has no placement"));
  }
  const AspectSet aspects = deployment->spec().AspectsFor(module);

  ModuleVerification v;
  v.module = module;
  v.name = placement->name;
  const auto record = [&v](const Status& s, bool* ok) {
    *ok = s.ok();
    if (!s.ok()) {
      v.detail += s.ToString() + "; ";
    }
  };
  const bool task = placement->kind == ModuleKind::kTask;
  // Environment verification is only possible (and only promised by the
  // paper) for user-verifiable isolation levels.
  if (task && aspects.exec.defined && UserVerifiable(aspects.exec.isolation)) {
    v.env_checked = true;
    record(CheckEnvironment(deployment, *placement, aspects), &v.env_ok);
  }
  v.resources_checked = true;
  record(CheckResources(deployment, *placement, holdings), &v.resources_ok);
  if (!task && aspects.dist.defined && aspects.dist.replication_factor > 1) {
    v.replication_checked = true;
    record(CheckReplication(deployment, *placement, aspects),
           &v.replication_ok);
  }
  if (!modules_checked_.valid()) {
    modules_checked_ = sim_->metrics().CounterSeries("verify.modules_checked");
  }
  sim_->metrics().Increment(modules_checked_);
  return v;
}

Result<ModuleVerification> FulfillmentVerifier::VerifyModule(
    Deployment* deployment, ModuleId module) {
  Holdings holdings = HoldingsOf(deployment);
  return Check(deployment, module, &holdings);
}

Result<VerificationReport> FulfillmentVerifier::VerifyDeployment(
    Deployment* deployment) {
  Holdings holdings = HoldingsOf(deployment);
  VerificationReport report;
  for (const ModuleId module : deployment->spec().graph.ModuleIds()) {
    UDC_ASSIGN_OR_RETURN(ModuleVerification v,
                         Check(deployment, module, &holdings));
    report.all_ok = report.all_ok && v.AllChecksPassed();
    report.modules.push_back(std::move(v));
  }
  return report;
}

}  // namespace udc
