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

Status FulfillmentVerifier::CheckResources(Deployment* deployment,
                                           const Placement& placement,
                                           const AspectSet& aspects) {
  const ResourceUnit* unit = deployment->FindUnit(placement.unit);
  if (unit == nullptr) {
    return FailedPreconditionError("no resource unit");
  }
  // For each device an allocation holds slices on, fetch that device's
  // signed ledger row for this tenant and check the quoted amount covers
  // the allocation's slices there. The row may aggregate this tenant's
  // other units on the device, so it must be at least, not equal to, the
  // slices.
  for (const PoolAllocation& alloc : unit->allocations) {
    const ResourcePool* pool = deployment->datacenter()->PoolById(alloc.pool);
    if (pool == nullptr) {
      return FailedPreconditionError("allocation names an unknown pool");
    }
    const std::string_view kind = ResourceKindName(pool->resource_kind());
    // The allocation's holding per device: slices on one device add up.
    std::vector<AllocationSlice> held;
    for (const AllocationSlice& slice : alloc.slices) {
      const auto same = std::find_if(
          held.begin(), held.end(),
          [&slice](const AllocationSlice& h) { return h.device == slice.device; });
      if (same == held.end()) {
        held.push_back(slice);
      } else {
        same->amount += slice.amount;
      }
    }
    for (const AllocationSlice& holding : held) {
      const DeviceId device = holding.device;
      UDC_ASSIGN_OR_RETURN(
          const Quote quote,
          attestation_->QuoteResource(*pool, device, deployment->tenant()));
      UDC_ASSIGN_OR_RETURN(const int64_t quoted,
                           ParseResourceReport(quote.report));
      if (quote.signer_device != device.value()) {
        return VerificationFailedError("resource quote signed by another device");
      }
      // The claim is re-rendered from what the user knows (device, kind,
      // tenant) plus the quoted amount, so only the amount is taken on
      // the quote's word, and then checked against the holding.
      UDC_RETURN_IF_ERROR(verifier_.VerifyClaim(
          quote, ResourceReport(device.value(), kind,
                                deployment->tenant().value(), quoted)));
      if (quoted < holding.amount) {
        return VerificationFailedError(StrFormat(
            "device %llu quotes %lld of %lld %s",
            static_cast<unsigned long long>(device.value()),
            static_cast<long long>(quoted),
            static_cast<long long>(holding.amount),
            std::string(kind).c_str()));
      }
    }
  }
  (void)aspects;
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

Result<ModuleVerification> FulfillmentVerifier::VerifyModule(
    Deployment* deployment, ModuleId module) {
  const Placement* placement = deployment->PlacementOf(module);
  if (placement == nullptr) {
    return Status(NotFoundError("module has no placement"));
  }
  const AspectSet aspects = deployment->spec().AspectsFor(module);

  ModuleVerification v;
  v.module = module;
  v.name = placement->name;

  if (placement->kind == ModuleKind::kTask) {
    // Environment verification is only possible (and only promised by the
    // paper) for user-verifiable isolation levels.
    if (aspects.exec.defined && UserVerifiable(aspects.exec.isolation)) {
      v.env_checked = true;
      const Status s = CheckEnvironment(deployment, *placement, aspects);
      v.env_ok = s.ok();
      if (!s.ok()) {
        v.detail += s.ToString() + "; ";
      }
    }
    v.resources_checked = true;
    const Status rs = CheckResources(deployment, *placement, aspects);
    v.resources_ok = rs.ok();
    if (!rs.ok()) {
      v.detail += rs.ToString() + "; ";
    }
  } else {
    v.resources_checked = true;
    const Status rs = CheckResources(deployment, *placement, aspects);
    v.resources_ok = rs.ok();
    if (!rs.ok()) {
      v.detail += rs.ToString() + "; ";
    }
    if (aspects.dist.defined && aspects.dist.replication_factor > 1) {
      v.replication_checked = true;
      const Status ps = CheckReplication(deployment, *placement, aspects);
      v.replication_ok = ps.ok();
      if (!ps.ok()) {
        v.detail += ps.ToString() + "; ";
      }
    }
  }
  sim_->metrics().IncrementCounter("verify.modules_checked");
  return v;
}

Result<VerificationReport> FulfillmentVerifier::VerifyDeployment(
    Deployment* deployment) {
  VerificationReport report;
  for (const ModuleId module : deployment->spec().graph.ModuleIds()) {
    UDC_ASSIGN_OR_RETURN(ModuleVerification v,
                         VerifyModule(deployment, module));
    report.all_ok = report.all_ok && v.AllChecksPassed();
    report.modules.push_back(std::move(v));
  }
  return report;
}

}  // namespace udc
