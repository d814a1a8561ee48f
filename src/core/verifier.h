// User-side fulfillment verification (paper sec. 4).
//
// "UDC must enable users to verify that the cloud vendor is correctly
// providing their selected features ... through comprehensive remote
// attestation primitives ... by just trusting the hardware itself."
//
// The verifier holds only the vendor root key. For each module it checks:
//   - environment: the quoted measurement/isolation/tenancy matches the
//     exec-env aspect (only for user-verifiable isolation levels);
//   - resources: one quote per device the deployment holds slices on,
//     covering all of it. The deployment's slices on a device are summed
//     across its modules, the device signs the amount its own ledger
//     records for the tenant, and that amount must cover the sum (the
//     paper's open problem, solved with device-local ledgers). A module's
//     resources pass when every device its slices sit on does;
//   - replication: one valid replica quote from a distinct device per
//     declared replica.

#ifndef UDC_SRC_CORE_VERIFIER_H_
#define UDC_SRC_CORE_VERIFIER_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/attest/attestation_service.h"
#include "src/core/deployment.h"

namespace udc {

struct ModuleVerification {
  ModuleId module;
  std::string name;
  bool env_checked = false;     // false = not applicable (trust provider)
  bool env_ok = false;
  bool resources_checked = false;
  bool resources_ok = false;
  bool replication_checked = false;
  bool replication_ok = false;
  std::string detail;

  bool AllChecksPassed() const {
    return (!env_checked || env_ok) && (!resources_checked || resources_ok) &&
           (!replication_checked || replication_ok);
  }
};

struct VerificationReport {
  std::vector<ModuleVerification> modules;
  bool all_ok = true;

  std::string Table() const;
};

class FulfillmentVerifier {
 public:
  // `vendor_root` is the hardware vendor's key — the user's only trust
  // anchor. `attestation` plays the provider issuing quotes on request.
  FulfillmentVerifier(Simulation* sim, const Key256& vendor_root,
                      AttestationService* attestation);

  // Verifies every module of the deployment against its aspects.
  Result<VerificationReport> VerifyDeployment(Deployment* deployment);

  // Verifies one module, as the continuous auditor does. Its devices are
  // checked against everything the deployment holds on them, the rule
  // VerifyDeployment applies; only the module's own devices are quoted.
  Result<ModuleVerification> VerifyModule(Deployment* deployment,
                                          ModuleId module);

 private:
  // What the deployment holds on one device, summed over the slices of all
  // its modules, and the device's verdict once quoted.
  struct DeviceHolding {
    int64_t amount = 0;
    std::optional<Status> verdict;
  };
  using Holdings = std::map<std::pair<PoolId, DeviceId>, DeviceHolding>;

  static Holdings HoldingsOf(Deployment* deployment);
  Result<ModuleVerification> Check(Deployment* deployment, ModuleId module,
                                   Holdings* holdings);
  Status CheckEnvironment(Deployment* deployment, const Placement& placement,
                          const AspectSet& aspects);
  Status CheckResources(Deployment* deployment, const Placement& placement,
                        Holdings* holdings);
  Status CheckHolding(Deployment* deployment, PoolId pool_id, DeviceId device,
                      int64_t held);
  Status CheckReplication(Deployment* deployment, const Placement& placement,
                          const AspectSet& aspects);

  Simulation* sim_;
  QuoteVerifier verifier_;
  AttestationService* attestation_;
  // Interned on the first check, so a cloud that never verifies publishes
  // no verify series.
  CounterHandle modules_checked_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_VERIFIER_H_
