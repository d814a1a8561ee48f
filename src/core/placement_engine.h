// The placement engine: the one factory for placement transactions.
//
// Owns the wiring (datacenter pools, env manager, attestation service) a
// PlacementTxn needs and the observability around transactions: interned
// core.txn_committed / core.txn_aborted / core.txn_ops_staged /
// core.txn_ops_undone counters and a sched.txn span per transaction whose
// labels carry the purpose and the staged/undone op counts — so abort
// storms under pool pressure show up directly in the Prometheus and
// Chrome-trace exports.
//
// The region router owns the one engine: deploys, repair, defrag and tuning
// all open their transactions on RegionRouter::engine().

#ifndef UDC_SRC_CORE_PLACEMENT_ENGINE_H_
#define UDC_SRC_CORE_PLACEMENT_ENGINE_H_

#include <map>
#include <string>
#include <string_view>

#include "src/attest/attestation_service.h"
#include "src/core/placement_txn.h"
#include "src/exec/env_manager.h"
#include "src/hw/datacenter.h"
#include "src/sim/simulation.h"

namespace udc {

// Releases `allocation` back to its owning pool, found by id. This is the
// one non-transactional release path — deployment teardown and
// failed-device cleanup, where the release is unconditional — and the
// helper a committing transaction releases through. Everything conditional
// goes through PlacementTxn.
Status ReleasePoolAllocation(DisaggregatedDatacenter* datacenter,
                             const PoolAllocation& allocation);

class PlacementEngine {
 public:
  PlacementEngine(Simulation* sim, DisaggregatedDatacenter* datacenter,
                  EnvManager* env_manager, AttestationService* attestation);

  PlacementEngine(const PlacementEngine&) = delete;
  PlacementEngine& operator=(const PlacementEngine&) = delete;

  // Opens a transaction. `purpose` labels the sched.txn span ("deploy",
  // "repair_task", "defrag", ...); label sets are interned per purpose, so
  // the per-transaction span costs no label construction.
  PlacementTxn Begin(std::string_view purpose);

  Simulation* sim() { return sim_; }
  DisaggregatedDatacenter* datacenter() { return datacenter_; }
  EnvManager* env_manager() { return env_manager_; }
  AttestationService* attestation() { return attestation_; }

 private:
  friend class PlacementTxn;

  // Metrics + span close for a transaction reaching Commit or Abort.
  void NoteClosed(const PlacementTxn& txn, bool committed);
  uint32_t PurposeLabelSet(std::string_view purpose);

  Simulation* sim_;
  DisaggregatedDatacenter* datacenter_;
  EnvManager* env_manager_;
  AttestationService* attestation_;

  // Interned span label sets, one per distinct purpose string.
  std::map<std::string, uint32_t, std::less<>> purpose_sets_;

  CounterHandle txn_committed_;
  CounterHandle txn_aborted_;
  CounterHandle txn_ops_staged_;
  CounterHandle txn_ops_undone_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_PLACEMENT_ENGINE_H_
