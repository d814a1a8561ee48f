#include "src/core/placement_engine.h"

#include "src/common/strings.h"

namespace udc {

Status ReleasePoolAllocation(DisaggregatedDatacenter* datacenter,
                             const PoolAllocation& allocation) {
  ResourcePool* pool = datacenter->PoolById(allocation.pool);
  if (pool == nullptr) {
    return NotFoundError("allocation's pool not found");
  }
  return pool->Release(allocation);
}

PlacementEngine::PlacementEngine(Simulation* sim,
                                 DisaggregatedDatacenter* datacenter,
                                 EnvManager* env_manager,
                                 AttestationService* attestation)
    : sim_(sim), datacenter_(datacenter), env_manager_(env_manager),
      attestation_(attestation),
      txn_committed_(sim->metrics().CounterSeries("core.txn_committed")),
      txn_aborted_(sim->metrics().CounterSeries("core.txn_aborted")),
      txn_ops_staged_(sim->metrics().CounterSeries("core.txn_ops_staged")),
      txn_ops_undone_(sim->metrics().CounterSeries("core.txn_ops_undone")) {}

uint32_t PlacementEngine::PurposeLabelSet(std::string_view purpose) {
  const auto it = purpose_sets_.find(purpose);
  if (it != purpose_sets_.end()) {
    return it->second;
  }
  const uint32_t set = sim_->spans().InternLabelSet(
      {{"purpose", std::string(purpose)}});
  purpose_sets_.emplace(std::string(purpose), set);
  return set;
}

PlacementTxn PlacementEngine::Begin(std::string_view purpose) {
  const uint64_t span =
      sim_->spans().BeginWithSet("sched", "sched.txn",
                                 PurposeLabelSet(purpose));
  return PlacementTxn(this, span);
}

Status PlacementEngine::Release(const PoolAllocation& allocation) {
  return ReleasePoolAllocation(datacenter_, allocation);
}

void PlacementEngine::NoteClosed(const PlacementTxn& txn, bool committed) {
  sim_->metrics().Increment(committed ? txn_committed_ : txn_aborted_);
  sim_->metrics().Increment(txn_ops_staged_,
                            static_cast<int64_t>(txn.total_staged_ops()));
  if (txn.undone_ops_ > 0) {
    sim_->metrics().Increment(txn_ops_undone_,
                              static_cast<int64_t>(txn.undone_ops_));
  }
  if (txn.span_id_ != 0) {
    sim_->spans().AddLabel(txn.span_id_, "ops",
                           StrFormat("%zu", txn.total_staged_ops()));
    if (!committed) {
      sim_->spans().AddLabel(txn.span_id_, "undone",
                             StrFormat("%zu", txn.undone_ops_));
    }
    sim_->spans().End(txn.span_id_);
  }
}

}  // namespace udc
