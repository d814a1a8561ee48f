// Placement transactions.
//
// Every control-plane service that mutates placement state — the scheduler,
// the repair service, the defragmenter, the adaptive tuner, the hybrid
// deployer — stages its mutations through a PlacementTxn opened on the
// region router's engine instead of calling the pools / env manager /
// attestation service directly. A transaction has two phases:
//
//   Plan:    Allocate / Launch / Provision apply their side effect
//            immediately and stage the inverse op; StageRelease / StageStop
//            stage a commit-time op (applied only on Commit, so an
//            "allocate new, release old" swap never destroys the old state
//            until the new state is certain).
//   Commit:  applies the staged commit-time ops in staging order, drops the
//            undo log.
//   Abort:   applies the undo log in reverse staging order — pool slices
//            return to their devices, launched environments are cancelled
//            (refunding any warm slot they consumed), attestation
//            identities are retired — and drops the commit-time ops.
//
// Open transactions abort on destruction, so an early return from a
// placement path can never strand partially-acquired resources. The engine
// (placement_engine.h) emits core.txn_* metrics and a sched.txn span per
// transaction.

#ifndef UDC_SRC_CORE_PLACEMENT_TXN_H_
#define UDC_SRC_CORE_PLACEMENT_TXN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/exec/env_manager.h"
#include "src/hw/pool.h"

namespace udc {

class PlacementEngine;

class PlacementTxn {
 public:
  enum class State { kOpen, kCommitted, kAborted };

  PlacementTxn(const PlacementTxn&) = delete;
  PlacementTxn& operator=(const PlacementTxn&) = delete;
  PlacementTxn(PlacementTxn&& other) noexcept;
  PlacementTxn& operator=(PlacementTxn&&) = delete;
  ~PlacementTxn();  // aborts if still open

  // --- Plan phase: undoable ops (valid only while open). -----------------

  // Reserves `amount` from the pool of `kind`; released again on abort.
  Result<PoolAllocation> Allocate(DeviceKind kind, TenantId tenant,
                                  int64_t amount,
                                  const AllocationConstraints& constraints);
  // Grows/shrinks `allocation` in place; undone by the opposite resize.
  // `allocation` must outlive the transaction.
  Status Resize(ResourcePool* pool, PoolAllocation& allocation, int64_t delta);

  // Launches an environment through the engine's EnvManager; cancelled on
  // abort (EnvManager::CancelLaunch refunds the warm slot a warm launch
  // consumed, so the warm pool is restored exactly).
  ExecEnvironment* Launch(TenantId tenant, NodeId node,
                          const LaunchOptions& options,
                          std::function<void(ExecEnvironment*)> on_ready);

  // Provisions an attestation identity; retired on abort.
  void Provision(uint64_t identity);

  // Arbitrary undo hook for resources the engine does not manage (the
  // hybrid deployer's IaaS instances). Runs on abort only.
  void StageUndo(std::function<void()> undo);

  // --- Plan phase: commit-time ops. --------------------------------------

  // Releases `allocation` back to its pool at Commit; dropped on abort.
  void StageRelease(PoolAllocation allocation);
  // Stops `env` at Commit; dropped on abort (the environment keeps running).
  void StageStop(ExecEnvironment* env, bool keep_warm = false);

  // --- Close phase. -------------------------------------------------------

  // Applies commit-time ops in staging order. Returns the first error any
  // of them produced (the transaction still closes as committed).
  Status Commit();
  // Applies the undo log in reverse staging order. Idempotent.
  void Abort();

  // Partial rollback: undoes every op staged at or after `mark` (a value
  // previously read from staged_ops()) in reverse order, drops those ops,
  // and leaves the transaction open. This is how a multi-cell admission
  // aborts one cell's rejected sub-plan — the sub-plan's allocations,
  // launches and provisions are unwound exactly like Abort would, while
  // earlier cells' staged work survives for retry elsewhere or Commit.
  // Commit-time ops inside the range are dropped unapplied.
  void AbortTo(size_t mark);

  State state() const { return state_; }
  // Ops currently staged: the mark AbortTo takes. AbortTo shrinks it.
  size_t staged_ops() const { return ops_.size(); }
  // Every op ever staged, including those AbortTo has since unwound — the
  // count core.txn_ops_staged reports, so undone ops stay a subset of it.
  size_t total_staged_ops() const { return total_staged_; }

 private:
  friend class PlacementEngine;
  PlacementTxn(PlacementEngine* engine, uint64_t span_id);

  struct Op {
    enum class Kind {
      kAllocate,    // undo: release `allocation` from `pool`
      kLaunch,      // undo: CancelLaunch(env)
      kProvision,   // undo: RetireDevice(identity)
      kCustomUndo,  // undo: undo()
      kRelease,     // commit: release `allocation` from `pool`
      kStop,        // commit: Stop(env, keep_warm)
    };
    Kind kind;
    ResourcePool* pool = nullptr;
    PoolAllocation allocation;
    ExecEnvironment* env = nullptr;
    bool keep_warm = false;
    uint64_t identity = 0;
    std::function<void()> undo;
  };

  void UndoOp(Op& op);
  void Stage(Op op);

  PlacementEngine* engine_;  // null after move-from
  uint64_t span_id_ = 0;     // the sched.txn span, closed by Commit/Abort
  State state_ = State::kOpen;
  size_t undone_ops_ = 0;
  size_t total_staged_ = 0;
  std::vector<Op> ops_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_PLACEMENT_TXN_H_
