#include "src/core/placement_txn.h"

#include <cassert>
#include <utility>

#include "src/core/placement_engine.h"

namespace udc {

PlacementTxn::PlacementTxn(PlacementEngine* engine, uint64_t span_id)
    : engine_(engine), span_id_(span_id) {}

PlacementTxn::PlacementTxn(PlacementTxn&& other) noexcept
    : engine_(other.engine_), span_id_(other.span_id_), state_(other.state_),
      undone_ops_(other.undone_ops_), total_staged_(other.total_staged_),
      ops_(std::move(other.ops_)) {
  other.engine_ = nullptr;  // moved-from: destructor must not abort
  other.span_id_ = 0;
  other.ops_.clear();
}

PlacementTxn::~PlacementTxn() {
  if (engine_ != nullptr && state_ == State::kOpen) {
    Abort();
  }
}

Result<PoolAllocation> PlacementTxn::Allocate(
    DeviceKind kind, TenantId tenant, int64_t amount,
    const AllocationConstraints& constraints) {
  return AllocateFrom(&engine_->datacenter()->pool(kind), tenant, amount,
                      constraints);
}

Result<PoolAllocation> PlacementTxn::AllocateFrom(
    ResourcePool* pool, TenantId tenant, int64_t amount,
    const AllocationConstraints& constraints) {
  assert(state_ == State::kOpen);
  UDC_ASSIGN_OR_RETURN(
      PoolAllocation allocation,
      pool->Allocate(tenant, amount, constraints,
                     engine_->datacenter()->topology()));
  Op op;
  op.kind = Op::Kind::kAllocate;
  op.pool = pool;
  op.allocation = allocation;
  Stage(std::move(op));
  return allocation;
}

Status PlacementTxn::Resize(ResourcePool* pool, PoolAllocation& allocation,
                            int64_t delta) {
  assert(state_ == State::kOpen);
  const Topology& topology = engine_->datacenter()->topology();
  UDC_RETURN_IF_ERROR(pool->Resize(allocation, delta, topology));
  Op op;
  op.kind = Op::Kind::kCustomUndo;
  // Best-effort inverse: a grow shrinks back to at least the original
  // amount; undoing a shrink re-acquires from the devices still held.
  op.undo = [pool, &allocation, delta, &topology] {
    (void)pool->Resize(allocation, -delta, topology);
  };
  Stage(std::move(op));
  return OkStatus();
}

ExecEnvironment* PlacementTxn::Launch(
    TenantId tenant, NodeId node, const LaunchOptions& options,
    std::function<void(ExecEnvironment*)> on_ready) {
  assert(state_ == State::kOpen);
  assert(engine_->env_manager() != nullptr);
  ExecEnvironment* env =
      engine_->env_manager()->Launch(tenant, node, options,
                                     std::move(on_ready));
  Op op;
  op.kind = Op::Kind::kLaunch;
  op.env = env;
  Stage(std::move(op));
  return env;
}

void PlacementTxn::Provision(uint64_t identity) {
  assert(state_ == State::kOpen);
  if (engine_->attestation() == nullptr) {
    return;
  }
  engine_->attestation()->ProvisionDevice(identity);
  Op op;
  op.kind = Op::Kind::kProvision;
  op.identity = identity;
  Stage(std::move(op));
}

void PlacementTxn::StageUndo(std::function<void()> undo) {
  assert(state_ == State::kOpen);
  Op op;
  op.kind = Op::Kind::kCustomUndo;
  op.undo = std::move(undo);
  Stage(std::move(op));
}

void PlacementTxn::StageRelease(PoolAllocation allocation) {
  assert(state_ == State::kOpen);
  Op op;
  op.kind = Op::Kind::kRelease;
  op.allocation = std::move(allocation);
  Stage(std::move(op));
}

void PlacementTxn::StageStop(ExecEnvironment* env, bool keep_warm) {
  assert(state_ == State::kOpen);
  Op op;
  op.kind = Op::Kind::kStop;
  op.env = env;
  op.keep_warm = keep_warm;
  Stage(std::move(op));
}

Status PlacementTxn::Commit() {
  if (state_ != State::kOpen) {
    return FailedPreconditionError("transaction is not open");
  }
  Status status = OkStatus();
  for (Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kRelease: {
        const Status released =
            ReleasePoolAllocation(engine_->datacenter(), op.allocation);
        if (status.ok()) {
          status = released;
        }
        break;
      }
      case Op::Kind::kStop:
        if (op.env != nullptr) {
          (void)engine_->env_manager()->Stop(op.env, op.keep_warm);
        }
        break;
      default:
        break;  // undo ops are dropped on commit
    }
  }
  state_ = State::kCommitted;
  engine_->NoteClosed(*this, /*committed=*/true);
  return status;
}

void PlacementTxn::Stage(Op op) {
  ops_.push_back(std::move(op));
  ++total_staged_;
}

void PlacementTxn::UndoOp(Op& op) {
  switch (op.kind) {
    case Op::Kind::kAllocate:
      (void)op.pool->Release(op.allocation);
      ++undone_ops_;
      break;
    case Op::Kind::kLaunch:
      (void)engine_->env_manager()->CancelLaunch(op.env);
      ++undone_ops_;
      break;
    case Op::Kind::kProvision:
      engine_->attestation()->RetireDevice(op.identity);
      ++undone_ops_;
      break;
    case Op::Kind::kCustomUndo:
      if (op.undo) {
        op.undo();
        ++undone_ops_;
      }
      break;
    case Op::Kind::kRelease:
    case Op::Kind::kStop:
      break;  // commit-time ops were never applied
  }
}

void PlacementTxn::Abort() {
  if (engine_ == nullptr || state_ != State::kOpen) {
    return;
  }
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    UndoOp(*it);
  }
  state_ = State::kAborted;
  engine_->NoteClosed(*this, /*committed=*/false);
}

void PlacementTxn::AbortTo(size_t mark) {
  if (engine_ == nullptr || state_ != State::kOpen || mark >= ops_.size()) {
    return;
  }
  for (size_t i = ops_.size(); i > mark; --i) {
    UndoOp(ops_[i - 1]);
  }
  ops_.resize(mark);
}

}  // namespace udc
