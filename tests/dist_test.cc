#include <gtest/gtest.h>

#include "src/dist/checkpoint.h"
#include "src/dist/consistency.h"
#include "src/dist/failure_domain.h"
#include "src/dist/replication.h"

namespace udc {
namespace {

TEST(ConsistencyTest, StrictestIsLatticeJoin) {
  EXPECT_EQ(Strictest({ConsistencyLevel::kEventual, ConsistencyLevel::kRelease,
                       ConsistencyLevel::kSequential}),
            ConsistencyLevel::kSequential);
  EXPECT_EQ(Strictest({ConsistencyLevel::kEventual}),
            ConsistencyLevel::kEventual);
}

TEST(ConsistencyTest, StrictestWinsResolvesSilently) {
  const auto r = ResolveConsistency(
      {ConsistencyLevel::kSequential, ConsistencyLevel::kRelease},
      ConflictPolicy::kStrictestWins);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->level, ConsistencyLevel::kSequential);
  EXPECT_TRUE(r->had_conflict);
}

TEST(ConsistencyTest, RejectPolicyReturnsConflict) {
  const auto r = ResolveConsistency(
      {ConsistencyLevel::kSequential, ConsistencyLevel::kRelease},
      ConflictPolicy::kReject);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConflict);
}

TEST(ConsistencyTest, AgreementIsNotAConflict) {
  const auto r = ResolveConsistency(
      {ConsistencyLevel::kCausal, ConsistencyLevel::kCausal},
      ConflictPolicy::kReject);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->had_conflict);
}

TEST(ConsistencyTest, EmptyAccessorsRejected) {
  EXPECT_FALSE(ResolveConsistency({}, ConflictPolicy::kStrictestWins).ok());
}

TEST(ConsistencyTest, NamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(ConsistencyLevel::kLinearizable); ++i) {
    const auto level = static_cast<ConsistencyLevel>(i);
    ConsistencyLevel parsed;
    ASSERT_TRUE(ParseConsistencyLevel(ConsistencyLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() : sim_(1) {
    const int r0 = topo_.AddRack();
    const int r1 = topo_.AddRack();
    client_ = topo_.AddNode(r0, NodeRole::kDevice);
    replicas_ = {topo_.AddNode(r0, NodeRole::kDevice),
                 topo_.AddNode(r0, NodeRole::kDevice),
                 topo_.AddNode(r1, NodeRole::kDevice)};
    fabric_ = std::make_unique<Fabric>(&sim_, &topo_);
    sequencer_ = std::make_unique<SwitchSequencer>(&sim_, fabric_.get(),
                                                   topo_.TorSwitch(r0));
  }

  ReplicatedStore MakeStore(ReplicationProtocol protocol, int factor,
                            ConsistencyLevel level = ConsistencyLevel::kSequential,
                            AccessPreference pref = AccessPreference::kNone) {
    ReplicationConfig config;
    config.protocol = protocol;
    config.replication_factor = factor;
    config.consistency = level;
    config.preference = pref;
    sequencer_->SetGroup("store", replicas_);
    return ReplicatedStore(&sim_, fabric_.get(), &topo_, "store", replicas_,
                           config, sequencer_.get());
  }

  Simulation sim_;
  Topology topo_;
  NodeId client_;
  std::vector<NodeId> replicas_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<SwitchSequencer> sequencer_;
};

TEST_F(ReplicationTest, WriteCompletesOnSimClock) {
  ReplicatedStore store = MakeStore(ReplicationProtocol::kPrimaryBackup, 3);
  SimTime done_at;
  store.Write(client_, Bytes::KiB(64), [&](OpResult r) {
    done_at = sim_.now();
    EXPECT_EQ(r.latency, done_at);
  });
  sim_.RunToCompletion();
  EXPECT_GT(done_at, SimTime(0));
  EXPECT_EQ(store.writes(), 1u);
}

TEST_F(ReplicationTest, InNetworkBeatsPrimaryBackup) {
  ReplicatedStore pb = MakeStore(ReplicationProtocol::kPrimaryBackup, 3);
  ReplicatedStore in_net = MakeStore(ReplicationProtocol::kInNetwork, 3);
  const OpResult pb_plan = pb.PlanWrite(client_, Bytes::KiB(64));
  const OpResult in_plan = in_net.PlanWrite(client_, Bytes::KiB(64));
  EXPECT_LT(in_plan.latency, pb_plan.latency);
}

TEST_F(ReplicationTest, QuorumFasterThanWriteAll) {
  ReplicatedStore pb = MakeStore(ReplicationProtocol::kPrimaryBackup, 3);
  ReplicatedStore quorum = MakeStore(ReplicationProtocol::kQuorum, 3);
  // Quorum (2 of 3) completes before primary-backup which waits for the
  // cross-rack backup.
  EXPECT_LT(quorum.PlanWrite(client_, Bytes::KiB(64)).latency,
            pb.PlanWrite(client_, Bytes::KiB(64)).latency);
}


TEST_F(ReplicationTest, WeakerConsistencyAcksFaster) {
  // The sec. 3.4 staircase: eventual <= causal <= sequential.
  auto lat = [&](ConsistencyLevel level) {
    ReplicatedStore store =
        MakeStore(ReplicationProtocol::kPrimaryBackup, 3, level);
    return store.PlanWrite(client_, Bytes::KiB(16)).latency;
  };
  EXPECT_LE(lat(ConsistencyLevel::kEventual), lat(ConsistencyLevel::kCausal));
  EXPECT_LT(lat(ConsistencyLevel::kCausal), lat(ConsistencyLevel::kSequential));
  EXPECT_EQ(lat(ConsistencyLevel::kSequential),
            lat(ConsistencyLevel::kLinearizable));
}

TEST_F(ReplicationTest, EventualWritesToNearestReplica) {
  ReplicatedStore store = MakeStore(ReplicationProtocol::kPrimaryBackup, 3,
                                    ConsistencyLevel::kEventual);
  const OpResult plan = store.PlanWrite(client_, Bytes::KiB(4));
  EXPECT_EQ(topo_.RackOf(plan.served_by), topo_.RackOf(client_));
  // Async propagation still costs messages.
  EXPECT_EQ(plan.messages, 2 + 2 * 2);
}

TEST_F(ReplicationTest, ReleaseFenceCostsAFullRound) {
  ReplicatedStore store = MakeStore(ReplicationProtocol::kPrimaryBackup, 3,
                                    ConsistencyLevel::kRelease);
  const SimTime write = store.PlanWrite(client_, Bytes::KiB(16)).latency;
  const SimTime fence =
      store.PlanReleaseFence(client_, Bytes::KiB(64)).latency;
  EXPECT_GT(fence, write);  // the deferred synchronization is the expensive part
  // Fence equals a sequential write of the pending bytes.
  ReplicatedStore seq = MakeStore(ReplicationProtocol::kPrimaryBackup, 3,
                                  ConsistencyLevel::kSequential);
  EXPECT_EQ(fence, seq.PlanWrite(client_, Bytes::KiB(64)).latency);
}

TEST_F(ReplicationTest, MoreReplicasCostMoreMessages) {
  ReplicatedStore r1 = MakeStore(ReplicationProtocol::kPrimaryBackup, 1);
  ReplicatedStore r3 = MakeStore(ReplicationProtocol::kPrimaryBackup, 3);
  // Single replica store uses only its first replica.
  ReplicationConfig config;
  config.replication_factor = 1;
  ReplicatedStore single(&sim_, fabric_.get(), &topo_, "single",
                         {replicas_[0]}, config);
  EXPECT_LT(single.PlanWrite(client_, Bytes::KiB(4)).messages,
            r3.PlanWrite(client_, Bytes::KiB(4)).messages);
}

TEST_F(ReplicationTest, ReaderPreferenceServesClosestReplica) {
  ReplicatedStore store =
      MakeStore(ReplicationProtocol::kPrimaryBackup, 3,
                ConsistencyLevel::kSequential, AccessPreference::kReader);
  const OpResult plan = store.PlanRead(client_, Bytes::KiB(16));
  // Closest replica is in the client's rack.
  EXPECT_EQ(topo_.RackOf(plan.served_by), topo_.RackOf(client_));
}

TEST_F(ReplicationTest, SequentialWithoutPreferenceReadsPrimary) {
  ReplicatedStore store = MakeStore(ReplicationProtocol::kPrimaryBackup, 3);
  EXPECT_EQ(store.PlanRead(client_, Bytes::KiB(16)).served_by, replicas_[0]);
}

TEST_F(ReplicationTest, FailoverPromotesNextReplica) {
  ReplicatedStore store = MakeStore(ReplicationProtocol::kPrimaryBackup, 3);
  store.MarkReplicaFailed(replicas_[0]);
  EXPECT_EQ(store.HealthyCount(), 2u);
  const OpResult plan = store.PlanWrite(client_, Bytes::KiB(4));
  EXPECT_EQ(plan.served_by, replicas_[1]);
  EXPECT_LT(plan.latency, SimTime::Max());
  store.MarkReplicaRecovered(replicas_[0]);
  EXPECT_EQ(store.PlanWrite(client_, Bytes::KiB(4)).served_by, replicas_[0]);
}

TEST_F(ReplicationTest, QuorumSurvivesMinorityFailure) {
  ReplicatedStore store = MakeStore(ReplicationProtocol::kQuorum, 3);
  store.MarkReplicaFailed(replicas_[2]);
  EXPECT_LT(store.PlanWrite(client_, Bytes::KiB(4)).latency, SimTime::Max());
  store.MarkReplicaFailed(replicas_[1]);
  EXPECT_EQ(store.PlanWrite(client_, Bytes::KiB(4)).latency, SimTime::Max());
}

TEST_F(ReplicationTest, AllReplicasDownMeansUnavailable) {
  ReplicatedStore store = MakeStore(ReplicationProtocol::kPrimaryBackup, 3);
  for (NodeId r : replicas_) {
    store.MarkReplicaFailed(r);
  }
  EXPECT_EQ(store.PlanRead(client_, Bytes::KiB(1)).latency, SimTime::Max());
  EXPECT_EQ(store.PlanWrite(client_, Bytes::KiB(1)).latency, SimTime::Max());
}

TEST(CheckpointTest, SaveAndRestoreLatest) {
  CheckpointStore store;
  store.Save(ModuleId(1), SimTime::Millis(1), 10, {1, 2, 3});
  store.Save(ModuleId(1), SimTime::Millis(2), 20, {4, 5, 6});
  const auto cp = store.RestoreLatest(ModuleId(1));
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->progress, 20u);
  EXPECT_EQ(cp->state, (std::vector<uint8_t>{4, 5, 6}));
  EXPECT_EQ(store.CountFor(ModuleId(1)), 2u);
}

TEST(CheckpointTest, MissingModuleIsNotFound) {
  CheckpointStore store;
  EXPECT_EQ(store.RestoreLatest(ModuleId(9)).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, CorruptionDetectedAtRestore) {
  CheckpointStore store;
  store.Save(ModuleId(1), SimTime(0), 5, {9, 9});
  ASSERT_TRUE(store.CorruptLatestForTest(ModuleId(1)));
  EXPECT_EQ(store.RestoreLatest(ModuleId(1)).status().code(),
            StatusCode::kVerificationFailed);
}

TEST(CheckpointTest, DropClearsHistory) {
  CheckpointStore store;
  store.Save(ModuleId(1), SimTime(0), 1, {});
  store.Drop(ModuleId(1));
  EXPECT_EQ(store.CountFor(ModuleId(1)), 0u);
}

}  // namespace
}  // namespace udc
