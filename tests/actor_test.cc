#include <gtest/gtest.h>

#include "src/actor/actor_system.h"

namespace udc {
namespace {

class ActorTest : public ::testing::Test {
 protected:
  ActorTest() : sim_(1) {
    const int r0 = topo_.AddRack();
    const int r1 = topo_.AddRack();
    n0_ = topo_.AddNode(r0, NodeRole::kDevice);
    n1_ = topo_.AddNode(r1, NodeRole::kDevice);
    system_ = std::make_unique<ActorSystem>(&sim_, &topo_);
  }
  Simulation sim_;
  Topology topo_;
  NodeId n0_, n1_;
  std::unique_ptr<ActorSystem> system_;
};

TEST_F(ActorTest, DeliversInjectedMessage) {
  std::vector<std::string> seen;
  const ActorId a = system_->Spawn(n0_, [&](ActorContext&, const ActorMessage& m) {
    seen.push_back(m.name + ":" + m.payload);
  });
  system_->Inject(a, "input", "hello", Bytes::B(10));
  sim_.RunToCompletion();
  EXPECT_EQ(seen, (std::vector<std::string>{"input:hello"}));
}

TEST_F(ActorTest, ActorToActorChargesFabricLatency) {
  SimTime received_at;
  const ActorId sink = system_->Spawn(n1_, [&](ActorContext& ctx,
                                               const ActorMessage&) {
    received_at = ctx.now();
  });
  const ActorId source =
      system_->Spawn(n0_, [&](ActorContext& ctx, const ActorMessage&) {
        ctx.Send(sink, "data", "", Bytes::MiB(8));
      });
  system_->Inject(source, "go", "", Bytes::B(1));
  sim_.RunToCompletion();
  EXPECT_GE(received_at, topo_.TransferTime(n0_, n1_, Bytes::MiB(8)));
}

TEST_F(ActorTest, WorkSerializesMessageProcessing) {
  std::vector<SimTime> starts;
  const ActorId a = system_->Spawn(n0_, [&](ActorContext& ctx,
                                            const ActorMessage&) {
    starts.push_back(ctx.now());
    ctx.Work(SimTime::Millis(10));
  });
  system_->Inject(a, "m1", "", Bytes::B(1));
  system_->Inject(a, "m2", "", Bytes::B(1));
  sim_.RunToCompletion();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_GE(starts[1] - starts[0], SimTime::Millis(10));
  EXPECT_EQ(system_->messages_processed(), 2u);
}

TEST_F(ActorTest, KilledActorDropsMessages) {
  int processed = 0;
  const ActorId a = system_->Spawn(
      n0_, [&](ActorContext&, const ActorMessage&) { ++processed; });
  ASSERT_TRUE(system_->Kill(a).ok());
  system_->Inject(a, "m", "", Bytes::B(1));
  sim_.RunToCompletion();
  EXPECT_EQ(processed, 0);
  EXPECT_EQ(system_->StateOf(a), ActorState::kDead);
}

TEST_F(ActorTest, RecoverReplaysLoggedMessages) {
  std::vector<std::string> seen;
  const ActorId a = system_->Spawn(n0_, [&](ActorContext&, const ActorMessage& m) {
    seen.push_back(m.payload);
  });
  system_->Inject(a, "m", "1", Bytes::B(1));
  system_->Inject(a, "m", "2", Bytes::B(1));
  sim_.RunToCompletion();
  ASSERT_EQ(seen.size(), 2u);

  ASSERT_TRUE(system_->Kill(a).ok());
  seen.clear();
  const auto replayed = system_->Recover(a, n1_);  // re-homed on another node
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 2u);
  sim_.RunToCompletion();
  EXPECT_EQ(seen, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(system_->NodeOf(a), n1_);
  EXPECT_EQ(sim_.metrics().counter("actor.recoveries"), 1);
}

// A kill cancels the dead incarnation's pending wakeup, so it cannot free
// the recovered actor mid-message: each replay still gets its full 10 ms.
TEST_F(ActorTest, RecoveredActorIsNotWokenByItsDeadIncarnation) {
  std::vector<SimTime> starts;
  const ActorId a = system_->Spawn(n0_, [&](ActorContext& ctx,
                                            const ActorMessage&) {
    starts.push_back(ctx.now());
    ctx.Work(SimTime::Millis(10));
  });
  system_->Inject(a, "m", "1", Bytes::B(1));
  system_->Inject(a, "m", "2", Bytes::B(1));
  sim_.At(SimTime::Millis(1), [&] {
    ASSERT_TRUE(system_->Kill(a).ok());
    ASSERT_TRUE(system_->Recover(a, n1_).ok());
  });
  sim_.RunToCompletion();
  EXPECT_EQ(starts, (std::vector<SimTime>{SimTime(0), SimTime::Millis(1),
                                          SimTime::Millis(11)}));
}

TEST_F(ActorTest, RecoverRequiresDeadActor) {
  const ActorId a = system_->Spawn(n0_, [](ActorContext&, const ActorMessage&) {});
  EXPECT_FALSE(system_->Recover(a, n0_).ok());
}

TEST_F(ActorTest, PipelineAcrossThreeActors) {
  std::string result;
  const ActorId third = system_->Spawn(n0_, [&](ActorContext&,
                                                const ActorMessage& m) {
    result = m.payload + "!";
  });
  const ActorId second =
      system_->Spawn(n1_, [&, third](ActorContext& ctx, const ActorMessage& m) {
        ctx.Work(SimTime::Millis(1));
        ctx.Send(third, "stage2", m.payload + "-processed", Bytes::KiB(1));
      });
  const ActorId first =
      system_->Spawn(n0_, [&, second](ActorContext& ctx, const ActorMessage& m) {
        ctx.Send(second, "stage1", m.payload, Bytes::KiB(1));
      });
  system_->Inject(first, "input", "data", Bytes::KiB(1));
  sim_.RunToCompletion();
  EXPECT_EQ(result, "data-processed!");
}

TEST_F(ActorTest, SendToUnknownActorDropsOnce) {
  const ActorId ghost = ActorId(999999);  // never spawned
  const ActorId talker =
      system_->Spawn(n0_, [&](ActorContext& ctx, const ActorMessage&) {
        ctx.Send(ghost, "into.the.void", "", Bytes::B(0));
      });
  system_->Inject(talker, "go", "", Bytes::B(0));
  sim_.RunToCompletion();
  // Only the talker's own message is processed; the send to the ghost
  // counts exactly one drop.
  EXPECT_EQ(system_->messages_processed(), 1u);
  EXPECT_EQ(sim_.metrics().counter("actor.messages_dropped"), 1);
}

TEST_F(ActorTest, QueueDepthReflectsBacklog) {
  const ActorId a = system_->Spawn(n0_, [](ActorContext& ctx,
                                           const ActorMessage&) {
    ctx.Work(SimTime::Seconds(1));
  });
  system_->Inject(a, "m1", "", Bytes::B(1));
  system_->Inject(a, "m2", "", Bytes::B(1));
  system_->Inject(a, "m3", "", Bytes::B(1));
  // First message is picked up immediately; two wait.
  EXPECT_EQ(system_->QueueDepth(a), 2u);
  sim_.RunToCompletion();
  EXPECT_EQ(system_->QueueDepth(a), 0u);
}

}  // namespace
}  // namespace udc
