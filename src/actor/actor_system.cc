#include "src/actor/actor_system.h"

#include <utility>

namespace udc {

void ActorContext::Send(ActorId to, std::string name, std::string payload,
                        Bytes size) {
  system_->Send(self_, to, std::move(name), std::move(payload), size);
}

ActorSystem::ActorSystem(Simulation* sim, const Topology* topology)
    : sim_(sim), topology_(topology),
      messages_processed_metric_(
          sim->metrics().CounterSeries("actor.messages_processed")),
      messages_dropped_metric_(
          sim->metrics().CounterSeries("actor.messages_dropped")),
      recoveries_metric_(sim->metrics().CounterSeries("actor.recoveries")) {}

ActorId ActorSystem::Spawn(NodeId node, Behavior behavior, bool log_messages) {
  const ActorId id = actor_ids_.Next();
  ActorRecord record;
  record.node = node;
  record.behavior = std::move(behavior);
  record.log_messages = log_messages;
  actors_.emplace(id, std::move(record));
  return id;
}

void ActorSystem::Inject(ActorId to, std::string name, std::string payload,
                         Bytes size) {
  ActorMessage msg;
  msg.id = message_ids_.Next();
  msg.from = ActorId::Invalid();
  msg.to = to;
  msg.name = std::move(name);
  msg.payload = std::move(payload);
  msg.size = size;
  Deliver(to, std::move(msg), /*replay=*/false);
}

void ActorSystem::Send(ActorId from, ActorId to, std::string name,
                       std::string payload, Bytes size) {
  ActorMessage msg;
  msg.id = message_ids_.Next();
  msg.from = from;
  msg.to = to;
  msg.name = std::move(name);
  msg.payload = std::move(payload);
  msg.size = size;

  // Charge fabric latency between the two actors' nodes.
  SimTime delay;
  const auto from_it = actors_.find(from);
  const auto to_it = actors_.find(to);
  if (from_it != actors_.end() && to_it != actors_.end()) {
    delay = topology_->TransferTime(from_it->second.node, to_it->second.node,
                                    size);
  }
  // The capture holds the ActorMessage (two strings, ~104 bytes), past the
  // event queue's inline buffer — it rides the pooled callback slab.
  sim_->After(delay, [this, to, msg = std::move(msg)]() mutable {
    Deliver(to, std::move(msg), /*replay=*/false);
  });
}

void ActorSystem::Deliver(ActorId to, ActorMessage msg, bool replay) {
  const auto it = actors_.find(to);
  if (it == actors_.end() || it->second.state == ActorState::kDead) {
    sim_->metrics().Increment(messages_dropped_metric_);
    return;
  }
  ActorRecord& record = it->second;
  msg.delivered_at = sim_->now();
  if (record.log_messages && !replay) {
    record.log.push_back(msg);
  }
  record.mailbox.push_back(std::move(msg));
  DrainMailbox(to, record);
}

void ActorSystem::DrainMailbox(ActorId actor, ActorRecord& record) {
  if (record.draining || record.state != ActorState::kIdle ||
      record.mailbox.empty()) {
    return;
  }
  record.draining = true;
  ActorMessage msg = std::move(record.mailbox.front());
  record.mailbox.pop_front();
  record.state = ActorState::kBusy;

  ActorContext ctx(this, actor, sim_->now());
  record.behavior(ctx, msg);
  ++messages_processed_;
  sim_->metrics().Increment(messages_processed_metric_);
  record.draining = false;

  const SimTime busy = ctx.work();
  // 16-byte capture: wakeups stay in the inline callback buffer.
  sim_->After(busy, [this, actor] {
    auto it2 = actors_.find(actor);
    if (it2 == actors_.end() || it2->second.state == ActorState::kDead) {
      return;
    }
    it2->second.state = ActorState::kIdle;
    DrainMailbox(actor, it2->second);
  });
}

Status ActorSystem::Kill(ActorId actor) {
  auto it = actors_.find(actor);
  if (it == actors_.end()) {
    return NotFoundError("unknown actor");
  }
  it->second.state = ActorState::kDead;
  it->second.mailbox.clear();
  return OkStatus();
}

Result<size_t> ActorSystem::Recover(ActorId actor, NodeId node) {
  auto it = actors_.find(actor);
  if (it == actors_.end()) {
    return Status(NotFoundError("unknown actor"));
  }
  ActorRecord& record = it->second;
  if (record.state != ActorState::kDead) {
    return Status(FailedPreconditionError("actor is not dead"));
  }
  if (!record.log_messages) {
    return Status(FailedPreconditionError(
        "actor was spawned without message logging; cannot replay"));
  }
  record.node = node;
  record.state = ActorState::kIdle;
  const size_t replayed = record.log.size();
  for (const ActorMessage& logged : record.log) {
    Deliver(actor, logged, /*replay=*/true);
  }
  sim_->metrics().Increment(recoveries_metric_);
  return replayed;
}

ActorState ActorSystem::StateOf(ActorId actor) const {
  const auto it = actors_.find(actor);
  return it == actors_.end() ? ActorState::kDead : it->second.state;
}

NodeId ActorSystem::NodeOf(ActorId actor) const {
  const auto it = actors_.find(actor);
  return it == actors_.end() ? NodeId::Invalid() : it->second.node;
}

size_t ActorSystem::QueueDepth(ActorId actor) const {
  const auto it = actors_.find(actor);
  return it == actors_.end() ? 0 : it->second.mailbox.size();
}

const std::vector<ActorMessage>* ActorSystem::LogOf(ActorId actor) const {
  const auto it = actors_.find(actor);
  return it == actors_.end() ? nullptr : &it->second.log;
}

}  // namespace udc
