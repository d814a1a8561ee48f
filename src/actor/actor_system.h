// Actor runtime (paper sec. 3.1).
//
// "Each actor represents a module that could run on a hardware resource
// unit. These (distributed) actors communicate via input and output messages
// and there is no shared state between actors. ... messages could be
// reliably recorded for faster recovery."
//
// Actors are addressed by ActorId, live at a fabric node, and process one
// message at a time in delivery order. Every delivered message is appended
// to a per-actor durable log; RecoverActor replays the log into a fresh
// incarnation, which is the fast-recovery path the paper describes.

#ifndef UDC_SRC_ACTOR_ACTOR_SYSTEM_H_
#define UDC_SRC_ACTOR_ACTOR_SYSTEM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/hw/topology.h"
#include "src/sim/simulation.h"

namespace udc {

struct ActorMessage {
  MessageId id;
  ActorId from;       // invalid for external injections
  ActorId to;
  std::string name;   // message type, e.g. "input", "result"
  std::string payload;
  Bytes size;
  SimTime delivered_at;
};

class ActorSystem;

// Handed to a behavior while it processes a message.
class ActorContext {
 public:
  ActorContext(ActorSystem* system, ActorId self, SimTime now)
      : system_(system), self_(self), now_(now) {}

  ActorId self() const { return self_; }
  SimTime now() const { return now_; }

  // Sends to another actor (charged fabric latency between their nodes).
  void Send(ActorId to, std::string name, std::string payload, Bytes size);

  // Declares simulated compute consumed by this message; the actor stays
  // busy for the duration and later messages queue behind it.
  void Work(SimTime duration) { work_ += duration; }
  SimTime work() const { return work_; }

 private:
  ActorSystem* system_;
  ActorId self_;
  SimTime now_;
  SimTime work_;
};

using Behavior = std::function<void(ActorContext&, const ActorMessage&)>;

enum class ActorState {
  kIdle,
  kBusy,
  kDead,
};

class ActorSystem {
 public:
  ActorSystem(Simulation* sim, const Topology* topology);

  ActorSystem(const ActorSystem&) = delete;
  ActorSystem& operator=(const ActorSystem&) = delete;

  // Spawns an actor at `node`. The behavior runs once per delivered message.
  ActorId Spawn(NodeId node, Behavior behavior, bool log_messages = true);

  // Sends from outside the actor world (e.g. a workload generator).
  void Inject(ActorId to, std::string name, std::string payload, Bytes size);

  // Actor-to-actor send (used by ActorContext).
  void Send(ActorId from, ActorId to, std::string name, std::string payload,
            Bytes size);

  // Kills the actor: pending and future messages are dropped (but remain in
  // the log if logging was enabled).
  Status Kill(ActorId actor);

  // Re-incarnates a dead actor at `node` with the same behavior and replays
  // its message log. Returns the number of messages replayed.
  Result<size_t> Recover(ActorId actor, NodeId node);

  ActorState StateOf(ActorId actor) const;
  NodeId NodeOf(ActorId actor) const;
  size_t QueueDepth(ActorId actor) const;
  const std::vector<ActorMessage>* LogOf(ActorId actor) const;

  uint64_t messages_processed() const { return messages_processed_; }

 private:
  struct ActorRecord {
    NodeId node;
    Behavior behavior;
    ActorState state = ActorState::kIdle;
    bool log_messages = true;
    std::deque<ActorMessage> mailbox;
    std::vector<ActorMessage> log;
    bool draining = false;
  };

  void Deliver(ActorId to, ActorMessage msg, bool replay);
  // `record` must be the live record for `actor` (single lookup at the
  // call site; unordered_map references are stable across inserts).
  void DrainMailbox(ActorId actor, ActorRecord& record);

  Simulation* sim_;
  const Topology* topology_;
  IdGenerator<ActorId> actor_ids_;
  IdGenerator<MessageId> message_ids_;
  std::unordered_map<ActorId, ActorRecord> actors_;
  uint64_t messages_processed_ = 0;
  // Interned metric series for the per-message hot path.
  CounterHandle messages_processed_metric_;
  CounterHandle messages_dropped_metric_;
  CounterHandle recoveries_metric_;
};

}  // namespace udc

#endif  // UDC_SRC_ACTOR_ACTOR_SYSTEM_H_
