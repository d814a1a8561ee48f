#include "tests/legacy_event_queue.h"

#include <cassert>
#include <utility>

namespace udc {

EventHandle LegacyEventQueue::Schedule(SimTime when, Callback cb) {
  assert(when >= last_popped_ && "scheduling into the past");
  const uint64_t seq = next_seq_++;
  heap_.push(Entry{when, seq, std::move(cb)});
  pending_.insert(seq);
  ++live_count_;
  return PackHandle(seq);
}

bool LegacyEventQueue::Cancel(EventHandle handle) {
  if (!handle.valid()) {
    return false;
  }
  const auto it = pending_.find(UnpackSeq(handle));
  if (it == pending_.end()) {
    return false;  // already fired or already cancelled
  }
  const uint64_t seq = *it;
  pending_.erase(it);
  // Lazily removed from the heap: marked cancelled, skipped at the top.
  cancelled_.insert(seq);
  --live_count_;
  return true;
}

void LegacyEventQueue::SkipCancelled() {
  while (!heap_.empty()) {
    const auto it = cancelled_.find(heap_.top().seq);
    if (it == cancelled_.end()) {
      return;
    }
    cancelled_.erase(it);
    heap_.pop();
  }
}

SimTime LegacyEventQueue::NextTime() const {
  // Cancelled entries at the top must be skipped for an exact answer; the
  // skip only discards dead entries, so it is logically const.
  LegacyEventQueue* self = const_cast<LegacyEventQueue*>(this);
  self->SkipCancelled();
  if (heap_.empty()) {
    return SimTime::Max();
  }
  return heap_.top().when;
}

SimTime LegacyEventQueue::PopAndRun() {
  SkipCancelled();
  assert(!heap_.empty());
  // Copy the entry out before popping: the callback may schedule new events,
  // which mutates the heap.
  Entry top = heap_.top();
  heap_.pop();
  pending_.erase(top.seq);
  --live_count_;
  last_popped_ = top.when;
  top.cb();
  return top.when;
}

}  // namespace udc
