// The pre-fast-path event queue (std::function entries, priority_queue of
// full records, hash-set cancellation bookkeeping), kept verbatim as the
// oracle of the randomized queue differential in sim_kernel_test: the fast
// EventQueue must agree with it on every fire order, cancel result,
// next-event time and size. Test-only; Simulation runs on EventQueue alone.
//
// Handles are packed into the shared EventHandle: slot = low 32 bits of the
// sequence number, gen = high 32 bits + 1 (so gen 0 stays "invalid" here
// too). The packing is lossless until 2^64 events.

#ifndef UDC_TESTS_LEGACY_EVENT_QUEUE_H_
#define UDC_TESTS_LEGACY_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "src/common/units.h"
#include "src/sim/event_queue.h"

namespace udc {

class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  LegacyEventQueue() = default;
  LegacyEventQueue(const LegacyEventQueue&) = delete;
  LegacyEventQueue& operator=(const LegacyEventQueue&) = delete;

  EventHandle Schedule(SimTime when, Callback cb);
  bool Cancel(EventHandle handle);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }
  SimTime NextTime() const;
  SimTime PopAndRun();
  uint64_t total_scheduled() const { return next_seq_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    Callback cb;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  static EventHandle PackHandle(uint64_t seq) {
    return EventHandle{static_cast<uint32_t>(seq),
                       static_cast<uint32_t>(seq >> 32) + 1};
  }
  static uint64_t UnpackSeq(EventHandle handle) {
    return (static_cast<uint64_t>(handle.gen - 1) << 32) | handle.slot;
  }

  void SkipCancelled();

  std::priority_queue<Entry, std::vector<Entry>, EntryLater> heap_;
  std::unordered_set<uint64_t> pending_;    // seqs currently in the heap
  std::unordered_set<uint64_t> cancelled_;  // pending seqs marked dead
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  SimTime last_popped_;
};

}  // namespace udc

#endif  // UDC_TESTS_LEGACY_EVENT_QUEUE_H_
