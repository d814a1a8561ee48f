// Structured span tracing.
//
// A Span is a named, labeled interval on the simulated clock with causal
// links (trace_id / parent_span_id). Spans are the simulator's one event
// log: every layer, from placement and launch to repair and defrag, records
// what it did as spans. They are the raw material for the Chrome trace
// export (src/obs/chrome_trace.h), the per-run latency breakdown
// (src/obs/breakdown.h) and the flight recorder's dump
// (src/obs/flight_recorder.h).
//
// Two usage styles:
//   * synchronous scopes — ScopedSpan (RAII); nested scopes parent
//     automatically via the tracer's scope stack.
//   * asynchronous intervals — Begin() returns a span id that a later
//     callback closes with End(); the parent is captured at Begin time.
//
// Analytic code (the DAG runtime computes stage times in closed form
// without advancing the clock) can date spans explicitly with
// BeginAt()/EndAt().
//
// The log is a fixed-capacity ring: its slots are reserved once, and past
// kCapacity each new span overwrites the oldest in place, so the log never
// goes silent and never grows. Span ids keep counting up; an overwritten
// id reads as absent.

#ifndef UDC_SRC_OBS_SPAN_H_
#define UDC_SRC_OBS_SPAN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <ranges>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace udc {

using SpanLabels = std::vector<std::pair<std::string, std::string>>;

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root of its trace
  std::string category;         // layer: "sched", "exec", "net", "dist", ...
  std::string name;             // e.g. "sched.place_task"
  SpanLabels labels;
  // Pre-interned labels shared across spans (SpanTracer::InternLabelSet);
  // rendered before `labels`, attached with zero per-span allocation. Owned
  // by the tracer; the pointer survives Clear().
  const SpanLabels* shared_labels = nullptr;
  SimTime start;
  SimTime end;
  bool open = true;

  SimTime duration() const { return end - start; }
  // The label value for `key` (shared labels first), or nullptr.
  const std::string* Label(std::string_view key) const;
};

class SpanTracer {
 public:
  using Clock = std::function<SimTime()>;

  // Spans retained: 9 MiB of 144-byte slots, about 21 MiB when full of a
  // deploy-and-run workload's spans with their names and labels.
  static constexpr size_t kCapacity = size_t{1} << 16;

  explicit SpanTracer(Clock clock);
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Opens a span starting at the clock's current time. The parent defaults
  // to the innermost open scope (see PushScope); pass `parent` to override.
  // Root spans start a fresh trace id; children inherit their parent's.
  // Never returns 0; at capacity the new span takes the oldest one's slot.
  uint64_t Begin(std::string category, std::string name,
                 SpanLabels labels = {}, uint64_t parent = 0);
  uint64_t BeginAt(SimTime start, std::string category, std::string name,
                   SpanLabels labels = {}, uint64_t parent = 0);

  // Interns a label set once and returns a handle for BeginWithSet; call
  // sites that open the same-shaped span per event (fabric's net.message)
  // pay the label construction once, not per span. Handles are never
  // invalidated — not even by Clear(). 0 is "no label set".
  uint32_t InternLabelSet(SpanLabels labels);
  // Begin() without per-span label construction: attaches the interned set
  // by pointer. `category`/`name` should be literals (SSO; no allocation).
  uint64_t BeginWithSet(std::string_view category, std::string_view name,
                        uint32_t label_set, uint64_t parent = 0);

  void AddLabel(uint64_t span_id, std::string key, std::string value);
  void End(uint64_t span_id);
  void EndAt(uint64_t span_id, SimTime end);

  // Scope stack for implicit parenting; managed by ScopedSpan.
  void PushScope(uint64_t span_id);
  void PopScope(uint64_t span_id);
  uint64_t CurrentScope() const;

  // The retained spans, oldest first.
  auto spans() const {
    return std::views::iota(next_id_ - slots_.size(), next_id_) |
           std::views::transform(
               [this](uint64_t id) -> const Span& { return slots_[Slot(id)]; });
  }
  size_t size() const { return slots_.size(); }
  // Spans overwritten while still open: their close is lost.
  uint64_t dropped() const { return dropped_; }
  // Spans closed since construction; Clear() does not reset it.
  uint64_t closed() const { return closed_; }
  // Drops every span; ids and trace ids start again at 1.
  void Clear();

  // The span, or nullptr when `span_id` is 0, not yet issued or overwritten.
  const Span* SpanById(uint64_t span_id) const;
  std::vector<const Span*> SpansInCategory(std::string_view category) const;
  // First span with `name`, optionally also matching one label.
  const Span* Find(std::string_view name, std::string_view label_key = {},
                   std::string_view label_value = {}) const;

 private:
  static size_t Slot(uint64_t span_id) { return (span_id - 1) % kCapacity; }
  // Takes the next id's slot and fills in its ids and times; the caller
  // sets the names and labels.
  Span& Claim(SimTime start, uint64_t parent);
  Span* Mutable(uint64_t span_id) {
    return const_cast<Span*>(SpanById(span_id));
  }

  Clock clock_;
  // Interned label sets; deque keeps element addresses stable so spans can
  // point straight at them. Deliberately not cleared by Clear().
  std::deque<SpanLabels> label_sets_;
  // The ring: reserved at kCapacity, filled in id order, then overwritten.
  std::vector<Span> slots_;
  std::vector<uint64_t> scope_stack_;
  uint64_t next_id_ = 1;
  uint64_t next_trace_id_ = 1;
  uint64_t dropped_ = 0;
  uint64_t closed_ = 0;
};

// RAII span: opens on construction, pushes itself as the current scope, and
// closes on destruction. Movable so factories can hand scopes out.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, std::string category, std::string name,
             SpanLabels labels = {});
  // Same, attaching a label set interned with SpanTracer::InternLabelSet:
  // no per-span label construction.
  ScopedSpan(SpanTracer* tracer, std::string_view category,
             std::string_view name, uint32_t label_set);
  ScopedSpan(ScopedSpan&& other) noexcept;
  ScopedSpan& operator=(ScopedSpan&&) = delete;
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  uint64_t id() const { return id_; }
  void AddLabel(std::string key, std::string value);

 private:
  SpanTracer* tracer_;
  uint64_t id_;
};

}  // namespace udc

#endif  // UDC_SRC_OBS_SPAN_H_
