// Structured span tracing.
//
// A Span is a named, labeled interval on the simulated clock with causal
// links (trace_id / parent_span_id), replacing the flat string blobs of the
// legacy TraceRecorder at the major execution boundaries. Spans are the raw
// material for the Chrome trace export (src/obs/chrome_trace.h) and the
// per-run latency breakdown (src/obs/breakdown.h).
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

#ifndef UDC_SRC_OBS_SPAN_H_
#define UDC_SRC_OBS_SPAN_H_

#include <cstdint>
#include <deque>
#include <functional>
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
  // "name k=v k2=v2 dur=1.2ms" — the legacy-trace-compatible rendering.
  std::string Detail() const;
};

class SpanTracer {
 public:
  using Clock = std::function<SimTime()>;
  using EndSink = std::function<void(const Span&)>;

  explicit SpanTracer(Clock clock);
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Opens a span starting at the clock's current time. The parent defaults
  // to the innermost open scope (see PushScope); pass `parent` to override.
  // Root spans start a fresh trace id; children inherit their parent's.
  // Returns 0 (a no-op id) once the tracer is full.
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

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }
  void Clear();
  // Number of Clear() calls so far. A consumer holding a cursor into
  // closed_order() restarts it whenever this changes.
  uint64_t clears() const { return clears_; }

  // Span ids in the order they closed. The per-close cost is one integer
  // append; consumers that want a rendered view (e.g. the legacy-trace
  // mirror) walk this list lazily instead of formatting on every End().
  const std::vector<uint64_t>& closed_order() const { return closed_order_; }

  // Invoked whenever a span closes. Prefer closed_order() + lazy rendering;
  // an eager sink puts its cost on the tracing hot path.
  void set_on_end(EndSink sink) { on_end_ = std::move(sink); }
  // Cap on retained spans; Begin drops (returns 0) past it.
  void set_max_spans(size_t n) { max_spans_ = n; }

  const Span* SpanById(uint64_t span_id) const;
  std::vector<const Span*> SpansInCategory(std::string_view category) const;
  // First span with `name`, optionally also matching one label.
  const Span* Find(std::string_view name, std::string_view label_key = {},
                   std::string_view label_value = {}) const;

 private:
  Span* Mutable(uint64_t span_id);

  Clock clock_;
  EndSink on_end_;
  // Interned label sets; deque keeps element addresses stable so spans can
  // point straight at them. Deliberately not cleared by Clear().
  std::deque<SpanLabels> label_sets_;
  std::vector<Span> spans_;  // span_id == index + 1
  std::vector<uint64_t> closed_order_;
  std::vector<uint64_t> scope_stack_;
  uint64_t next_trace_id_ = 1;
  size_t max_spans_ = 1 << 20;
  uint64_t dropped_ = 0;
  uint64_t clears_ = 0;
};

// RAII span: opens on construction, pushes itself as the current scope, and
// closes on destruction. Movable so factories can hand scopes out.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, std::string category, std::string name,
             SpanLabels labels = {});
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
