// Always-on flight recorder: a fixed-size ring of recent observability
// records.
//
// The simulator's full telemetry (SpanTracer, TraceRecorder) is unbounded
// and export-at-the-end; a run that dies mid-flight leaves nothing behind.
// The flight recorder is the post-mortem black box: every closed span and
// trace line also lands in a small ring, overwriting the oldest record when
// full. Records are fixed-width PODs — appending is a couple of stores, no
// allocation after construction — so it stays on at near-zero cost.
//
// On a UDC_CHECK failure (via the crash-dump hooks in src/common/logging.h),
// an SLO breach, or an explicit trigger, Dump() sorts the retained records
// by (time, seq) and writes a Chrome trace_event JSON (chrome://tracing,
// https://ui.perfetto.dev) plus a metrics snapshot alongside.

#ifndef UDC_SRC_OBS_FLIGHT_RECORDER_H_
#define UDC_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace udc {

class MetricsRegistry;

class FlightRecorder {
 public:
  struct Record {
    enum Kind : uint8_t {
      kSpan,   // closed span interval [start, time]
      kTrace,  // legacy trace line at `time`
      kEvent,  // ad-hoc marker at `time` (SLO breach, explicit annotations)
    };
    Kind kind = kTrace;
    uint64_t seq = 0;  // emission order; sort tiebreaker
    SimTime time;      // span end / event time — primary sort key
    SimTime start;     // span start (== time for non-spans)
    // Truncated copies: a ring record must not point into caller memory
    // that may be gone by dump time.
    char category[24] = {0};
    char name[96] = {0};
  };

  // The ring holds `capacity` records and is sized here, so appends never
  // allocate.
  explicit FlightRecorder(size_t capacity = 1024);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  size_t capacity() const { return slots_.size(); }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void RecordSpan(SimTime start, SimTime end, std::string_view category,
                  std::string_view name);
  void RecordTrace(SimTime at, std::string_view category,
                   std::string_view detail);
  void RecordEvent(SimTime at, std::string_view category,
                   std::string_view detail);

  // All retained records, sorted by (time, seq). Analytic spans (EndAt) can
  // close out of time order, so emission order alone is not time order.
  std::vector<Record> SortedRecords() const;
  // Records currently retained / ever recorded / overwritten by wraparound.
  size_t retained() const;
  uint64_t total_recorded() const { return written_; }
  uint64_t overwritten() const;

  // The sorted records as Chrome trace_event JSON.
  std::string ChromeTraceJson() const;
  // Writes ChromeTraceJson() to `path`; when `metrics` is non-null, also
  // writes its JsonSnapshot to `path + ".metrics.json"`. `reason` lands in
  // the trace metadata so the dump says why it exists.
  Status Dump(const std::string& path, const MetricsRegistry* metrics,
              std::string_view reason) const;

  void Clear();

 private:
  Record* Append(Record::Kind kind, SimTime at);

  std::vector<Record> slots_;
  size_t next_ = 0;       // next write position
  uint64_t written_ = 0;  // total appends (> capacity once wrapped)
  bool enabled_ = true;
};

}  // namespace udc

#endif  // UDC_SRC_OBS_FLIGHT_RECORDER_H_
