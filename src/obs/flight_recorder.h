// Flight recorder: the post-mortem dump of the span log.
//
// The span tracer is itself a bounded ring that never goes silent (see
// src/obs/span.h), so the black box is that ring: the recorder owns no
// records of its own. On a UDC_CHECK failure (via the crash-dump hooks in
// src/common/logging.h), an SLO breach, or an explicit trigger, Dump()
// renders the retained spans through the one Chrome trace writer
// (src/obs/chrome_trace.h; chrome://tracing, https://ui.perfetto.dev), with
// their ids, labels and open spans marked open, and writes a metrics
// snapshot alongside.

#ifndef UDC_SRC_OBS_FLIGHT_RECORDER_H_
#define UDC_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/span.h"

namespace udc {

class MetricsRegistry;

class FlightRecorder {
 public:
  // Dumps `spans`, rendering spans still open as running up to `*now`. Both
  // must outlive the recorder.
  FlightRecorder(const SpanTracer* spans, const SimTime* now)
      : spans_(spans), now_(now) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Spans a dump would hold now / spans closed since construction.
  size_t retained() const { return spans_->size(); }
  uint64_t total_recorded() const { return spans_->closed(); }

  // Writes the retained spans as Chrome trace_event JSON to `path`; when
  // `metrics` is non-null, also writes its JsonSnapshot to
  // `path + ".metrics.json"`. `reason` lands in the trace metadata so the
  // dump says why it exists.
  Status Dump(const std::string& path, const MetricsRegistry* metrics,
              std::string_view reason) const;

 private:
  const SpanTracer* spans_;
  const SimTime* now_;
};

}  // namespace udc

#endif  // UDC_SRC_OBS_FLIGHT_RECORDER_H_
