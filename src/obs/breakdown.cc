#include "src/obs/breakdown.h"

#include <algorithm>

#include "src/common/strings.h"

namespace udc {

std::string LatencyBreakdown::Table() const {
  std::string out;
  const auto row = [&out, this](const char* component, SimTime t) {
    const double share =
        total > SimTime(0) ? t.seconds() / total.seconds() * 100.0 : 0.0;
    out += StrFormat("%-12s %12s %6.1f%%\n", component, t.ToString().c_str(),
                     share);
  };
  out += StrFormat("%-12s %12s %7s\n", "component", "time", "of-run");
  row("queue", queue_wait);
  row("cold-start", cold_start);
  row("exec", exec);
  row("net", net);
  row("consensus", consensus);
  out += StrFormat("%-12s %12s\n", "total", total.ToString().c_str());
  return out;
}

LatencyBreakdown BreakdownFromSpans(const SpanTracer& tracer,
                                    uint64_t root_span_id) {
  LatencyBreakdown b;
  const Span* root = tracer.SpanById(root_span_id);
  if (root == nullptr) {
    return b;
  }
  // Ids are issued in open order, so the trace's spans are the root's id
  // and later ones.
  for (uint64_t id = root_span_id; const Span* span = tracer.SpanById(id);
       ++id) {
    if (span->trace_id != root->trace_id || span->open) {
      continue;
    }
    const SimTime d = span->duration();
    if (span->name == "exec.queue_wait") {
      b.queue_wait += d;
    } else if (span->name == "exec.env_wait" ||
               span->name == "exec.env_start") {
      b.cold_start += d;
    } else if (span->name == "exec.compute" || span->name == "exec.task_run") {
      b.exec += d;
    } else if (span->category == "net") {
      b.net += d;
    } else if (span->category == "dist") {
      b.consensus += d;
    }
    if (span->parent_span_id == 0) {
      b.total = std::max(b.total, d);
    }
  }
  return b;
}

}  // namespace udc
