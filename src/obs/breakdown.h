// Per-run latency breakdown, computed from spans.
//
// Answers "where did the time go" for one trace: how much of a run was
// queueing behind busy modules, waiting for environments to come up,
// computing, moving bytes, and committing through the replication protocol.
// The DAG runtime attaches one of these to every RunReport; benches use it
// to justify which component an optimization moved.

#ifndef UDC_SRC_OBS_BREAKDOWN_H_
#define UDC_SRC_OBS_BREAKDOWN_H_

#include <string>

#include "src/obs/span.h"

namespace udc {

struct LatencyBreakdown {
  SimTime queue_wait;   // mailbox time behind busy actors (exec.queue_wait)
  SimTime cold_start;   // environment readiness waits (exec.env_wait/_start)
  SimTime exec;         // compute (exec.compute, exec.task_run)
  SimTime net;          // transfers and fabric messages (category "net")
  SimTime consensus;    // replication commits (category "dist")
  SimTime total;        // root span duration (makespan of the trace)

  SimTime accounted() const {
    return queue_wait + cold_start + exec + net + consensus;
  }

  // Aligned component table, one line per component plus total.
  std::string Table() const;
};

// Sums the closed spans of the trace rooted at `root_span_id` into
// components; `total` is the root's duration. A trace's spans all open at or
// after its root, so only the ids from the root's on are walked: the cost
// follows the spans opened since the run began, not the tracer's size. An
// overwritten root gives an empty breakdown.
// Component sums can exceed `total` when the DAG overlaps stages — they are
// per-component serial totals, not a partition of the makespan.
LatencyBreakdown BreakdownFromSpans(const SpanTracer& tracer,
                                    uint64_t root_span_id);

}  // namespace udc

#endif  // UDC_SRC_OBS_BREAKDOWN_H_
