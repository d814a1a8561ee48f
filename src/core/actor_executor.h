// Actor-based execution mode (paper sec. 3.1), and the run-time telemetry
// of the adaptive loop (sec. 3.2).
//
// The analytic DagRuntime computes one invocation's timing in closed form;
// ActorExecutor instead *runs* the application: every task module becomes
// an actor at its placed node, invocations flow through the DAG as
// messages, and concurrent invocations queue at busy modules — giving the
// queueing behaviour, message logs, and fast actor recovery the paper's
// actor-framework proposal promises. Both modes share the same deployment,
// so tests can cross-check them.
//
// The executor is also the one source of the tuner's input. At the end of
// every kWindow of simulated time it feeds each task module's busy fraction
// (the service time of the runs started in the window over its length) to
// the AdaptiveTuner and to the gauge actor_exec.utilization{module=<name>};
// after a resize, every run that starts later, queued ones included, uses
// the new service time.

#ifndef UDC_SRC_CORE_ACTOR_EXECUTOR_H_
#define UDC_SRC_CORE_ACTOR_EXECUTOR_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/actor/actor_system.h"
#include "src/core/deployment.h"
#include "src/core/runtime.h"
#include "src/core/tuner.h"

namespace udc {

struct InvocationResult {
  InvocationId id;
  SimTime submitted_at;
  SimTime completed_at;
  SimTime latency() const { return completed_at - submitted_at; }
};

class ActorExecutor {
 public:
  // Windows start at multiples of kWindow of simulated time. After a window
  // with no run and no pending invocation the timer stops, so
  // RunToCompletion returns.
  static constexpr SimTime kWindow = SimTime::Minutes(15);

  // Spawns one actor per task module at its placement's node. The per-stage
  // service times come from the analytic model (compute + crypto), so both
  // execution modes agree on a single unloaded invocation. `tuner` must
  // outlive the executor.
  ActorExecutor(Simulation* sim, Deployment* deployment, AdaptiveTuner& tuner);
  ~ActorExecutor();

  ActorExecutor(const ActorExecutor&) = delete;
  ActorExecutor& operator=(const ActorExecutor&) = delete;

  // Submits one invocation at the current simulated time; `done` (may be
  // empty) fires when every sink module has processed it. Run the
  // simulation to completion (or until idle) to drain.
  InvocationId Submit(std::function<void(const InvocationResult&)> done);

  ActorSystem& actors() { return actors_; }
  ActorId ActorOf(ModuleId module) const;

  // Kills the actor of `module` and recovers it at its current placement
  // node, replaying its message log. In-flight invocations re-run.
  Result<size_t> CrashAndRecover(ModuleId module);

  uint64_t completed() const { return completed_; }

 private:
  struct TaskModule {
    std::string name;
    ActorId actor;
    SimTime service_time;              // input + compute + output
    std::vector<ModuleId> downstream;  // task successors, direct or via data
    int upstream = 0;                  // distinct task predecessors
    SimTime busy;                      // service started in the open window
    GaugeHandle utilization;           // busy fraction of the last window
  };
  struct PendingInvocation {
    SimTime submitted_at;
    std::function<void(const InvocationResult&)> done;
    // Per module, the upstream actors heard from (an invalid id for a
    // source's trigger): a replayed or repeated input counts once.
    std::map<ModuleId, std::set<ActorId>> inputs;
    std::set<ModuleId> sinks_done;
  };

  SimTime ServiceTimeOf(ModuleId module) const;
  void OnMessage(ModuleId module, ActorContext& ctx, const ActorMessage& msg);
  void OnRunDone(ModuleId module, uint64_t invocation);
  void ArmWindow();
  void CloseWindow();

  Simulation* sim_;
  Deployment* deployment_;
  AdaptiveTuner& tuner_;
  DagRuntime analytic_;
  ActorSystem actors_;
  IdGenerator<InvocationId> invocation_ids_;
  std::map<ModuleId, TaskModule> modules_;
  size_t sinks_ = 0;  // tasks with no task successors
  std::map<uint64_t, PendingInvocation> pending_;
  uint64_t completed_ = 0;
  bool ran_in_window_ = false;
  EventHandle window_timer_;  // valid while a window is open
  // Interned metric series for the per-invocation hot path.
  HistogramHandle queue_wait_ms_;
  CounterHandle completed_metric_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_ACTOR_EXECUTOR_H_
