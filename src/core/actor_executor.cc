#include "src/core/actor_executor.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"

namespace udc {

namespace {

// Messages carry only the invocation id; the transfer and read/write costs
// are pre-charged inside each module's service time so that one unloaded
// invocation through the actor path matches the analytic DagRuntime to the
// microsecond, while contention emerges from the actors' queues.
constexpr Bytes kControlMessageSize = Bytes(0);

std::string InvocationPayload(uint64_t invocation) {
  return StrFormat("%llu", static_cast<unsigned long long>(invocation));
}

// Task successors of `task`: direct, or readers of a data module it writes.
std::vector<ModuleId> TaskSuccessors(const ModuleGraph& graph, ModuleId task) {
  std::set<ModuleId> out;
  for (const ModuleId succ : graph.Successors(task)) {
    if (graph.Find(succ)->kind == ModuleKind::kTask) {
      out.insert(succ);
      continue;
    }
    for (const ModuleId reader : graph.Successors(succ)) {
      if (graph.Find(reader)->kind == ModuleKind::kTask) {
        out.insert(reader);
      }
    }
  }
  return {out.begin(), out.end()};
}

}  // namespace

ActorExecutor::ActorExecutor(Simulation* sim, Deployment* deployment,
                             AdaptiveTuner& tuner)
    : sim_(sim), deployment_(deployment), tuner_(tuner),
      analytic_(sim, deployment),
      actors_(sim, &deployment->datacenter()->topology()),
      queue_wait_ms_(
          sim->metrics().HistogramSeries("actor_exec.queue_wait_ms")),
      completed_metric_(
          sim->metrics().CounterSeries("actor_exec.completed")) {
  const ModuleGraph& graph = deployment_->spec().graph;
  for (const ModuleId task : graph.TaskIds()) {
    TaskModule& m = modules_[task];
    m.name = graph.Find(task)->name;
    m.service_time = ServiceTimeOf(task);
    m.downstream = TaskSuccessors(graph, task);
    for (const ModuleId next : m.downstream) {
      ++modules_[next].upstream;
    }
    sinks_ += m.downstream.empty() ? 1 : 0;
    m.utilization = sim_->metrics().GaugeSeries(
        "actor_exec.utilization", {{"module", m.name}});
    const Placement* placement = deployment_->PlacementOf(task);
    m.actor = actors_.Spawn(
        placement != nullptr ? placement->home : NodeId(0),
        [this, task](ActorContext& ctx, const ActorMessage& msg) {
          OnMessage(task, ctx, msg);
        });
  }
}

ActorExecutor::~ActorExecutor() { sim_->Cancel(window_timer_); }

ActorId ActorExecutor::ActorOf(ModuleId module) const {
  const auto it = modules_.find(module);
  return it == modules_.end() ? ActorId::Invalid() : it->second.actor;
}

SimTime ActorExecutor::ServiceTimeOf(ModuleId module) const {
  // Everything the analytic model charges a stage.
  const auto stage = analytic_.ComputeStage(module);
  return stage.ok()
             ? stage->input_time + stage->compute_time + stage->output_time
             : SimTime::Millis(1);
}

void ActorExecutor::OnMessage(ModuleId module, ActorContext& ctx,
                              const ActorMessage& msg) {
  uint64_t invocation = 0;
  if (!ParseUint64(msg.payload, &invocation)) {
    return;
  }
  const auto it = pending_.find(invocation);
  if (it == pending_.end()) {
    return;  // invocation already completed (e.g. a recovery replay)
  }
  TaskModule& m = modules_.at(module);
  std::set<ActorId>& heard = it->second.inputs[module];
  if (!heard.insert(msg.from).second ||
      static_cast<int>(heard.size()) < std::max(m.upstream, 1)) {
    return;  // a repeated input, or the join waits (A4 needs A2 and A3)
  }
  // Time spent in the mailbox behind earlier invocations.
  const SimTime queue_wait = ctx.now() - msg.delivered_at;
  const SpanLabels labels = {{"module", m.name},
                             {"invocation", InvocationPayload(invocation)}};
  if (queue_wait > SimTime(0)) {
    const uint64_t wait_span = sim_->spans().BeginAt(
        msg.delivered_at, "exec", "exec.queue_wait", labels);
    sim_->spans().EndAt(wait_span, ctx.now());
    sim_->metrics().Observe(queue_wait_ms_, queue_wait.millis());
  }
  const uint64_t run_span =
      sim_->spans().Begin("exec", "exec.task_run", labels);
  m.busy += m.service_time;
  ran_in_window_ = true;
  ctx.Work(m.service_time);  // later messages queue behind this invocation
  sim_->After(m.service_time, [this, module, invocation, run_span] {
    sim_->spans().End(run_span);
    OnRunDone(module, invocation);
  });
}

void ActorExecutor::OnRunDone(ModuleId module, uint64_t invocation) {
  const TaskModule& m = modules_.at(module);
  for (const ModuleId next : m.downstream) {
    actors_.Send(m.actor, modules_.at(next).actor, "inv",
                 InvocationPayload(invocation), kControlMessageSize);
  }
  if (!m.downstream.empty()) {
    return;
  }
  // A sink: the invocation is done once every sink has run it, each counted
  // once however often a recovery re-runs it.
  const auto it = pending_.find(invocation);
  if (it == pending_.end() || !it->second.sinks_done.insert(module).second ||
      it->second.sinks_done.size() < sinks_) {
    return;
  }
  InvocationResult result;
  result.id = InvocationId(invocation);
  result.submitted_at = it->second.submitted_at;
  result.completed_at = sim_->now();
  auto done = std::move(it->second.done);
  pending_.erase(it);
  ++completed_;
  sim_->metrics().Increment(completed_metric_);
  if (done) {
    done(result);
  }
}

InvocationId ActorExecutor::Submit(
    std::function<void(const InvocationResult&)> done) {
  const InvocationId id = invocation_ids_.Next();
  PendingInvocation& pending = pending_[id.value()];
  pending.submitted_at = sim_->now();
  pending.done = std::move(done);
  ArmWindow();
  for (const auto& [module, m] : modules_) {
    if (m.upstream == 0) {
      actors_.Inject(m.actor, "inv", InvocationPayload(id.value()),
                     kControlMessageSize);
    }
  }
  return id;
}

void ActorExecutor::ArmWindow() {
  if (!window_timer_.valid()) {
    const int64_t next = sim_->now().micros() / kWindow.micros() + 1;
    window_timer_ = sim_->At(kWindow * next, [this] { CloseWindow(); });
  }
}

void ActorExecutor::CloseWindow() {
  window_timer_ = EventHandle();
  bool resized = false;
  for (auto& [module, m] : modules_) {
    const double utilization = m.busy.seconds() / kWindow.seconds();
    m.busy = SimTime(0);
    sim_->metrics().Set(m.utilization, utilization);
    const auto delta = tuner_.Observe(module, utilization);
    resized |= delta.ok() && *delta != 0;
  }
  // A resize changes the module's compute time and, when the slice spilled
  // to another node, the input times of the modules it feeds.
  if (resized) {
    for (auto& [module, m] : modules_) {
      m.service_time = ServiceTimeOf(module);
    }
  }
  // A completed invocation is never replayed, so its logged messages would
  // only cost memory.
  actors_.EraseFromLogs([this](const ActorMessage& msg) {
    uint64_t invocation = 0;
    return !ParseUint64(msg.payload, &invocation) ||
           !pending_.contains(invocation);
  });
  if (std::exchange(ran_in_window_, false) || !pending_.empty()) {
    ArmWindow();
  }
}

Result<size_t> ActorExecutor::CrashAndRecover(ModuleId module) {
  const auto it = modules_.find(module);
  if (it == modules_.end()) {
    return Status(NotFoundError("module has no actor"));
  }
  UDC_RETURN_IF_ERROR(actors_.Kill(it->second.actor));
  // The dead incarnation's join state goes with it; the replay rebuilds it.
  for (auto& [invocation, pending] : pending_) {
    pending.inputs.erase(module);
  }
  const Placement* placement = deployment_->PlacementOf(module);
  return actors_.Recover(it->second.actor,
                         placement != nullptr ? placement->home : NodeId(0));
}

}  // namespace udc
