// Simulation-kernel macro-benchmark: the event loop itself under a
// kernel-bound workload.
//
// The workload is shaped like the simulator's real steady state — fabric
// message chains (pooled Message objects, interned types, 24-byte delivery
// captures), timer churn with ~half the timers cancelled before they fire
// (slab cancellation via generation bumps), and self-rescheduling ticks —
// with nothing else on the hot path, so events/sec measures the kernel
// rather than placement or crypto.
//
// Every round executes the same events, so the measured phase must
// reproduce fixed event, delivery and timer-fire counts; and the counting
// allocator (bench_common.h) must see ZERO heap allocations once warm. The
// benchmark exits non-zero if either fails.
//
// Writes BENCH_simkernel.json (with host_cores) into the working
// directory. `--smoke` runs a small configuration in well under a second;
// CI wires it up as a ctest so the benchmark and both invariants cannot
// rot.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/units.h"
#include "src/hw/topology.h"
#include "src/net/fabric.h"
#include "src/sim/simulation.h"

namespace {

struct KernelConfig {
  int warmup_rounds = 5000;
  int rounds = 100000;
  int hops = 32;    // fabric chain length per round
  int timers = 16;  // churn timers per round (every other one cancelled)
  int ticks = 8;    // self-rescheduling tick events per round
  // What the measured rounds execute: per round, hops + 1 deliveries,
  // timers / 2 timer fires and `ticks` tick events — 49 events.
  long long expected_events = 4'900'000;
  long long expected_delivered = 3'300'000;
  long long expected_timer_fires = 800'000;
};

struct KernelResult {
  long long events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  long long allocs = 0;
  double allocs_per_event = 0;
  long long messages_delivered = 0;
  long long timer_fires = 0;
};

// A tick that re-arms itself until its budget runs out: the classic
// heartbeat shape (actor wakeups, replication timers). The 8-byte [this]
// capture stays inline.
struct Ticker {
  udc::Simulation* sim = nullptr;
  int remaining = 0;
  void Fire() {
    if (remaining <= 0) {
      return;
    }
    --remaining;
    sim->After(udc::SimTime::Micros(3), [this] { Fire(); });
  }
};

KernelResult RunKernel(const KernelConfig& config) {
  udc::Simulation sim(/*seed=*/42);
  // Small span budget: the warm-up exhausts it, so the measured phase runs
  // in the long-lived regime where Begin() drops instead of recording.
  sim.spans().set_max_spans(1 << 10);

  udc::Topology topo;
  const int rack = topo.AddRack();
  const udc::NodeId node_a = topo.AddNode(rack, udc::NodeRole::kDevice);
  const udc::NodeId node_b = topo.AddNode(rack, udc::NodeRole::kDevice);
  udc::Fabric fabric(&sim, &topo);

  // Message chain: a->b->a->... with the hop budget riding in the tag
  // scratch word, so no per-hop payload formatting or parsing.
  long long delivered = 0;
  fabric.Bind(node_b, [&](const udc::Message& m) {
    ++delivered;
    if (m.tag > 0) {
      fabric.Send(node_b, node_a, "bench.hop", "", udc::Bytes::B(64),
                  m.tag - 1);
    }
  });
  fabric.Bind(node_a, [&](const udc::Message& m) {
    ++delivered;
    if (m.tag > 0) {
      fabric.Send(node_a, node_b, "bench.hop", "", udc::Bytes::B(64),
                  m.tag - 1);
    }
  });

  Ticker ticker;
  ticker.sim = &sim;

  long long timer_fires = 0;
  std::vector<udc::EventHandle> handles;
  handles.reserve(static_cast<size_t>(config.timers));

  const auto run_round = [&] {
    fabric.Send(node_a, node_b, "bench.hop", "", udc::Bytes::B(64),
                static_cast<uint64_t>(config.hops));
    handles.clear();
    for (int t = 0; t < config.timers; ++t) {
      handles.push_back(sim.After(udc::SimTime::Micros(2 + t % 11),
                                  [&timer_fires] { ++timer_fires; }));
    }
    for (size_t t = 0; t < handles.size(); t += 2) {
      sim.Cancel(handles[t]);
    }
    ticker.remaining = config.ticks;
    ticker.Fire();
    sim.RunToCompletion();
  };

  long long delivered_before = 0;
  long long fires_before = 0;
  uint64_t events_before = 0;
  const udc::bench::MeasureResult timed = udc::bench::Measure(
      config.warmup_rounds, config.rounds, run_round, [&] {
        delivered_before = delivered;
        fires_before = timer_fires;
        events_before = sim.events_executed();
      });

  KernelResult result;
  result.events =
      static_cast<long long>(sim.events_executed() - events_before);
  result.allocs = timed.allocs;
  result.wall_seconds = timed.wall_seconds;
  result.messages_delivered = delivered - delivered_before;
  result.timer_fires = timer_fires - fires_before;
  if (result.wall_seconds > 0) {
    result.events_per_sec =
        static_cast<double>(result.events) / result.wall_seconds;
  }
  if (result.events > 0) {
    result.allocs_per_event =
        static_cast<double>(result.allocs) / static_cast<double>(result.events);
  }
  return result;
}

void PrintResult(const KernelResult& r) {
  std::printf(
      "%12.0f events/s  %lld events in %.3fs  allocs/event=%.4f "
      "(%lld allocs, %lld delivered, %lld timer fires)\n",
      r.events_per_sec, r.events, r.wall_seconds, r.allocs_per_event,
      r.allocs, r.messages_delivered, r.timer_fires);
}

void WriteJson(const KernelConfig& config, bool smoke, const KernelResult& r) {
  udc::bench::JsonFile json("BENCH_simkernel.json");
  if (!json) {
    return;
  }
  std::fprintf(json.get(),
               "{\n  \"benchmark\": \"sim_kernel\",\n"
               "  \"config\": {\"rounds\": %d, \"warmup_rounds\": %d, "
               "\"hops\": %d, \"timers\": %d, \"ticks\": %d, "
               "\"host_cores\": %d, \"smoke\": %s},\n"
               "  \"fast\": {\n"
               "    \"events\": %lld,\n"
               "    \"wall_seconds\": %.4f,\n"
               "    \"events_per_sec\": %.0f,\n"
               "    \"allocs\": %lld,\n"
               "    \"allocs_per_event\": %.4f,\n"
               "    \"messages_delivered\": %lld,\n"
               "    \"timer_fires\": %lld\n"
               "  }\n}\n",
               config.rounds, config.warmup_rounds, config.hops, config.timers,
               config.ticks, udc::bench::HostCores(), smoke ? "true" : "false",
               r.events, r.wall_seconds, r.events_per_sec, r.allocs,
               r.allocs_per_event, r.messages_delivered, r.timer_fires);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = udc::bench::ParseSmokeFlag(argc, argv);

  KernelConfig config;
  if (smoke) {
    config.warmup_rounds = 500;
    config.rounds = 2000;
    config.expected_events = 98'000;
    config.expected_delivered = 66'000;
    config.expected_timer_fires = 16'000;
  }

  std::printf("sim_kernel: %d rounds (%d warmup), %d hops + %d timers + "
              "%d ticks per round, host_cores=%d%s\n",
              config.rounds, config.warmup_rounds, config.hops, config.timers,
              config.ticks, udc::bench::HostCores(), smoke ? " (smoke)" : "");

  const KernelResult result = RunKernel(config);
  PrintResult(result);

  // The workload is fixed, so the kernel must execute exactly its events —
  // no lost, duplicated or leaked-past-cancel callbacks.
  if (result.events != config.expected_events ||
      result.messages_delivered != config.expected_delivered ||
      result.timer_fires != config.expected_timer_fires) {
    std::fprintf(stderr,
                 "FAIL: executed %lld events / %lld deliveries / %lld timer "
                 "fires, expected %lld / %lld / %lld\n",
                 result.events, result.messages_delivered, result.timer_fires,
                 config.expected_events, config.expected_delivered,
                 config.expected_timer_fires);
    return 1;
  }
  // The headline invariant: after warm-up the kernel allocates nothing.
  if (result.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: kernel allocated %lld times in the measured phase "
                 "(expected 0)\n",
                 result.allocs);
    return 1;
  }

  WriteJson(config, smoke, result);
  return 0;
}
