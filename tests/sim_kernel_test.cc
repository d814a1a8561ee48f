// Simulation-kernel fast path: InlineCallback storage/move/destruction, the
// slot-slab event queue's generation handles (cancel-after-fire, handle
// reuse ABA, stale heap entries), and — the load-bearing property — that the
// kernel is indistinguishable from the retired legacy queue: a randomized
// queue-level differential against LegacyEventQueue, plus two full
// scenarios (medical pipeline, replication under failures) whose event
// counts, traces and metrics must match the legacy kernel's frozen output.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/runtime.h"
#include "src/core/udc_cloud.h"
#include "src/dist/replication.h"
#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/obs/exposition.h"
#include "src/sim/event_queue.h"
#include "src/sim/inline_callback.h"
#include "src/sim/simulation.h"
#include "src/workload/medical.h"
#include "tests/legacy_event_queue.h"

namespace udc {
namespace {

// Counts constructions/destructions/invocations through shared state so the
// callable can be moved freely.
struct Probe {
  std::shared_ptr<int> destroyed = std::make_shared<int>(0);
  std::shared_ptr<int> invoked = std::make_shared<int>(0);
};

template <size_t kPad>
struct PaddedCallable {
  std::shared_ptr<int> destroyed;
  std::shared_ptr<int> invoked;
  char pad[kPad] = {};
  bool moved_from = false;

  PaddedCallable(const Probe& probe)
      : destroyed(probe.destroyed), invoked(probe.invoked) {}
  PaddedCallable(PaddedCallable&& other) noexcept
      : destroyed(std::move(other.destroyed)),
        invoked(std::move(other.invoked)) {
    other.moved_from = true;
  }
  PaddedCallable(const PaddedCallable&) = delete;
  ~PaddedCallable() {
    if (!moved_from) {
      ++*destroyed;
    }
  }
  void operator()() { ++*invoked; }
};

TEST(InlineCallbackTest, SmallCaptureStaysInline) {
  Probe probe;
  InlineCallback cb = PaddedCallable<8>(probe);
  EXPECT_TRUE(cb.is_inline());
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(*probe.invoked, 2);
  cb.Reset();
  EXPECT_EQ(*probe.destroyed, 1);
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallbackTest, LargeCaptureSpillsToSlabAndIsReturned) {
  InlineCallback::ResetSlabStatsForTest();
  Probe probe;
  {
    InlineCallback cb = PaddedCallable<200>(probe);
    EXPECT_FALSE(cb.is_inline());
    EXPECT_EQ(InlineCallback::slab_stats().spills, 1u);
    EXPECT_EQ(InlineCallback::slab_stats().outstanding, 1u);
    cb();
  }
  EXPECT_EQ(*probe.invoked, 1);
  EXPECT_EQ(*probe.destroyed, 1);
  EXPECT_EQ(InlineCallback::slab_stats().outstanding, 0u);
}

TEST(InlineCallbackTest, SlabBlocksAreRecycledAcrossCallbacks) {
  InlineCallback::ResetSlabStatsForTest();
  Probe probe;
  { InlineCallback warm = PaddedCallable<200>(probe); }
  const uint64_t fresh_after_warm = InlineCallback::slab_stats().fresh_blocks;
  const uint64_t reused_after_warm = InlineCallback::slab_stats().reused_blocks;
  for (int i = 0; i < 100; ++i) {
    InlineCallback cb = PaddedCallable<200>(probe);
    cb();
  }
  // Steady state: every spill reuses the warm block; no new operator new.
  EXPECT_EQ(InlineCallback::slab_stats().fresh_blocks, fresh_after_warm);
  EXPECT_EQ(InlineCallback::slab_stats().reused_blocks,
            reused_after_warm + 100);
}

TEST(InlineCallbackTest, MoveTransfersOwnershipInline) {
  Probe probe;
  InlineCallback a = PaddedCallable<8>(probe);
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*probe.invoked, 1);
  b.Reset();
  // Exactly one live copy was ever destroyed.
  EXPECT_EQ(*probe.destroyed, 1);
}

TEST(InlineCallbackTest, MoveTransfersOwnershipSpilled) {
  InlineCallback::ResetSlabStatsForTest();
  Probe probe;
  InlineCallback a = PaddedCallable<200>(probe);
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(InlineCallback::slab_stats().outstanding, 1u);
  b();
  b.Reset();
  EXPECT_EQ(*probe.invoked, 1);
  EXPECT_EQ(*probe.destroyed, 1);
  EXPECT_EQ(InlineCallback::slab_stats().outstanding, 0u);
}

TEST(InlineCallbackTest, WrapsStdFunctionAsLegacyBridge) {
  int fired = 0;
  std::function<void()> fn = [&fired] { ++fired; };
  InlineCallback cb = std::move(fn);
  cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueSlotTest, CancelAfterFireFailsEvenWhenSlotReused) {
  EventQueue q;
  int fired_a = 0;
  int fired_b = 0;
  const EventHandle a = q.Schedule(SimTime::Millis(1), [&] { ++fired_a; });
  q.PopAndRun();
  // B reuses A's slot (single-slot queue); A's stale handle must not be able
  // to cancel it.
  const EventHandle b = q.Schedule(SimTime::Millis(2), [&] { ++fired_b; });
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_NE(a.gen, b.gen);
  EXPECT_FALSE(q.Cancel(a));
  q.PopAndRun();
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
  EXPECT_FALSE(q.Cancel(b));  // after fire
}

TEST(EventQueueSlotTest, CancelledSlotReuseKeepsTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  const EventHandle h = q.Schedule(SimTime::Millis(5), [&] { order.push_back(5); });
  EXPECT_TRUE(q.Cancel(h));
  // Reuses the cancelled slot while its stale heap entry (for t=5ms) is
  // still buried in the heap.
  q.Schedule(SimTime::Millis(1), [&] { order.push_back(1); });
  EXPECT_EQ(q.NextTime(), SimTime::Millis(1));
  while (!q.empty()) {
    q.PopAndRun();
  }
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(EventQueueSlotTest, CancelReleasesCaptureImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  const EventHandle h = q.Schedule(SimTime::Millis(1), [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_EQ(token.use_count(), 1);  // capture destroyed at cancel, not pop
}

TEST(EventQueueSlotTest, SequentialEventsShareOneSlot) {
  EventQueue q;
  int fired = 0;
  q.Schedule(SimTime::Millis(1), [&] { ++fired; });
  for (int i = 0; i < 999; ++i) {
    q.PopAndRun();
    q.Schedule(SimTime::Millis(1), [&] { ++fired; });
  }
  q.PopAndRun();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(q.slot_capacity(), 1u);
  EXPECT_EQ(q.total_scheduled(), 1000u);
}

// Queue-level differential: identical op sequences against the fast queue
// and the legacy oracle must agree on every observable — fire order, cancel
// results, next-event times and sizes.
TEST(KernelDifferentialTest, RandomScheduleCancelMatchesLegacyQueue) {
  struct Op {
    int64_t at_us;       // relative to current time of the op index
    bool cancel;         // cancel a previously scheduled event
    size_t cancel_victim;
  };
  Rng rng(0xD1FFu);
  std::vector<Op> ops;
  for (int i = 0; i < 2000; ++i) {
    Op op;
    op.at_us = rng.NextInt64InRange(0, 10000);
    op.cancel = i > 0 && rng.NextBool(0.3);
    op.cancel_victim =
        static_cast<size_t>(rng.NextInt64InRange(0, i > 0 ? i - 1 : 0));
    ops.push_back(op);
  }

  EventQueue fast;
  LegacyEventQueue legacy;
  std::vector<int> fast_fired, legacy_fired;
  std::vector<EventHandle> fast_handles, legacy_handles;

  for (size_t i = 0; i < ops.size(); ++i) {
    fast_handles.push_back(fast.Schedule(
        SimTime(ops[i].at_us), [&fast_fired, i] { fast_fired.push_back(static_cast<int>(i)); }));
    legacy_handles.push_back(legacy.Schedule(
        SimTime(ops[i].at_us),
        [&legacy_fired, i] { legacy_fired.push_back(static_cast<int>(i)); }));
    if (ops[i].cancel) {
      const size_t victim = ops[i].cancel_victim;
      EXPECT_EQ(fast.Cancel(fast_handles[victim]),
                legacy.Cancel(legacy_handles[victim]));
    }
    ASSERT_EQ(fast.size(), legacy.size());
  }
  while (!legacy.empty()) {
    ASSERT_FALSE(fast.empty());
    ASSERT_EQ(fast.NextTime(), legacy.NextTime());
    EXPECT_EQ(fast.PopAndRun(), legacy.PopAndRun());
  }
  EXPECT_TRUE(fast.empty());
  EXPECT_EQ(fast_fired, legacy_fired);
  EXPECT_EQ(fast.total_scheduled(), legacy.total_scheduled());
}

// Scenario-level determinism: the same seed must reproduce, event for event
// and byte for byte, what the legacy kernel (std::function queue with
// hash-set cancellation) produced for it. The legacy kernel is retired; its
// output on these two scenarios is frozen below as event counts and FNV-1a
// 64 hashes of trace().Dump() and the Prometheus exposition, recorded while
// both kernels still ran side by side and agreed.
struct ScenarioResult {
  std::string trace;
  std::string metrics;
  uint64_t events_executed = 0;
};

struct FrozenScenario {
  uint64_t events_executed;
  const char* trace_fnv;
  const char* metrics_fnv;
};

std::string Fnv1aHex(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;  // FNV-1a 64 prime
  }
  return StrFormat("0x%016llx", static_cast<unsigned long long>(hash));
}

// String comparison, so a mismatch prints the actual hash ready to paste.
void ExpectMatchesFrozen(const ScenarioResult& actual,
                         const FrozenScenario& frozen) {
  EXPECT_EQ(actual.events_executed, frozen.events_executed);
  EXPECT_EQ(Fnv1aHex(actual.trace), frozen.trace_fnv) << actual.trace;
  EXPECT_EQ(Fnv1aHex(actual.metrics), frozen.metrics_fnv) << actual.metrics;
}

ScenarioResult RunMedicalScenario() {
  UdcCloudConfig config;
  config.datacenter.racks = 4;
  UdcCloud cloud(config);
  const TenantId tenant = cloud.RegisterTenant("hospital");
  auto spec = MedicalAppSpec();
  auto deployment = cloud.Deploy(tenant, *spec);
  EXPECT_TRUE(deployment.ok());
  DagRuntime runtime(cloud.sim(), deployment->get());
  EXPECT_TRUE(runtime.RunOnce().ok());
  cloud.sim()->RunUntil(SimTime::Minutes(10));
  ScenarioResult result;
  result.trace = cloud.sim()->trace().Dump();
  result.metrics = PrometheusExposition(cloud.sim()->metrics());
  result.events_executed = cloud.sim()->events_executed();
  return result;
}

// The medical hashes were re-recorded once, when flat deploys moved onto
// the region router: only the deploy span's labels (`cell=0`) and the
// router's three sched.cell_* series differ from the kernels' agreed
// output, and the event count is the same 6.
TEST(KernelDifferentialTest, MedicalPipelineIsKernelInvariant) {
  ExpectMatchesFrozen(RunMedicalScenario(),
                      {6, "0x9649d82e5dfa401e", "0x120cca88c92d56b8"});
}

ScenarioResult RunReplicationScenario() {
  Simulation sim(7);
  Topology topo;
  const int r0 = topo.AddRack();
  const int r1 = topo.AddRack();
  const NodeId client = topo.AddNode(r0, NodeRole::kDevice);
  const std::vector<NodeId> replicas = {topo.AddNode(r0, NodeRole::kDevice),
                                        topo.AddNode(r0, NodeRole::kDevice),
                                        topo.AddNode(r1, NodeRole::kDevice)};
  Fabric fabric(&sim, &topo);
  ReplicationConfig config;
  config.protocol = ReplicationProtocol::kPrimaryBackup;
  config.replication_factor = 3;
  ReplicatedStore store(&sim, &fabric, &topo, "store", replicas, config,
                        nullptr);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    sim.After(SimTime::Millis(i), [&, i] {
      if (i == 20) {
        fabric.SetNodeUp(replicas[2], false);
      }
      if (i == 35) {
        fabric.SetNodeUp(replicas[2], true);
      }
      if (i % 3 == 0) {
        store.Write(client, Bytes::KiB(1), [&](OpResult) { ++completed; });
      } else {
        store.Read(client, Bytes::KiB(1), [&](OpResult) { ++completed; });
      }
    });
  }
  sim.RunToCompletion();
  EXPECT_EQ(completed, 50);
  ScenarioResult result;
  result.trace = sim.trace().Dump();
  result.metrics = PrometheusExposition(sim.metrics());
  result.events_executed = sim.events_executed();
  return result;
}

TEST(KernelDifferentialTest, ReplicationUnderFailuresIsKernelInvariant) {
  ExpectMatchesFrozen(RunReplicationScenario(),
                      {100, "0x536208006f0ca9ae", "0xb26cc81ada57d015"});
}

TEST(FabricFastPathTest, SetNodeUpDoesNotGrowDownMap) {
  Simulation sim;
  Topology topo;
  const int rack = topo.AddRack();
  const NodeId a = topo.AddNode(rack, NodeRole::kDevice);
  const NodeId b = topo.AddNode(rack, NodeRole::kDevice);
  Fabric fabric(&sim, &topo);
  for (int i = 0; i < 100; ++i) {
    fabric.SetNodeUp(a, false);
    fabric.SetNodeUp(a, true);
    fabric.SetNodeUp(b, true);  // marking an up node up stores nothing
  }
  EXPECT_TRUE(fabric.IsNodeUp(a));
  EXPECT_EQ(fabric.down_node_count(), 0u);
  fabric.SetNodeUp(a, false);
  EXPECT_EQ(fabric.down_node_count(), 1u);
  EXPECT_FALSE(fabric.IsNodeUp(a));
}

TEST(FabricFastPathTest, MessagesArePooledAndTypesInterned) {
  Simulation sim;
  Topology topo;
  const int rack = topo.AddRack();
  const NodeId a = topo.AddNode(rack, NodeRole::kDevice);
  const NodeId b = topo.AddNode(rack, NodeRole::kDevice);
  Fabric fabric(&sim, &topo);
  std::vector<std::string> seen_types;
  uint32_t first_type_id = 0;
  fabric.Bind(b, [&](const Message& msg) {
    seen_types.push_back(msg.type);
    if (first_type_id == 0) {
      first_type_id = msg.type_id;
    }
    EXPECT_EQ(msg.type_id, first_type_id);
  });
  for (int i = 0; i < 200; ++i) {
    fabric.Send(a, b, "bench.ping", "payload", Bytes::B(128));
    sim.RunToCompletion();
  }
  EXPECT_EQ(seen_types.size(), 200u);
  EXPECT_EQ(seen_types.front(), "bench.ping");
  EXPECT_NE(first_type_id, 0u);
  // Sequential sends share one pooled Message and one interned type.
  EXPECT_EQ(fabric.message_arena_size(), 1u);
  EXPECT_EQ(fabric.interned_type_count(), 1u);
  EXPECT_EQ(fabric.messages_delivered(), 200u);
}

TEST(FabricFastPathTest, DeliveredCounterIsExported) {
  Simulation sim;
  Topology topo;
  const int rack = topo.AddRack();
  const NodeId a = topo.AddNode(rack, NodeRole::kDevice);
  const NodeId b = topo.AddNode(rack, NodeRole::kDevice);
  const NodeId unbound = topo.AddNode(rack, NodeRole::kDevice);
  Fabric fabric(&sim, &topo);
  fabric.Bind(b, [](const Message&) {});
  fabric.Send(a, b, "t", "", Bytes::B(1));
  fabric.Send(a, unbound, "t", "", Bytes::B(1));  // no handler: dropped
  sim.RunToCompletion();
  const std::string exposition = PrometheusExposition(sim.metrics());
  EXPECT_NE(exposition.find("udc_net_messages_delivered 1"), std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("udc_net_messages_dropped 1"), std::string::npos);
}

TEST(RpcFastPathTest, TagCarriedWireFormatRoundTrips) {
  Simulation sim;
  Topology topo;
  const int rack = topo.AddRack();
  const NodeId n1 = topo.AddNode(rack, NodeRole::kDevice);
  const NodeId n2 = topo.AddNode(rack, NodeRole::kDevice);
  Fabric fabric(&sim, &topo);
  RpcEndpoint client(&sim, &fabric, n1);
  RpcEndpoint server(&sim, &fabric, n2);
  server.Serve("echo", [](const Message& msg) { return msg.payload; });

  std::string got;
  client.Call(n2, "echo", "hello", Bytes::B(100), Bytes::B(100),
              SimTime::Seconds(1),
              [&](Result<std::string> r) { ASSERT_TRUE(r.ok()); got = *r; });
  sim.RunToCompletion();
  EXPECT_EQ(got, "hello");

  // Unknown methods produce a typed error, not a hang.
  bool failed = false;
  client.Call(n2, "nope", "x", Bytes::B(10), Bytes::B(10), SimTime::Seconds(1),
              [&](Result<std::string> r) { failed = !r.ok(); });
  sim.RunToCompletion();
  EXPECT_TRUE(failed);
}

}  // namespace
}  // namespace udc
