// Microbenchmarks (google-benchmark) for the substrate hot paths: the
// numbers that determine whether the control plane itself could keep up
// with fine-grained allocation at datacenter scale.

#include <benchmark/benchmark.h>

#include "src/aspects/spec_parser.h"
#include "src/attest/quote.h"
#include "src/crypto/cipher.h"
#include "src/crypto/merkle.h"
#include "src/crypto/sha256.h"
#include "src/hw/pool.h"
#include "src/net/fabric.h"
#include "src/obs/span.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "src/workload/medical.h"

namespace udc {
namespace {

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

// One resource quote signed by its device and checked by a user's verifier
// that already holds the device's key: what each quote of a verify RPC
// costs in hashing.
void BM_QuoteSignVerify(benchmark::State& state) {
  const Key256 vendor = KeyFromString("bench");
  const RootOfTrust device(vendor, /*device_identity=*/12);
  QuoteVerifier verifier(vendor);
  const std::string report = ResourceReport(12, "cpu", 3, 2000);
  if (!verifier.Verify(device.Sign(QuoteId(0), QuoteSubject::kResources,
                                   SimTime(0), report))
           .ok()) {
    state.SkipWithError("warm-up quote did not verify");
    return;
  }
  uint64_t id = 0;
  for (auto _ : state) {
    const Quote quote = device.Sign(QuoteId(++id), QuoteSubject::kResources,
                                    SimTime(0), report);
    benchmark::DoNotOptimize(verifier.VerifyClaim(quote, report));
  }
}
BENCHMARK(BM_QuoteSignVerify);

void BM_AeadSealOpen(benchmark::State& state) {
  const AeadCipher cipher(KeyFromString("bench"));
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 7);
  uint64_t nonce = 0;
  for (auto _ : state) {
    const SealedBox box = cipher.Seal(data, ++nonce);
    auto out = cipher.Open(box);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSealOpen)->Arg(4096)->Arg(1 << 16);

void BM_MerkleProofVerify(benchmark::State& state) {
  std::vector<Sha256Digest> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256::Hash(std::to_string(i)));
  }
  const MerkleTree tree(leaves);
  const auto proof = tree.ProveLeaf(static_cast<uint64_t>(state.range(0) / 2));
  const Sha256Digest leaf =
      Sha256::Hash(std::to_string(state.range(0) / 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::VerifyProof(tree.root(), leaf, *proof));
  }
}
BENCHMARK(BM_MerkleProofVerify)->Arg(256)->Arg(65536);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int i = 0; i < state.range(0); ++i) {
      sim.After(SimTime::Micros(i % 997), [] {});
    }
    sim.RunToCompletion();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// Bare schedule+fire through the slot-slab InlineCallback queue, with the
// capture shape of a fabric delivery (24 bytes, held inline).
void BM_EventScheduleFire(benchmark::State& state) {
  EventQueue q;
  uint64_t sink = 0;
  constexpr int kBatch = 1024;
  int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      const uint64_t a = sink + static_cast<uint64_t>(i);
      const void* b = &state;
      const auto cb = [&sink, a, b] {
        sink += a + (b != nullptr ? 1 : 0);
      };
      q.Schedule(SimTime(t + i % 97), cb);
    }
    while (!q.empty()) {
      t = q.PopAndRun().micros();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventScheduleFire);

// Fabric message throughput: interned type, pooled Message, inline delivery
// closure, and one traced net.message span per message.
void BM_FabricMessageThroughput(benchmark::State& state) {
  Simulation sim;
  Topology topo;
  const int rack = topo.AddRack();
  const NodeId a = topo.AddNode(rack, NodeRole::kDevice);
  const NodeId b = topo.AddNode(rack, NodeRole::kDevice);
  Fabric fabric(&sim, &topo);
  uint64_t received = 0;
  fabric.Bind(b, [&received](const Message&) { ++received; });
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      fabric.Send(a, b, "bench.msg", "", Bytes::B(256));
    }
    sim.RunToCompletion();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_FabricMessageThroughput);

void BM_PoolAllocateRelease(benchmark::State& state) {
  Topology topo;
  const int rack = topo.AddRack();
  ResourcePool pool(PoolId(0), DeviceKind::kCpuBlade, topo);
  for (int i = 0; i < 32; ++i) {
    pool.AddDevice(std::make_unique<Device>(
        DeviceId(static_cast<uint64_t>(i)), DeviceKind::kCpuBlade, 32000,
        topo.AddNode(rack, NodeRole::kDevice),
        DeviceProfile::DefaultFor(DeviceKind::kCpuBlade)));
  }
  AllocationConstraints constraints;
  for (auto _ : state) {
    auto alloc = pool.Allocate(TenantId(1), 2500, constraints);
    benchmark::DoNotOptimize(alloc);
    (void)pool.Release(*alloc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocateRelease);

void BM_PoolAllocateReleaseAtScale(benchmark::State& state) {
  // range(0) devices across 16 racks. The point of the indexed allocator:
  // per-allocation cost must not grow with the device count.
  const int devices = static_cast<int>(state.range(0));
  Topology topo;
  const int racks = 16;
  std::vector<int> rack_ids;
  for (int r = 0; r < racks; ++r) {
    rack_ids.push_back(topo.AddRack());
  }
  ResourcePool pool(PoolId(0), DeviceKind::kCpuBlade, topo);
  for (int i = 0; i < devices; ++i) {
    pool.AddDevice(std::make_unique<Device>(
        DeviceId(static_cast<uint64_t>(i)), DeviceKind::kCpuBlade, 32000,
        topo.AddNode(rack_ids[i % racks], NodeRole::kDevice),
        DeviceProfile::DefaultFor(DeviceKind::kCpuBlade)));
  }
  AllocationConstraints constraints;
  constraints.preferred_rack = 3;
  for (auto _ : state) {
    auto alloc = pool.Allocate(TenantId(1), 2500, constraints);
    benchmark::DoNotOptimize(alloc);
    (void)pool.Release(*alloc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocateReleaseAtScale)->Arg(256)->Arg(4096);

void BM_CounterIncrementString(benchmark::State& state) {
  // The string-addressed path: one transparent hash lookup per event.
  MetricsRegistry metrics;
  metrics.IncrementCounter("net.messages_sent");
  for (auto _ : state) {
    metrics.IncrementCounter("net.messages_sent");
  }
  benchmark::DoNotOptimize(metrics.counter("net.messages_sent"));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrementString);

void BM_CounterIncrementHandle(benchmark::State& state) {
  // The interned fast path: a single indexed add, no hashing, no
  // allocation — this is what every steady-state call site pays.
  MetricsRegistry metrics;
  const CounterHandle handle = metrics.CounterSeries("net.messages_sent");
  for (auto _ : state) {
    metrics.Increment(handle);
  }
  benchmark::DoNotOptimize(metrics.value(handle));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrementHandle);

void BM_HistogramObserveHandle(benchmark::State& state) {
  MetricsRegistry metrics;
  const HistogramHandle handle =
      metrics.HistogramSeries("exec.queue_wait_ms");
  double v = 0;
  for (auto _ : state) {
    metrics.Observe(handle, v);
    v += 0.125;
  }
  state.SetItemsProcessed(state.iterations());
}
// Histograms keep exact samples; cap iterations so memory stays bounded.
BENCHMARK(BM_HistogramObserveHandle)->Iterations(1 << 20);

void BM_ParseMedicalSpec(benchmark::State& state) {
  const std::string text = MedicalAppUdcl();
  for (auto _ : state) {
    auto spec = ParseAppSpec(text);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_ParseMedicalSpec);

void BM_SpanBeginEnd(benchmark::State& state) {
  // Cost of one labeled span open/close — the per-boundary overhead the
  // tracing layer adds to every instrumented event.
  SimTime now;
  SpanTracer tracer([&now] { return now; });
  for (auto _ : state) {
    now += SimTime::Micros(1);
    const uint64_t id =
        tracer.Begin("exec", "exec.task_run", {{"module", "A1"}});
    tracer.End(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanBeginEnd);

}  // namespace
}  // namespace udc

BENCHMARK_MAIN();
