// Property-based tests: randomized sweeps over invariants that must hold
// for any input, parameterized by seed (TEST_P).

#include <gtest/gtest.h>

#include <numeric>

#include "src/common/rng.h"
#include "src/dist/consistency.h"
#include "src/hw/pool.h"
#include "src/aspects/spec_parser.h"
#include "src/crypto/cipher.h"
#include "src/ir/partitioner.h"
#include "src/sim/simulation.h"

namespace udc {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

// --- Pool conservation: random allocate/release/resize never leaks or
// double-frees capacity, and per-tenant ledgers always sum to allocations.
TEST_P(SeededTest, PoolConservationUnderRandomOps) {
  Rng rng(GetParam());
  Topology topo;
  const int r0 = topo.AddRack();
  const int r1 = topo.AddRack();
  ResourcePool pool(PoolId(0), DeviceKind::kCpuBlade, topo);
  for (int i = 0; i < 6; ++i) {
    pool.AddDevice(std::make_unique<Device>(
        DeviceId(static_cast<uint64_t>(i)), DeviceKind::kCpuBlade, 32000,
        topo.AddNode(i % 2 == 0 ? r0 : r1, NodeRole::kDevice),
        DeviceProfile::DefaultFor(DeviceKind::kCpuBlade)));
  }
  const int64_t capacity = pool.TotalCapacity();

  std::vector<PoolAllocation> live;
  int64_t expected_allocated = 0;
  for (int step = 0; step < 300; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.5 || live.empty()) {
      AllocationConstraints c;
      c.single_device = rng.NextBool(0.3);
      c.require_exclusive = rng.NextBool(0.1);
      c.preferred_rack = rng.NextBool(0.5) ? static_cast<int>(rng.NextUint64(2)) : -1;
      const int64_t amount = 1 + static_cast<int64_t>(rng.NextUint64(20000));
      auto alloc = pool.Allocate(TenantId(rng.NextUint64(4)), amount, c);
      if (alloc.ok()) {
        expected_allocated += amount;
        live.push_back(*std::move(alloc));
      }
    } else if (action < 0.8) {
      const size_t idx = rng.NextUint64(live.size());
      expected_allocated -= live[idx].total();
      ASSERT_TRUE(pool.Release(live[idx]).ok());
      live.erase(live.begin() + static_cast<long>(idx));
    } else {
      const size_t idx = rng.NextUint64(live.size());
      const int64_t before = live[idx].total();
      const int64_t delta =
          rng.NextInt64InRange(-(before - 1), 4000);
      if (delta != 0) {
        const Status s = pool.Resize(live[idx], delta);
        if (s.ok()) {
          expected_allocated += live[idx].total() - before;
        }
      }
    }
    // Invariants after every step.
    ASSERT_EQ(pool.TotalAllocated(), expected_allocated);
    ASSERT_LE(pool.TotalAllocated(), capacity);
    int64_t ledger_sum = 0;
    for (const LedgerEntry& e : pool.LedgerSnapshot()) {
      ASSERT_GT(e.amount, 0);
      ledger_sum += e.amount;
    }
    ASSERT_EQ(ledger_sum, expected_allocated);
  }
  for (const PoolAllocation& a : live) {
    ASSERT_TRUE(pool.Release(a).ok());
  }
  ASSERT_EQ(pool.TotalAllocated(), 0);
}

// --- Exclusive allocations never share a device with another tenant.
TEST_P(SeededTest, ExclusivityIsNeverViolated) {
  Rng rng(GetParam() + 1000);
  Topology topo;
  const int rack = topo.AddRack();
  ResourcePool pool(PoolId(0), DeviceKind::kGpuBoard, topo);
  for (int i = 0; i < 4; ++i) {
    pool.AddDevice(std::make_unique<Device>(
        DeviceId(static_cast<uint64_t>(i)), DeviceKind::kGpuBoard, 4000,
        topo.AddNode(rack, NodeRole::kDevice),
        DeviceProfile::DefaultFor(DeviceKind::kGpuBoard)));
  }
  std::vector<PoolAllocation> live;
  for (int step = 0; step < 150; ++step) {
    if (rng.NextBool(0.6) || live.empty()) {
      AllocationConstraints c;
      c.require_exclusive = rng.NextBool(0.5);
      auto alloc = pool.Allocate(TenantId(rng.NextUint64(3)),
                                 1 + static_cast<int64_t>(rng.NextUint64(3000)),
                                 c);
      if (alloc.ok()) {
        live.push_back(*std::move(alloc));
      }
    } else {
      const size_t idx = rng.NextUint64(live.size());
      ASSERT_TRUE(pool.Release(live[idx]).ok());
      live.erase(live.begin() + static_cast<long>(idx));
    }
    for (const auto& d : pool.devices()) {
      if (d->exclusive()) {
        ASSERT_LE(d->tenant_count(), 1u);
        if (d->tenant_count() == 1) {
          ASSERT_EQ(d->tenants()[0], d->exclusive_tenant());
        }
      }
    }
  }
}

// --- Consistency resolution: strictest-wins is idempotent, commutative and
// upper-bounds every input.
TEST_P(SeededTest, ConsistencyResolutionIsAJoin) {
  Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 1 + rng.NextUint64(6);
    std::vector<ConsistencyLevel> levels;
    for (size_t i = 0; i < n; ++i) {
      levels.push_back(static_cast<ConsistencyLevel>(rng.NextUint64(5)));
    }
    const auto resolved =
        ResolveConsistency(levels, ConflictPolicy::kStrictestWins);
    ASSERT_TRUE(resolved.ok());
    for (ConsistencyLevel l : levels) {
      ASSERT_FALSE(StricterThan(l, resolved->level));
    }
    // Join with itself is a fixed point.
    const auto again = ResolveConsistency(
        {resolved->level, resolved->level}, ConflictPolicy::kReject);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->level, resolved->level);
    // Permutation invariance.
    std::vector<ConsistencyLevel> shuffled = levels;
    rng.Shuffle(shuffled);
    ASSERT_EQ(
        ResolveConsistency(shuffled, ConflictPolicy::kStrictestWins)->level,
        resolved->level);
  }
}

// --- Chain partitioner matches brute force on small instances.
TEST_P(SeededTest, PartitionerMatchesBruteForce) {
  Rng rng(GetParam() + 3000);
  const size_t n = 4 + rng.NextUint64(3);  // 4..6 segments
  LegacyProgram p;
  p.name = "bf";
  for (size_t i = 0; i < n; ++i) {
    p.segments.push_back(CodeSegment{"s", 1.0, false});
  }
  p.dep_bytes.assign(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.NextBool(0.6)) {
        p.dep_bytes[i][j] = static_cast<double>(1 + rng.NextUint64(50));
      }
    }
  }
  const size_t parts = 2 + rng.NextUint64(2);  // 2..3
  const auto got = PartitionChain(p, parts);
  ASSERT_TRUE(got.ok());

  // Brute force over all cut subsets of size parts-1.
  double best = 1e18;
  std::vector<size_t> cuts(n - 1);
  std::iota(cuts.begin(), cuts.end(), 1u);
  std::vector<bool> select(n - 1, false);
  std::fill(select.end() - static_cast<long>(parts - 1), select.end(), true);
  do {
    std::vector<size_t> boundaries{0};
    for (size_t i = 0; i < cuts.size(); ++i) {
      if (select[i]) {
        boundaries.push_back(cuts[i]);
      }
    }
    auto part_of = [&](size_t seg) {
      size_t part = 0;
      for (size_t m = 0; m < boundaries.size(); ++m) {
        if (seg >= boundaries[m]) {
          part = m;
        }
      }
      return part;
    };
    double cost = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (p.dep_bytes[i][j] > 0 && part_of(i) != part_of(j)) {
          cost += p.dep_bytes[i][j];
        }
      }
    }
    best = std::min(best, cost);
  } while (std::next_permutation(select.begin(), select.end()));

  // The greedy independent-cut heuristic is exact for adjacent-only deps and
  // near-optimal generally; require it within 1.6x of brute force here.
  EXPECT_LE(got->cross_cut_bytes, best * 1.6 + 1e-9);
}

// --- ResourceVector algebra: + and - are inverses; FitsIn is reflexive and
// transitive on random vectors.
TEST_P(SeededTest, ResourceVectorAlgebra) {
  Rng rng(GetParam() + 4000);
  auto random_vec = [&] {
    ResourceVector v;
    for (int i = 0; i < kNumResourceKinds; ++i) {
      v.Set(static_cast<ResourceKind>(i),
            static_cast<int64_t>(rng.NextUint64(1 << 20)));
    }
    return v;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const ResourceVector a = random_vec();
    const ResourceVector b = random_vec();
    EXPECT_EQ((a + b) - b, a);
    EXPECT_TRUE(a.FitsIn(a));
    EXPECT_TRUE(a.FitsIn(a + b));
    const ResourceVector c = random_vec();
    if (a.FitsIn(b) && b.FitsIn(c)) {
      EXPECT_TRUE(a.FitsIn(c));
    }
    EXPECT_TRUE(ResourceVector::Min(a, b).FitsIn(a));
    EXPECT_TRUE(a.FitsIn(ResourceVector::Max(a, b)));
  }
}


// --- AEAD: random sizes and nonces always round-trip; any single-byte flip
// in the ciphertext or MAC is detected.
TEST_P(SeededTest, AeadRoundTripAndTamperFuzz) {
  Rng rng(GetParam() + 5000);
  const AeadCipher cipher(KeyFromString("fuzz"));
  for (int trial = 0; trial < 60; ++trial) {
    const size_t len = rng.NextUint64(600);
    std::vector<uint8_t> plain(len);
    for (auto& b : plain) {
      b = static_cast<uint8_t>(rng.NextUint64(256));
    }
    const uint64_t nonce = 1 + rng.NextUint64(1u << 30);
    const SealedBox box = cipher.Seal(plain, nonce);
    const auto open = cipher.Open(box);
    ASSERT_TRUE(open.ok());
    ASSERT_EQ(*open, plain);

    SealedBox bad = box;
    if (!bad.ciphertext.empty() && rng.NextBool(0.5)) {
      bad.ciphertext[rng.NextUint64(bad.ciphertext.size())] ^=
          static_cast<uint8_t>(1 + rng.NextUint64(255));
      ASSERT_FALSE(cipher.Open(bad).ok());
    } else {
      bad.mac[rng.NextUint64(bad.mac.size())] ^=
          static_cast<uint8_t>(1 + rng.NextUint64(255));
      ASSERT_FALSE(cipher.Open(bad).ok());
    }
  }
}

// --- Parser: random garbage never crashes; it either errors or yields a
// spec that validates.
TEST_P(SeededTest, SpecParserFuzzNeverCrashes) {
  Rng rng(GetParam() + 6000);
  const char* kFragments[] = {
      "app",     "task",    "data",  "edge",   "aspect",   "colocate",
      "x",       "work=10", "->",    "size=1GiB", "resource", "exec",
      "dist",    "cpu=1",   "#",     "\t",     "replication=2", "???",
      "isolation=strong", "gpu=1000m", "affinity", "out=1MiB",
  };
  for (int trial = 0; trial < 120; ++trial) {
    std::string doc;
    const int lines = 1 + static_cast<int>(rng.NextUint64(8));
    for (int l = 0; l < lines; ++l) {
      const int tokens = 1 + static_cast<int>(rng.NextUint64(5));
      for (int t = 0; t < tokens; ++t) {
        doc += kFragments[rng.NextUint64(std::size(kFragments))];
        doc += ' ';
      }
      doc += '\n';
    }
    const auto spec = ParseAppSpec(doc);
    if (spec.ok()) {
      ASSERT_TRUE(spec->graph.Validate().ok());
    } else {
      ASSERT_FALSE(spec.status().message().empty());
    }
  }
}

// --- Event queue: random schedule/cancel sequences execute exactly the
// non-cancelled callbacks, in non-decreasing time order.
TEST_P(SeededTest, EventQueueRandomScheduleCancel) {
  Rng rng(GetParam() + 7000);
  Simulation sim;
  std::vector<SimTime> fired;
  std::vector<EventHandle> handles;
  int expected = 0;
  for (int i = 0; i < 200; ++i) {
    const SimTime when(static_cast<int64_t>(rng.NextUint64(10000)));
    handles.push_back(sim.At(when, [&fired, &sim] { fired.push_back(sim.now()); }));
    ++expected;
    if (!handles.empty() && rng.NextBool(0.3)) {
      const size_t idx = rng.NextUint64(handles.size());
      if (sim.Cancel(handles[idx])) {
        --expected;
      }
      handles.erase(handles.begin() + static_cast<long>(idx));
    }
  }
  sim.RunToCompletion();
  ASSERT_EQ(static_cast<int>(fired.size()), expected);
  for (size_t i = 1; i < fired.size(); ++i) {
    ASSERT_GE(fired[i], fired[i - 1]);
  }
}

// --- Topology: transfer time is symmetric, zero on self, and respects the
// triangle-ish rack structure (intra <= inter for equal sizes).
TEST_P(SeededTest, TopologyMetricProperties) {
  Rng rng(GetParam() + 8000);
  Topology topo;
  std::vector<NodeId> nodes;
  const int racks = 2 + static_cast<int>(rng.NextUint64(3));
  for (int r = 0; r < racks; ++r) {
    const int rack = topo.AddRack();
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(topo.AddNode(rack, NodeRole::kDevice));
    }
  }
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId a = nodes[rng.NextUint64(nodes.size())];
    const NodeId b = nodes[rng.NextUint64(nodes.size())];
    const Bytes size(static_cast<int64_t>(rng.NextUint64(1 << 22)));
    ASSERT_EQ(topo.TransferTime(a, b, size), topo.TransferTime(b, a, size));
    ASSERT_EQ(topo.TransferTime(a, a, size), SimTime(0));
    if (a != b) {
      ASSERT_GT(topo.TransferTime(a, b, size), SimTime(0));
    }
  }
}

// --- Billing: CostFor is additive in resources and linear in time.
TEST_P(SeededTest, PricingLinearity) {
  Rng rng(GetParam() + 9000);
  const PriceList prices = PriceList::DefaultOnDemand();
  for (int trial = 0; trial < 60; ++trial) {
    ResourceVector a;
    ResourceVector b;
    for (int i = 0; i < kNumResourceKinds; ++i) {
      a.Set(static_cast<ResourceKind>(i),
            static_cast<int64_t>(rng.NextUint64(1 << 30)));
      b.Set(static_cast<ResourceKind>(i),
            static_cast<int64_t>(rng.NextUint64(1 << 30)));
    }
    const SimTime hour = SimTime::Hours(1);
    const int64_t sum_parts =
        prices.CostFor(a, hour).micro_usd() + prices.CostFor(b, hour).micro_usd();
    const int64_t whole = prices.CostFor(a + b, hour).micro_usd();
    ASSERT_NEAR(static_cast<double>(whole), static_cast<double>(sum_parts), 4.0);
    const int64_t doubled = prices.CostFor(a, SimTime::Hours(2)).micro_usd();
    ASSERT_NEAR(static_cast<double>(doubled),
                2.0 * static_cast<double>(prices.CostFor(a, hour).micro_usd()),
                4.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace udc
