// A seeded re-placement script over three topologies: flat, two cells, and
// two cells in two regions.
//
// Five medical apps and one region-pinned app deploy on 4 racks. Each round
// fails one device of a random deployment and runs every deployment's
// repair service on it, then tunes every task and consolidates every
// deployment. After every step the script checks what the tenant and the
// operator would:
//
//   * every deployment's own verification passes (FulfillmentVerifier);
//   * with two regions, no module with a region aspect has a slice outside
//     its regions (one region has nothing to steer, so its aspects are not
//     read);
//   * every task's home is the node of its compute allocation's first
//     slice, and its environment runs on that node;
//   * each pool's allocated total is the sum over the live units' slices.
//
// After the drain nothing stays allocated, launched or provisioned.
//
// On the flat datacenter the script also hashes (FNV-1a 64) every
// allocation's (pool, device, amount) and every placement's rack, home and
// replicas after every step. The constant was first recorded while each
// lifecycle service still placed through a private engine beside the
// router: with one cell, re-placing through the router must not move a
// decision. It was re-recorded four times: when a repair of a memory
// slice stopped moving its task's home onto the new memory module's node,
// when a shrink at the 250m floor stopped raising the tuner's average (the
// script grows one slice fewer), when a consolidated compute allocation
// started moving its task with it (one consolidation moves task P's home,
// and its environment, to the blade its compute now is on), and when only
// the death of the first slice of a task's compute allocation still moves
// the task (two repairs of task A1's CPU slice, beside its GPU compute
// allocation, no longer move its home).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/defrag.h"
#include "src/core/repair.h"
#include "src/core/tuner.h"
#include "src/core/udc_cloud.h"
#include "src/workload/medical.h"

namespace udc {
namespace {

constexpr const char* kPinnedApp = R"(app pinned
task P work=1000
task Q work=1000
edge P -> Q
aspect P resource cpu=4000m dram=2GiB
aspect P dist region=1
aspect Q resource cpu=2000m
aspect Q dist avoid_region=0
)";

struct Shape {
  int cells;
  int regions;
};

class ReplacementScript {
 public:
  explicit ReplacementScript(Shape shape) : cloud_(Config(shape)) {}

  void Deploy() {
    auto medical = MedicalAppSpec();
    auto pinned = ParseAppSpec(kPinnedApp);
    ASSERT_TRUE(medical.ok());
    ASSERT_TRUE(pinned.ok());
    for (int i = 0; i < 6; ++i) {
      const AppSpec& spec = i < 5 ? *medical : *pinned;
      auto deployment = cloud_.Deploy(
          cloud_.RegisterTenant("t" + std::to_string(i)), spec);
      ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
      Deployment* d = deployment->get();
      live_.push_back(std::move(*deployment));
      repairs_.push_back(std::make_unique<RepairService>(
          cloud_.region_router(), d, &checkpoints_));
      tuners_.push_back(
          std::make_unique<AdaptiveTuner>(cloud_.region_router(), d));
      defrags_.push_back(
          std::make_unique<Defragmenter>(cloud_.region_router(), d));
    }
  }

  // Fails one slice's device of a random deployment and repairs every
  // deployment holding a slice there.
  void FailAndRepair(Rng& rng) {
    std::vector<Device*> candidates;
    Deployment* victim = live_[rng.NextUint64(live_.size())].get();
    for (ResourceUnit* unit : victim->units()) {
      for (const PoolAllocation& alloc : unit->allocations) {
        for (const AllocationSlice& slice : alloc.slices) {
          Device* device = cloud_.datacenter()
                               .PoolById(alloc.pool)
                               ->FindDevice(slice.device);
          if (slice.amount > 0 && device->healthy()) {
            candidates.push_back(device);
          }
        }
      }
    }
    ASSERT_FALSE(candidates.empty());
    Device* device = candidates[rng.NextUint64(candidates.size())];
    device->set_health(DeviceHealth::kFailed);
    for (const auto& repair : repairs_) {
      (void)repair->HandleDeviceFailure(device->id());
    }
  }

  // Two utilization samples per task, both hot or both cold, so over the
  // rounds the tuner grows (spilling onto new devices) and shrinks.
  void Tune(Rng& rng) {
    for (size_t i = 0; i < live_.size(); ++i) {
      for (const ModuleId task : live_[i]->spec().graph.TaskIds()) {
        const bool hot = rng.NextBool(0.5);
        for (int sample = 0; sample < 2; ++sample) {
          const double u = rng.NextDouble();
          (void)tuners_[i]->Observe(task, hot ? 0.9 + 0.5 * u : 0.3 * u);
        }
      }
    }
  }

  void Consolidate() {
    for (const auto& defrag : defrags_) {
      ASSERT_TRUE(defrag->Consolidate().ok());
    }
  }

  void CheckInvariants(const std::string& step) {
    std::array<int64_t, kNumDeviceKinds> held{};
    const Topology& topology = cloud_.datacenter().topology();
    for (const auto& deployment : live_) {
      const auto report = cloud_.Verify(deployment.get());
      ASSERT_TRUE(report.ok()) << step;
      for (const ModuleVerification& m : report->modules) {
        EXPECT_TRUE(m.AllChecksPassed())
            << step << ", tenant " << deployment->tenant().value() << ", "
            << m.name << ": " << m.detail;
      }
      for (const auto& [module, placement] : deployment->placements()) {
        const DistAspect dist = deployment->spec().AspectsFor(module).dist;
        const ResourceUnit* unit = deployment->FindUnit(placement.unit);
        if (placement.kind == ModuleKind::kTask) {
          for (const PoolAllocation& alloc : unit->allocations) {
            if (alloc.kind == placement.compute_kind) {
              ASSERT_FALSE(alloc.slices.empty())
                  << step << ", " << placement.name;
              EXPECT_EQ(placement.home, alloc.slices.front().node)
                  << step << ", tenant " << deployment->tenant().value()
                  << ", " << placement.name << ": home is not the first "
                  << "compute slice's node";
            }
          }
          ASSERT_NE(unit->env, nullptr) << step << ", " << placement.name;
          EXPECT_EQ(unit->env->node(), placement.home)
              << step << ", tenant " << deployment->tenant().value() << ", "
              << placement.name << ": environment is not on the home node";
        }
        for (const PoolAllocation& alloc : unit->allocations) {
          const ResourcePool* pool =
              cloud_.datacenter().PoolById(alloc.pool);
          for (const AllocationSlice& slice : alloc.slices) {
            held[static_cast<size_t>(pool->device_kind())] += slice.amount;
            if (topology.region_count() == 1) {
              continue;  // one region has nothing to steer: aspects unread
            }
            const int region =
                topology.RegionOfRack(topology.RackOf(slice.node));
            if (dist.region_affinity >= 0) {
              EXPECT_EQ(region, dist.region_affinity)
                  << step << ", " << placement.name;
            }
            EXPECT_NE(region, dist.region_anti_affinity)
                << step << ", " << placement.name;
          }
        }
      }
    }
    for (int k = 0; k < kNumDeviceKinds; ++k) {
      EXPECT_EQ(cloud_.datacenter()
                    .pool(static_cast<DeviceKind>(k))
                    .TotalAllocated(),
                held[static_cast<size_t>(k)])
          << step << ", pool "
          << DeviceKindName(static_cast<DeviceKind>(k));
    }
  }

  // Folds every allocation and placement of every live deployment into
  // `hash`.
  void MixDecisions(uint64_t& hash) const {
    const auto mix = [&hash](uint64_t value) {
      for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xffu;
        hash *= 0x100000001b3ull;
      }
    };
    for (const auto& deployment : live_) {
      for (ResourceUnit* unit : deployment->units()) {
        for (const PoolAllocation& alloc : unit->allocations) {
          mix(alloc.pool.value());
          for (const AllocationSlice& slice : alloc.slices) {
            mix(slice.device.value());
            mix(static_cast<uint64_t>(slice.amount));
          }
        }
      }
      for (const auto& [module, placement] : deployment->placements()) {
        mix(module.value());
        mix(static_cast<uint64_t>(placement.rack));
        mix(placement.home.value());
        for (const DeviceId replica : placement.replica_devices) {
          mix(replica.value());
        }
      }
    }
  }

  // A script that moved nothing would pin nothing.
  void ExpectEveryServiceActed() {
    const MetricsRegistry& metrics = cloud_.sim()->metrics();
    for (const char* counter :
         {"repair.tasks_replaced", "repair.replicas_rebuilt", "tuner.grows",
          "tuner.shrinks", "defrag.moves"}) {
      EXPECT_GT(metrics.counter(counter), 0) << counter;
    }
  }

  void Drain() {
    repairs_.clear();
    tuners_.clear();
    defrags_.clear();
    live_.clear();
    cloud_.sim()->RunToCompletion();
    EXPECT_TRUE(cloud_.datacenter().TotalAllocated().IsZero());
    EXPECT_EQ(cloud_.envs().live_count(), 0u);
    EXPECT_EQ(cloud_.attestation().provisioned_count(), 0u);
  }

 private:
  static UdcCloudConfig Config(Shape shape) {
    UdcCloudConfig config;
    config.datacenter.racks = 4;
    config.datacenter.cells = shape.cells;
    config.datacenter.regions = shape.regions;
    return config;
  }

  UdcCloud cloud_;
  CheckpointStore checkpoints_;
  std::vector<std::unique_ptr<Deployment>> live_;
  std::vector<std::unique_ptr<RepairService>> repairs_;
  std::vector<std::unique_ptr<AdaptiveTuner>> tuners_;
  std::vector<std::unique_ptr<Defragmenter>> defrags_;
};

// Runs the script on `shape` and returns its decision hash.
uint64_t RunScript(Shape shape) {
  constexpr int kRounds = 8;
  uint64_t hash = 0xcbf29ce484222325ull;
  ReplacementScript script(shape);
  script.Deploy();
  if (::testing::Test::HasFatalFailure()) {
    return 0;
  }
  script.CheckInvariants("deploy");
  Rng rng(17);
  for (int round = 0; round < kRounds; ++round) {
    const std::string at = "round " + std::to_string(round);
    script.FailAndRepair(rng);
    script.CheckInvariants(at + " repair");
    script.MixDecisions(hash);
    script.Tune(rng);
    script.CheckInvariants(at + " tune");
    script.MixDecisions(hash);
    script.Consolidate();
    script.CheckInvariants(at + " defrag");
    script.MixDecisions(hash);
    if (::testing::Test::HasFailure()) {
      break;  // the first violation is the one worth reading
    }
  }
  script.ExpectEveryServiceActed();
  script.Drain();
  return hash;
}

TEST(ReplacementScriptTest, FlatDecisionsDoNotMove) {
  const uint64_t hash = RunScript(Shape{0, 0});
  EXPECT_EQ(hash, 0x7c7d987e493c7925ull) << std::hex << "0x" << hash;
}

TEST(ReplacementScriptTest, CellsKeepEveryInvariant) {
  RunScript(Shape{2, 0});
}

TEST(ReplacementScriptTest, RegionsKeepEveryInvariant) {
  RunScript(Shape{2, 2});
}

}  // namespace
}  // namespace udc
