// Frozen placement decisions of the deploy path over seeded churn of mixed
// specs: the medical pipeline plus a microservice catalog, so tasks demand
// cpu, gpu and fpga slices and data modules replicate — racks then depend
// on the datacenter's geometry, not only on how many deploys are live.
//
// Each leg hashes (FNV-1a 64) every admit/reject, and for every admitted
// deploy each module's rack and each task's environment start mode. A
// fixed tenant set is cycled and half the teardowns keep their
// environments warm, so warm and cold starts both occur. The constants
// were recorded while a flat datacenter still had its own scheduler loop
// and the cells-only topology its own router; the one region router that
// replaced both must land every module on the same rack and start it the
// same way:
//
//   * flat:  cells = 0, single deploys;
//   * cells: cells = 2, single deploys;
//   * batch: cells = 0 and cells = 2, the same churn through DeployAll.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/udc_cloud.h"
#include "src/workload/medical.h"
#include "src/workload/microservices.h"

namespace udc {
namespace {

std::vector<std::shared_ptr<const AppSpec>> MixedCatalog() {
  std::vector<std::shared_ptr<const AppSpec>> catalog;
  auto medical = MedicalAppSpec();
  EXPECT_TRUE(medical.ok());
  catalog.push_back(std::make_shared<const AppSpec>(*medical));
  Rng rng(0x60D1u);
  for (int i = 0; i < 8; ++i) {
    MicroserviceConfig config;
    config.chain_length = 2 + i % 4;
    config.fanout_services = i % 3;
    config.stateful_backend = i % 4 != 0;
    config.work_scale = 0.5 + 0.5 * static_cast<double>(i % 5);
    auto spec = GenerateMicroserviceApp(rng, config);
    EXPECT_TRUE(spec.ok());
    catalog.push_back(std::make_shared<const AppSpec>(*spec));
  }
  return catalog;
}

struct GoldenRun {
  uint64_t hash = 0xcbf29ce484222325ull;
  int64_t admits = 0;
  int64_t rejects = 0;
  int64_t warm_starts = 0;
  int64_t cell_fallbacks = 0;
};

// Seeded churn: each step either tears down a random live deployment
// (keeping its environments warm on odd picks) or deploys `batch` specs
// from the catalog — through Deploy when `batch` is 1, else through one
// DeployAll call.
GoldenRun RunChurn(int cells, int batch, uint64_t seed, int steps) {
  UdcCloudConfig config;
  config.datacenter.racks = 4;
  config.datacenter.cells = cells;
  UdcCloud cloud(config);
  const auto catalog = MixedCatalog();
  std::vector<TenantId> tenants;
  for (int t = 0; t < 5; ++t) {
    tenants.push_back(cloud.RegisterTenant("g" + std::to_string(t)));
  }

  GoldenRun run;
  const auto mix = [&run](uint64_t value) {
    run.hash ^= value;
    run.hash *= 0x100000001b3ull;
  };
  std::vector<std::unique_ptr<Deployment>> live;
  const auto record = [&](Result<std::unique_ptr<Deployment>> deployment) {
    mix(deployment.ok() ? 1 : 0);
    if (!deployment.ok()) {
      ++run.rejects;
      return;
    }
    ++run.admits;
    Deployment& d = **deployment;
    for (const ModuleId module : d.spec().graph.ModuleIds()) {
      const Placement* placement = d.PlacementOf(module);
      mix(module.value());
      mix(static_cast<uint64_t>(placement->rack));
      const ResourceUnit* unit = d.FindUnit(placement->unit);
      if (unit != nullptr && unit->env != nullptr) {
        mix(static_cast<uint64_t>(unit->env->start_mode()));
        run.warm_starts += unit->env->started_warm() ? 1 : 0;
      }
    }
    live.push_back(std::move(*deployment));
  };

  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const uint64_t pick = rng.NextUint64(1u << 30);
    const TenantId tenant = tenants[pick % tenants.size()];
    if (rng.NextUint64(100) < 60 || live.empty()) {
      if (batch == 1) {
        record(cloud.Deploy(tenant, catalog[pick % catalog.size()]));
      } else {
        std::vector<const AppSpec*> specs;
        for (int i = 0; i < batch; ++i) {
          specs.push_back(catalog[(pick + i) % catalog.size()].get());
        }
        for (auto& deployment : cloud.DeployAll(tenant, specs)) {
          record(std::move(deployment));
        }
      }
    } else {
      const size_t victim = pick % live.size();
      for (ResourceUnit* unit : live[victim]->units()) {
        if (unit->env != nullptr) {
          (void)cloud.envs().Stop(unit->env, /*keep_warm=*/pick % 2 == 1);
          unit->env = nullptr;
        }
      }
      live.erase(live.begin() + static_cast<long>(victim));
    }
    cloud.sim()->RunToCompletion();
  }
  run.cell_fallbacks = cloud.sim()->metrics().counter("sched.cell_fallbacks");
  return run;
}

void ExpectGolden(const GoldenRun& run, int cells, uint64_t golden) {
  EXPECT_EQ(run.hash, golden) << "actual hash 0x" << std::hex << run.hash;
  // Not vacuous: the churn hits capacity, reuses warm environments and,
  // with cells, spills modules out of their home cell.
  EXPECT_GT(run.admits, 50);
  EXPECT_GT(run.rejects, 0);
  EXPECT_GT(run.warm_starts, 0);
  if (cells > 0) {
    EXPECT_GT(run.cell_fallbacks, 0);
  }
}

TEST(DeployPathGoldenTest, FlatChurnMatchesFrozenHash) {
  ExpectGolden(RunChurn(/*cells=*/0, /*batch=*/1, 0xF1A7u, 600), 0,
               0x0dd2f60e07d558a7ull);
}

TEST(DeployPathGoldenTest, CellsChurnMatchesFrozenHash) {
  ExpectGolden(RunChurn(/*cells=*/2, /*batch=*/1, 0xCE115u, 600), 2,
               0xd3c6d079188d896eull);
}

TEST(DeployPathGoldenTest, BatchChurnMatchesFrozenHash) {
  ExpectGolden(RunChurn(/*cells=*/0, /*batch=*/3, 0xBA7Cu, 300), 0,
               0x9590f6cac9945674ull);
  ExpectGolden(RunChurn(/*cells=*/2, /*batch=*/3, 0xBA7Cu, 300), 2,
               0xb9145e7b42e58c17ull);
}

}  // namespace
}  // namespace udc
