// Content-addressed warm-environment store (src/exec/env_store.h):
// cross-tenant sharing, tepid cross-rack fetches, eviction under cache
// pressure, exact rollback refunds, reclamation of dead tenant-scoped keys,
// and two randomized differentials: sharing off against the retired
// (kind, tenant) pool (tests/legacy_warm_pool.h), and the rack-miss source
// pick against a brute-force scan of every rack.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/attest/attestation_service.h"
#include "src/common/rng.h"
#include "src/core/runtime.h"
#include "src/core/udc_cloud.h"
#include "src/exec/env_manager.h"
#include "src/exec/env_store.h"
#include "src/hw/topology.h"
#include "src/sim/simulation.h"
#include "src/workload/medical.h"
#include "tests/legacy_warm_pool.h"

namespace udc {
namespace {

EnvStoreConfig SharedStore() {
  EnvStoreConfig config;
  config.share_across_tenants = true;
  return config;
}

LaunchOptions Opts(EnvKind kind, std::string image) {
  LaunchOptions options;
  options.kind = kind;
  options.image = std::move(image);
  return options;
}

TEST(EnvStoreTest, CrossTenantWarmSharingHits) {
  Simulation sim;
  EnvManager manager(&sim, SharedStore());
  const auto options = Opts(EnvKind::kTeeEnclave, "model-server-v3");

  // Tenant 1 runs the image and banks a warm slot on teardown.
  ExecEnvironment* env = manager.Launch(TenantId(1), NodeId(1), options, nullptr);
  sim.RunToCompletion();
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());

  // Tenant 2 launches the *identical* image: content-keyed sharing turns
  // its cold start into a warm one — a tenant-scoped pool (sharing off)
  // could never do this.
  const SimTime before = sim.now();
  env = manager.Launch(TenantId(2), NodeId(1), options, nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(env->start_mode(), EnvStartMode::kWarm);
  EXPECT_EQ(env->ready_at() - before,
            EnvProfile::DefaultFor(EnvKind::kTeeEnclave).warm_start);
  EXPECT_EQ(sim.metrics().counter("exec.warm_starts"), 1);
  EXPECT_EQ(sim.metrics().counter("exec.cross_tenant_warm_starts"), 1);
  EXPECT_EQ(manager.cross_tenant_warm_starts(), 1);
}

TEST(EnvStoreTest, DifferentImagesDoNotShareWarmSlots) {
  Simulation sim;
  EnvManager manager(&sim, SharedStore());
  ExecEnvironment* env = manager.Launch(
      TenantId(1), NodeId(1), Opts(EnvKind::kContainer, "img-a"), nullptr);
  sim.RunToCompletion();
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());

  env = manager.Launch(TenantId(1), NodeId(1),
                       Opts(EnvKind::kContainer, "img-b"), nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(env->start_mode(), EnvStartMode::kCold);
  EXPECT_EQ(sim.metrics().counter("exec.cold_starts"), 2);
}

TEST(EnvStoreTest, SharingOffPreservesTenantScoping) {
  Simulation sim;
  EnvManager manager(&sim);  // sharing off is the default
  const auto options = Opts(EnvKind::kContainer, "same-image");
  ExecEnvironment* env = manager.Launch(TenantId(1), NodeId(1), options, nullptr);
  sim.RunToCompletion();
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());

  // Identical image, different tenant: with sharing off the key binds the
  // tenant, so this must stay cold — each tenant keeps its own pool.
  env = manager.Launch(TenantId(2), NodeId(1), options, nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(env->start_mode(), EnvStartMode::kCold);
  EXPECT_EQ(manager.WarmSlots(EnvKind::kContainer, TenantId(1)), 1);
}

// The default cloud keeps each tenant's pool per kind. Such a key names a
// pool, not an image, so it mints no image quote, and once nothing
// references it — after a teardown or an aborted deploy — it is gone.
TEST(EnvStoreTest, DefaultCloudMintsNoImageQuoteAndKeepsNoDeadKey) {
  {
    UdcCloudConfig config;
    config.datacenter.racks = 4;
    UdcCloud cloud(config);
    const EnvStore& store = *cloud.envs().store();
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("hospital"), *MedicalAppSpec());
    ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
    EXPECT_GT(store.distinct_contents(), 0u);
    DagRuntime runtime(cloud.sim(), deployment->get());
    ASSERT_TRUE(runtime.RunOnce().ok());
    cloud.sim()->RunToCompletion();
    deployment->reset();  // teardown
    cloud.sim()->RunToCompletion();
    EXPECT_EQ(cloud.attestation().image_quotes_minted(), 0u);
    EXPECT_EQ(cloud.sim()->metrics().counter("attest.image_quotes_minted"), 0);
    EXPECT_EQ(store.distinct_contents(), 0u);
    EXPECT_EQ(store.PerRackStats().at(0).entries, 0u);
  }
  {
    // No GPU anywhere: A2 and A3 cannot be placed, so the deploy aborts
    // after launching the modules placed before them.
    UdcCloudConfig config;
    config.datacenter.racks = 1;
    config.datacenter.rack.gpu_boards = 0;
    UdcCloud cloud(config);
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("hospital"), *MedicalAppSpec());
    ASSERT_FALSE(deployment.ok());
    EXPECT_GT(cloud.sim()->metrics().counter("exec.launches_cancelled"), 0);
    const EnvStore& store = *cloud.envs().store();
    EXPECT_EQ(store.distinct_contents(), 0u);
    EXPECT_EQ(store.live_env_refs(), 0);
    EXPECT_EQ(store.PerRackStats().at(0).entries, 0u);
    EXPECT_EQ(cloud.attestation().image_quotes_minted(), 0u);
  }
}

TEST(EnvStoreTest, ContentQuoteMintedExactlyOncePerContent) {
  Simulation sim;
  AttestationService attestation(&sim, KeyFromString("vendor"));
  EnvManager manager(&sim, SharedStore());
  manager.set_content_quote_hook(
      [&](const Sha256Digest& digest, Bytes size, bool live) {
        if (live) {
          attestation.AcquireImageQuote(digest, size);
        } else {
          attestation.ReleaseImageQuote(digest);
        }
      });
  const auto options = Opts(EnvKind::kTeeEnclave, "audited-model");

  // Two tenants, same content: one quote, minted on the first launch.
  ExecEnvironment* e1 = manager.Launch(TenantId(1), NodeId(1), options, nullptr);
  ExecEnvironment* e2 = manager.Launch(TenantId(2), NodeId(2), options, nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(attestation.image_quotes_minted(), 1u);
  EXPECT_EQ(attestation.live_image_quotes(), 1u);
  EXPECT_EQ(sim.metrics().counter("attest.image_quotes_minted"), 1);

  const Sha256Digest digest = manager.store()->KeyDigest(
      EnvKind::kTeeEnclave, TenancyMode::kShared, TenantId(1), "audited-model");
  const Quote* quote = attestation.FindImageQuote(digest);
  ASSERT_NE(quote, nullptr);
  EXPECT_EQ(quote->subject, QuoteSubject::kImage);
  // The quote binds the content digest, not any tenant — verifiable with
  // only the vendor root.
  QuoteVerifier verifier(KeyFromString("vendor"));
  EXPECT_TRUE(verifier.Verify(*quote).ok());
  const Bytes size = EnvProfile::DefaultFor(EnvKind::kTeeEnclave).memory_overhead;
  EXPECT_TRUE(verifier
                  .VerifyClaim(*quote,
                               ImageReport(digest,
                                           static_cast<uint64_t>(size.bytes())))
                  .ok());

  // Full teardown releases the refs; the mint count never moves again.
  ASSERT_TRUE(manager.Stop(e1, /*keep_warm=*/false).ok());
  ASSERT_TRUE(manager.Stop(e2, /*keep_warm=*/false).ok());
  EXPECT_EQ(attestation.live_image_quotes(), 0u);
  manager.Launch(TenantId(3), NodeId(1), options, nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(attestation.image_quotes_minted(), 1u);  // memoized, not re-minted
  EXPECT_EQ(attestation.live_image_quotes(), 1u);
}

TEST(EnvStoreTest, TepidFetchAcrossRacks) {
  Simulation sim;
  Topology topology;
  const int rack0 = topology.AddRack();
  const int rack1 = topology.AddRack();
  const NodeId node0 = topology.AddNode(rack0, NodeRole::kDevice);
  const NodeId node1 = topology.AddNode(rack1, NodeRole::kDevice);

  EnvManager manager(&sim, SharedStore());
  manager.set_topology(&topology);
  const auto options = Opts(EnvKind::kTeeEnclave, "rack-local-model");

  // Bank a warm slot on rack 0.
  ExecEnvironment* env = manager.Launch(TenantId(1), node0, options, nullptr);
  sim.RunToCompletion();
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());

  // Launch on rack 1: rack miss + remote hit -> tepid. NextStartLatency
  // must predict the same tier Launch then pays.
  const SimTime predicted = manager.NextStartLatency(
      EnvKind::kTeeEnclave, TenantId(2), options, node1);
  const SimTime before = sim.now();
  env = manager.Launch(TenantId(2), node1, options, nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(env->start_mode(), EnvStartMode::kTepid);
  EXPECT_EQ(env->ready_at() - before, predicted);
  const EnvProfile profile = EnvProfile::DefaultFor(EnvKind::kTeeEnclave);
  EXPECT_GT(predicted, profile.warm_start);   // pays the cross-rack fetch
  EXPECT_LT(predicted, profile.cold_start);   // but far below a cold build
  EXPECT_EQ(sim.metrics().counter("exec.tepid_starts"), 1);

  // Fill-on-miss: the image is now resident on both racks, and the bytes
  // were deduped against the content (one logical image, two caches).
  const EnvStore* store = manager.store();
  const Sha256Digest digest = store->KeyDigest(
      EnvKind::kTeeEnclave, TenancyMode::kShared, TenantId(2),
      "rack-local-model");
  EXPECT_EQ(store->TotalSlots(digest), 0);  // the remote slot was consumed
  const auto racks = store->PerRackStats();
  ASSERT_EQ(racks.size(), 2u);
  EXPECT_EQ(racks[0].entries, 1u);
  EXPECT_EQ(racks[1].entries, 1u);
}

TEST(EnvStoreTest, EvictionUnderPressureDropsLruAndItsSlots) {
  Simulation sim;
  EnvStoreConfig config = SharedStore();
  // Room for two 16 MiB container images, not three.
  config.rack_cache_capacity = Bytes::MiB(40);
  EnvManager manager(&sim, config);

  // Bank warm slots for images a then b (a is oldest by LRU tick).
  for (const char* image : {"img-a", "img-b"}) {
    ExecEnvironment* env = manager.Launch(
        TenantId(1), NodeId(1), Opts(EnvKind::kContainer, image), nullptr);
    sim.RunToCompletion();
    ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());
  }
  const EnvStore* store = manager.store();
  EXPECT_EQ(store->total_warm_slots(), 2);

  // A third image overflows the rack budget: img-a (LRU) is evicted, its
  // warm slot dies with it, and the counters say so.
  ExecEnvironment* env = manager.Launch(
      TenantId(1), NodeId(1), Opts(EnvKind::kContainer, "img-c"), nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(store->evictions(), 1);
  EXPECT_EQ(sim.metrics().counter("exec.evictions"), 1);
  EXPECT_LE(store->resident_bytes().bytes(), Bytes::MiB(40).bytes());
  EXPECT_EQ(sim.metrics().gauge("exec.store_bytes"),
            static_cast<double>(store->resident_bytes().bytes()));
  const Sha256Digest digest_a = store->KeyDigest(
      EnvKind::kContainer, TenancyMode::kShared, TenantId(1), "img-a");
  const Sha256Digest digest_b = store->KeyDigest(
      EnvKind::kContainer, TenancyMode::kShared, TenantId(1), "img-b");
  EXPECT_EQ(store->TotalSlots(digest_a), 0);  // evicted with its slot
  EXPECT_EQ(store->TotalSlots(digest_b), 1);  // survivor
  EXPECT_EQ(store->total_warm_slots(), 1);

  // A launch of the evicted image is cold again.
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/false).ok());
  env = manager.Launch(TenantId(1), NodeId(1),
                       Opts(EnvKind::kContainer, "img-a"), nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(env->start_mode(), EnvStartMode::kCold);
}

TEST(EnvStoreTest, EvictionNeverTakesContentWithLiveEnvironments) {
  Simulation sim;
  EnvStoreConfig config = SharedStore();
  config.rack_cache_capacity = Bytes::MiB(20);  // one container image fits
  EnvManager manager(&sim, config);

  // img-a stays running (pinned); img-b overflows the budget anyway (soft
  // bound) because the only other entry is pinned by a live environment.
  ExecEnvironment* live = manager.Launch(
      TenantId(1), NodeId(1), Opts(EnvKind::kContainer, "img-a"), nullptr);
  sim.RunToCompletion();
  manager.Launch(TenantId(1), NodeId(1), Opts(EnvKind::kContainer, "img-b"),
                 nullptr);
  sim.RunToCompletion();
  const EnvStore* store = manager.store();
  EXPECT_EQ(store->evictions(), 0);  // nothing evictable: both live
  EXPECT_EQ(store->PerRackStats()[0].entries, 2u);

  // Once img-a's env stops cold, the next insert can evict it.
  ASSERT_TRUE(manager.Stop(live, /*keep_warm=*/false).ok());
  manager.Launch(TenantId(1), NodeId(1), Opts(EnvKind::kContainer, "img-c"),
                 nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(store->evictions(), 1);
}

TEST(EnvStoreTest, CancelLaunchRestoresStoreExactly) {
  Simulation sim;
  Topology topology;
  const int rack0 = topology.AddRack();
  const int rack1 = topology.AddRack();
  const NodeId node0 = topology.AddNode(rack0, NodeRole::kDevice);
  const NodeId node1 = topology.AddNode(rack1, NodeRole::kDevice);
  EnvManager manager(&sim, SharedStore());
  manager.set_topology(&topology);
  const auto options = Opts(EnvKind::kTeeEnclave, "rollback-me");
  EnvStore* store = manager.store();
  const Sha256Digest digest = store->KeyDigest(
      EnvKind::kTeeEnclave, TenancyMode::kShared, TenantId(1), "rollback-me");

  // Cold launch + cancel: content refs return to zero.
  ExecEnvironment* env = manager.Launch(TenantId(1), node0, options, nullptr);
  EXPECT_EQ(store->ContentRefs(digest), 1);
  ASSERT_TRUE(manager.CancelLaunch(env).ok());
  EXPECT_EQ(store->ContentRefs(digest), 0);
  EXPECT_EQ(store->live_env_refs(), 0);

  // Bank a slot on rack 0, then warm-launch + cancel: the slot, its rack,
  // its provenance, and the refcount all come back exactly.
  env = manager.Launch(TenantId(1), node0, options, nullptr);
  sim.RunToCompletion();
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());
  const int64_t slots_before = store->SlotsOnRack(digest, 0);
  const int64_t refs_before = store->ContentRefs(digest);
  env = manager.Launch(TenantId(2), node0, options, nullptr);
  EXPECT_EQ(env->start_mode(), EnvStartMode::kWarm);
  EXPECT_EQ(store->SlotsOnRack(digest, 0), slots_before - 1);
  ASSERT_TRUE(manager.CancelLaunch(env).ok());
  EXPECT_EQ(store->SlotsOnRack(digest, 0), slots_before);
  EXPECT_EQ(store->ContentRefs(digest), refs_before);

  // Tepid launch from rack 1 + cancel: the slot goes back to rack 0 (the
  // source), not rack 1.
  env = manager.Launch(TenantId(2), node1, options, nullptr);
  EXPECT_EQ(env->start_mode(), EnvStartMode::kTepid);
  EXPECT_EQ(store->SlotsOnRack(digest, 0), slots_before - 1);
  ASSERT_TRUE(manager.CancelLaunch(env).ok());
  EXPECT_EQ(store->SlotsOnRack(digest, 0), slots_before);
  EXPECT_EQ(store->SlotsOnRack(digest, 1), 0);
  EXPECT_EQ(store->ContentRefs(digest), refs_before);
  EXPECT_EQ(store->live_env_refs(), 0);
  sim.RunToCompletion();
}

TEST(EnvStoreTest, PrewarmCountsIntoMetrics) {
  // Sharing off: the satellite fix — Prewarm used to bypass metrics.
  {
    Simulation sim;
    EnvManager manager(&sim);
    manager.Prewarm(EnvKind::kContainer, TenantId(1), 3);
    EXPECT_EQ(sim.metrics().counter("exec.prewarmed"), 3);
    EXPECT_EQ(manager.WarmSlots(EnvKind::kContainer, TenantId(1)), 3);
  }
  // Sharing on: same counter, and the slots bank against the content key.
  {
    Simulation sim;
    EnvManager manager(&sim, SharedStore());
    manager.Prewarm(EnvKind::kTeeEnclave, TenantId(1), 2, "prewarmed-img");
    EXPECT_EQ(sim.metrics().counter("exec.prewarmed"), 2);
    const Sha256Digest digest = manager.store()->KeyDigest(
        EnvKind::kTeeEnclave, TenancyMode::kShared, TenantId(1),
        "prewarmed-img");
    EXPECT_EQ(manager.store()->TotalSlots(digest), 2);
  }
}

TEST(EnvStoreTest, WarmHitRatioGaugeTracksStarts) {
  Simulation sim;
  EnvManager manager(&sim, SharedStore());
  EXPECT_EQ(sim.metrics().gauge("exec.warm_hit_ratio"), 1.0);
  ExecEnvironment* env = manager.Launch(
      TenantId(1), NodeId(1), Opts(EnvKind::kContainer, "img"), nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(sim.metrics().gauge("exec.warm_hit_ratio"), 0.0);
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());
  manager.Launch(TenantId(1), NodeId(1), Opts(EnvKind::kContainer, "img"),
                 nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(sim.metrics().gauge("exec.warm_hit_ratio"), 0.5);
  EXPECT_EQ(manager.warm_hit_ratio(), 0.5);
}

// Sharing off against the retired (kind, tenant) pool
// (tests/legacy_warm_pool.h): under a randomized launch/stop/cancel/prewarm
// mix the store must make the pool's start decisions — mode, ready time,
// per-(kind, tenant) occupancy and the warm and cold counters — and, after
// every op, hold no key that nothing references.
TEST(EnvStoreDifferentialTest, SharingOffMatchesLegacyPoolAcrossSeeds) {
  const EnvKind kKinds[] = {EnvKind::kContainer, EnvKind::kLightweightVm,
                           EnvKind::kTeeEnclave};
  for (const uint64_t seed : {0xA11CEull, 0xB0Bull, 0xC0FFEEull}) {
    LegacyWarmPool legacy;
    Simulation sim;
    EnvManager store(&sim);
    const EnvStore& pool = *store.store();

    Rng rng(seed);
    std::vector<ExecEnvironment*> live;
    for (int step = 0; step < 400; ++step) {
      const auto kind = kKinds[rng.NextUint64(3)];
      const TenantId tenant(1 + rng.NextUint64(4));
      const uint64_t op = rng.NextUint64(100);
      if (op < 45 || live.empty()) {
        // Distinct images and tenancies per step: sharing off must ignore
        // them, exactly like the legacy pool does.
        LaunchOptions options =
            Opts(kind, "img-" + std::to_string(rng.NextUint64(5)));
        options.tenancy = rng.NextUint64(2) == 0
                              ? TenancyMode::kShared
                              : TenancyMode::kSingleTenant;
        ASSERT_EQ(legacy.NextStartLatency(tenant, options),
                  store.NextStartLatency(kind, tenant, options))
            << "seed " << seed << " step " << step;
        const LegacyWarmPool::Start expected = legacy.Launch(tenant, options);
        ExecEnvironment* env = store.Launch(
            tenant, NodeId(1 + rng.NextUint64(8)), options, nullptr);
        ASSERT_EQ(env->start_mode(), expected.mode)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(env->ready_at(), sim.now() + expected.latency);
        live.push_back(env);
      } else if (op < 70) {
        const size_t idx = rng.NextUint64(live.size());
        const bool keep_warm = rng.NextUint64(2) == 0;
        legacy.Stop(live[idx]->kind(), live[idx]->tenant(), keep_warm);
        ASSERT_TRUE(store.Stop(live[idx], keep_warm).ok());
        live.erase(live.begin() + static_cast<long>(idx));
      } else if (op < 85) {
        const size_t idx = rng.NextUint64(live.size());
        legacy.CancelLaunch(live[idx]->kind(), live[idx]->tenant(),
                            live[idx]->started_warm());
        ASSERT_TRUE(store.CancelLaunch(live[idx]).ok());
        live.erase(live.begin() + static_cast<long>(idx));
      } else {
        const int count = 1 + static_cast<int>(rng.NextUint64(3));
        legacy.Prewarm(kind, tenant, count);
        store.Prewarm(kind, tenant, count);
      }
      if (rng.NextUint64(4) == 0) {
        sim.RunToCompletion();
      }
      // Occupancy must agree for every (kind, tenant) after every op.
      for (const EnvKind k : kKinds) {
        for (uint64_t t = 1; t <= 4; ++t) {
          ASSERT_EQ(legacy.WarmSlots(k, TenantId(t)),
                    store.WarmSlots(k, TenantId(t)))
              << "seed " << seed << " step " << step;
        }
      }
      // Reclamation: every key still indexed is referenced.
      ASSERT_EQ(pool.distinct_contents(), pool.live_contents())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(store.live_count(), live.size());
    }
    sim.RunToCompletion();
    // Identical decision streams end in identical metric totals.
    EXPECT_EQ(sim.metrics().counter("exec.warm_starts"), legacy.warm_starts());
    EXPECT_EQ(sim.metrics().counter("exec.cold_starts"), legacy.cold_starts());
    EXPECT_GT(legacy.warm_starts(), 0);
    EXPECT_EQ(sim.metrics().counter("exec.tepid_starts"), 0);
    EXPECT_EQ(pool.live_env_refs(), static_cast<int64_t>(store.live_count()));
  }
}

// The rack-miss source pick against the fleet walk it replaced: before
// every acquire, a brute-force scan over SlotsOnRack names the tier and
// source rack — warm on the local rack, else the lowest-indexed other
// holder in the local region (tepid), else the lowest-indexed holder in any
// other region (remote), else cold — and the store's holder index must
// agree, in AcquireForLaunch and in Peek. The region map interleaves four
// regions so a same-region holder often sits above a lower-indexed holder
// elsewhere, and the cache budget fits two images, so evictions keep
// taking holders out of the index.
TEST(EnvStoreDifferentialTest, SourcePickMatchesFleetScanAcrossSeeds) {
  const std::vector<int> kRackRegions = {2, 0, 1, 0, 3, 1, 2, 0, 3, 1};
  const int kRacks = static_cast<int>(kRackRegions.size());
  struct Expected {
    EnvStartMode mode = EnvStartMode::kCold;
    int source = -1;
  };
  struct Live {
    Sha256Digest digest{};
    int rack = 0;
    TenantId tenant;
    EnvStore::AcquireResult acq;
  };
  for (const uint64_t seed : {0x5EEDull, 0xD1CEull, 0xF1EE7ull}) {
    MetricsRegistry metrics;
    EnvStoreConfig config = SharedStore();
    config.rack_cache_capacity = Bytes::MiB(40);  // two 16 MiB images
    EnvStore store(&metrics, config);
    store.set_rack_regions(kRackRegions);
    std::vector<Sha256Digest> digests;
    for (int i = 0; i < 4; ++i) {
      digests.push_back(store.Intern(EnvKind::kContainer, TenancyMode::kShared,
                                     TenantId(1), "img-" + std::to_string(i),
                                     Bytes::MiB(16)));
    }
    const auto scan = [&](const Sha256Digest& digest, int rack) {
      Expected expected;
      if (store.SlotsOnRack(digest, rack) > 0) {
        return Expected{EnvStartMode::kWarm, rack};
      }
      const int local_region = kRackRegions[static_cast<size_t>(rack)];
      for (const bool same_region : {true, false}) {
        for (int r = 0; r < kRacks; ++r) {
          const bool same =
              kRackRegions[static_cast<size_t>(r)] == local_region;
          if (r != rack && same == same_region &&
              store.SlotsOnRack(digest, r) > 0) {
            return Expected{
                same ? EnvStartMode::kTepid : EnvStartMode::kRemote, r};
          }
        }
      }
      return expected;
    };

    Rng rng(seed);
    std::vector<Live> live;
    int64_t modes[4] = {};
    int64_t same_region_over_lower_index = 0;
    int64_t slots_evicted = 0;
    for (int step = 0; step < 1500; ++step) {
      const Sha256Digest& digest = digests[rng.NextUint64(digests.size())];
      const int rack = static_cast<int>(rng.NextUint64(kRacks));
      const TenantId tenant(1 + rng.NextUint64(3));
      const uint64_t op = rng.NextUint64(100);
      const int64_t slots_before = store.total_warm_slots();
      int64_t slots_banked = 0;  // the op's own net change to the slots
      if (op < 45 || live.empty()) {
        const bool allow_warm = rng.NextUint64(10) != 0;
        const Expected expected =
            allow_warm ? scan(digest, rack) : Expected{};
        const EnvStore::PeekResult peek = store.Peek(digest, rack, allow_warm);
        const EnvStore::AcquireResult acq =
            store.AcquireForLaunch(digest, rack, tenant, allow_warm);
        ASSERT_EQ(peek.mode, expected.mode)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(acq.mode, expected.mode)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(acq.source_rack, expected.source)
            << "seed " << seed << " step " << step;
        slots_banked = acq.mode == EnvStartMode::kCold ? 0 : -1;
        // No WAN hook: the preview's uncongested price is the price paid.
        ASSERT_EQ(peek.fetch_latency, acq.fetch_latency);
        ++modes[static_cast<int>(acq.mode)];
        if (acq.mode == EnvStartMode::kTepid) {
          for (int r = 0; r < acq.source_rack; ++r) {
            if (store.SlotsOnRack(digest, r) > 0 &&
                kRackRegions[static_cast<size_t>(r)] !=
                    kRackRegions[static_cast<size_t>(rack)]) {
              ++same_region_over_lower_index;
              break;
            }
          }
        }
        live.push_back(Live{digest, rack, tenant, acq});
      } else if (op < 70) {
        const size_t idx = rng.NextUint64(live.size());
        const Live& env = live[idx];
        const bool keep_warm = rng.NextUint64(3) != 0;
        store.ReleaseEnv(env.digest, env.rack, env.tenant, keep_warm);
        slots_banked = keep_warm ? 1 : 0;
        live.erase(live.begin() + static_cast<long>(idx));
      } else if (op < 85) {
        const size_t idx = rng.NextUint64(live.size());
        const Live& env = live[idx];
        const int64_t before =
            env.acq.source_rack < 0
                ? 0
                : store.SlotsOnRack(env.digest, env.acq.source_rack);
        store.RefundCancelled(env.digest, env.acq.mode, env.acq.source_rack,
                              env.acq.slot_tenant, env.rack);
        if (env.acq.mode != EnvStartMode::kCold) {
          // The slot is back on its source rack (re-inserting the image
          // there never evicts the image itself).
          ASSERT_EQ(store.SlotsOnRack(env.digest, env.acq.source_rack),
                    before + 1);
          slots_banked = 1;
        }
        live.erase(live.begin() + static_cast<long>(idx));
      } else {
        const int count = 1 + static_cast<int>(rng.NextUint64(2));
        store.Prewarm(digest, rack, tenant, count);
        slots_banked = count;
      }
      // Whatever the op did not bank or consume itself died in an eviction.
      slots_evicted +=
          slots_before + slots_banked - store.total_warm_slots();
      // The per-rack slot lists and the global counters stay in step.
      int64_t slots = 0;
      for (const Sha256Digest& d : digests) {
        int64_t per_content = 0;
        for (int r = 0; r < kRacks; ++r) {
          per_content += store.SlotsOnRack(d, r);
        }
        ASSERT_EQ(per_content, store.TotalSlots(d));
        slots += per_content;
      }
      ASSERT_EQ(slots, store.total_warm_slots());
    }
    // Every tier, the cross-region preference and holder-removing
    // evictions were exercised: none of the comparisons above is vacuous.
    for (const EnvStartMode mode :
         {EnvStartMode::kCold, EnvStartMode::kWarm, EnvStartMode::kTepid,
          EnvStartMode::kRemote}) {
      EXPECT_GT(modes[static_cast<int>(mode)], 0)
          << "seed " << seed << " mode " << EnvStartModeName(mode);
    }
    EXPECT_GT(same_region_over_lower_index, 0) << "seed " << seed;
    EXPECT_GT(slots_evicted, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace udc
