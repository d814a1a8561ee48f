// Content-addressed warm-environment store (ROADMAP item 2, paper C3): the
// one warm pool behind EnvManager.
//
// Warm slots are banked against a SHA-256 content key, UnrealCloudDDC-style:
// identical keys are stored once per rack cache. The store layers rack-local
// caches (capacity-bounded, size-aware LRU eviction) over a global content
// index; a launch resolves to one of three tiers:
//
//   rack hit         -> warm start (slot on the local rack cache)
//   same-region hit  -> "tepid" start (slot on another rack in the same
//                       region: pay a modeled cross-rack fabric fetch for
//                       the warm snapshot, fill the local cache with the
//                       image on the way)
//   cross-region hit -> "remote" start (slot in another federation region:
//                       pay a WAN-priced cross-region fetch; the image
//                       pull-through-replicates into the destination
//                       rack's cache, so the next launch there is warm)
//   global miss      -> cold build, image inserted into the local cache
//
// Regions come from set_rack_regions (rack index -> region id; unset = one
// region, which disables the remote tier and keeps the PR-9 three-tier
// behavior byte-identical). The WAN price comes from the wan-cost hook
// (wired to the fabric's WAN link model by UdcCloud); the hook's `commit`
// flag distinguishes a consuming fetch (FIFO bandwidth sharing + byte
// accounting) from a pure Peek preview.
//
// One setting, `share_across_tenants`, decides what a key names. Off (the
// default), it binds (kind, tenant) and every rack maps to one cache: each
// tenant's own pool per kind. A key nothing references any more (no live
// environment, no banked slot) is then erased from the memo, the content
// index and the cache at the end of the operation that dropped the last
// reference (ReleaseEnv, RefundCancelled, an eviction), so churn over many
// tenants keeps the store bounded by what is live. On, it binds the image
// (kind, tenancy, image): tenants launching the same module share one warm
// pool, racks and regions are real, and contents stay indexed.
//
// Determinism contract: nothing depends on the iteration order of the
// digest-keyed hash maps. Eviction picks the lowest (unique) LRU tick,
// TopByRefs breaks ties by digest, and a rack miss takes its slot from the
// lowest-indexed other holder in the local region, else from the
// lowest-indexed holder in any other region. Each content keeps those
// holders in an ordered set per region (GlobalEntry::holders), updated
// whenever a rack's slot list turns empty or non-empty, so the pick is a
// set lookup rather than a walk over every rack and equals what that walk
// would return. No iteration-order or wall-clock dependence anywhere, so
// runs replay identically.
//
// Attestation binding: the owner (EnvManager via UdcCloud) installs a
// content-live hook; with sharing on the store fires it on 0 <-> 1
// transitions of a content's global refcount (live environments + warm
// slots), and the hook acquires/releases a content-bound image quote in
// src/attest — minted once per content, refcounted like RetireDevice. A
// sharing-off key names a tenant's pool, not an image, so it mints no
// image quote: a sharing-off store drops the hook.

#ifndef UDC_SRC_EXEC_ENV_STORE_H_
#define UDC_SRC_EXEC_ENV_STORE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/units.h"
#include "src/crypto/sha256.h"
#include "src/exec/environment.h"
#include "src/obs/metrics.h"

namespace udc {

struct EnvStoreConfig {
  // Has no effect: the store is always EnvManager's warm pool. Kept only
  // because the frozen benchmark harness still writes it.
  bool enabled = false;
  // Off (default): the key binds exactly (kind, tenant) and all racks
  // collapse into one cache — each tenant's own warm pool per kind, with
  // dead keys reclaimed. On: the key binds (kind, tenancy, image) and
  // identical images from different tenants share warm slots across racks
  // and regions.
  bool share_across_tenants = false;
  // Per-rack cache budget for resident image bytes; 0 = unbounded.
  Bytes rack_cache_capacity;
};

class EnvStore {
 public:
  // The rack/slot provenance of one launch decision. `slot_tenant` is the
  // tenant whose Stop/Prewarm banked the consumed slot — when it differs
  // from the launching tenant, a cross-tenant warm start happened.
  struct AcquireResult {
    EnvStartMode mode = EnvStartMode::kCold;
    int source_rack = -1;      // rack the slot came from; -1 on cold
    uint64_t slot_tenant = 0;  // provenance of the consumed slot
    SimTime fetch_latency;     // non-zero only for tepid/remote starts
  };
  // NextStartLatency's side of AcquireResult: the decision without the
  // mutation.
  struct PeekResult {
    EnvStartMode mode = EnvStartMode::kCold;
    SimTime fetch_latency;
  };

  // Fired when a content's global refcount transitions 0 -> 1 (live=true)
  // or 1 -> 0 (live=false). UdcCloud wires this to the attestation
  // service's image-quote refcounting.
  using ContentLiveHook =
      std::function<void(const Sha256Digest&, Bytes size, bool live)>;

  // Prices a cross-region content fetch over the WAN. `commit` is true for
  // a consuming fetch (the caller may account bytes and advance a FIFO
  // bandwidth-sharing horizon) and false for a pure Peek preview (must not
  // mutate anything).
  using WanCostFn =
      std::function<SimTime(int src_region, int dst_region, Bytes size,
                            bool commit)>;

  EnvStore(MetricsRegistry* metrics, const EnvStoreConfig& config);

  EnvStore(const EnvStore&) = delete;
  EnvStore& operator=(const EnvStore&) = delete;

  const EnvStoreConfig& config() const { return config_; }
  // Sharing off, keys name tenants' pools, not images: no image quote is
  // minted for them, so the hook is dropped.
  void set_content_live_hook(ContentLiveHook hook) {
    if (config_.share_across_tenants) {
      content_live_hook_ = std::move(hook);
    }
  }
  // Region federation: rack index -> region id. Unset (or empty) = one
  // region; the remote tier never fires and PR-9 behavior is unchanged.
  // Must run before any slot is banked: the holder index files each rack
  // under the region it had when its first slot arrived.
  void set_rack_regions(std::vector<int> rack_regions) {
    assert(total_slots_ == 0 && "set_rack_regions after slots exist");
    rack_regions_ = std::move(rack_regions);
  }
  void set_wan_cost_hook(WanCostFn hook) { wan_cost_hook_ = std::move(hook); }

  // Content key for a launch, memoized by the fields it binds and hashed
  // (KeyDigest) on first sight only, when the image's size is registered.
  // With sharing off the reference dies with the key's last reference.
  const Sha256Digest& Intern(EnvKind kind, TenancyMode tenancy,
                             TenantId tenant, std::string_view image,
                             Bytes size);
  // The memoized key, or nullptr when it is not interned: then no slot of
  // it exists anywhere.
  const Sha256Digest* FindKey(EnvKind kind, TenancyMode tenancy,
                              TenantId tenant, std::string_view image) const;
  // Pure digest computation (no memoization): the only place a key's
  // manifest is formatted.
  Sha256Digest KeyDigest(EnvKind kind, TenancyMode tenancy, TenantId tenant,
                         std::string_view image) const;

  // Resolves and consumes the warm tier for a launch on `rack`: local slot
  // -> warm, remote slot -> tepid (slot consumed at the source rack, image
  // filled into the local cache), none -> cold (image inserted locally).
  // Registers one live-environment ref against the content.
  AcquireResult AcquireForLaunch(const Sha256Digest& digest, int rack,
                                 TenantId tenant, bool allow_warm);
  // The decision AcquireForLaunch would make, without making it.
  PeekResult Peek(const Sha256Digest& digest, int rack, bool allow_warm) const;

  // Environment stopped: drops its live ref; with `keep_warm` a slot is
  // banked on its rack first (so the content never goes refs==0 in
  // between).
  void ReleaseEnv(const Sha256Digest& digest, int rack, TenantId tenant,
                  bool keep_warm);
  // Launch rolled back: drops the live ref and, for warm/tepid starts,
  // returns the consumed slot to the rack it came from with its original
  // provenance — the store is left exactly as the launch found it.
  void RefundCancelled(const Sha256Digest& digest, EnvStartMode mode,
                       int source_rack, uint64_t slot_tenant, int local_rack);
  // Banks `count` warm slots for the content on `rack`.
  void Prewarm(const Sha256Digest& digest, int rack, TenantId tenant,
               int count);

  // --- Queries (all const, deterministic).
  int64_t TotalSlots(const Sha256Digest& digest) const;
  int64_t SlotsOnRack(const Sha256Digest& digest, int rack) const;
  int64_t ContentRefs(const Sha256Digest& digest) const;

  // Distinct content keys indexed (with sharing off: the live ones).
  size_t distinct_contents() const { return contents_.size(); }
  // Content entries with refs > 0 (live envs or warm slots).
  size_t live_contents() const { return live_contents_; }
  int64_t live_env_refs() const { return live_env_refs_; }
  int64_t total_warm_slots() const { return total_slots_; }
  Bytes resident_bytes() const { return resident_bytes_; }
  int64_t hits() const { return hits_; }
  int64_t tepid_hits() const { return tepid_hits_; }
  int64_t remote_hits() const { return remote_hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }
  int64_t bytes_deduped() const { return bytes_deduped_; }
  // Bytes every reference would hold without dedupe, over bytes actually
  // resident; 1.0 when nothing is resident.
  double DedupeFactor() const;

  struct RackStats {
    int rack = 0;
    size_t entries = 0;
    int64_t warm_slots = 0;
    Bytes resident;
    int64_t hits = 0;
    int64_t tepid_hits = 0;
    int64_t remote_hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };
  std::vector<RackStats> PerRackStats() const;

  struct ContentStats {
    Sha256Digest digest{};
    Bytes size;
    int64_t refs = 0;
    int64_t warm_slots = 0;
    int racks_resident = 0;
  };
  // Top `n` contents by global refcount (ties broken by digest order).
  std::vector<ContentStats> TopByRefs(size_t n) const;

 private:
  // (kind, tenancy, tenant, image): the fields a key binds; the ones the
  // sharing mode leaves unbound stay zero or empty.
  using InternMap = std::map<std::tuple<int, int, uint64_t, std::string>,
                             Sha256Digest, std::less<>>;
  using KeyFields = std::tuple<int, int, uint64_t, std::string_view>;
  template <typename T>
  using DigestMap = std::unordered_map<Sha256Digest, T, Sha256DigestHash>;

  struct GlobalEntry {
    InternMap::iterator key;  // the memo entry naming this content
    Bytes size;
    int64_t refs = 0;        // live envs + warm slots, all racks
    int64_t warm_slots = 0;  // slots across all racks
    // holders[region]: the racks of that region holding >= 1 banked slot.
    std::vector<std::set<int>> holders;
  };
  struct RackEntry {
    uint64_t lru_tick = 0;
    int live = 0;  // environments launched from this rack, still alive
    // LIFO provenance of banked slots: who kept this content warm.
    std::vector<uint64_t> slot_tenants;
  };
  struct RackCache {
    Bytes resident;
    DigestMap<RackEntry> entries;  // presence == resident
    int64_t hits = 0;
    int64_t tepid_hits = 0;
    int64_t remote_hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  KeyFields Fields(EnvKind kind, TenancyMode tenancy, TenantId tenant,
                   std::string_view image) const;
  RackCache& Rack(int rack);
  // Banks / consumes one slot on `rack`'s entry, keeping the slot counters
  // and the content's holder index in step.
  void BankSlot(GlobalEntry& global, int rack, RackEntry& entry,
                uint64_t tenant);
  uint64_t TakeSlot(GlobalEntry& global, int rack, RackEntry& entry);
  // Unfiles `rack` from the content's holder index (its last slot is gone).
  void DropHolder(GlobalEntry& global, int rack);
  // The rack a miss on `rack` takes its slot from (the lowest-indexed other
  // holder in its region, else the lowest-indexed holder elsewhere); -1
  // when no other rack holds one.
  int SlotSource(const GlobalEntry& global, int rack) const;
  // Inserts the image into `rack`'s cache (evicting LRU entries past the
  // capacity bound, never the entry itself) or touches it if resident.
  RackEntry& EnsureResident(int rack, const Sha256Digest& digest,
                            GlobalEntry& global);
  void EvictIfNeeded(int rack, const Sha256Digest& pinned);
  void AddRef(const Sha256Digest& digest, GlobalEntry& global);
  void DropRef(const Sha256Digest& digest, GlobalEntry& global);
  // Sharing off: erases a content nothing references any more from the
  // memo, the index and its cache. Runs last in the operation that dropped
  // the reference, when no caller still holds one into those maps.
  void ReclaimIfDead(const Sha256Digest& digest, const GlobalEntry& global);
  void Touch(RackEntry& entry) { entry.lru_tick = ++lru_clock_; }
  SimTime FetchLatency(Bytes size) const;
  // Index of `rack`'s cache in racks_: negative racks share rack 0's, and
  // with sharing off every rack does.
  int RackIndex(int rack) const {
    return rack < 0 || !config_.share_across_tenants ? 0 : rack;
  }
  // The region `rack` belongs to; 0 when no region map is set.
  int RegionOfRack(int rack) const {
    return rack >= 0 && static_cast<size_t>(rack) < rack_regions_.size()
               ? rack_regions_[static_cast<size_t>(rack)]
               : 0;
  }
  SimTime WanFetchLatency(int src_region, int dst_region, Bytes size,
                          bool commit) const;

  MetricsRegistry* metrics_;
  EnvStoreConfig config_;
  ContentLiveHook content_live_hook_;
  WanCostFn wan_cost_hook_;
  std::vector<int> rack_regions_;  // empty = single region

  DigestMap<GlobalEntry> contents_;
  std::vector<RackCache> racks_;
  // Key fields -> digest: each key is hashed once while it is indexed.
  InternMap intern_;

  uint64_t lru_clock_ = 0;
  size_t live_contents_ = 0;
  int64_t live_env_refs_ = 0;
  int64_t total_slots_ = 0;
  Bytes resident_bytes_;
  int64_t hits_ = 0;
  int64_t tepid_hits_ = 0;
  int64_t remote_hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t bytes_deduped_ = 0;

  GaugeHandle store_bytes_gauge_;
  CounterHandle evictions_metric_;
  CounterHandle bytes_deduped_metric_;
};

}  // namespace udc

#endif  // UDC_SRC_EXEC_ENV_STORE_H_
