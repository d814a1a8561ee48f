#include "src/exec/env_store.h"

#include <algorithm>

#include "src/common/strings.h"

namespace udc {

EnvStore::EnvStore(MetricsRegistry* metrics, const EnvStoreConfig& config)
    : metrics_(metrics),
      config_(config),
      store_bytes_gauge_(metrics->GaugeSeries("exec.store_bytes")),
      evictions_metric_(metrics->CounterSeries("exec.evictions")),
      bytes_deduped_metric_(metrics->CounterSeries("exec.store_bytes_deduped")) {
}

Sha256Digest EnvStore::KeyDigest(EnvKind kind, TenancyMode tenancy,
                                 TenantId tenant,
                                 std::string_view image) const {
  // With sharing off the key binds exactly (kind, tenant) — the legacy
  // pool's granularity — so the store's decisions match it byte-for-byte.
  // With sharing on the key binds the content (kind, tenancy, image) and
  // deliberately omits the tenant: identical modules from different
  // tenants collapse into one warm pool.
  if (!config_.share_across_tenants) {
    return Sha256::Hash(
        StrFormat("env-pool kind=%d tenant=%llu", static_cast<int>(kind),
                  static_cast<unsigned long long>(tenant.value())));
  }
  return Sha256::Hash(StrFormat(
      "env-image kind=%d tenancy=%d image=%s", static_cast<int>(kind),
      static_cast<int>(tenancy), std::string(image).c_str()));
}

const Sha256Digest& EnvStore::Intern(EnvKind kind, TenancyMode tenancy,
                                     TenantId tenant, std::string_view image,
                                     Bytes size) {
  std::string manifest;
  if (!config_.share_across_tenants) {
    manifest =
        StrFormat("env-pool kind=%d tenant=%llu", static_cast<int>(kind),
                  static_cast<unsigned long long>(tenant.value()));
  } else {
    manifest = StrFormat("env-image kind=%d tenancy=%d image=%s",
                         static_cast<int>(kind), static_cast<int>(tenancy),
                         std::string(image).c_str());
  }
  auto it = intern_.find(manifest);
  if (it == intern_.end()) {
    // First sight of this manifest: the only place the image is hashed.
    const Sha256Digest digest = Sha256::Hash(manifest);
    it = intern_.emplace(std::move(manifest), digest).first;
  }
  GlobalEntry& global = contents_[it->second];
  if (global.size.bytes() == 0) {
    global.size = size;
  }
  return it->second;
}

EnvStore::RackCache& EnvStore::Rack(int rack) {
  const auto idx = static_cast<size_t>(RackIndex(rack));
  if (idx >= racks_.size()) {
    racks_.resize(idx + 1);
  }
  return racks_[idx];
}

void EnvStore::BankSlot(GlobalEntry& global, int rack, RackEntry& entry,
                        uint64_t tenant) {
  if (entry.slot_tenants.empty()) {
    const int idx = RackIndex(rack);
    const auto region = static_cast<size_t>(RegionOfRack(idx));
    if (global.holders.size() <= region) {
      global.holders.resize(region + 1);
    }
    global.holders[region].insert(idx);
  }
  entry.slot_tenants.push_back(tenant);
  ++global.warm_slots;
  ++total_warm_slots_;
}

uint64_t EnvStore::TakeSlot(GlobalEntry& global, int rack, RackEntry& entry) {
  const uint64_t tenant = entry.slot_tenants.back();
  entry.slot_tenants.pop_back();
  if (entry.slot_tenants.empty()) {
    DropHolder(global, rack);
  }
  --global.warm_slots;
  --total_warm_slots_;
  return tenant;
}

void EnvStore::DropHolder(GlobalEntry& global, int rack) {
  const int idx = RackIndex(rack);
  global.holders[static_cast<size_t>(RegionOfRack(idx))].erase(idx);
}

int EnvStore::SlotSource(const GlobalEntry& global, int rack) const {
  const int local = RackIndex(rack);
  const auto local_region = static_cast<size_t>(RegionOfRack(local));
  if (local_region < global.holders.size()) {
    for (const int r : global.holders[local_region]) {
      if (r != local) {
        return r;  // same region: the tepid tier
      }
    }
  }
  int source = -1;  // the lowest-indexed holder elsewhere: the remote tier
  for (size_t region = 0; region < global.holders.size(); ++region) {
    const std::set<int>& holders = global.holders[region];
    if (region != local_region && !holders.empty() &&
        (source < 0 || *holders.begin() < source)) {
      source = *holders.begin();
    }
  }
  return source;
}

SimTime EnvStore::FetchLatency(Bytes size) const {
  const double bytes_per_us =
      config_.fetch_gib_per_s * 1024.0 * 1024.0 * 1024.0 / 1e6;
  const auto transfer_us = static_cast<int64_t>(
      static_cast<double>(size.bytes()) / bytes_per_us);
  return config_.fetch_base + SimTime::Micros(transfer_us);
}

SimTime EnvStore::WanFetchLatency(int src_region, int dst_region, Bytes size,
                                  bool commit) const {
  if (wan_cost_hook_) {
    return wan_cost_hook_(src_region, dst_region, size, commit);
  }
  const double bytes_per_us =
      config_.wan_gib_per_s * 1024.0 * 1024.0 * 1024.0 / 1e6;
  const auto transfer_us = static_cast<int64_t>(
      static_cast<double>(size.bytes()) / bytes_per_us);
  return config_.wan_fetch_base + SimTime::Micros(transfer_us);
}

void EnvStore::AddRef(const Sha256Digest& digest, GlobalEntry& global) {
  if (global.refs++ == 0) {
    ++live_contents_;
    if (content_live_hook_) {
      content_live_hook_(digest, global.size, true);
    }
  }
}

void EnvStore::DropRef(const Sha256Digest& digest, GlobalEntry& global) {
  if (--global.refs == 0) {
    --live_contents_;
    if (content_live_hook_) {
      content_live_hook_(digest, global.size, false);
    }
  }
}

EnvStore::RackEntry& EnvStore::EnsureResident(int rack,
                                              const Sha256Digest& digest,
                                              GlobalEntry& global) {
  RackCache& cache = Rack(rack);
  auto [it, inserted] = cache.entries.try_emplace(digest);
  if (!inserted) {
    // Already cached here: the image pull is saved — that is the dedupe.
    bytes_deduped_ += global.size.bytes();
    metrics_->Increment(bytes_deduped_metric_, global.size.bytes());
    Touch(it->second);
    return it->second;
  }
  cache.resident = Bytes(cache.resident.bytes() + global.size.bytes());
  resident_bytes_ = Bytes(resident_bytes_.bytes() + global.size.bytes());
  Touch(it->second);
  EvictIfNeeded(rack, digest);
  metrics_->Set(store_bytes_gauge_,
                static_cast<double>(resident_bytes_.bytes()));
  // try_emplace iterators survive EvictIfNeeded: std::map erase never
  // invalidates other nodes, and the pinned digest is never the victim.
  return it->second;
}

void EnvStore::EvictIfNeeded(int rack, const Sha256Digest& pinned) {
  if (config_.rack_cache_capacity.bytes() <= 0) {
    return;  // unbounded
  }
  RackCache& cache = Rack(rack);
  while (cache.resident.bytes() > config_.rack_cache_capacity.bytes()) {
    // Size-aware LRU: the oldest unpinned entry with no live environments
    // goes first, warm slots and all (cache pressure kills warm pools).
    auto victim = cache.entries.end();
    for (auto it = cache.entries.begin(); it != cache.entries.end(); ++it) {
      if (it->second.live > 0 || DigestEqual(it->first, pinned)) {
        continue;  // pinned: a running env (or the entry being inserted)
      }
      if (victim == cache.entries.end() ||
          it->second.lru_tick < victim->second.lru_tick) {
        victim = it;
      }
    }
    if (victim == cache.entries.end()) {
      return;  // everything pinned: soft bound, allow the overage
    }
    GlobalEntry& global = contents_.at(victim->first);
    const auto dropped =
        static_cast<int64_t>(victim->second.slot_tenants.size());
    if (dropped > 0) {
      DropHolder(global, rack);
    }
    for (int64_t i = 0; i < dropped; ++i) {
      DropRef(victim->first, global);
    }
    global.warm_slots -= dropped;
    total_warm_slots_ -= dropped;
    cache.resident = Bytes(cache.resident.bytes() - global.size.bytes());
    resident_bytes_ = Bytes(resident_bytes_.bytes() - global.size.bytes());
    ++cache.evictions;
    ++evictions_;
    metrics_->Increment(evictions_metric_);
    cache.entries.erase(victim);
  }
  metrics_->Set(store_bytes_gauge_,
                static_cast<double>(resident_bytes_.bytes()));
}

EnvStore::AcquireResult EnvStore::AcquireForLaunch(const Sha256Digest& digest,
                                                   int rack,
                                                   TenantId /*tenant*/,
                                                   bool allow_warm) {
  GlobalEntry& global = contents_.at(digest);
  RackCache& local = Rack(rack);
  AcquireResult result;

  if (allow_warm) {
    auto it = local.entries.find(digest);
    if (it != local.entries.end() && !it->second.slot_tenants.empty()) {
      // Rack hit: consume the most recently banked slot.
      result.mode = EnvStartMode::kWarm;
      result.source_rack = rack;
      result.slot_tenant = TakeSlot(global, rack, it->second);
      ++local.hits;
      ++hits_;
      // The env ref replaces the slot ref: add before drop so the content
      // never transitions through refs == 0.
      AddRef(digest, global);
      DropRef(digest, global);
      ++it->second.live;
      bytes_deduped_ += global.size.bytes();
      metrics_->Increment(bytes_deduped_metric_, global.size.bytes());
      Touch(it->second);
      ++live_env_refs_;
      return result;
    }
    // Rack miss: a same-region source is the tepid tier. A cross-region
    // source is the remote tier: the slot is consumed in the source region
    // and the image pull-through-replicates into the local rack's cache,
    // priced over the WAN model. With no region map every rack is region 0
    // and only the tepid tier exists.
    const int source = SlotSource(global, rack);
    if (source >= 0) {
      const int local_region = RegionOfRack(RackIndex(rack));
      const int source_region = RegionOfRack(source);
      RackEntry& remote =
          racks_[static_cast<size_t>(source)].entries.find(digest)->second;
      result.source_rack = source;
      result.slot_tenant = TakeSlot(global, source, remote);
      if (source_region == local_region) {
        result.mode = EnvStartMode::kTepid;
        result.fetch_latency = FetchLatency(global.size);
        ++local.tepid_hits;
        ++tepid_hits_;
      } else {
        result.mode = EnvStartMode::kRemote;
        result.fetch_latency =
            FetchLatency(global.size) +
            WanFetchLatency(source_region, local_region, global.size,
                            /*commit=*/true);
        ++local.remote_hits;
        ++remote_hits_;
      }
      AddRef(digest, global);
      DropRef(digest, global);
      // Fill-on-miss: the fetched image lands in the local cache (for the
      // remote tier this is the pull-through replication into the
      // destination region).
      RackEntry& entry = EnsureResident(rack, digest, global);
      ++entry.live;
      ++live_env_refs_;
      return result;
    }
  }

  // Global miss (or warm disallowed): cold build + insert.
  result.mode = EnvStartMode::kCold;
  ++local.misses;
  ++misses_;
  AddRef(digest, global);
  RackEntry& entry = EnsureResident(rack, digest, global);
  ++entry.live;
  ++live_env_refs_;
  return result;
}

EnvStore::PeekResult EnvStore::Peek(const Sha256Digest& digest, int rack,
                                    bool allow_warm) const {
  PeekResult result;
  const auto content = contents_.find(digest);
  if (!allow_warm || content == contents_.end()) {
    return result;  // an unknown content has no slot anywhere
  }
  const GlobalEntry& global = content->second;
  const auto idx = static_cast<size_t>(RackIndex(rack));
  if (idx < racks_.size()) {
    auto it = racks_[idx].entries.find(digest);
    if (it != racks_[idx].entries.end() && !it->second.slot_tenants.empty()) {
      result.mode = EnvStartMode::kWarm;
      return result;
    }
  }
  // The source AcquireForLaunch would take, so the preview names the mode
  // and the uncongested price the launch would pay.
  const int source = SlotSource(global, rack);
  if (source < 0) {
    return result;
  }
  const int local_region = RegionOfRack(static_cast<int>(idx));
  const int source_region = RegionOfRack(source);
  result.fetch_latency = FetchLatency(global.size);
  if (source_region == local_region) {
    result.mode = EnvStartMode::kTepid;
  } else {
    result.mode = EnvStartMode::kRemote;
    result.fetch_latency += WanFetchLatency(source_region, local_region,
                                            global.size, /*commit=*/false);
  }
  return result;
}

void EnvStore::ReleaseEnv(const Sha256Digest& digest, int rack,
                          TenantId tenant, bool keep_warm) {
  GlobalEntry& global = contents_.at(digest);
  if (keep_warm) {
    // Bank the slot before dropping the env ref so the content's refcount
    // never dips to zero across the hand-off.
    AddRef(digest, global);
    BankSlot(global, rack, EnsureResident(rack, digest, global),
             tenant.value());
  }
  auto it = Rack(rack).entries.find(digest);
  if (it != Rack(rack).entries.end() && it->second.live > 0) {
    --it->second.live;
  }
  DropRef(digest, global);
  --live_env_refs_;
}

void EnvStore::RefundCancelled(const Sha256Digest& digest, EnvStartMode mode,
                               int source_rack, uint64_t slot_tenant,
                               int local_rack) {
  GlobalEntry& global = contents_.at(digest);
  if (mode != EnvStartMode::kCold) {
    // Return the consumed slot to the rack it came from, with its original
    // provenance — exactly undoing AcquireForLaunch's consumption.
    AddRef(digest, global);
    BankSlot(global, source_rack,
             EnsureResident(source_rack, digest, global), slot_tenant);
  }
  auto it = Rack(local_rack).entries.find(digest);
  if (it != Rack(local_rack).entries.end() && it->second.live > 0) {
    --it->second.live;
  }
  DropRef(digest, global);
  --live_env_refs_;
}

void EnvStore::Prewarm(const Sha256Digest& digest, int rack, TenantId tenant,
                       int count) {
  GlobalEntry& global = contents_.at(digest);
  for (int i = 0; i < count; ++i) {
    AddRef(digest, global);
    BankSlot(global, rack, EnsureResident(rack, digest, global),
             tenant.value());
  }
}

int64_t EnvStore::TotalSlots(const Sha256Digest& digest) const {
  const auto it = contents_.find(digest);
  return it == contents_.end() ? 0 : it->second.warm_slots;
}

int64_t EnvStore::SlotsOnRack(const Sha256Digest& digest, int rack) const {
  const auto idx = static_cast<size_t>(RackIndex(rack));
  if (idx >= racks_.size()) {
    return 0;
  }
  const auto it = racks_[idx].entries.find(digest);
  return it == racks_[idx].entries.end()
             ? 0
             : static_cast<int64_t>(it->second.slot_tenants.size());
}

int64_t EnvStore::ContentRefs(const Sha256Digest& digest) const {
  const auto it = contents_.find(digest);
  return it == contents_.end() ? 0 : it->second.refs;
}

double EnvStore::DedupeFactor() const {
  if (resident_bytes_.bytes() <= 0) {
    return 1.0;
  }
  int64_t logical = 0;
  for (const auto& [digest, global] : contents_) {
    logical += global.size.bytes() * std::max<int64_t>(global.refs, 0);
  }
  return std::max(1.0, static_cast<double>(logical) /
                           static_cast<double>(resident_bytes_.bytes()));
}

std::vector<EnvStore::RackStats> EnvStore::PerRackStats() const {
  std::vector<RackStats> stats;
  stats.reserve(racks_.size());
  for (size_t r = 0; r < racks_.size(); ++r) {
    const RackCache& cache = racks_[r];
    RackStats s;
    s.rack = static_cast<int>(r);
    s.entries = cache.entries.size();
    for (const auto& [digest, entry] : cache.entries) {
      s.warm_slots += static_cast<int64_t>(entry.slot_tenants.size());
    }
    s.resident = cache.resident;
    s.hits = cache.hits;
    s.tepid_hits = cache.tepid_hits;
    s.remote_hits = cache.remote_hits;
    s.misses = cache.misses;
    s.evictions = cache.evictions;
    stats.push_back(s);
  }
  return stats;
}

std::vector<EnvStore::ContentStats> EnvStore::TopByRefs(size_t n) const {
  std::vector<ContentStats> all;
  all.reserve(contents_.size());
  for (const auto& [digest, global] : contents_) {
    ContentStats s;
    s.digest = digest;
    s.size = global.size;
    s.refs = global.refs;
    s.warm_slots = global.warm_slots;
    for (const RackCache& cache : racks_) {
      if (cache.entries.count(digest) > 0) {
        ++s.racks_resident;
      }
    }
    all.push_back(s);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const ContentStats& a, const ContentStats& b) {
                     return a.refs > b.refs;
                   });
  if (all.size() > n) {
    all.resize(n);
  }
  return all;
}

}  // namespace udc
