#include "tests/legacy_warm_pool.h"

namespace udc {

namespace {

std::pair<int, uint64_t> Key(EnvKind kind, TenantId tenant) {
  return {static_cast<int>(kind), tenant.value()};
}

}  // namespace

LegacyWarmPool::Start LegacyWarmPool::Launch(TenantId tenant,
                                             const LaunchOptions& options) {
  const EnvProfile profile = EnvProfile::DefaultFor(options.kind);
  const auto it = slots_.find(Key(options.kind, tenant));
  if (options.allow_warm && it != slots_.end()) {
    if (--it->second == 0) {
      slots_.erase(it);
    }
    ++warm_starts_;
    return {EnvStartMode::kWarm, profile.warm_start};
  }
  ++cold_starts_;
  return {EnvStartMode::kCold, profile.cold_start};
}

SimTime LegacyWarmPool::NextStartLatency(TenantId tenant,
                                         const LaunchOptions& options) const {
  const EnvProfile profile = EnvProfile::DefaultFor(options.kind);
  return options.allow_warm && WarmSlots(options.kind, tenant) > 0
             ? profile.warm_start
             : profile.cold_start;
}

void LegacyWarmPool::Stop(EnvKind kind, TenantId tenant, bool keep_warm) {
  if (keep_warm) {
    ++slots_[Key(kind, tenant)];
  }
}

void LegacyWarmPool::CancelLaunch(EnvKind kind, TenantId tenant,
                                  bool started_warm) {
  if (started_warm) {
    ++slots_[Key(kind, tenant)];
  }
}

void LegacyWarmPool::Prewarm(EnvKind kind, TenantId tenant, int count) {
  if (count > 0) {
    slots_[Key(kind, tenant)] += count;
  }
}

int LegacyWarmPool::WarmSlots(EnvKind kind, TenantId tenant) const {
  const auto it = slots_.find(Key(kind, tenant));
  return it == slots_.end() ? 0 : it->second;
}

}  // namespace udc
