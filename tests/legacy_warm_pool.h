// The retired (kind, tenant) warm pool: a count of warm slots per
// environment kind and tenant, blind to the image, the tenancy and the
// node. A launch consumes a slot when warm launches are allowed and one is
// banked, a keep-warm stop banks one, a cancelled warm launch refunds its
// slot, and an exhausted entry is erased. Kept as the oracle of the
// randomized differential in env_store_test: EnvManager's store with
// cross-tenant sharing off must make the same decisions. Test-only; the
// manager ships the store alone.

#ifndef UDC_TESTS_LEGACY_WARM_POOL_H_
#define UDC_TESTS_LEGACY_WARM_POOL_H_

#include <cstdint>
#include <map>
#include <utility>

#include "src/common/ids.h"
#include "src/exec/env_manager.h"

namespace udc {

class LegacyWarmPool {
 public:
  struct Start {
    EnvStartMode mode = EnvStartMode::kCold;
    SimTime latency;
  };

  // The start a Launch of `options` by `tenant` makes; a warm one consumes
  // a slot.
  Start Launch(TenantId tenant, const LaunchOptions& options);
  // The latency the next Launch would pay, without making it.
  SimTime NextStartLatency(TenantId tenant, const LaunchOptions& options) const;
  void Stop(EnvKind kind, TenantId tenant, bool keep_warm);
  void CancelLaunch(EnvKind kind, TenantId tenant, bool started_warm);
  void Prewarm(EnvKind kind, TenantId tenant, int count);

  int WarmSlots(EnvKind kind, TenantId tenant) const;
  int64_t warm_starts() const { return warm_starts_; }
  int64_t cold_starts() const { return cold_starts_; }

 private:
  std::map<std::pair<int, uint64_t>, int> slots_;
  int64_t warm_starts_ = 0;
  int64_t cold_starts_ = 0;
};

}  // namespace udc

#endif  // UDC_TESTS_LEGACY_WARM_POOL_H_
