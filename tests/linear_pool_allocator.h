// The retired linear-scan pool allocator: every request re-ranks every
// device of the pool (O(D log D)) by (preferred rack first, least free
// capacity, id) and carves slices in that order. Kept as the oracle of the
// randomized pool differential in hw_test: ResourcePool::Allocate walks the
// incrementally-maintained FreeCapacityIndex instead, and must pick the
// same devices and amounts on every request. Test-only; the pool ships the
// indexed path alone.

#ifndef UDC_TESTS_LINEAR_POOL_ALLOCATOR_H_
#define UDC_TESTS_LINEAR_POOL_ALLOCATOR_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/hw/pool.h"
#include "src/hw/topology.h"

namespace udc {

// Reserves `amount` of `pool` for `tenant` under `constraints` the way the
// pool did before it had an index. Release the result with
// ResourcePool::Release.
Result<PoolAllocation> LinearAllocate(ResourcePool& pool, TenantId tenant,
                                      int64_t amount,
                                      const AllocationConstraints& constraints,
                                      const Topology& topology);

}  // namespace udc

#endif  // UDC_TESTS_LINEAR_POOL_ALLOCATOR_H_
