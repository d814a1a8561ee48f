// Vertical bundling (paper sec. 3, Design Principle 3).
//
// "We propose to vertically bundle layers of fine-grained pieces into a
// self-sustained resource unit. For example, we can combine some amount of
// compute resources (e.g., a CPU core), an execution environment (e.g., a
// container), and some distributed API library into one low-level resource
// unit for allocation, scheduling, and failure handling. We also propose to
// bundle a fine-grained code/data module and its aspects into a high-level
// object, which can be executed on one or more resource units."

#ifndef UDC_SRC_CORE_RESOURCE_UNIT_H_
#define UDC_SRC_CORE_RESOURCE_UNIT_H_

#include <string>
#include <vector>

#include "src/aspects/aspects.h"
#include "src/common/ids.h"
#include "src/exec/environment.h"
#include "src/hw/pool.h"

namespace udc {

// One self-sustained low-level unit: device slices + exec environment.
// Owned by a Deployment; where its module runs is the module's Placement
// (home and rack), kept in that one place.
struct ResourceUnit {
  ResourceUnitId id;
  TenantId tenant;
  // Slices across pools backing this unit (one PoolAllocation per kind).
  std::vector<PoolAllocation> allocations;
  // The environment running on the unit (null for pure data units).
  ExecEnvironment* env = nullptr;

  // Summed resources across all slices.
  ResourceVector TotalResources() const;
  // The device carrying the primary (first) slice of `kind`, if any.
  DeviceId PrimaryDevice(ResourceKind kind) const;
};

// High-level object: a module + its aspects, mapped onto >= 1 resource units.
struct HighLevelObject {
  ObjectId id;
  ModuleId module;
  std::string module_name;
  AspectSet aspects;
  std::vector<ResourceUnitId> units;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_RESOURCE_UNIT_H_
