// The three UDC aspect types (paper sec. 3, Design Principle 1):
//
//   1. hardware resource demands        (ResourceAspect,  sec. 3.2)
//   2. execution environment + security (ExecEnvAspect,   sec. 3.3)
//   3. distributed semantics            (DistAspect,      sec. 3.4)
//
// Aspects are declarative data, decoupled from their realization (Design
// Principle 2): the control plane (src/core) decides *how* each is met.
// Every aspect can be left undefined, in which case the provider default
// applies ("falling back to today's cloud").

#ifndef UDC_SRC_ASPECTS_ASPECTS_H_
#define UDC_SRC_ASPECTS_ASPECTS_H_

#include <optional>
#include <string>
#include <vector>

#include "src/dist/consistency.h"
#include "src/dist/failure_domain.h"
#include "src/exec/environment.h"
#include "src/hw/resource.h"

namespace udc {

// How the user expressed their resource need (Table 1 uses all three forms:
// explicit "GPU"/"SSD"/"DRAM", "Fastest", and "Cheapest").
enum class ResourceObjective {
  kExplicit,  // the demand vector is authoritative
  kFastest,   // provider picks the fastest suitable hardware
  kCheapest,  // provider picks the cheapest suitable hardware
};

std::string_view ResourceObjectiveName(ResourceObjective objective);

struct ResourceAspect {
  bool defined = false;
  ResourceObjective objective = ResourceObjective::kCheapest;
  ResourceVector demand;
  // Acceptable compute kinds for kFastest/kCheapest ("a set of possible
  // hardware ... that each task may need", sec. 3.2). Empty = any.
  std::vector<ResourceKind> allowed_compute;

  // Performance/cost goals (sec. 3.2: "if users only provide a
  // performance/cost goal, then UDC will select resources"). When set they
  // constrain the fastest/cheapest choice:
  //   deadline      — cheapest candidate whose estimated time fits it
  //   hourly_budget — fastest candidate whose hourly price fits it
  // Infeasible goals fail the deployment rather than silently degrade.
  std::optional<SimTime> deadline;
  std::optional<Money> hourly_budget;

  std::string ToString() const;
};

struct ExecEnvAspect {
  bool defined = false;
  IsolationLevel isolation = IsolationLevel::kWeak;
  TenancyMode tenancy = TenancyMode::kShared;
  // Table 1's "Single-tenant (or SGX enclave if CPU)": when the module lands
  // on CPU hardware, upgrade to a TEE enclave; on other hardware keep
  // single-tenant physical isolation.
  bool tee_if_cpu = false;
  // When set, the user pinned a concrete environment kind (bypasses the
  // provider's choice; still subject to isolation verification).
  std::optional<EnvKind> explicit_env;
  DataProtection protection;

  std::string ToString() const;
};

struct DistAspect {
  bool defined = false;
  int replication_factor = 1;
  // True only when the user wrote consistency= explicitly; a task module
  // that just asked for checkpointing must not drag its default consistency
  // into the resolution of the data modules it touches (sec. 3.4).
  bool consistency_specified = false;
  ConsistencyLevel consistency = ConsistencyLevel::kSequential;
  AccessPreference preference = AccessPreference::kNone;
  FailureHandling failure_handling = FailureHandling::kReexecute;
  bool checkpoint = false;
  // Region federation steering (spec: `aspect m dist region=N` /
  // `avoid_region=N`): pin the module's placement to one federation region,
  // or forbid one (data-sovereignty / blast-radius separation). -1 = none.
  // Not read on a topology of one region, which has nothing to steer.
  int region_affinity = -1;
  int region_anti_affinity = -1;

  std::string ToString() const;
};

struct AspectSet {
  ResourceAspect resource;
  ExecEnvAspect exec;
  DistAspect dist;

  std::string ToString() const;
};

// Provider defaults used when the user does not define an aspect: shared
// container, cheapest adequate resources, no replication — i.e. today's
// serverless-ish cloud behaviour.
AspectSet ProviderDefaults();

// Validates internal coherence of one module's aspects (e.g. replication
// with checkpointing needs a failure handling that can use it; encryption
// without integrity is flagged; replication factor bounds).
Status ValidateAspects(const AspectSet& aspects);

}  // namespace udc

#endif  // UDC_SRC_ASPECTS_ASPECTS_H_
