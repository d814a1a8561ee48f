// A deployed application: the realization of an AppSpec for one tenant.
//
// Holds the high-level objects, resource units, launched environments,
// replicated data stores and consistency resolutions produced by the
// scheduler, plus the bookkeeping needed to tear everything down and to
// answer verification/billing queries.

#ifndef UDC_SRC_CORE_DEPLOYMENT_H_
#define UDC_SRC_CORE_DEPLOYMENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/aspects/spec_parser.h"
#include "src/core/placement_engine.h"
#include "src/core/resource_unit.h"
#include "src/dist/replication.h"

namespace udc {

// Where one module landed.
struct Placement {
  ModuleId module;
  std::string name;
  ModuleKind kind = ModuleKind::kTask;
  ResourceUnitId unit;
  ObjectId object;
  NodeId home;            // primary node (compute device / first replica)
  int rack = -1;
  // Tasks:
  EnvKind env_kind = EnvKind::kContainer;
  SimTime env_ready_at;
  ResourceKind compute_kind = ResourceKind::kCpu;
  // Data:
  std::vector<NodeId> replica_nodes;
  std::vector<DeviceId> replica_devices;
  ResourceKind storage_medium = ResourceKind::kSsd;
  ConsistencyLevel effective_consistency = ConsistencyLevel::kEventual;
};

class Deployment {
 public:
  // Built by the region router with its `engine`, which Teardown releases
  // through. The deployment references the caller's immutable spec instead
  // of deep-copying it: at 1M+ tenants deploying a catalog of app shapes,
  // per-deployment spec copies dominate control-plane memory and a
  // measurable slice of deploy latency.
  Deployment(TenantId tenant, std::shared_ptr<const AppSpec> spec,
             PlacementEngine* engine, SimTime deployed_at);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  TenantId tenant() const { return tenant_; }
  const AppSpec& spec() const { return *spec_; }
  SimTime deployed_at() const { return deployed_at_; }
  DisaggregatedDatacenter* datacenter() const { return engine_->datacenter(); }

  // Mutators used by the scheduler while building the deployment.
  ResourceUnit& AddUnit(ResourceUnit unit);
  HighLevelObject& AddObject(HighLevelObject object);
  void SetPlacement(Placement placement);
  void AddStore(ModuleId data_module, std::unique_ptr<ReplicatedStore> store);
  void RemoveStore(ModuleId data_module);
  // Records an attestation identity provisioned for this deployment so
  // Teardown can retire it (ref-counted in the attestation service).
  void RecordProvisionedIdentity(uint64_t device_identity);

  const Placement* PlacementOf(ModuleId module) const;
  Placement* MutablePlacementOf(ModuleId module);
  ResourceUnit* FindUnit(ResourceUnitId id);
  const ResourceUnit* FindUnit(ResourceUnitId id) const;
  ReplicatedStore* StoreOf(ModuleId data_module);

  const std::vector<HighLevelObject>& objects() const { return objects_; }
  const std::map<ModuleId, Placement>& placements() const { return placements_; }
  std::vector<ResourceUnit*> units();

  // Total resources held across all units.
  ResourceVector TotalResources() const;
  // Resources held for one module.
  ResourceVector ResourcesOf(ModuleId module) const;

  // Releases every pool allocation, stops the units' environments and
  // retires recorded attestation identities. Idempotent. Called by the
  // destructor.
  void Teardown();
  // Marks the deployment torn down WITHOUT releasing anything: used after a
  // placement transaction aborted, when the txn has already restored every
  // external side effect and the partial deployment must not double-release.
  void Abandon();
  bool torn_down() const { return torn_down_; }

  std::string DebugString() const;

 private:
  TenantId tenant_;
  std::shared_ptr<const AppSpec> spec_;
  PlacementEngine* engine_;
  SimTime deployed_at_;
  std::vector<uint64_t> provisioned_identities_;
  IdGenerator<ResourceUnitId> unit_ids_;
  IdGenerator<ObjectId> object_ids_;
  std::vector<std::unique_ptr<ResourceUnit>> units_;
  std::vector<HighLevelObject> objects_;
  std::map<ModuleId, Placement> placements_;
  std::map<ModuleId, std::unique_ptr<ReplicatedStore>> stores_;
  bool torn_down_ = false;

  friend class UdcScheduler;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_DEPLOYMENT_H_
