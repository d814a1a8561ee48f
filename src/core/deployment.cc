#include "src/core/deployment.h"

#include "src/common/strings.h"

namespace udc {

Deployment::Deployment(TenantId tenant, std::shared_ptr<const AppSpec> spec,
                       PlacementEngine* engine, SimTime deployed_at)
    : tenant_(tenant), spec_(std::move(spec)), engine_(engine),
      deployed_at_(deployed_at) {}

Deployment::~Deployment() { Teardown(); }

ResourceUnit& Deployment::AddUnit(ResourceUnit unit) {
  unit.id = unit_ids_.Next();
  units_.push_back(std::make_unique<ResourceUnit>(std::move(unit)));
  return *units_.back();
}

HighLevelObject& Deployment::AddObject(HighLevelObject object) {
  object.id = object_ids_.Next();
  objects_.push_back(std::move(object));
  return objects_.back();
}

void Deployment::SetPlacement(Placement placement) {
  placements_[placement.module] = std::move(placement);
}

void Deployment::AddStore(ModuleId data_module,
                          std::unique_ptr<ReplicatedStore> store) {
  stores_[data_module] = std::move(store);
}

void Deployment::RemoveStore(ModuleId data_module) {
  stores_.erase(data_module);
}

void Deployment::RecordProvisionedIdentity(uint64_t device_identity) {
  provisioned_identities_.push_back(device_identity);
}

const Placement* Deployment::PlacementOf(ModuleId module) const {
  const auto it = placements_.find(module);
  return it == placements_.end() ? nullptr : &it->second;
}

Placement* Deployment::MutablePlacementOf(ModuleId module) {
  const auto it = placements_.find(module);
  return it == placements_.end() ? nullptr : &it->second;
}

ResourceUnit* Deployment::FindUnit(ResourceUnitId id) {
  for (auto& u : units_) {
    if (u->id == id) {
      return u.get();
    }
  }
  return nullptr;
}

const ResourceUnit* Deployment::FindUnit(ResourceUnitId id) const {
  for (const auto& u : units_) {
    if (u->id == id) {
      return u.get();
    }
  }
  return nullptr;
}

ReplicatedStore* Deployment::StoreOf(ModuleId data_module) {
  const auto it = stores_.find(data_module);
  return it == stores_.end() ? nullptr : it->second.get();
}

std::vector<ResourceUnit*> Deployment::units() {
  std::vector<ResourceUnit*> out;
  out.reserve(units_.size());
  for (auto& u : units_) {
    out.push_back(u.get());
  }
  return out;
}

ResourceVector Deployment::TotalResources() const {
  ResourceVector total;
  for (const auto& u : units_) {
    total += u->TotalResources();
  }
  return total;
}

ResourceVector Deployment::ResourcesOf(ModuleId module) const {
  const Placement* placement = PlacementOf(module);
  if (placement == nullptr) {
    return ResourceVector();
  }
  const ResourceUnit* unit = FindUnit(placement->unit);
  return unit == nullptr ? ResourceVector() : unit->TotalResources();
}

void Deployment::Teardown() {
  if (torn_down_) {
    return;
  }
  torn_down_ = true;
  for (auto& unit : units_) {
    if (unit->env != nullptr) {
      (void)engine_->env_manager()->Stop(unit->env, /*keep_warm=*/false);
      unit->env = nullptr;
    }
    for (PoolAllocation& alloc : unit->allocations) {
      (void)ReleasePoolAllocation(datacenter(), alloc);
    }
    unit->allocations.clear();
  }
  for (uint64_t identity : provisioned_identities_) {
    engine_->attestation()->RetireDevice(identity);
  }
  provisioned_identities_.clear();
}

void Deployment::Abandon() {
  torn_down_ = true;
  for (auto& unit : units_) {
    unit->allocations.clear();
    unit->env = nullptr;
  }
  provisioned_identities_.clear();
}

std::string Deployment::DebugString() const {
  std::string out =
      StrFormat("deployment tenant=%llu app=%s: %zu objects, %zu units\n",
                static_cast<unsigned long long>(tenant_.value()),
                spec_->graph.app_name().c_str(), objects_.size(),
                units_.size());
  for (const auto& [module, p] : placements_) {
    out += StrFormat("  %-8s rack=%d home=%llu %s\n", p.name.c_str(), p.rack,
                     static_cast<unsigned long long>(p.home.value()),
                     p.kind == ModuleKind::kTask
                         ? std::string(EnvKindName(p.env_kind)).c_str()
                         : "data");
  }
  return out;
}

}  // namespace udc
