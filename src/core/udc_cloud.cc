#include "src/core/udc_cloud.h"

namespace udc {

UdcCloud::UdcCloud(const UdcCloudConfig& config)
    : sim_(config.seed),
      datacenter_(config.datacenter),
      fabric_(&sim_, &datacenter_.topology()),
      sequencer_(&sim_, &fabric_, datacenter_.topology().AggSwitch()),
      env_manager_(&sim_, config.env_store),
      vendor_root_(KeyFromString(config.vendor_key_seed)),
      attestation_(&sim_, vendor_root_),
      prices_(PriceList::DefaultOnDemand()),
      scheduler_(&sim_, &datacenter_, &fabric_, &env_manager_, &attestation_,
                 &prices_, config.scheduler),
      billing_(&sim_, prices_, config.billing),
      failure_injector_(&sim_),
      verifier_(&sim_, vendor_root_, &attestation_) {
  scheduler_.SetSequencer(&sequencer_);
  env_manager_.set_topology(&datacenter_.topology());
  // Bind content-addressed images to attestation: the store's content
  // refcount transitions drive once-per-content image quotes (exec cannot
  // depend on attest directly, hence the hook).
  env_manager_.set_content_quote_hook(
      [this](const Sha256Digest& digest, Bytes size, bool live) {
        if (live) {
          attestation_.AcquireImageQuote(digest, size);
        } else {
          attestation_.ReleaseImageQuote(digest);
        }
      });
  if (datacenter_.topology().region_count() > 0) {
    // Region federation: WAN links between every region pair, a region
    // router above per-cell schedulers, and WAN-priced cross-region env
    // fetches. The env store's remote tier prices through the fabric's
    // per-link model; a committing fetch shares FIFO bandwidth and
    // accounts bytes, a Peek preview stays pure.
    fabric_.ConfigureWan(config.wan);
    env_manager_.set_wan_cost_hook(
        [this](int src_region, int dst_region, Bytes size, bool commit) {
          if (commit) {
            return fabric_.WanTransferTime(src_region, dst_region, size);
          }
          return fabric_.WanPrice(src_region, dst_region, size);
        });
    region_router_ = std::make_unique<RegionRouter>(
        &sim_, &datacenter_, &fabric_, &env_manager_, &attestation_, &prices_,
        config.scheduler);
    region_router_->SetSequencer(&sequencer_);
  } else if (datacenter_.topology().cell_count() > 0) {
    cell_router_ = std::make_unique<CellRouter>(
        &sim_, &datacenter_, &fabric_, &env_manager_, &attestation_, &prices_,
        config.scheduler);
    cell_router_->SetSequencer(&sequencer_);
  }
}

TenantId UdcCloud::RegisterTenant(const std::string& name) {
  tenant_names_.push_back(name);
  return tenant_ids_.Next();
}

const std::string& UdcCloud::TenantName(TenantId id) const {
  static const std::string kUnknown = "<unknown>";
  if (id.value() >= tenant_names_.size()) {
    return kUnknown;
  }
  return tenant_names_[id.value()];
}

Result<std::unique_ptr<Deployment>> UdcCloud::Deploy(TenantId tenant,
                                                     const AppSpec& spec) {
  if (region_router_ != nullptr) {
    return region_router_->Deploy(tenant, spec);
  }
  if (cell_router_ != nullptr) {
    return cell_router_->Deploy(tenant, spec);
  }
  return scheduler_.Deploy(tenant, spec);
}

Result<std::unique_ptr<Deployment>> UdcCloud::Deploy(
    TenantId tenant, std::shared_ptr<const AppSpec> spec) {
  if (region_router_ != nullptr) {
    return region_router_->Deploy(tenant, std::move(spec));
  }
  if (cell_router_ != nullptr) {
    return cell_router_->Deploy(tenant, std::move(spec));
  }
  return scheduler_.Deploy(tenant, std::move(spec));
}

std::vector<Result<std::unique_ptr<Deployment>>> UdcCloud::DeployAll(
    TenantId tenant, const std::vector<const AppSpec*>& specs) {
  if (region_router_ != nullptr) {
    return region_router_->DeployAll(tenant, specs);
  }
  if (cell_router_ != nullptr) {
    return cell_router_->DeployAll(tenant, specs);
  }
  return scheduler_.DeployAll(tenant, specs);
}

Result<VerificationReport> UdcCloud::Verify(Deployment* deployment) {
  return verifier_.VerifyDeployment(deployment);
}

}  // namespace udc
