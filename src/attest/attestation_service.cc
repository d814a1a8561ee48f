#include "src/attest/attestation_service.h"

#include "src/common/strings.h"

namespace udc {

namespace {

// Reserved signing identity for the content-addressed image store: not a
// device, never provisioned through ProvisionDevice, invisible to
// provisioned_count.
constexpr uint64_t kImageStoreIdentity = ~uint64_t{0};

}  // namespace

AttestationService::AttestationService(Simulation* sim, Key256 vendor_root)
    : sim_(sim),
      vendor_root_(vendor_root),
      image_quotes_minted_metric_(
          sim->metrics().CounterSeries("attest.image_quotes_minted")) {}

void AttestationService::ProvisionDevice(uint64_t device_identity) {
  ProvisionedRoot& entry = roots_[device_identity];
  if (entry.rot == nullptr) {
    // First-ever provision of this identity: derive the fused key. Dormant
    // (retired) entries keep their key, so churny re-provisioning skips
    // the derivation chain entirely.
    entry.rot = std::make_unique<RootOfTrust>(vendor_root_, device_identity);
  }
  if (entry.refs == 0) {
    ++live_roots_;
  }
  ++entry.refs;
}

void AttestationService::RetireDevice(uint64_t device_identity) {
  const auto it = roots_.find(device_identity);
  if (it == roots_.end() || it->second.refs == 0) {
    return;  // already retired (or never provisioned): idempotent
  }
  if (--it->second.refs == 0) {
    --live_roots_;  // key stays memoized; the root is dormant
  }
}

bool AttestationService::IsProvisioned(uint64_t device_identity) const {
  const auto it = roots_.find(device_identity);
  return it != roots_.end() && it->second.refs > 0;
}

int64_t AttestationService::ProvisionRefs(uint64_t device_identity) const {
  const auto it = roots_.find(device_identity);
  return it == roots_.end() ? 0 : it->second.refs;
}

Result<const RootOfTrust*> AttestationService::RotFor(
    uint64_t device_identity) const {
  const auto it = roots_.find(device_identity);
  if (it == roots_.end() || it->second.refs == 0) {
    return Status(NotFoundError(StrFormat(
        "device %llu has no provisioned root of trust",
        static_cast<unsigned long long>(device_identity))));
  }
  return it->second.rot.get();
}

Result<Quote> AttestationService::QuoteEnvironment(const ExecEnvironment& env) {
  if (!env.profile().attestable &&
      env.tenancy() != TenancyMode::kSingleTenant) {
    return Status(FailedPreconditionError(
        "environment kind is not attestable and not single-tenant"));
  }
  UDC_ASSIGN_OR_RETURN(const RootOfTrust* rot, RotFor(env.node().value()));
  const std::string report = EnvironmentReport(
      env.measurement(), IsolationLevelName(env.isolation()),
      env.tenancy() == TenancyMode::kSingleTenant ? "single" : "shared",
      env.tenant().value());
  return rot->Sign(quote_ids_.Next(), QuoteSubject::kEnvironment, sim_->now(),
                   report);
}

Result<Quote> AttestationService::QuoteResource(const ResourcePool& pool,
                                                DeviceId device,
                                                TenantId tenant) {
  const Device* d = pool.FindDevice(device);
  if (d == nullptr) {
    return Status(NotFoundError(
        StrFormat("device %llu is not in the %s pool",
                  static_cast<unsigned long long>(device.value()),
                  std::string(DeviceKindName(pool.device_kind())).c_str())));
  }
  UDC_ASSIGN_OR_RETURN(const RootOfTrust* rot, RotFor(device.value()));
  return rot->Sign(quote_ids_.Next(), QuoteSubject::kResources, sim_->now(),
                   ResourceReport(device.value(),
                                  ResourceKindName(pool.resource_kind()),
                                  tenant.value(), d->AllocatedBy(tenant)));
}

Result<Quote> AttestationService::QuoteReplica(uint64_t replica_device,
                                               const std::string& object,
                                               TenantId tenant) {
  UDC_ASSIGN_OR_RETURN(const RootOfTrust* rot, RotFor(replica_device));
  return rot->Sign(quote_ids_.Next(), QuoteSubject::kReplication, sim_->now(),
                   ReplicationReport(object, replica_device, tenant.value()));
}

const Quote* AttestationService::AcquireImageQuote(
    const Sha256Digest& image_digest, Bytes image_size) {
  auto [it, inserted] = image_quotes_.try_emplace(image_digest);
  ImageQuoteEntry& entry = it->second;
  if (inserted) {
    if (store_rot_ == nullptr) {
      store_rot_ =
          std::make_unique<RootOfTrust>(vendor_root_, kImageStoreIdentity);
    }
    entry.quote = store_rot_->Sign(
        quote_ids_.Next(), QuoteSubject::kImage, sim_->now(),
        ImageReport(image_digest,
                    static_cast<uint64_t>(image_size.bytes())));
    ++image_quotes_minted_;
    sim_->metrics().Increment(image_quotes_minted_metric_);
  }
  if (entry.refs == 0) {
    ++live_image_quotes_;
  }
  ++entry.refs;
  return &entry.quote;
}

void AttestationService::ReleaseImageQuote(const Sha256Digest& image_digest) {
  const auto it = image_quotes_.find(image_digest);
  if (it == image_quotes_.end() || it->second.refs == 0) {
    return;  // never acquired (or already fully released): idempotent
  }
  if (--it->second.refs == 0) {
    --live_image_quotes_;  // quote stays memoized; the content is dormant
  }
}

int64_t AttestationService::ImageQuoteRefs(
    const Sha256Digest& image_digest) const {
  const auto it = image_quotes_.find(image_digest);
  return it == image_quotes_.end() ? 0 : it->second.refs;
}

const Quote* AttestationService::FindImageQuote(
    const Sha256Digest& image_digest) const {
  const auto it = image_quotes_.find(image_digest);
  return it == image_quotes_.end() ? nullptr : &it->second.quote;
}

Result<Quote> AttestationService::QuoteSoftware(
    uint64_t host_device, const Sha256Digest& code_measurement,
    const std::string& module_name) {
  UDC_ASSIGN_OR_RETURN(const RootOfTrust* rot, RotFor(host_device));
  return rot->Sign(quote_ids_.Next(), QuoteSubject::kSoftware, sim_->now(),
                   SoftwareReport(code_measurement, module_name));
}

}  // namespace udc
