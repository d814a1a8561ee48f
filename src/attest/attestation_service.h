// Provider-side attestation service.
//
// Issues quotes on behalf of device roots of trust: environment quotes at
// launch, resource quotes from per-device ledger rows, replication quotes
// from replica hosts. The user-side FulfillmentVerifier (src/core) replays
// these against the user's aspect specification.

#ifndef UDC_SRC_ATTEST_ATTESTATION_SERVICE_H_
#define UDC_SRC_ATTEST_ATTESTATION_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/attest/quote.h"
#include "src/exec/environment.h"
#include "src/hw/pool.h"
#include "src/sim/simulation.h"

namespace udc {

class AttestationService {
 public:
  AttestationService(Simulation* sim, Key256 vendor_root);

  // Registers a device identity; its RoT key is derived from the vendor
  // root, as if fused at manufacturing. Provisioning is ref-counted:
  // devices are shared across deployments, so each holder provisions on
  // acquire and retires on teardown, and the root survives until the last
  // holder lets go.
  void ProvisionDevice(uint64_t device_identity);
  // Drops one provisioning reference; the root of trust goes dormant when
  // the count reaches zero. Idempotent: retiring an unknown identity is a
  // no-op. The derived key itself is memoized across retire/re-provision —
  // derivation is deterministic in (vendor root, identity), so caching it
  // only skips the Sha256 chain, never changes a quote. Dormant roots are
  // invisible to every query (IsProvisioned/RotFor/provisioned_count).
  void RetireDevice(uint64_t device_identity);
  bool IsProvisioned(uint64_t device_identity) const;
  // Provisioning references currently held on `device_identity` (0 when
  // not provisioned).
  int64_t ProvisionRefs(uint64_t device_identity) const;
  // Number of distinct identities with a live (ref'd) root of trust.
  size_t provisioned_count() const { return live_roots_; }

  // Quote over a launched environment's measurement and isolation claim.
  Result<Quote> QuoteEnvironment(const ExecEnvironment& env);

  // Quote over `tenant`'s ledger row on `device` of `pool`: the amount the
  // device itself records for the tenant, signed by the device's RoT. This
  // is UDC's answer to "whether or not resources were provided as
  // specified" (paper sec. 4). Costs one device lookup, whatever the pool
  // size.
  Result<Quote> QuoteResource(const ResourcePool& pool, DeviceId device,
                              TenantId tenant);

  // Quote from one replica host acknowledging it stores `object`.
  Result<Quote> QuoteReplica(uint64_t replica_device, const std::string& object,
                             TenantId tenant);

  // Quote over code identity running in an environment.
  Result<Quote> QuoteSoftware(uint64_t host_device,
                              const Sha256Digest& code_measurement,
                              const std::string& module_name);

  // --- Content-bound image quotes (content-addressed env store).
  //
  // A quote over an image digest is minted once per content — ever — and
  // refcounted like RetireDevice: the first acquire signs, later acquires
  // bump the count, releases decrement it, and a re-acquire after the count
  // hits zero reuses the memoized quote (signing is deterministic in the
  // digest, so caching never changes the claim). Signed by a reserved
  // store identity derived from the vendor root; it lives outside the
  // device-root table, so provisioned_count never sees it.
  const Quote* AcquireImageQuote(const Sha256Digest& image_digest,
                                 Bytes image_size);
  // Drops one reference; idempotent on unknown digests. The quote itself
  // stays memoized.
  void ReleaseImageQuote(const Sha256Digest& image_digest);
  // References currently held on the image quote (0 when none or unknown).
  int64_t ImageQuoteRefs(const Sha256Digest& image_digest) const;
  // The memoized quote, or nullptr if never minted.
  const Quote* FindImageQuote(const Sha256Digest& image_digest) const;
  // Distinct contents ever signed (each exactly once).
  uint64_t image_quotes_minted() const { return image_quotes_minted_; }
  // Image quotes with refs > 0.
  size_t live_image_quotes() const { return live_image_quotes_; }

  uint64_t quotes_issued() const { return quote_ids_.issued(); }

 private:
  struct ProvisionedRoot {
    std::unique_ptr<RootOfTrust> rot;
    int64_t refs = 0;
  };
  struct ImageQuoteEntry {
    Quote quote;
    int64_t refs = 0;
  };

  Result<const RootOfTrust*> RotFor(uint64_t device_identity) const;

  Simulation* sim_;
  Key256 vendor_root_;
  IdGenerator<QuoteId> quote_ids_;
  std::unordered_map<uint64_t, ProvisionedRoot> roots_;
  size_t live_roots_ = 0;  // entries with refs > 0

  // Content-bound image quotes, keyed by digest (deterministic order for
  // any iteration). The signing root is created lazily on first mint.
  std::map<Sha256Digest, ImageQuoteEntry> image_quotes_;
  std::unique_ptr<RootOfTrust> store_rot_;
  uint64_t image_quotes_minted_ = 0;
  size_t live_image_quotes_ = 0;
  CounterHandle image_quotes_minted_metric_;
};

}  // namespace udc

#endif  // UDC_SRC_ATTEST_ATTESTATION_SERVICE_H_
