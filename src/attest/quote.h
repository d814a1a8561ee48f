// Remote attestation primitives (paper sec. 4, "Verifying the fulfillment
// of user definitions").
//
// Every device and environment host carries a RootOfTrust whose key is
// provisioned by the hardware vendor, not the cloud provider; a user who
// trusts the vendor key can verify quotes without trusting the provider.
// (The simulator uses HMAC as a stand-in for the vendor's asymmetric
// signatures; the trust argument is unchanged because the verifier's key is
// the vendor's, never the provider's.)
//
// Beyond classic TEE quotes over code measurements, UDC extends attestation
// to the things users *define*: resource amounts (signed pool-ledger rows)
// and replication factors (signed replica acknowledgements).

#ifndef UDC_SRC_ATTEST_QUOTE_H_
#define UDC_SRC_ATTEST_QUOTE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"

namespace udc {

// TPM-PCR-style extend-only register.
class MeasurementRegister {
 public:
  MeasurementRegister();

  // reg' = SHA256(reg || digest). Order-sensitive by construction.
  void Extend(const Sha256Digest& digest);
  void Extend(std::string_view data);

  const Sha256Digest& value() const { return value_; }
  uint64_t extensions() const { return extensions_; }

 private:
  Sha256Digest value_;
  uint64_t extensions_ = 0;
};

// What a quote attests to.
enum class QuoteSubject : int {
  kEnvironment = 0,   // env measurement + isolation + tenancy
  kResources = 1,     // a pool-ledger row: device, tenant, amount
  kReplication = 2,   // a replica's acknowledgement of holding a copy
  kSoftware = 3,      // code identity running in an environment
  kImage = 4,         // a content-addressed environment image digest
};

struct Quote {
  QuoteId id;
  QuoteSubject subject = QuoteSubject::kEnvironment;
  uint64_t signer_device = 0;   // raw id of the signing device/host
  SimTime issued_at;
  std::string report;           // canonical text of the claim
  Sha256Digest report_digest{}; // SHA256(report)
  Sha256Digest signature{};     // HMAC(vendor_key(signer), digest || meta)
};

// Per-device signing identity, provisioned from the vendor root.
class RootOfTrust {
 public:
  // `vendor_root` is the vendor master key; each device key is derived from
  // it and the device's identity, mirroring how vendors fuse per-chip keys.
  RootOfTrust(const Key256& vendor_root, uint64_t device_identity);

  uint64_t device_identity() const { return device_identity_; }

  Quote Sign(QuoteId id, QuoteSubject subject, SimTime now,
             std::string report) const;

 private:
  uint64_t device_identity_;
  HmacSha256Key device_key_;
};

// User-side verifier holding only the vendor root key.
class QuoteVerifier {
 public:
  explicit QuoteVerifier(const Key256& vendor_root);

  // Checks the signature chain and the report digest.
  Status Verify(const Quote& quote);

  // Verify + check the report text matches `expected_report` exactly.
  Status VerifyClaim(const Quote& quote, std::string_view expected_report);

  // Signers whose derived key is memoized.
  size_t memoized_signers() const { return signer_keys_.size(); }

 private:
  Key256 vendor_root_;
  // Each signer's key, derived from the vendor root on its first quote and
  // kept once that quote verifies: a forged signer id never verifies, so it
  // never grows the memo. Derivation is deterministic, so the memo only
  // skips work.
  std::unordered_map<uint64_t, HmacSha256Key> signer_keys_;
};

// Canonical report builders shared by issuer (provider side) and verifier
// (user side) so both derive the identical byte string.
std::string EnvironmentReport(const Sha256Digest& env_measurement,
                              std::string_view isolation_level,
                              std::string_view tenancy, uint64_t tenant);
std::string ResourceReport(uint64_t device, std::string_view resource_kind,
                           uint64_t tenant, int64_t amount);
// The amount a ResourceReport claims. Only the amount is read: a verifier
// re-renders the whole report from what it knows plus this amount and
// checks the quote against it, which checks every other field.
Result<int64_t> ParseResourceReport(std::string_view report);
std::string ReplicationReport(std::string_view object, uint64_t replica_device,
                              uint64_t tenant);
std::string SoftwareReport(const Sha256Digest& code_measurement,
                           std::string_view module_name);
// Claim over a content-addressed environment image: the digest IS the
// identity, so the report binds no tenant — identical images from
// different tenants verify against the same quote.
std::string ImageReport(const Sha256Digest& image_digest,
                        uint64_t size_bytes);

}  // namespace udc

#endif  // UDC_SRC_ATTEST_QUOTE_H_
