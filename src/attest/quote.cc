#include "src/attest/quote.h"

#include <charconv>
#include <cstring>

#include "src/common/strings.h"

namespace udc {

namespace {

Key256 DeviceKeyFor(const Key256& vendor_root, uint64_t device_identity) {
  return DeriveKey(vendor_root,
                   StrFormat("udc-device-%llu",
                             static_cast<unsigned long long>(device_identity)));
}

Sha256Digest SignatureOver(const HmacSha256Key& device_key,
                           const Quote& quote) {
  std::string bound = StrFormat(
      "subject=%d signer=%llu issued=%lld digest=%s",
      static_cast<int>(quote.subject),
      static_cast<unsigned long long>(quote.signer_device),
      static_cast<long long>(quote.issued_at.micros()),
      DigestToHex(quote.report_digest).c_str());
  return device_key.Mac(bound);
}

}  // namespace

MeasurementRegister::MeasurementRegister() { value_.fill(0); }

void MeasurementRegister::Extend(const Sha256Digest& digest) {
  Sha256 h;
  h.Update(std::span<const uint8_t>(value_.data(), value_.size()));
  h.Update(std::span<const uint8_t>(digest.data(), digest.size()));
  value_ = h.Finalize();
  ++extensions_;
}

void MeasurementRegister::Extend(std::string_view data) {
  Extend(Sha256::Hash(data));
}

RootOfTrust::RootOfTrust(const Key256& vendor_root, uint64_t device_identity)
    : device_identity_(device_identity),
      device_key_(DeviceKeyFor(vendor_root, device_identity)) {}

Quote RootOfTrust::Sign(QuoteId id, QuoteSubject subject, SimTime now,
                        std::string report) const {
  Quote q;
  q.id = id;
  q.subject = subject;
  q.signer_device = device_identity_;
  q.issued_at = now;
  q.report = std::move(report);
  q.report_digest = Sha256::Hash(q.report);
  q.signature = SignatureOver(device_key_, q);
  return q;
}

QuoteVerifier::QuoteVerifier(const Key256& vendor_root)
    : vendor_root_(vendor_root) {}

Status QuoteVerifier::Verify(const Quote& quote) {
  const Sha256Digest digest = Sha256::Hash(quote.report);
  if (!DigestEqual(digest, quote.report_digest)) {
    return VerificationFailedError("quote report digest mismatch");
  }
  const auto memo = signer_keys_.find(quote.signer_device);
  const HmacSha256Key device_key =
      memo != signer_keys_.end()
          ? memo->second
          : HmacSha256Key(DeviceKeyFor(vendor_root_, quote.signer_device));
  if (!DigestEqual(SignatureOver(device_key, quote), quote.signature)) {
    return VerificationFailedError("quote signature invalid");
  }
  if (memo == signer_keys_.end()) {
    signer_keys_.emplace(quote.signer_device, device_key);
  }
  return OkStatus();
}

Status QuoteVerifier::VerifyClaim(const Quote& quote,
                                  std::string_view expected_report) {
  UDC_RETURN_IF_ERROR(Verify(quote));
  if (quote.report != expected_report) {
    return VerificationFailedError(
        StrFormat("quote claim mismatch: got '%s' expected '%s'",
                  quote.report.c_str(), std::string(expected_report).c_str()));
  }
  return OkStatus();
}

std::string EnvironmentReport(const Sha256Digest& env_measurement,
                              std::string_view isolation_level,
                              std::string_view tenancy, uint64_t tenant) {
  return StrFormat("env measurement=%s isolation=%s tenancy=%s tenant=%llu",
                   DigestToHex(env_measurement).c_str(),
                   std::string(isolation_level).c_str(),
                   std::string(tenancy).c_str(),
                   static_cast<unsigned long long>(tenant));
}

std::string ResourceReport(uint64_t device, std::string_view resource_kind,
                           uint64_t tenant, int64_t amount) {
  return StrFormat("resources device=%llu kind=%s tenant=%llu amount=%lld",
                   static_cast<unsigned long long>(device),
                   std::string(resource_kind).c_str(),
                   static_cast<unsigned long long>(tenant),
                   static_cast<long long>(amount));
}

Result<int64_t> ParseResourceReport(std::string_view report) {
  constexpr std::string_view kAmount = " amount=";
  const size_t at = report.rfind(kAmount);
  if (!report.starts_with("resources ") || at == std::string_view::npos) {
    return Status(InvalidArgumentError("not a resource report"));
  }
  const char* first = report.data() + at + kAmount.size();
  const char* last = report.data() + report.size();
  int64_t amount = 0;
  const auto [end, ec] = std::from_chars(first, last, amount);
  if (ec != std::errc() || end != last) {
    return Status(InvalidArgumentError("resource report amount unreadable"));
  }
  return amount;
}

std::string ReplicationReport(std::string_view object, uint64_t replica_device,
                              uint64_t tenant) {
  return StrFormat("replication object=%s replica=%llu tenant=%llu",
                   std::string(object).c_str(),
                   static_cast<unsigned long long>(replica_device),
                   static_cast<unsigned long long>(tenant));
}

std::string SoftwareReport(const Sha256Digest& code_measurement,
                           std::string_view module_name) {
  return StrFormat("software module=%s measurement=%s",
                   std::string(module_name).c_str(),
                   DigestToHex(code_measurement).c_str());
}

std::string ImageReport(const Sha256Digest& image_digest,
                        uint64_t size_bytes) {
  return StrFormat("image digest=%s size=%llu",
                   DigestToHex(image_digest).c_str(),
                   static_cast<unsigned long long>(size_bytes));
}

}  // namespace udc
