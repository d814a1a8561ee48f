#include "src/attest/quote.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstring>

#include "src/common/strings.h"

namespace udc {

namespace {

// Canonical text is written without printf: decimals through std::to_chars
// and digests through a hex table, the same bytes as the %d, %llu, %lld and
// DigestToHex renderings. Each piece bounds its own length, so a text is
// written into one buffer sized for its longest rendering.
constexpr size_t kMaxDecimalChars = 20;  // UINT64_MAX, or INT64_MIN with '-'
constexpr size_t kHexDigestChars = 2 * std::tuple_size_v<Sha256Digest>;

size_t Longest(std::string_view text) { return text.size(); }
size_t Longest(std::integral auto) { return kMaxDecimalChars; }
size_t Longest(const Sha256Digest&) { return kHexDigestChars; }

char* Put(char* out, std::string_view text) {
  return std::copy(text.begin(), text.end(), out);
}

char* Put(char* out, std::integral auto value) {
  return std::to_chars(out, out + kMaxDecimalChars, value).ptr;
}

char* Put(char* out, const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const uint8_t byte : digest) {
    *out++ = kHex[byte >> 4];
    *out++ = kHex[byte & 0xf];
  }
  return out;
}

// Writes `pieces` in order from `out`; returns the end of the text.
template <typename... Pieces>
char* PutAll(char* out, const Pieces&... pieces) {
  ((out = Put(out, pieces)), ...);
  return out;
}

template <typename... Pieces>
std::string Render(const Pieces&... pieces) {
  std::string out((Longest(pieces) + ...), '\0');
  out.resize(static_cast<size_t>(PutAll(out.data(), pieces...) - out.data()));
  return out;
}

Key256 DeviceKeyFor(const Key256& vendor_root, uint64_t device_identity) {
  return DeriveKey(vendor_root, Render("udc-device-", device_identity));
}

Sha256Digest SignatureOver(const HmacSha256Key& device_key,
                           const Quote& quote) {
  // "subject=<n> signer=<id> issued=<us> digest=<hex>": four 8-byte field
  // names, three decimals and the digest, on the stack.
  char preimage[4 * 8 + 3 * kMaxDecimalChars + kHexDigestChars];
  const char* end = PutAll(preimage, "subject=",
                           static_cast<int>(quote.subject), " signer=",
                           quote.signer_device, " issued=",
                           quote.issued_at.micros(), " digest=",
                           quote.report_digest);
  return device_key.Mac(
      std::string_view(preimage, static_cast<size_t>(end - preimage)));
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
  return Render("env measurement=", env_measurement, " isolation=",
                isolation_level, " tenancy=", tenancy, " tenant=", tenant);
}

std::string ResourceReport(uint64_t device, std::string_view resource_kind,
                           uint64_t tenant, int64_t amount) {
  return Render("resources device=", device, " kind=", resource_kind,
                " tenant=", tenant, " amount=", amount);
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
  return Render("replication object=", object, " replica=", replica_device,
                " tenant=", tenant);
}

std::string SoftwareReport(const Sha256Digest& code_measurement,
                           std::string_view module_name) {
  return Render("software module=", module_name, " measurement=",
                code_measurement);
}

std::string ImageReport(const Sha256Digest& image_digest,
                        uint64_t size_bytes) {
  return Render("image digest=", image_digest, " size=", size_bytes);
}

}  // namespace udc
