// HMAC-SHA256 (RFC 2104) and a simple HKDF-style key derivation.
//
// Used for integrity protection of data modules, quote signing by the
// software root of trust, and per-module key derivation. A key that MACs
// many messages (a device's quote key) is held as an HmacSha256Key, which
// absorbs the padded key once instead of once per message.

#ifndef UDC_SRC_CRYPTO_HMAC_H_
#define UDC_SRC_CRYPTO_HMAC_H_

#include <span>
#include <string_view>

#include "src/crypto/sha256.h"

namespace udc {

// 256-bit symmetric key.
using Key256 = std::array<uint8_t, 32>;

// An HMAC-SHA256 key with its ipad and opad blocks already absorbed: two
// chaining values, 64 bytes in all. Mac(m) then hashes only `m` and the
// inner digest, and equals HmacSha256(key, m).
class HmacSha256Key {
 public:
  explicit HmacSha256Key(const Key256& key);

  Sha256Digest Mac(std::span<const uint8_t> data) const;
  Sha256Digest Mac(std::string_view data) const;

 private:
  Sha256State inner_;  // after key ^ ipad
  Sha256State outer_;  // after key ^ opad
};

// One-shot HMAC; builds an HmacSha256Key and MACs `data` once.
Sha256Digest HmacSha256(const Key256& key, std::span<const uint8_t> data);
Sha256Digest HmacSha256(const Key256& key, std::string_view data);

// Derives a child key from `parent` bound to `label` (HKDF-expand style,
// single block — our keys are exactly one hash wide).
Key256 DeriveKey(const Key256& parent, std::string_view label);

// Deterministic key from a seed string (test/provisioning convenience).
Key256 KeyFromString(std::string_view seed);

}  // namespace udc

#endif  // UDC_SRC_CRYPTO_HMAC_H_
