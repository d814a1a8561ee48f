#include "src/crypto/hmac.h"

#include <cstring>

namespace udc {

namespace {

constexpr size_t kBlockBytes = 64;

// The chaining value after one block of `key` (zero-padded) XOR `pad`.
Sha256State PaddedKeyState(const Key256& key, uint8_t pad) {
  uint8_t block[kBlockBytes];
  std::memset(block, pad, sizeof(block));
  for (size_t i = 0; i < key.size(); ++i) {
    block[i] ^= key[i];
  }
  Sha256 h;
  h.Update(std::span<const uint8_t>(block, sizeof(block)));
  return h.state();
}

}  // namespace

HmacSha256Key::HmacSha256Key(const Key256& key)
    : inner_(PaddedKeyState(key, 0x36)), outer_(PaddedKeyState(key, 0x5c)) {}

Sha256Digest HmacSha256Key::Mac(std::span<const uint8_t> data) const {
  Sha256 inner(inner_, kBlockBytes);
  inner.Update(data);
  const Sha256Digest inner_digest = inner.Finalize();

  Sha256 outer(outer_, kBlockBytes);
  outer.Update(std::span<const uint8_t>(inner_digest.data(), inner_digest.size()));
  return outer.Finalize();
}

Sha256Digest HmacSha256Key::Mac(std::string_view data) const {
  return Mac(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

Sha256Digest HmacSha256(const Key256& key, std::span<const uint8_t> data) {
  return HmacSha256Key(key).Mac(data);
}

Sha256Digest HmacSha256(const Key256& key, std::string_view data) {
  return HmacSha256Key(key).Mac(data);
}

Key256 DeriveKey(const Key256& parent, std::string_view label) {
  const Sha256Digest d = HmacSha256(parent, label);
  Key256 out;
  std::memcpy(out.data(), d.data(), out.size());
  return out;
}

Key256 KeyFromString(std::string_view seed) {
  const Sha256Digest d = Sha256::Hash(seed);
  Key256 out;
  std::memcpy(out.data(), d.data(), out.size());
  return out;
}

}  // namespace udc
