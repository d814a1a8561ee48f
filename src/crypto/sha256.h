// SHA-256.
//
// A from-scratch, dependency-free implementation (FIPS 180-4). Used for
// attestation measurements, Merkle trees, HMAC and key derivation. Verified
// against the standard test vectors in tests/crypto_test.cc.
//
// Blocks are compressed by one of two functions, chosen once per process:
// the x86-64 SHA extensions when the CPU reports them, and a portable loop
// otherwise. Both produce the same bytes.

#ifndef UDC_SRC_CRYPTO_SHA256_H_
#define UDC_SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace udc {

using Sha256Digest = std::array<uint8_t, 32>;

// The eight chaining words between 64-byte blocks.
using Sha256State = std::array<uint32_t, 8>;

// Incremental hasher.
class Sha256 {
 public:
  Sha256();
  // Resumes a hash whose first `absorbed_bytes` (a whole number of 64-byte
  // blocks) left the chaining value `state`.
  Sha256(const Sha256State& state, uint64_t absorbed_bytes);

  void Update(std::span<const uint8_t> data);
  void Update(std::string_view data);

  // Finalizes and returns the digest. The hasher must not be reused after.
  Sha256Digest Finalize();

  // The chaining value so far. Only a whole number of blocks may have been
  // absorbed: nothing is buffered.
  const Sha256State& state() const;

  // One-shot convenience.
  static Sha256Digest Hash(std::span<const uint8_t> data);
  static Sha256Digest Hash(std::string_view data);

 private:
  Sha256State state_;
  uint64_t total_bytes_;
  uint8_t buffer_[64];
  size_t buffer_len_;
  bool finalized_;
};

// Hashes a digest for containers keyed by content: a digest is uniformly
// distributed already, so its first word is the hash.
struct Sha256DigestHash {
  size_t operator()(const Sha256Digest& digest) const {
    size_t word;
    std::memcpy(&word, digest.data(), sizeof(word));
    return word;
  }
};

// Lowercase hex rendering of a digest.
std::string DigestToHex(const Sha256Digest& digest);

// Constant-time-ish comparison (full scan regardless of mismatch position).
bool DigestEqual(const Sha256Digest& a, const Sha256Digest& b);

// Exposed for tests and benches; neither selects the path.
namespace internal {

// Compresses `blocks` consecutive 64-byte blocks at `data` into `state` with
// the portable loop: the reference the accelerated path is tested against.
void Sha256BlocksPortable(Sha256State& state, const uint8_t* data,
                          size_t blocks);

// Whether this process compresses with the CPU's SHA extensions.
bool Sha256UsesShaExtensions();

}  // namespace internal

}  // namespace udc

#endif  // UDC_SRC_CRYPTO_SHA256_H_
