#include "src/crypto/sha256.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UDC_SHA256_X86_64 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace udc {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if UDC_SHA256_X86_64

// The portable loop's compression, done by sha256rnds2 (two rounds per
// instruction) and sha256msg1/sha256msg2 (the message schedule, four words
// at a time). sha256rnds2 keeps the state in two registers, ABEF and CDGH.
__attribute__((target("sha,sse4.1,ssse3"))) void Sha256BlocksShaNi(
    Sha256State& state, const uint8_t* data, size_t blocks) {
  // Reverses the bytes of each 32-bit lane: message words are big-endian.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds schedule words 4g..4g+3 when group g's rounds run.
    // Both loops are unrolled in full, so w stays in registers and the
    // conditions on g fold away.
    __m128i w[4];
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          byte_swap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i wk = _mm_add_epi32(
          w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        &kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        // Words 4g+4..4g+7 from msg1's partial sums over words
        // 4g-12..4g-8, words 4g-3..4g (alignr) and words 4g..4g+3.
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[g % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (g >= 1 && g < 13) {
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

// SHA (leaf 7, subleaf 0, EBX bit 29), SSE4.1 (leaf 1, ECX bit 19) and
// SSSE3 (leaf 1, ECX bit 9): every instruction Sha256BlocksShaNi uses.
bool CpuHasShaExtensions() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || (ecx & bit_SSE4_1) == 0 ||
      (ecx & bit_SSSE3) == 0) {
    return false;
  }
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (ebx & bit_SHA) != 0;
}

#endif  // UDC_SHA256_X86_64

using BlockFunction = void (*)(Sha256State&, const uint8_t*, size_t);

BlockFunction SelectBlockFunction() {
#if UDC_SHA256_X86_64
  if (CpuHasShaExtensions()) {
    return Sha256BlocksShaNi;
  }
#endif
  return internal::Sha256BlocksPortable;
}

// The block function this process uses. A function-local static is set
// exactly once, even when threads race to it, and before its first reader:
// a namespace-scope one could be read first by another translation unit's
// static initializer.
BlockFunction Blocks() {
  static const BlockFunction selected = SelectBlockFunction();
  return selected;
}

}  // namespace

namespace internal {

void Sha256BlocksPortable(Sha256State& state, const uint8_t* data,
                          size_t blocks) {
  for (const uint8_t* block = data; blocks > 0; --blocks, block += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
             (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool Sha256UsesShaExtensions() { return Blocks() != Sha256BlocksPortable; }

}  // namespace internal

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      total_bytes_(0),
      buffer_len_(0),
      finalized_(false) {}

Sha256::Sha256(const Sha256State& state, uint64_t absorbed_bytes)
    : state_(state),
      total_bytes_(absorbed_bytes),
      buffer_len_(0),
      finalized_(false) {
  assert(absorbed_bytes % 64 == 0);
}

const Sha256State& Sha256::state() const {
  assert(buffer_len_ == 0 && !finalized_);
  return state_;
}

void Sha256::Update(std::span<const uint8_t> data) {
  assert(!finalized_);
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    const size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ < 64) {
      return;
    }
    Blocks()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  const size_t whole_blocks = (data.size() - offset) / 64;
  if (whole_blocks > 0) {
    Blocks()(state_, data.data() + offset, whole_blocks);
    offset += whole_blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::Update(std::string_view data) {
  Update(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

Sha256Digest Sha256::Finalize() {
  assert(!finalized_);
  finalized_ = true;
  // Padding: 0x80, zeros, 64-bit big-endian bit length. The 0x80 always
  // fits, since a full buffer is compressed at once; the length takes a
  // second block when fewer than 8 bytes are left after it.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    Blocks()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  const uint64_t bit_len = total_bytes_ * 8;
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - i * 8));
  }
  Blocks()(state_, buffer_, 1);

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<size_t>(i) * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[static_cast<size_t>(i) * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[static_cast<size_t>(i) * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[static_cast<size_t>(i) * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::Hash(std::span<const uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Sha256Digest Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

std::string DigestToHex(const Sha256Digest& digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

bool DigestEqual(const Sha256Digest& a, const Sha256Digest& b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace udc
