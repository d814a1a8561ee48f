#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/crypto/cipher.h"
#include "src/crypto/hmac.h"
#include "src/crypto/merkle.h"
#include "src/crypto/sha256.h"

namespace udc {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string_view())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Sha256 h;
  h.Update("hello ");
  h.Update("world");
  EXPECT_EQ(DigestToHex(h.Finalize()), DigestToHex(Sha256::Hash("hello world")));
}

TEST(Sha256Test, BoundaryLengths) {
  // 55/56/63/64/65 bytes cross the padding boundaries.
  for (size_t len : {55u, 56u, 63u, 64u, 65u}) {
    const std::string msg(len, 'x');
    Sha256 incremental;
    for (char c : msg) {
      incremental.Update(std::string_view(&c, 1));
    }
    EXPECT_EQ(DigestToHex(incremental.Finalize()),
              DigestToHex(Sha256::Hash(msg)))
        << "len=" << len;
  }
}

// SHA-256 of `message`, resumed from `state` after `absorbed` bytes, with
// the padding spelled out and every block compressed by the portable loop.
Sha256Digest PortableDigest(Sha256State state, uint64_t absorbed,
                            std::string_view message) {
  std::string padded(message);
  padded.push_back('\x80');
  while (padded.size() % 64 != 56) {
    padded.push_back('\0');
  }
  const uint64_t bits = (absorbed + message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<char>(bits >> shift));
  }
  internal::Sha256BlocksPortable(
      state, reinterpret_cast<const uint8_t*>(padded.data()), padded.size() / 64);
  Sha256Digest out;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

// The SHA-extension compression against the portable one: every message
// length from 0 to 1,100 bytes (each padding case, up to 17 blocks in one
// call), random Update splits, and a hash resumed from a chaining value,
// the way HMAC's key schedule enters. Elsewhere the vectors above already
// run on the portable loop.
TEST(Sha256Test, ShaExtensionsMatchPortableLoop) {
  if (!internal::Sha256UsesShaExtensions()) {
    GTEST_SKIP() << "the portable loop is in use: this CPU does not report "
                    "the x86-64 SHA extensions with SSE4.1 and SSSE3";
  }
  std::mt19937_64 rng(17);
  std::string message(1100, '\0');
  for (char& c : message) {
    c = static_cast<char>(rng());
  }
  const Sha256State initial = Sha256().state();
  Sha256State keyed = initial;
  internal::Sha256BlocksPortable(
      keyed, reinterpret_cast<const uint8_t*>(message.data()), 1);
  for (size_t len = 0; len <= message.size(); ++len) {
    const std::string_view m(message.data(), len);
    ASSERT_EQ(DigestToHex(Sha256::Hash(m)),
              DigestToHex(PortableDigest(initial, 0, m)))
        << "len=" << len;
    Sha256 resumed(keyed, 64);
    resumed.Update(m);
    ASSERT_EQ(DigestToHex(resumed.Finalize()),
              DigestToHex(PortableDigest(keyed, 64, m)))
        << "resumed, len=" << len;
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::string_view m(message.data(), rng() % (message.size() + 1));
    Sha256 split;
    for (size_t at = 0; at < m.size();) {
      const size_t take = std::min<size_t>(rng() % 150, m.size() - at);
      split.Update(m.substr(at, take));
      at += take;
    }
    ASSERT_EQ(DigestToHex(split.Finalize()),
              DigestToHex(PortableDigest(initial, 0, m)))
        << "trial=" << trial << " len=" << m.size();
  }
}

// The block function is chosen on first use. Each test runs in its own
// process under ctest, so here that first use is a race between threads,
// which the TSan build checks; every thread must get the same digest.
TEST(Sha256Test, ThreadsRacingToFirstUseAgree) {
  std::vector<std::string> digests(4);
  std::vector<std::thread> threads;
  for (std::string& digest : digests) {
    threads.emplace_back(
        [&digest] { digest = DigestToHex(Sha256::Hash("abc")); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const std::string& digest : digests) {
    EXPECT_EQ(digest,
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  }
}

TEST(Sha256Test, DigestEqualConstantScan) {
  const Sha256Digest a = Sha256::Hash("a");
  Sha256Digest b = a;
  EXPECT_TRUE(DigestEqual(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(DigestEqual(a, b));
}

// A key shorter than 32 bytes, zero-padded into a Key256. HMAC zero-pads
// short keys to the block size itself, so the MAC is the same as under the
// unpadded key, and RFC 4231's expected values apply unchanged.
Key256 ZeroPaddedKey(std::string_view bytes) {
  Key256 key{};
  std::copy(bytes.begin(), bytes.end(), key.begin());
  return key;
}

TEST(HmacTest, Rfc4231TestCase1) {
  const Key256 key = ZeroPaddedKey(std::string(20, '\x0b'));
  EXPECT_EQ(DigestToHex(HmacSha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(DigestToHex(HmacSha256Key(key).Mac("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231TestCase2) {
  const Key256 key = ZeroPaddedKey("Jefe");
  EXPECT_EQ(DigestToHex(HmacSha256(key, "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// A reused HmacSha256Key agrees with the one-shot HMAC and with RFC 2104
// spelled out over plain SHA-256, on both sides of every padding boundary.
TEST(HmacTest, KeyScheduleMatchesOneShotAcrossBlockBoundaries) {
  const Key256 key = KeyFromString("schedule");
  const HmacSha256Key scheduled(key);
  for (const size_t len : {0, 1, 55, 56, 63, 64, 65, 119, 120, 1000}) {
    std::string msg(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      msg[i] = static_cast<char>('a' + i % 26);
    }
    std::string ipad(64, '\x36');
    std::string opad(64, '\x5c');
    for (size_t i = 0; i < key.size(); ++i) {
      ipad[i] = static_cast<char>(ipad[i] ^ key[i]);
      opad[i] = static_cast<char>(opad[i] ^ key[i]);
    }
    const Sha256Digest inner = Sha256::Hash(ipad + msg);
    const Sha256Digest reference = Sha256::Hash(
        opad + std::string(inner.begin(), inner.end()));
    EXPECT_EQ(DigestToHex(scheduled.Mac(msg)), DigestToHex(reference))
        << "len=" << len;
    EXPECT_EQ(DigestToHex(scheduled.Mac(msg)),
              DigestToHex(HmacSha256(key, msg)))
        << "len=" << len;
  }
}

TEST(HmacTest, DeterministicAndKeySeparated) {
  const Key256 k1 = KeyFromString("key-one");
  const Key256 k2 = KeyFromString("key-two");
  const Sha256Digest m1 = HmacSha256(k1, "message");
  const Sha256Digest m1_again = HmacSha256(k1, "message");
  const Sha256Digest m2 = HmacSha256(k2, "message");
  EXPECT_TRUE(DigestEqual(m1, m1_again));
  EXPECT_FALSE(DigestEqual(m1, m2));
  EXPECT_FALSE(DigestEqual(m1, HmacSha256(k1, "messagf")));
}

TEST(HmacTest, DeriveKeyBindsLabel) {
  const Key256 parent = KeyFromString("parent");
  const Key256 a = DeriveKey(parent, "child-a");
  const Key256 b = DeriveKey(parent, "child-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, DeriveKey(parent, "child-a"));
}

// Device keys are derived this way, so their bytes are pinned.
TEST(HmacTest, DeriveKeyOutputIsPinned) {
  EXPECT_EQ(DigestToHex(DeriveKey(KeyFromString("vendor"), "udc-device-12")),
            "76be6529f2ce0bc43e1cf98638527c535306e535e1bcd308e5da74bb78e146b0");
}

TEST(AeadTest, RoundTrips) {
  const AeadCipher cipher(KeyFromString("k"));
  const std::vector<uint8_t> plain{'s', 'e', 'c', 'r', 'e', 't'};
  const SealedBox box = cipher.Seal(plain, /*nonce=*/1);
  EXPECT_NE(box.ciphertext, plain);  // actually encrypted
  const auto out = cipher.Open(box);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, plain);
}

TEST(AeadTest, DetectsTamper) {
  const AeadCipher cipher(KeyFromString("k"));
  const std::vector<uint8_t> plain{1, 2, 3, 4};
  SealedBox box = cipher.Seal(plain, 1);
  box.ciphertext[0] ^= 0xFF;
  const auto out = cipher.Open(box);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kVerificationFailed);
}

TEST(AeadTest, DetectsNonceTamper) {
  const AeadCipher cipher(KeyFromString("k"));
  SealedBox box = cipher.Seal(std::vector<uint8_t>{9}, 1);
  box.nonce = 2;  // replay under a different sequence number
  EXPECT_FALSE(cipher.Open(box).ok());
}

TEST(AeadTest, WrongKeyFails) {
  const AeadCipher alice(KeyFromString("alice"));
  const AeadCipher mallory(KeyFromString("mallory"));
  const SealedBox box = alice.Seal(std::vector<uint8_t>{7}, 1);
  EXPECT_FALSE(mallory.Open(box).ok());
}

TEST(AeadTest, EmptyPlaintext) {
  const AeadCipher cipher(KeyFromString("k"));
  const SealedBox box = cipher.Seal({}, 5);
  const auto out = cipher.Open(box);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(ReplayGuardTest, RejectsReplayAndReorder) {
  ReplayGuard guard;
  EXPECT_TRUE(guard.Accept(1));
  EXPECT_TRUE(guard.Accept(2));
  EXPECT_FALSE(guard.Accept(2));  // replay
  EXPECT_FALSE(guard.Accept(1));  // reorder
  EXPECT_TRUE(guard.Accept(10));
}

TEST(MerkleTest, SingleLeaf) {
  const Sha256Digest leaf = Sha256::Hash("only");
  MerkleTree tree({leaf});
  EXPECT_TRUE(DigestEqual(tree.root(), leaf));
  const auto proof = tree.ProveLeaf(0);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(MerkleTree::VerifyProof(tree.root(), leaf, *proof));
}

TEST(MerkleTest, RejectsOutOfRange) {
  MerkleTree tree({Sha256::Hash("x")});
  EXPECT_FALSE(tree.ProveLeaf(1).ok());
}

TEST(MerkleTest, EmptyTreeHasConventionalRoot) {
  MerkleTree tree(std::vector<Sha256Digest>{});
  EXPECT_EQ(tree.leaf_count(), 1u);
}

class MerkleSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(MerkleSizeTest, AllProofsVerifyAndTamperFails) {
  const int n = GetParam();
  std::vector<std::vector<uint8_t>> chunks;
  for (int i = 0; i < n; ++i) {
    chunks.push_back({static_cast<uint8_t>(i), static_cast<uint8_t>(i * 7)});
  }
  const MerkleTree tree = MerkleTree::FromChunks(chunks);
  for (int i = 0; i < n; ++i) {
    const Sha256Digest leaf = Sha256::Hash(
        std::span<const uint8_t>(chunks[static_cast<size_t>(i)].data(),
                                 chunks[static_cast<size_t>(i)].size()));
    const auto proof = tree.ProveLeaf(static_cast<uint64_t>(i));
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(MerkleTree::VerifyProof(tree.root(), leaf, *proof))
        << "leaf " << i << " of " << n;
    // A tampered leaf must not verify.
    Sha256Digest bad = leaf;
    bad[0] ^= 1;
    EXPECT_FALSE(MerkleTree::VerifyProof(tree.root(), bad, *proof));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33));

}  // namespace
}  // namespace udc
