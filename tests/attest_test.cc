#include <gtest/gtest.h>

#include <limits>

#include "src/attest/attestation_service.h"
#include "src/attest/quote.h"
#include "src/hw/pool.h"

namespace udc {
namespace {

TEST(MeasurementRegisterTest, ExtendIsOrderSensitive) {
  MeasurementRegister a;
  MeasurementRegister b;
  a.Extend("first");
  a.Extend("second");
  b.Extend("second");
  b.Extend("first");
  EXPECT_FALSE(DigestEqual(a.value(), b.value()));
  EXPECT_EQ(a.extensions(), 2u);
}

TEST(MeasurementRegisterTest, SameSequenceSameValue) {
  MeasurementRegister a;
  MeasurementRegister b;
  for (const char* s : {"boot", "kernel", "app"}) {
    a.Extend(s);
    b.Extend(s);
  }
  EXPECT_TRUE(DigestEqual(a.value(), b.value()));
}

// The register's bytes are pinned, so a change to the compression or the
// padding fails here even though the order and equality checks above hold.
TEST(MeasurementRegisterTest, ValueAfterTwoExtendsIsPinned) {
  MeasurementRegister reg;
  reg.Extend("boot");
  reg.Extend(Sha256::Hash("kernel"));
  EXPECT_EQ(DigestToHex(reg.value()),
            "e9b0febd6083e3bb1d5afc008059dea8c0c084a1796ac8cb30f1f6540ad2e0c4");
}

// A quote's bytes are pinned: a changed byte in the compression, the
// padding, the device-key derivation or the rendering of the signature
// preimage fails here, where a sign-then-verify round trip would pass. The
// expected bytes agree with Python's hashlib and hmac over the same inputs.
TEST(QuoteTest, ResourceQuoteBytesArePinned) {
  const RootOfTrust rot(KeyFromString("vendor"), /*device_identity=*/12);
  const Quote q = rot.Sign(QuoteId(3), QuoteSubject::kResources,
                           SimTime::Millis(5), ResourceReport(12, "cpu", 3, 2000));
  EXPECT_EQ(DigestToHex(q.report_digest),
            "996bf677ce43154500660331f752cc15c37279222cab14c532c5d2dcd16d4df1");
  EXPECT_EQ(DigestToHex(q.signature),
            "5ab365d0997d0fcf9f9ac09520b800889326720a21c449a04f38b5cb55ed48cf");
}

// The widest preimage: the image store's signer id ~0, an issue time of
// 19 digits and an image report with a 20-digit size, so every decimal of
// the signature preimage and the report is written at full width. Recorded
// when both were still rendered with printf.
TEST(QuoteTest, WidestQuoteBytesArePinned) {
  const RootOfTrust rot(KeyFromString("vendor"), ~uint64_t{0});
  const Quote q = rot.Sign(
      QuoteId(9), QuoteSubject::kImage,
      SimTime(std::numeric_limits<int64_t>::max() - 1),
      ImageReport(Sha256::Hash("image"), std::numeric_limits<uint64_t>::max()));
  EXPECT_EQ(q.report,
            "image digest=6105d6cc76af400325e94d588ce511be5bfdbb73b437dc51eca4"
            "3917d7a43e3d size=18446744073709551615");
  EXPECT_EQ(DigestToHex(q.report_digest),
            "fab8fc2ed878f2ed3976602e991ce6271df0a0646e3a817582d7bda8bac375ca");
  EXPECT_EQ(DigestToHex(q.signature),
            "912f502ee16433d62a553d8b0a79d7c7d174d6bd597d835b5d0ddc8a3d19f1f3");
}

TEST(QuoteTest, SignAndVerify) {
  const Key256 vendor = KeyFromString("vendor");
  RootOfTrust rot(vendor, /*device_identity=*/7);
  const Quote q = rot.Sign(QuoteId(1), QuoteSubject::kEnvironment,
                           SimTime::Millis(5), "claim text");
  QuoteVerifier verifier(vendor);
  EXPECT_TRUE(verifier.Verify(q).ok());
  EXPECT_TRUE(verifier.VerifyClaim(q, "claim text").ok());
}

TEST(QuoteTest, TamperedReportFailsVerification) {
  const Key256 vendor = KeyFromString("vendor");
  RootOfTrust rot(vendor, 7);
  Quote q = rot.Sign(QuoteId(1), QuoteSubject::kResources, SimTime(0), "amount=8");
  q.report = "amount=9";
  QuoteVerifier verifier(vendor);
  EXPECT_EQ(verifier.Verify(q).code(), StatusCode::kVerificationFailed);
}

TEST(QuoteTest, ForgedSignerFailsVerification) {
  const Key256 vendor = KeyFromString("vendor");
  RootOfTrust rot(vendor, 7);
  Quote q = rot.Sign(QuoteId(1), QuoteSubject::kResources, SimTime(0), "x");
  q.signer_device = 8;  // pretend another device signed it
  QuoteVerifier verifier(vendor);
  EXPECT_FALSE(verifier.Verify(q).ok());
}

TEST(QuoteTest, WrongVendorKeyFails) {
  RootOfTrust rot(KeyFromString("real-vendor"), 7);
  const Quote q = rot.Sign(QuoteId(1), QuoteSubject::kSoftware, SimTime(0), "x");
  QuoteVerifier wrong(KeyFromString("fake-vendor"));
  EXPECT_FALSE(wrong.Verify(q).ok());
}

TEST(QuoteTest, ClaimMismatchDetected) {
  const Key256 vendor = KeyFromString("vendor");
  RootOfTrust rot(vendor, 7);
  const Quote q = rot.Sign(QuoteId(1), QuoteSubject::kReplication, SimTime(0),
                           ReplicationReport("S1", 7, 1));
  QuoteVerifier verifier(vendor);
  EXPECT_TRUE(verifier.VerifyClaim(q, ReplicationReport("S1", 7, 1)).ok());
  EXPECT_FALSE(verifier.VerifyClaim(q, ReplicationReport("S1", 8, 1)).ok());
}

TEST(QuoteTest, ParseResourceReportReadsTheAmount) {
  for (const int64_t amount : {int64_t{0}, int64_t{2000}, int64_t{1} << 40}) {
    EXPECT_EQ(ParseResourceReport(ResourceReport(12, "cpu", 3, amount))
                  .value_or(-1),
              amount);
  }
  EXPECT_FALSE(ParseResourceReport("replication object=S1 replica=7").ok());
  EXPECT_FALSE(
      ParseResourceReport(ResourceReport(12, "cpu", 3, 5) + " extra").ok());
  EXPECT_FALSE(ParseResourceReport("resources device=12 amount=").ok());
}

TEST(QuoteTest, MemoizedSignerKeysStillRejectForgeries) {
  const Key256 vendor = KeyFromString("vendor");
  RootOfTrust rot(vendor, 7);
  QuoteVerifier verifier(vendor);
  for (int i = 1; i <= 3; ++i) {
    const Quote q = rot.Sign(QuoteId(static_cast<uint64_t>(i)),
                             QuoteSubject::kResources, SimTime(i), "claim");
    ASSERT_TRUE(verifier.Verify(q).ok());
  }
  EXPECT_EQ(verifier.memoized_signers(), 1u);

  // Signer 7's key is memoized; a flipped signature bit still fails.
  const Quote valid =
      rot.Sign(QuoteId(4), QuoteSubject::kResources, SimTime(4), "claim");
  Quote flipped = valid;
  flipped.signature[0] ^= 1;
  EXPECT_EQ(verifier.Verify(flipped).code(), StatusCode::kVerificationFailed);

  // A signer the vendor never provisioned: its key is not derived from the
  // vendor root.
  const RootOfTrust stranger(KeyFromString("not-the-vendor"), 9);
  EXPECT_FALSE(verifier
                   .Verify(stranger.Sign(QuoteId(5), QuoteSubject::kResources,
                                         SimTime(5), "claim"))
                   .ok());

  // Forged signer ids never verify, so they never enter the memo.
  for (uint64_t forged = 100; forged < 110; ++forged) {
    Quote relabelled = valid;
    relabelled.signer_device = forged;
    EXPECT_FALSE(verifier.Verify(relabelled).ok());
  }
  EXPECT_EQ(verifier.memoized_signers(), 1u);
  EXPECT_TRUE(verifier.Verify(valid).ok());
}

class AttestationServiceTest : public ::testing::Test {
 protected:
  AttestationServiceTest()
      : sim_(1), vendor_(KeyFromString("vendor")), service_(&sim_, vendor_),
        verifier_(vendor_) {}
  Simulation sim_;
  Key256 vendor_;
  AttestationService service_;
  QuoteVerifier verifier_;
};

TEST_F(AttestationServiceTest, UnprovisionedDeviceCannotQuote) {
  const auto q = service_.QuoteReplica(99, "obj", TenantId(1));
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST_F(AttestationServiceTest, EnvironmentQuoteVerifies) {
  service_.ProvisionDevice(5);
  ExecEnvironment env(0, EnvKind::kTeeEnclave, TenancyMode::kSingleTenant,
                      TenantId(3), NodeId(5));
  const auto q = service_.QuoteEnvironment(env);
  ASSERT_TRUE(q.ok());
  const std::string expected = EnvironmentReport(
      env.measurement(), "strongest", "single", 3);
  EXPECT_TRUE(verifier_.VerifyClaim(*q, expected).ok());
}

TEST_F(AttestationServiceTest, NonAttestableSharedEnvRefused) {
  service_.ProvisionDevice(5);
  ExecEnvironment env(0, EnvKind::kContainer, TenancyMode::kShared,
                      TenantId(3), NodeId(5));
  EXPECT_FALSE(service_.QuoteEnvironment(env).ok());
}

TEST_F(AttestationServiceTest, ResourceQuotesCoverLedger) {
  Topology topo;
  const int rack = topo.AddRack();
  ResourcePool pool(PoolId(0), DeviceKind::kGpuBoard, topo);
  pool.AddDevice(std::make_unique<Device>(
      DeviceId(11), DeviceKind::kGpuBoard, 4000,
      topo.AddNode(rack, NodeRole::kDevice),
      DeviceProfile::DefaultFor(DeviceKind::kGpuBoard)));
  AllocationConstraints constraints;
  auto alloc = pool.Allocate(TenantId(2), 2000, constraints);
  ASSERT_TRUE(alloc.ok());
  service_.ProvisionDevice(11);

  const auto quote = service_.QuoteResource(pool, DeviceId(11), TenantId(2));
  ASSERT_TRUE(quote.ok()) << quote.status().ToString();
  EXPECT_EQ(quote->signer_device, 11u);
  EXPECT_TRUE(verifier_.VerifyClaim(*quote, ResourceReport(11, "gpu", 2, 2000))
                  .ok());
  EXPECT_EQ(ParseResourceReport(quote->report).value_or(-1), 2000);
  // Another tenant's row on the same device holds nothing.
  const auto other = service_.QuoteResource(pool, DeviceId(11), TenantId(9));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(
      verifier_.VerifyClaim(*other, ResourceReport(11, "gpu", 9, 0)).ok());
  // A device the pool does not own cannot be quoted.
  EXPECT_EQ(service_.QuoteResource(pool, DeviceId(12), TenantId(2))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(AttestationServiceTest, SoftwareQuoteBindsMeasurement) {
  service_.ProvisionDevice(4);
  const Sha256Digest code = Sha256::Hash("module binary");
  const auto q = service_.QuoteSoftware(4, code, "A2");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(verifier_.VerifyClaim(*q, SoftwareReport(code, "A2")).ok());
  const Sha256Digest other = Sha256::Hash("different binary");
  EXPECT_FALSE(verifier_.VerifyClaim(*q, SoftwareReport(other, "A2")).ok());
}

TEST_F(AttestationServiceTest, ImageQuoteMintedOncePerContentAndRefCounted) {
  const Sha256Digest digest = Sha256::Hash("env-image content");
  const Bytes size = Bytes::MiB(96);

  const Quote* first = service_.AcquireImageQuote(digest, size);
  const Quote* second = service_.AcquireImageQuote(digest, size);
  EXPECT_EQ(first, second);  // memoized: one quote object per content
  EXPECT_EQ(service_.image_quotes_minted(), 1u);
  EXPECT_EQ(service_.ImageQuoteRefs(digest), 2);
  EXPECT_EQ(service_.live_image_quotes(), 1u);
  // The store identity is reserved — it never shows up as a provisioned
  // device, so drain checks on provisioned_count stay meaningful.
  EXPECT_EQ(service_.provisioned_count(), 0u);

  // The quote verifies against the vendor root and binds digest + size.
  EXPECT_EQ(first->subject, QuoteSubject::kImage);
  EXPECT_TRUE(verifier_.Verify(*first).ok());
  EXPECT_TRUE(
      verifier_
          .VerifyClaim(*first,
                       ImageReport(digest, static_cast<uint64_t>(size.bytes())))
          .ok());
  const Sha256Digest other = Sha256::Hash("other content");
  EXPECT_FALSE(
      verifier_
          .VerifyClaim(*first,
                       ImageReport(other, static_cast<uint64_t>(size.bytes())))
          .ok());

  // Release to zero, then re-acquire: the count goes dormant and comes
  // back without a second mint.
  service_.ReleaseImageQuote(digest);
  service_.ReleaseImageQuote(digest);
  EXPECT_EQ(service_.live_image_quotes(), 0u);
  EXPECT_EQ(service_.ImageQuoteRefs(digest), 0);
  service_.ReleaseImageQuote(digest);  // idempotent past zero
  EXPECT_EQ(service_.ImageQuoteRefs(digest), 0);
  ASSERT_NE(service_.FindImageQuote(digest), nullptr);  // stays memoized

  const Quote* again = service_.AcquireImageQuote(digest, size);
  EXPECT_EQ(again, first);
  EXPECT_EQ(service_.image_quotes_minted(), 1u);
  EXPECT_EQ(sim_.metrics().counter("attest.image_quotes_minted"), 1);
}

}  // namespace
}  // namespace udc
