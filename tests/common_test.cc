#include <gtest/gtest.h>

#include <set>

#include "src/common/histogram.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/units.h"

namespace udc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = ResourceExhaustedError("pool empty");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "pool empty");
  EXPECT_EQ(s.ToString(), "RESOURCE_EXHAUSTED: pool empty");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kInternal); ++i) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(i)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  UDC_ASSIGN_OR_RETURN(const int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(InternalError("boom")).ok());
}

TEST(IdsTest, TypedIdsAreDistinctTypes) {
  const TenantId t(1);
  const ModuleId m(1);
  EXPECT_EQ(t.value(), m.value());
  EXPECT_FALSE(TenantId().valid());
  EXPECT_TRUE(t.valid());
}

TEST(IdsTest, GeneratorIsMonotonic) {
  IdGenerator<DeviceId> gen;
  EXPECT_EQ(gen.Next().value(), 0u);
  EXPECT_EQ(gen.Next().value(), 1u);
  EXPECT_EQ(gen.issued(), 2u);
}

TEST(UnitsTest, SimTimeArithmetic) {
  EXPECT_EQ(SimTime::Millis(1).micros(), 1000);
  EXPECT_EQ(SimTime::Seconds(2).micros(), 2000000);
  EXPECT_EQ((SimTime::Millis(3) + SimTime::Millis(4)).micros(), 7000);
  EXPECT_LT(SimTime::Millis(1), SimTime::Seconds(1));
  EXPECT_DOUBLE_EQ(SimTime::Hours(2).hours(), 2.0);
}

TEST(UnitsTest, ScaleTime) {
  EXPECT_EQ(Scale(SimTime::Millis(10), 1.5).micros(), 15000);
}

TEST(UnitsTest, MoneyFromDollarsRounds) {
  EXPECT_EQ(Money::FromDollars(0.096).micro_usd(), 96000);
  EXPECT_EQ(Money::Cents(5).micro_usd(), 50000);
  EXPECT_DOUBLE_EQ(Money::Dollars(3).dollars(), 3.0);
}

TEST(UnitsTest, BytesHelpers) {
  EXPECT_EQ(Bytes::KiB(1).bytes(), 1024);
  EXPECT_EQ(Bytes::GiB(1).bytes(), 1024LL * 1024 * 1024);
  EXPECT_DOUBLE_EQ(Bytes::MiB(512).gib(), 0.5);
}

TEST(UnitsTest, ToStringFormats) {
  EXPECT_EQ(SimTime::Micros(5).ToString(), "5us");
  EXPECT_NE(SimTime::Millis(12).ToString().find("ms"), std::string::npos);
  EXPECT_NE(Bytes::GiB(2).ToString().find("GiB"), std::string::npos);
  EXPECT_EQ(Money::Dollars(1).ToString(), "$1.0000");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = SplitString("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  x \t"), "x");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
}

TEST(StringsTest, ParseUint64RejectsBadInput) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("123", &v));
  EXPECT_EQ(v, 123u);
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
  EXPECT_FALSE(ParseUint64("99999999999999999999999", &v));  // overflow
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("2.5", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_FALSE(ParseDouble("x2", &v));
  EXPECT_FALSE(ParseDouble("2x", &v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%s", std::string(300, 'a').c_str()).size(), 300u);
  // Results on either side of the 256-byte stack buffer StrFormat formats
  // into first. The last bytes come from an argument, so a result cut at
  // the buffer or formatted again from spent arguments would show.
  for (const size_t size : {size_t{255}, size_t{256}, size_t{257}}) {
    const std::string body(size - 2, 'a');
    EXPECT_EQ(StrFormat("%s-%d", body.c_str(), 7), body + "-7") << size;
  }
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 5.0);
  EXPECT_DOUBLE_EQ(h.Median(), 3.0);
}

TEST(HistogramTest, QuantileInterpolates) {
  Histogram h;
  h.Add(0.0);
  h.Add(10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    const int64_t v = rng.NextInt64InRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(2.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 1.2) < 10) {
      ++low;
    }
  }
  // With s=1.2 the first 10 ranks carry a large share of the mass.
  EXPECT_GT(low, n / 5);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  rng.Shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 6u);
}

}  // namespace
}  // namespace udc
