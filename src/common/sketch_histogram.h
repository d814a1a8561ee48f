// Bounded-memory quantile sketch (DDSketch-style log bucketing).
//
// The exact Histogram keeps every sample, which is fine for a single run but
// not for always-on telemetry at million-tenant scale: a hot series would
// grow without bound. SketchHistogram trades exactness for a fixed footprint:
// values land in logarithmically spaced buckets sized so any quantile
// estimate is within `relative_error` (default 1%) of the true value.
// Buckets are plain counts, so sketches merge (elementwise add) and subtract
// (DiffSince) — subtraction is what makes sliding SLO windows cheap: keep
// periodic cumulative snapshots and diff, instead of retaining samples.
//
// The exact Histogram stays available as the differential oracle (repo idiom:
// a simple exact implementation is kept to check the fast one); see the
// randomized differential in tests/slo_test.cc.

#ifndef UDC_SRC_COMMON_SKETCH_HISTOGRAM_H_
#define UDC_SRC_COMMON_SKETCH_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace udc {

class SketchHistogram {
 public:
  explicit SketchHistogram(double relative_error = 0.01);

  void Add(double value);
  // Elementwise add; both sketches must share `relative_error`.
  void Merge(const SketchHistogram& other);
  // Returns this sketch minus `earlier` (an older snapshot of the same
  // series): the distribution of everything added in between. min/max of the
  // diff are bucket-derived (the exact extrema of the interval are unknown),
  // so they carry the same relative-error bound as quantiles.
  SketchHistogram DiffSince(const SketchHistogram& earlier) const;
  void Clear();

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double Min() const { return count_ == 0 ? 0.0 : min_; }
  double Max() const { return count_ == 0 ? 0.0 : max_; }
  double Mean() const;
  double Sum() const { return sum_; }
  double Stddev() const;

  // Quantile estimate, q in [0, 1]; within relative_error() of the exact
  // value for positive samples. Returns 0 for an empty sketch. Rank
  // selection mirrors Histogram::Quantile (rank q*(n-1)) so the two agree on
  // which sample a quantile names, not just on bucket accuracy.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P99() const { return Quantile(0.99); }

  // "n=100 mean=1.2 p50=1.1 p99=3.4 max=5.0" — same shape as Histogram.
  std::string Summary() const;

  double relative_error() const { return alpha_; }
  size_t bucket_count() const { return counts_.size(); }
  // Fixed once the bucket array exists; independent of sample count.
  size_t MemoryFootprintBytes() const {
    return sizeof(*this) + counts_.capacity() * sizeof(uint64_t);
  }

 private:
  // Bucket i covers (gamma^(i-1), gamma^i]; values below kMinValue (and
  // zero / negatives, which a latency series never produces) collapse into
  // a dedicated zero bucket whose estimate is 0.
  static constexpr double kMinValue = 1e-9;
  static constexpr double kMaxValue = 1e18;

  int BucketIndex(double value) const;
  double BucketEstimate(int index) const;

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  int min_index_;  // bucket index of kMinValue; counts_[0] maps here
  uint64_t zero_count_ = 0;
  std::vector<uint64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace udc

#endif  // UDC_SRC_COMMON_SKETCH_HISTOGRAM_H_
