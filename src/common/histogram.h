// Streaming histogram for latency / size distributions.
//
// Exact values are kept, so quantiles are exact and memory grows with the
// sample count. Used by the bench reporters and as the oracle the registry's
// bounded-memory SketchHistogram is tested against.

#ifndef UDC_SRC_COMMON_HISTOGRAM_H_
#define UDC_SRC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace udc {

class Histogram {
 public:
  Histogram() = default;

  void Add(double value);
  void Merge(const Histogram& other);
  void Clear();

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }

  double Min() const;
  double Max() const;
  double Mean() const;
  double Sum() const { return sum_; }
  double Stddev() const;

  // Exact quantile, q in [0, 1]. Returns 0 for an empty histogram.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P99() const { return Quantile(0.99); }

  // "n=100 mean=1.2 p50=1.1 p99=3.4 max=5.0"
  std::string Summary() const;

  // Every recorded value, sorted ascending; benches compare runs by it.
  const std::vector<double>& sorted_samples() const {
    SortIfNeeded();
    return samples_;
  }

 private:
  void SortIfNeeded() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace udc

#endif  // UDC_SRC_COMMON_HISTOGRAM_H_
