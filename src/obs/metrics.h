// Telemetry registry.
//
// The paper's runtime "collects the feedback and performs adaptive
// optimizations" (sec. 3, Design Principle 1); this registry is that feedback
// channel. Counters, gauges and histograms are created on first use and
// addressed by name, so any layer can publish without plumbing.
//
// Metric names follow `layer.noun_verb` (e.g. "exec.cold_starts",
// "core.run_end_to_end_ms"); tools/check_metric_names.sh enforces the
// convention. A series may carry labels — `IncrementCounter("sched.placed",
// {{"module", "A1"}})` — which are folded into the stored key as
// `name{k="v",...}` with keys sorted, Prometheus-style. The exposition and
// JSON writers in src/obs/exposition.h split the key back apart.
//
// Hot paths should not pay for name hashing or label formatting on every
// event. A call site that fires often interns its series once —
//
//   handle_ = metrics.CounterSeries("net.messages_sent");
//   ...
//   metrics.Increment(handle_);   // one indexed add, no hashing, no alloc
//
// — and the registry stores all series in insertion-ordered deques with an
// unordered index, so even the string-addressed calls are a single hash
// lookup. Sorted, Prometheus-style views are built only at export time
// (CountersSorted() & co).

#ifndef UDC_SRC_OBS_METRICS_H_
#define UDC_SRC_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/sketch_histogram.h"

namespace udc {

using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// "name" or `name{k="v",k2="v2"}` with keys sorted — the canonical series
// key labeled metrics are stored under.
std::string MetricSeriesKey(std::string_view name, const MetricLabels& labels);

// A histogram series is a bounded-memory sketch: about 25 KB however many
// samples land, every quantile within 1% of the exact value.
using MetricHistogram = SketchHistogram;

class MetricsRegistry {
 public:
  // Interned series handles. Obtained once (CounterSeries & co), then used
  // for every subsequent event. Handles stay valid for the life of the
  // registry; Clear() invalidates them.
  class CounterHandle {
   public:
    bool valid() const { return idx_ != kUnset; }

   private:
    friend class MetricsRegistry;
    static constexpr uint32_t kUnset = ~uint32_t{0};
    uint32_t idx_ = kUnset;
  };
  class GaugeHandle {
   public:
    bool valid() const { return idx_ != kUnset; }

   private:
    friend class MetricsRegistry;
    static constexpr uint32_t kUnset = ~uint32_t{0};
    uint32_t idx_ = kUnset;
  };
  class HistogramHandle {
   public:
    bool valid() const { return idx_ != kUnset; }

   private:
    friend class MetricsRegistry;
    static constexpr uint32_t kUnset = ~uint32_t{0};
    uint32_t idx_ = kUnset;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Interning. Pays the label sort + key format once per series.
  CounterHandle CounterSeries(std::string_view name,
                              const MetricLabels& labels = {});
  GaugeHandle GaugeSeries(std::string_view name,
                          const MetricLabels& labels = {});
  HistogramHandle HistogramSeries(std::string_view name,
                                  const MetricLabels& labels = {});

  // --- Handle fast path: indexed access, zero hashing, zero allocation.
  void Increment(CounterHandle h, int64_t delta = 1) {
    counters_[h.idx_].value += delta;
  }
  void Set(GaugeHandle h, double value) { gauges_[h.idx_].value = value; }
  void Add(GaugeHandle h, double delta) { gauges_[h.idx_].value += delta; }
  void Observe(HistogramHandle h, double value) {
    histograms_[h.idx_].value.Add(value);
  }
  int64_t value(CounterHandle h) const { return counters_[h.idx_].value; }
  double value(GaugeHandle h) const { return gauges_[h.idx_].value; }
  const MetricHistogram& value(HistogramHandle h) const {
    return histograms_[h.idx_].value;
  }

  // --- String-addressed API (one hash lookup when the series exists).
  void IncrementCounter(std::string_view name, int64_t delta = 1);
  void IncrementCounter(std::string_view name, const MetricLabels& labels,
                        int64_t delta = 1);
  int64_t counter(std::string_view name) const;
  int64_t counter(std::string_view name, const MetricLabels& labels) const;

  void SetGauge(std::string_view name, double value);
  void SetGauge(std::string_view name, const MetricLabels& labels,
                double value);
  void AddToGauge(std::string_view name, double delta);
  void AddToGauge(std::string_view name, const MetricLabels& labels,
                  double delta);
  double gauge(std::string_view name) const;
  double gauge(std::string_view name, const MetricLabels& labels) const;

  void Observe(std::string_view name, double value);
  void Observe(std::string_view name, const MetricLabels& labels, double value);
  const MetricHistogram* histogram(std::string_view name) const;
  const MetricHistogram* histogram(std::string_view name,
                                   const MetricLabels& labels) const;

  size_t counter_series_count() const { return counters_.size(); }
  size_t gauge_series_count() const { return gauges_.size(); }
  size_t histogram_series_count() const { return histograms_.size(); }

  // Sorted-by-key views (keys are MetricSeriesKey strings), built on demand
  // for the exposition writers. Histogram pointers stay valid until Clear().
  std::map<std::string, int64_t, std::less<>> CountersSorted() const;
  std::map<std::string, double, std::less<>> GaugesSorted() const;
  std::map<std::string, const MetricHistogram*, std::less<>> HistogramsSorted()
      const;

  // Multi-line dump of every metric, sorted by name; used by tools.
  std::string Report() const;

  // Drops every series. Outstanding handles become invalid.
  void Clear();

 private:
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename T>
  struct Series {
    std::string key;
    T value;
  };
  using SeriesIndex =
      std::unordered_map<std::string, uint32_t, TransparentHash,
                         std::equal_to<>>;

  template <typename T>
  uint32_t Intern(std::deque<Series<T>>* store, SeriesIndex* index,
                  std::string_view name, const MetricLabels& labels);
  template <typename T>
  uint32_t Intern(std::deque<Series<T>>* store, SeriesIndex* index,
                  std::string_view key);

  // Deques keep element addresses stable across interning, so histogram(...)
  // pointers handed to callers survive later series creation.
  std::deque<Series<int64_t>> counters_;
  std::deque<Series<double>> gauges_;
  std::deque<Series<MetricHistogram>> histograms_;
  SeriesIndex counter_index_;
  SeriesIndex gauge_index_;
  SeriesIndex histogram_index_;
};

// Handle types are spelled without the class qualifier at call sites.
using CounterHandle = MetricsRegistry::CounterHandle;
using GaugeHandle = MetricsRegistry::GaugeHandle;
using HistogramHandle = MetricsRegistry::HistogramHandle;

}  // namespace udc

#endif  // UDC_SRC_OBS_METRICS_H_
