#include "src/obs/metrics.h"

#include <algorithm>

#include "src/common/strings.h"

namespace udc {

std::string MetricSeriesKey(std::string_view name, const MetricLabels& labels) {
  if (labels.empty()) {
    return std::string(name);
  }
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key(name);
  key += '{';
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) {
      key += ',';
    }
    key += sorted[i].first + "=\"" + sorted[i].second + "\"";
  }
  key += '}';
  return key;
}

template <typename T>
uint32_t MetricsRegistry::Intern(std::deque<Series<T>>* store,
                                 SeriesIndex* index, std::string_view key) {
  const auto it = index->find(key);
  if (it != index->end()) {
    return it->second;
  }
  const auto idx = static_cast<uint32_t>(store->size());
  store->push_back(Series<T>{std::string(key), T{}});
  index->emplace(store->back().key, idx);
  return idx;
}

template <typename T>
uint32_t MetricsRegistry::Intern(std::deque<Series<T>>* store,
                                 SeriesIndex* index, std::string_view name,
                                 const MetricLabels& labels) {
  if (labels.empty()) {
    return Intern(store, index, name);
  }
  return Intern(store, index, MetricSeriesKey(name, labels));
}

MetricsRegistry::CounterHandle MetricsRegistry::CounterSeries(
    std::string_view name, const MetricLabels& labels) {
  CounterHandle h;
  h.idx_ = Intern(&counters_, &counter_index_, name, labels);
  return h;
}

MetricsRegistry::GaugeHandle MetricsRegistry::GaugeSeries(
    std::string_view name, const MetricLabels& labels) {
  GaugeHandle h;
  h.idx_ = Intern(&gauges_, &gauge_index_, name, labels);
  return h;
}

MetricsRegistry::HistogramHandle MetricsRegistry::HistogramSeries(
    std::string_view name, const MetricLabels& labels) {
  HistogramHandle h;
  h.idx_ = Intern(&histograms_, &histogram_index_, name, labels);
  return h;
}

void MetricsRegistry::IncrementCounter(std::string_view name, int64_t delta) {
  counters_[Intern(&counters_, &counter_index_, name)].value += delta;
}

void MetricsRegistry::IncrementCounter(std::string_view name,
                                       const MetricLabels& labels,
                                       int64_t delta) {
  counters_[Intern(&counters_, &counter_index_, name, labels)].value += delta;
}

int64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : counters_[it->second].value;
}

int64_t MetricsRegistry::counter(std::string_view name,
                                 const MetricLabels& labels) const {
  return labels.empty() ? counter(name)
                        : counter(MetricSeriesKey(name, labels));
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  gauges_[Intern(&gauges_, &gauge_index_, name)].value = value;
}

void MetricsRegistry::SetGauge(std::string_view name,
                               const MetricLabels& labels, double value) {
  gauges_[Intern(&gauges_, &gauge_index_, name, labels)].value = value;
}

void MetricsRegistry::AddToGauge(std::string_view name, double delta) {
  gauges_[Intern(&gauges_, &gauge_index_, name)].value += delta;
}

void MetricsRegistry::AddToGauge(std::string_view name,
                                 const MetricLabels& labels, double delta) {
  gauges_[Intern(&gauges_, &gauge_index_, name, labels)].value += delta;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauge_index_.find(name);
  return it == gauge_index_.end() ? 0.0 : gauges_[it->second].value;
}

double MetricsRegistry::gauge(std::string_view name,
                              const MetricLabels& labels) const {
  return labels.empty() ? gauge(name) : gauge(MetricSeriesKey(name, labels));
}

void MetricsRegistry::Observe(std::string_view name, double value) {
  histograms_[Intern(&histograms_, &histogram_index_, name)].value.Add(value);
}

void MetricsRegistry::Observe(std::string_view name, const MetricLabels& labels,
                              double value) {
  histograms_[Intern(&histograms_, &histogram_index_, name, labels)].value.Add(
      value);
}

const MetricHistogram* MetricsRegistry::histogram(std::string_view name) const {
  const auto it = histogram_index_.find(name);
  return it == histogram_index_.end() ? nullptr
                                      : &histograms_[it->second].value;
}

const MetricHistogram* MetricsRegistry::histogram(
    std::string_view name, const MetricLabels& labels) const {
  return labels.empty() ? histogram(name)
                        : histogram(MetricSeriesKey(name, labels));
}

std::map<std::string, int64_t, std::less<>> MetricsRegistry::CountersSorted()
    const {
  std::map<std::string, int64_t, std::less<>> out;
  for (const auto& s : counters_) {
    out.emplace(s.key, s.value);
  }
  return out;
}

std::map<std::string, double, std::less<>> MetricsRegistry::GaugesSorted()
    const {
  std::map<std::string, double, std::less<>> out;
  for (const auto& s : gauges_) {
    out.emplace(s.key, s.value);
  }
  return out;
}

std::map<std::string, const MetricHistogram*, std::less<>>
MetricsRegistry::HistogramsSorted() const {
  std::map<std::string, const MetricHistogram*, std::less<>> out;
  for (const auto& s : histograms_) {
    out.emplace(s.key, &s.value);
  }
  return out;
}

std::string MetricsRegistry::Report() const {
  std::string out;
  for (const auto& [name, value] : CountersSorted()) {
    out += StrFormat("counter %-48s %lld\n", name.c_str(),
                     static_cast<long long>(value));
  }
  for (const auto& [name, value] : GaugesSorted()) {
    out += StrFormat("gauge   %-48s %.6g\n", name.c_str(), value);
  }
  for (const auto& [name, hist] : HistogramsSorted()) {
    out += StrFormat("hist    %-48s %s\n", name.c_str(),
                     hist->Summary().c_str());
  }
  return out;
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  counter_index_.clear();
  gauge_index_.clear();
  histogram_index_.clear();
}

}  // namespace udc
