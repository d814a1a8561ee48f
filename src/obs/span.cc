#include "src/obs/span.h"

#include <algorithm>

namespace udc {

const std::string* Span::Label(std::string_view key) const {
  if (shared_labels != nullptr) {
    for (const auto& [k, v] : *shared_labels) {
      if (k == key) {
        return &v;
      }
    }
  }
  for (const auto& [k, v] : labels) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

SpanTracer::SpanTracer(Clock clock) : clock_(std::move(clock)) {
  slots_.reserve(kCapacity);
}

const Span* SpanTracer::SpanById(uint64_t span_id) const {
  if (span_id == 0 || span_id >= next_id_ ||
      next_id_ - span_id > slots_.size()) {
    return nullptr;
  }
  return &slots_[Slot(span_id)];
}

Span& SpanTracer::Claim(SimTime start, uint64_t parent) {
  if (parent == 0) {
    parent = CurrentScope();
  }
  // Read the parent before its slot can be the one reused.
  const Span* parent_span = SpanById(parent);
  const uint64_t trace_id =
      parent_span != nullptr ? parent_span->trace_id : next_trace_id_++;
  const uint64_t id = next_id_++;
  Span* span;
  if (slots_.size() < kCapacity) {
    span = &slots_.emplace_back();
  } else {
    // Overwrite the oldest span in place, keeping its buffers.
    span = &slots_[Slot(id)];
    dropped_ += span->open ? 1 : 0;
    span->labels.clear();
    span->shared_labels = nullptr;
    span->open = true;
  }
  span->trace_id = trace_id;
  span->span_id = id;
  span->parent_span_id = parent;
  span->start = start;
  span->end = start;
  return *span;
}

uint64_t SpanTracer::Begin(std::string category, std::string name,
                           SpanLabels labels, uint64_t parent) {
  return BeginAt(clock_(), std::move(category), std::move(name),
                 std::move(labels), parent);
}

uint64_t SpanTracer::BeginAt(SimTime start, std::string category,
                             std::string name, SpanLabels labels,
                             uint64_t parent) {
  Span& span = Claim(start, parent);
  span.category = std::move(category);
  span.name = std::move(name);
  span.labels = std::move(labels);
  return span.span_id;
}

uint32_t SpanTracer::InternLabelSet(SpanLabels labels) {
  label_sets_.push_back(std::move(labels));
  return static_cast<uint32_t>(label_sets_.size());
}

uint64_t SpanTracer::BeginWithSet(std::string_view category,
                                  std::string_view name, uint32_t label_set,
                                  uint64_t parent) {
  Span& span = Claim(clock_(), parent);
  span.category.assign(category);
  span.name.assign(name);
  if (label_set != 0 && label_set <= label_sets_.size()) {
    span.shared_labels = &label_sets_[label_set - 1];
  }
  return span.span_id;
}

void SpanTracer::AddLabel(uint64_t span_id, std::string key,
                          std::string value) {
  Span* span = Mutable(span_id);
  if (span != nullptr) {
    span->labels.emplace_back(std::move(key), std::move(value));
  }
}

void SpanTracer::End(uint64_t span_id) { EndAt(span_id, clock_()); }

void SpanTracer::EndAt(uint64_t span_id, SimTime end) {
  Span* span = Mutable(span_id);
  if (span == nullptr || !span->open) {
    return;
  }
  span->end = std::max(end, span->start);
  span->open = false;
  ++closed_;
}

void SpanTracer::PushScope(uint64_t span_id) {
  if (span_id != 0) {
    scope_stack_.push_back(span_id);
  }
}

void SpanTracer::PopScope(uint64_t span_id) {
  if (span_id != 0 && !scope_stack_.empty() && scope_stack_.back() == span_id) {
    scope_stack_.pop_back();
  }
}

uint64_t SpanTracer::CurrentScope() const {
  return scope_stack_.empty() ? 0 : scope_stack_.back();
}

void SpanTracer::Clear() {
  slots_.clear();  // keeps the reservation
  scope_stack_.clear();
  next_id_ = 1;
  next_trace_id_ = 1;
  dropped_ = 0;
}

std::vector<const Span*> SpanTracer::SpansInCategory(
    std::string_view category) const {
  std::vector<const Span*> out;
  for (const Span& s : spans()) {
    if (s.category == category) {
      out.push_back(&s);
    }
  }
  return out;
}

const Span* SpanTracer::Find(std::string_view name, std::string_view label_key,
                             std::string_view label_value) const {
  for (const Span& s : spans()) {
    if (s.name != name) {
      continue;
    }
    if (label_key.empty()) {
      return &s;
    }
    const std::string* v = s.Label(label_key);
    if (v != nullptr && *v == label_value) {
      return &s;
    }
  }
  return nullptr;
}

ScopedSpan::ScopedSpan(SpanTracer* tracer, std::string category,
                       std::string name, SpanLabels labels)
    : tracer_(tracer),
      id_(tracer->Begin(std::move(category), std::move(name),
                        std::move(labels))) {
  tracer_->PushScope(id_);
}

ScopedSpan::ScopedSpan(SpanTracer* tracer, std::string_view category,
                       std::string_view name, uint32_t label_set)
    : tracer_(tracer),
      id_(tracer->BeginWithSet(category, name, label_set)) {
  tracer_->PushScope(id_);
}

ScopedSpan::ScopedSpan(ScopedSpan&& other) noexcept
    : tracer_(other.tracer_), id_(other.id_) {
  other.id_ = 0;
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) {
    tracer_->PopScope(id_);
    tracer_->End(id_);
  }
}

void ScopedSpan::AddLabel(std::string key, std::string value) {
  tracer_->AddLabel(id_, std::move(key), std::move(value));
}

}  // namespace udc
