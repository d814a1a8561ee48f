#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/strings.h"
#include "src/obs/exposition.h"

namespace udc {

namespace {

void CopyTruncated(char* dst, size_t dst_size, std::string_view src) {
  const size_t n = std::min(src.size(), dst_size - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

Status WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return InternalError("short write to " + path);
  }
  return OkStatus();
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

FlightRecorder::Record* FlightRecorder::Append(Record::Kind kind, SimTime at) {
  if (!enabled_) {
    return nullptr;
  }
  Record& rec = slots_[next_];
  next_ = (next_ + 1) % slots_.size();
  rec.kind = kind;
  rec.seq = written_++;
  rec.time = at;
  rec.start = at;
  return &rec;
}

void FlightRecorder::RecordSpan(SimTime start, SimTime end,
                                std::string_view category,
                                std::string_view name) {
  Record* rec = Append(Record::kSpan, end);
  if (rec == nullptr) {
    return;
  }
  rec->start = start;
  CopyTruncated(rec->category, sizeof(rec->category), category);
  CopyTruncated(rec->name, sizeof(rec->name), name);
}

void FlightRecorder::RecordEvent(SimTime at, std::string_view category,
                                 std::string_view detail) {
  Record* rec = Append(Record::kEvent, at);
  if (rec == nullptr) {
    return;
  }
  CopyTruncated(rec->category, sizeof(rec->category), category);
  CopyTruncated(rec->name, sizeof(rec->name), detail);
}

std::vector<FlightRecorder::Record> FlightRecorder::SortedRecords() const {
  const size_t kept = retained();
  // Oldest retained record sits at `next_` once the ring has wrapped.
  const size_t oldest = written_ > slots_.size() ? next_ : 0;
  std::vector<Record> out;
  out.reserve(kept);
  for (size_t i = 0; i < kept; ++i) {
    out.push_back(slots_[(oldest + i) % slots_.size()]);
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  });
  return out;
}

size_t FlightRecorder::retained() const {
  return static_cast<size_t>(std::min<uint64_t>(written_, slots_.size()));
}

uint64_t FlightRecorder::overwritten() const {
  return written_ > slots_.size() ? written_ - slots_.size() : 0;
}

std::string FlightRecorder::ChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Record& rec : SortedRecords()) {
    const double ts = static_cast<double>(rec.start.micros());
    const double dur =
        static_cast<double>(rec.time.micros()) - static_cast<double>(rec.start.micros());
    out += first ? "\n" : ",\n";
    first = false;
    if (rec.kind == Record::kSpan) {
      out += StrFormat(
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":0,\"args\":{\"seq\":%llu}}",
          JsonEscape(rec.name).c_str(), JsonEscape(rec.category).c_str(), ts,
          dur, static_cast<unsigned long long>(rec.seq));
    } else {
      out += StrFormat(
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,"
          "\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{\"seq\":%llu}}",
          JsonEscape(rec.name).c_str(), JsonEscape(rec.category).c_str(), ts,
          static_cast<unsigned long long>(rec.seq));
    }
  }
  out += "\n]}\n";
  return out;
}

Status FlightRecorder::Dump(const std::string& path,
                            const MetricsRegistry* metrics,
                            std::string_view reason) const {
  std::string trace = ChromeTraceJson();
  // Stitch the reason into the top-level object so the dump is
  // self-describing; the writer above always opens with `{`.
  trace.insert(1, "\"otherData\":{\"reason\":\"" +
                      JsonEscape(reason) + "\"},");
  const Status status = WriteFile(path, trace);
  if (!status.ok()) {
    return status;
  }
  if (metrics != nullptr) {
    return WriteFile(path + ".metrics.json", JsonSnapshot(*metrics));
  }
  return OkStatus();
}

void FlightRecorder::Clear() {
  next_ = 0;
  written_ = 0;
}

}  // namespace udc
