#include "src/obs/flight_recorder.h"

#include <cstdio>

#include "src/obs/chrome_trace.h"
#include "src/obs/exposition.h"

namespace udc {

namespace {

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

Status FlightRecorder::Dump(const std::string& path,
                            const MetricsRegistry* metrics,
                            std::string_view reason) const {
  std::string trace = ChromeTraceJson(*spans_, *now_);
  // Stitch the reason into the top-level object so the dump is
  // self-describing; the writer always opens with `{`.
  trace.insert(1, "\n  \"otherData\": {\"reason\": \"" + JsonEscape(reason) +
                      "\"},");
  const Status status = WriteFile(path, trace);
  if (!status.ok()) {
    return status;
  }
  if (metrics != nullptr) {
    return WriteFile(path + ".metrics.json", JsonSnapshot(*metrics));
  }
  return OkStatus();
}

}  // namespace udc
