// udcbench: runs one workload of the control-plane benchmark (README.md).
//
//   udcbench --workload <fleet_churn|federation_skew|tenant_lifecycle>
//            --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// Every run sets its workload up untimed (input generation, cloud
// construction, warmup to steady occupancy), then runs timed blocks of
// deploys until --seconds have passed, then drains the cloud and checks it
// is empty. End-to-end host times are scaled to a reference host speed by
// a probe taken before each block and around each set-up (HostProbe).
// --trace 0 measures the end-to-end metrics; --trace 1 runs the
// workload twice on fresh clouds — untraced, then with a timer around every
// call into a layer — and reports the per-layer metrics and the tracing
// overhead. The last line of standard output is one JSON object with every
// metric measured; the exit code is 0 only when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/strings.h"

#ifndef UDCBENCH_BUILD_TYPE
#define UDCBENCH_BUILD_TYPE "unknown"
#endif

namespace udcbench {
namespace {

// Set-ups per --trace 0 run; setup_s is their median.
constexpr size_t kSetups = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed" && udc::ParseUint64(value, &number)) {
      options->seed = number;
    } else if (flag == "--seconds" && udc::ParseUint64(value, &number) &&
               number > 0) {
      options->seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return KnownWorkload(options->workload);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Measures how fast the host runs right now, so that host times can be
// scaled to a reference speed. The shared host runs the same code up to
// twice as fast for stretches of seconds to minutes (README.md, Noise);
// the time to stream a fixed 64 MiB buffer rises and falls with it. The
// buffer is allocated and touched before set-up starts, so it adds
// exactly its size to the peak resident set.
class HostProbe {
 public:
  // Host times are reported as on a host that streams the buffer in this
  // many microseconds.
  static constexpr double kReferenceUs = 6000;

  HostProbe() : buffer_(kWords) {
    for (size_t i = 0; i < buffer_.size(); ++i) {
      buffer_[i] = i;
    }
  }

  // Streams the buffer once (one read per cache line); returns the factor
  // that turns host time measured next to this probe into reference time.
  double Scale() {
    const Clock::time_point start = Clock::now();
    uint64_t sum = 0;
    for (size_t i = 0; i < buffer_.size(); i += kWordsPerLine) {
      sum += buffer_[i];
    }
    const double us = MicrosSince(start);
    sink_ = sink_ + sum;
    return kReferenceUs / us;
  }

  double mib() const {
    return static_cast<double>(buffer_.size() * sizeof(uint64_t)) /
           (1 << 20);
  }

 private:
  static constexpr size_t kWords = (size_t{64} << 20) / sizeof(uint64_t);
  static constexpr size_t kWordsPerLine = 64 / sizeof(uint64_t);
  std::vector<uint64_t> buffer_;
  volatile uint64_t sink_ = 0;
};

// One timed block, its host times scaled to the reference speed by the
// probe taken just before it; probes excluded.
struct Block {
  int64_t admitted = 0;
  double wall_s = 0;
  double unscaled_wall_s = 0;
  udc::Histogram deploy_us;

  double DeploysPerSecond() const {
    return static_cast<double>(admitted) / wall_s;
  }
};

// The blocks the host-time end-to-end metrics cover: the quarter of the
// timed blocks with the lowest scaled deploy rate. The probe follows the
// host's speed states only in part, and each workload slows by its own
// amount in them; a run's slowest quarter of scaled blocks repeats better
// than all of its blocks (README.md, Noise).
struct SlowQuarter {
  int64_t admitted = 0;
  double wall_s = 0;
  size_t blocks = 0;
  udc::Histogram deploy_us;

  explicit SlowQuarter(const std::vector<Block>& all) {
    std::vector<const Block*> order;
    for (const Block& block : all) {
      order.push_back(&block);
    }
    std::sort(order.begin(), order.end(), [](const Block* a, const Block* b) {
      return a->DeploysPerSecond() < b->DeploysPerSecond();
    });
    blocks = std::max<size_t>(1, order.size() / 4);
    for (size_t i = 0; i < blocks && i < order.size(); ++i) {
      admitted += order[i]->admitted;
      wall_s += order[i]->wall_s;
      deploy_us.Merge(order[i]->deploy_us);
    }
  }

  double DeploysPerSecond() const {
    return static_cast<double>(admitted) / wall_s;
  }
};

// One timed phase on one cloud.
struct Phase {
  SimStats sim;            // reference segment
  Counters reference;      // counter deltas over the reference segment
  double cpu_util = 0;     // CPU pool allocated / capacity after the segment
  // Peak RSS up to the end of the segment. Later deploys keep adding
  // samples to the program's exact histograms, so the peak at the end of
  // the run would grow with the host's speed.
  double peak_rss_mib = 0;
  double wan_queue_p50 = 0;
  double wan_queue_p99 = 0;
  int64_t wan_queue_n = 0;
  int64_t spans = 0;       // spans recorded during the segment
  std::vector<Block> blocks;
  int64_t attempted = 0;
  int64_t failed = 0;

  // Admitted deploys per unscaled second over every block.
  double UnscaledDeploysPerSecond() const {
    int64_t admitted = 0;
    double wall_s = 0;
    for (const Block& block : blocks) {
      admitted += block.admitted;
      wall_s += block.unscaled_wall_s;
    }
    return static_cast<double>(admitted) / wall_s;
  }
};

// Input generation, cloud construction, then untimed deploys until the env
// store, the pools and the live window reach steady occupancy. Spans are
// cleared per block, as in the timed phase. Appends the time since `start`
// to `setup_s`, scaled by the mean of `scale_before` and a probe taken
// after it.
std::unique_ptr<Workload> SetUp(const std::string& name, uint64_t seed,
                                const Sizes& sizes, HostProbe& probe,
                                double scale_before, Clock::time_point start,
                                std::vector<double>* setup_s,
                                std::vector<std::string>* errors) {
  std::unique_ptr<Workload> workload = MakeWorkload(name, seed, sizes);
  SimStats discarded;
  for (int64_t i = 0; i < sizes.warmup; ++i) {
    if (i % sizes.block == 0) {
      workload->cloud().sim()->spans().Clear();
      discarded = SimStats();
    }
    if (!workload->Step(i, &discarded, nullptr).as_expected) {
      errors->push_back(udc::StrFormat("warmup deploy %lld failed",
                                       static_cast<long long>(i)));
    }
  }
  const double unscaled_s = MicrosSince(start) / 1e6;
  setup_s->push_back(unscaled_s * (scale_before + probe.Scale()) / 2);
  return workload;
}

std::unique_ptr<Workload> SetUpNow(const std::string& name, uint64_t seed,
                                   const Sizes& sizes, HostProbe& probe,
                                   std::vector<double>* setup_s,
                                   std::vector<std::string>* errors) {
  const double scale = probe.Scale();
  return SetUp(name, seed, sizes, probe, scale, Clock::now(), setup_s, errors);
}

Phase RunTimed(Workload& workload, const Sizes& sizes, double seconds,
               HostProbe& probe, LayerTimers* timers,
               std::vector<std::string>* errors) {
  udc::UdcCloud& cloud = workload.cloud();
  Phase phase;
  SimStats discarded;  // sim results of blocks past the reference segment
  const Counters base = Counters::Read(cloud);
  const Clock::time_point phase_start = Clock::now();
  int64_t index = sizes.warmup;
  for (int block = 0;; ++block) {
    const bool reference = block < sizes.reference_blocks;
    // Outside the clock: the tracer keeps at most 2^20 spans, then drops.
    cloud.sim()->spans().Clear();
    discarded = SimStats();
    SimStats* sim = reference ? &phase.sim : &discarded;
    const double probe_before = timers != nullptr ? timers->probe_us : 0;
    const double scale = probe.Scale();
    Block timed;
    const Clock::time_point block_start = Clock::now();
    for (int k = 0; k < sizes.block; ++k, ++index) {
      const DeployResult result = workload.Step(index, sim, timers);
      timed.deploy_us.Add(result.deploy_us * scale);
      timed.admitted += result.admitted ? 1 : 0;
      phase.failed += result.as_expected ? 0 : 1;
    }
    double wall_us = MicrosSince(block_start);
    if (timers != nullptr) {
      wall_us -= timers->probe_us - probe_before;
    }
    timed.unscaled_wall_s = wall_us / 1e6;
    timed.wall_s = timed.unscaled_wall_s * scale;
    phase.attempted += sizes.block;
    phase.blocks.push_back(std::move(timed));

    if (cloud.sim()->spans().dropped() != 0) {
      errors->push_back("the span tracer dropped spans in a timed block");
    }
    if (reference) {
      phase.spans += static_cast<int64_t>(cloud.sim()->spans().size());
    }
    if (block + 1 == sizes.reference_blocks) {
      phase.reference = Counters::Read(cloud) - base;
      phase.sim.wan_bytes = phase.reference.wan_bytes_sent;
      phase.cpu_util =
          cloud.datacenter().pool(udc::DeviceKind::kCpuBlade).Utilization();
      phase.peak_rss_mib = PeakRssMiB() - probe.mib();
      if (const udc::MetricHistogram* h =
              cloud.sim()->metrics().histogram("net.wan_queue_us")) {
        phase.wan_queue_p50 = h->Quantile(0.5);
        phase.wan_queue_p99 = h->Quantile(0.99);
        phase.wan_queue_n = h->count();
      }
    }
    if (block + 1 >= sizes.reference_blocks &&
        MicrosSince(phase_start) >= seconds * 1e6) {
      break;
    }
  }
  cloud.sim()->spans().Clear();
  return phase;
}

// Prints each metric as a report line and adds it to the JSON result.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& detail) {
    std::printf("  %-36s %14.4f %-12s %s\n", name.c_str(), value,
                unit.c_str(), detail.c_str());
    if (!std::isfinite(value)) {
      errors_.push_back(name + " is not finite");
      return;
    }
    json_ += udc::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            json_.empty() ? "" : ", ", name.c_str(), value,
                            unit.c_str());
  }
  // A percentile with its sample count, or "n/a" without samples.
  void Quantile(const std::string& name, const udc::Histogram& samples,
                double q, const std::string& unit, const std::string& clock) {
    if (samples.empty()) {
      NotApplicable(name, unit, "no samples in this workload");
      return;
    }
    Add(name, samples.Quantile(q), unit,
        udc::StrFormat("%s, n=%lld", clock.c_str(),
                       static_cast<long long>(samples.count())));
  }
  void NotApplicable(const std::string& name, const std::string& unit,
                     const std::string& why) {
    std::printf("  %-36s %14s %-12s %s\n", name.c_str(), "n/a", unit.c_str(),
                why.c_str());
  }

  const std::string& json() const { return json_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::string json_;
  std::vector<std::string> errors_;
};

void ReportEndToEnd(const Phase& phase,
                    const std::vector<double>& setup_s, Report* report) {
  const SimStats& sim = phase.sim;
  const double attempted = static_cast<double>(sim.attempted);
  const SlowQuarter slow(phase.blocks);
  std::printf("end-to-end metrics (host: wall clock scaled to the reference "
              "host speed, slowest quarter of the timed blocks; sim: "
              "simulated clock, reference segment)\n");
  report->Add("deploys_per_s", slow.DeploysPerSecond(), "deploys/s",
              udc::StrFormat("host, %lld admitted in %.2f s (%zu of %zu "
                             "blocks; unscaled, all blocks: %.1f)",
                             static_cast<long long>(slow.admitted), slow.wall_s,
                             slow.blocks, phase.blocks.size(),
                             phase.UnscaledDeploysPerSecond()));
  report->Quantile("deploy_us_p50", slow.deploy_us, 0.5, "us", "host");
  report->Quantile("deploy_us_p99", slow.deploy_us, 0.99, "us", "host");
  report->Quantile("start_ms_p50", sim.start_ms, 0.5, "ms", "sim");
  report->Quantile("start_ms_p99", sim.start_ms, 0.99, "ms", "sim");
  report->Add("deploy_fail_ratio",
              static_cast<double>(sim.rejected) / attempted, "ratio",
              udc::StrFormat("sim, %lld of %lld rejected or aborted",
                             static_cast<long long>(sim.rejected),
                             static_cast<long long>(sim.attempted)));
  report->Add("wan_mib_per_deploy",
              static_cast<double>(sim.wan_bytes) / (1 << 20) / attempted, "MiB",
              "sim");
  report->Quantile("invoke_ms_p50", sim.invoke_ms, 0.5, "ms", "sim");
  report->Quantile("invoke_ms_p99", sim.invoke_ms, 0.99, "ms", "sim");
  if (sim.usd_count > 0) {
    report->Add("usd_per_app_hour",
                sim.usd_sum / static_cast<double>(sim.usd_count), "USD",
                udc::StrFormat("sim, mean of %lld bills",
                               static_cast<long long>(sim.usd_count)));
  } else {
    report->NotApplicable("usd_per_app_hour", "USD",
                          "no bills in this workload");
  }
  std::string samples;
  for (const double s : setup_s) {
    samples += udc::StrFormat("%s%.3f", samples.empty() ? "" : ", ", s);
  }
  report->Add("setup_s", Median(setup_s), "s",
              udc::StrFormat("host, scaled, median of %zu set-ups (%s s; the "
                             "first from process start)",
                             setup_s.size(), samples.c_str()));
  report->Add("peak_rss_mib", phase.peak_rss_mib, "MiB",
              "host, through the reference segment, probe buffer excluded");
}

void ReportLayers(const Phase& phase, const LayerTimers& t, Report* report) {
  const Counters& c = phase.reference;
  const double deploys = static_cast<double>(phase.sim.attempted);
  const auto per_deploy = [&](const std::string& name, int64_t count) {
    report->Add(name, static_cast<double>(count) / deploys, "count/deploy",
                udc::StrFormat("%lld over %.0f deploys",
                               static_cast<long long>(count), deploys));
  };
  const auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  std::printf("per-layer metrics (host timers: all traced deploys; counts: "
              "reference segment)\n");
  // core: routing and scheduling.
  report->Quantile("core.deploy_us_p50", t.deploy_us, 0.5, "us", "host");
  report->Quantile("core.deploy_us_p99", t.deploy_us, 0.99, "us", "host");
  per_deploy("core.cell_fallbacks", c.cell_fallbacks);
  per_deploy("core.cross_cell_deploys", c.cross_cell_deploys);
  per_deploy("core.region_fallbacks", c.region_fallbacks);
  per_deploy("core.cross_region_deploys", c.cross_region_deploys);
  // core: transactions.
  per_deploy("core.txn_committed", c.txn_committed);
  per_deploy("core.txn_aborted", c.txn_aborted);
  report->Add("core.txn_wasted_ratio",
              ratio(c.txn_ops_undone, c.txn_ops_staged), "ratio",
              udc::StrFormat("%lld of %lld staged ops undone",
                             static_cast<long long>(c.txn_ops_undone),
                             static_cast<long long>(c.txn_ops_staged)));
  // core: teardown, verify, bill, runtime.
  report->Quantile("core.teardown_us_p50", t.teardown_us, 0.5, "us", "host");
  report->Quantile("core.verify_us_p50", t.verify_us, 0.5, "us", "host");
  report->Quantile("core.bill_us_p50", t.bill_us, 0.5, "us", "host");
  report->Quantile("core.invoke_us_p50", t.invoke_us, 0.5, "us", "host");
  // exec.
  report->Quantile("exec.stop_us_p50", t.stop_us, 0.5, "us", "host");
  per_deploy("exec.warm_starts", c.warm_starts);
  per_deploy("exec.tepid_starts", c.tepid_starts);
  per_deploy("exec.remote_starts", c.remote_starts);
  per_deploy("exec.cold_starts", c.cold_starts);
  per_deploy("exec.launches_cancelled", c.launches_cancelled);
  per_deploy("exec.evictions", c.evictions);
  const int64_t warmish = c.warm_starts + c.tepid_starts + c.remote_starts;
  report->Add("exec.warm_hit_ratio", ratio(warmish, warmish + c.cold_starts),
              "ratio", "warm, tepid and remote starts over all starts");
  report->Quantile("exec.next_start_us_p50", t.next_start_us, 0.5, "us",
                   "host probe");
  report->Quantile("exec.next_start_us_p99", t.next_start_us, 0.99, "us",
                   "host probe");
  // net.
  per_deploy("net.messages_delivered", c.messages_delivered);
  per_deploy("net.wan_messages_sent", c.wan_messages_sent);
  if (phase.wan_queue_n > 0) {
    const std::string n = udc::StrFormat(
        "sim, n=%lld since set-up", static_cast<long long>(phase.wan_queue_n));
    report->Add("net.wan_queue_us_p50", phase.wan_queue_p50, "us", n);
    report->Add("net.wan_queue_us_p99", phase.wan_queue_p99, "us", n);
  } else {
    for (const char* name : {"net.wan_queue_us_p50", "net.wan_queue_us_p99"}) {
      report->NotApplicable(name, "us", "no WAN in this workload");
    }
  }
  // attest.
  if (t.verifies > 0) {
    report->Add("attest.quotes_per_verify",
                static_cast<double>(t.quotes_issued) /
                    static_cast<double>(t.verifies),
                "count", udc::StrFormat("over %lld verifies",
                                        static_cast<long long>(t.verifies)));
  } else {
    report->NotApplicable("attest.quotes_per_verify", "count",
                          "no verifies in this workload");
  }
  per_deploy("attest.image_quotes_minted", c.image_quotes_minted);
  // aspects.
  report->Quantile("aspects.parse_us_p50", t.parse_us, 0.5, "us",
                   "host probe");
  // sim.
  report->Quantile("sim.drain_us_p50", t.drain_us, 0.5, "us", "host");
  per_deploy("sim.events_per_deploy", c.events);
  // hw.
  report->Add("hw.cpu_util", phase.cpu_util, "ratio",
              "CPU pool allocated over capacity");
  // obs.
  per_deploy("obs.spans_per_deploy", phase.spans);
  report->Add("obs.spans_dropped", 0, "count", "checked after every block");
  per_deploy("obs.recorder_records_per_deploy", c.recorder_records);
}

// `scale_at_start` is the probe taken just before `process_start`.
int Run(const Options& options, HostProbe& probe, double scale_at_start,
        Clock::time_point process_start) {
  const Sizes sizes = SizesFor(options.workload, options.tiny);
  std::vector<std::string> errors;
  std::printf("udcbench %s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " (tiny)" : "");
  std::printf("context: nproc=%u build=%s racks=%d cells=%d regions=%d "
              "window=%d warmup=%d block=%d reference_deploys=%d\n",
              std::thread::hardware_concurrency(), UDCBENCH_BUILD_TYPE,
              sizes.racks, sizes.cells, sizes.regions, sizes.window,
              sizes.warmup, sizes.block, sizes.block * sizes.reference_blocks);

  Report report;
  int64_t attempted = 0;
  int64_t failed = 0;
  if (!options.trace) {
    // The first set-up, timed from process start, runs the timed phase.
    // The others follow its drain, each on a fresh cloud, so that setup_s
    // can be a median without changing what the timed phase runs on.
    std::vector<double> setup_s;
    std::unique_ptr<Workload> workload =
        SetUp(options.workload, options.seed, sizes, probe, scale_at_start,
              process_start, &setup_s, &errors);
    const Phase phase =
        RunTimed(*workload, sizes, options.seconds, probe, nullptr, &errors);
    workload->Drain(&errors);
    workload.reset();
    while (setup_s.size() < kSetups) {
      SetUpNow(options.workload, options.seed, sizes, probe, &setup_s, &errors)
          ->Drain(&errors);
    }
    ReportEndToEnd(phase, setup_s, &report);
    attempted = phase.attempted;
    failed = phase.failed;
    std::printf("fingerprint: %016llx\n",
                static_cast<unsigned long long>(phase.sim.fingerprint.value()));
  } else {
    // Both phases get half the time and a fresh cloud, so the traced one
    // must reproduce the untraced one's sim-time results exactly.
    Phase phases[2];
    LayerTimers timers;
    std::vector<double> setup_s;
    for (int traced = 0; traced < 2; ++traced) {
      std::unique_ptr<Workload> workload = SetUpNow(
          options.workload, options.seed, sizes, probe, &setup_s, &errors);
      phases[traced] = RunTimed(*workload, sizes, options.seconds / 2, probe,
                                traced == 1 ? &timers : nullptr, &errors);
      workload->Drain(&errors);
      attempted += phases[traced].attempted;
      failed += phases[traced].failed;
    }
    if (!phases[1].sim.SameAs(phases[0].sim)) {
      errors.push_back("the traced run's sim-time results differ from the "
                       "untraced run's");
    }
    ReportLayers(phases[1], timers, &report);
    const double untraced = SlowQuarter(phases[0].blocks).DeploysPerSecond();
    const double traced = SlowQuarter(phases[1].blocks).DeploysPerSecond();
    std::printf("tracing overhead: %.4f (untraced %.1f / traced %.1f "
                "deploys_per_s)\n",
                untraced / traced, untraced, traced);
    std::printf("fingerprints: untraced %016llx, traced %016llx\n",
                static_cast<unsigned long long>(
                    phases[0].sim.fingerprint.value()),
                static_cast<unsigned long long>(
                    phases[1].sim.fingerprint.value()));
  }

  errors.insert(errors.end(), report.errors().begin(), report.errors().end());
  if (failed > 0) {
    errors.push_back(udc::StrFormat("%lld timed deploys failed their checks",
                                    static_cast<long long>(failed)));
  }
  std::printf("timed deploys: %lld attempted, %lld failed\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  std::printf("checks: %s\n", errors.empty() ? "all passed" : "FAILED");
  for (const std::string& error : errors) {
    std::printf("  FAIL %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              report.json().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace udcbench

int main(int argc, char** argv) {
  udcbench::Options options;
  if (!udcbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: udcbench --workload "
                 "<fleet_churn|federation_skew|tenant_lifecycle> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny]\n");
    return 2;
  }
  // The probe is the benchmark's, not the program's: set-up starts after it.
  udcbench::HostProbe probe;
  const double scale_at_start = probe.Scale();
  const udcbench::Clock::time_point process_start = udcbench::Clock::now();
  return udcbench::Run(options, probe, scale_at_start, process_start);
}
