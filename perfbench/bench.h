// Shared pieces of the control-plane benchmark (see README.md): the sizes
// of each workload, the per-deploy and per-phase records main.cc
// aggregates, the layer timers of the traced run, and the interface the
// three workloads implement.
//
// Two clocks meet here. Host time (steady_clock) measures the
// implementation and varies run to run; sim time (the simulator's clock)
// measures the modelled cloud and must repeat exactly for a seed. Sim-time
// results and the determinism fingerprint are collected only over the
// reference segment — a fixed number of deploys at the start of the timed
// phase — so they do not depend on how many deploys fit into the run.

#ifndef UDC_PERFBENCH_BENCH_H_
#define UDC_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/core/udc_cloud.h"

namespace udcbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Shape of one workload run. Everything is counted in deploys.
struct Sizes {
  int racks = 0;
  int cells = 0;
  int regions = 0;
  int window = 0;            // live deployments kept before eviction
  int warmup = 0;            // untimed deploys before the clock starts
  int block = 0;             // deploys per timed block; spans clear between
  int reference_blocks = 0;  // blocks whose sim-time results must repeat
};

// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void Mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

// Sim-time results of the reference segment. Equal for equal seeds, on
// every host and with tracing on or off.
struct SimStats {
  int64_t attempted = 0;
  int64_t rejected = 0;
  udc::Histogram start_ms;   // per admitted deploy: slowest env ready - now
  udc::Histogram invoke_ms;  // per invocation: RunReport::end_to_end
  double usd_sum = 0;        // one-hour bills of admitted apps
  int64_t usd_count = 0;
  int64_t wan_bytes = 0;     // WAN bytes sent during the segment
  Fingerprint fingerprint;   // admit/reject, module racks and start modes

  bool SameAs(const SimStats& other) const;
};

// Outcome of one deploy and all the per-deploy work that goes with it.
struct DeployResult {
  bool admitted = false;
  bool as_expected = true;  // false: an outcome or a check the run rejects
  double deploy_us = 0;     // submit until return and drain (host)
};

// Host-time samples of the traced run, one histogram per call the
// benchmark makes into a layer (microseconds).
struct LayerTimers {
  udc::Histogram deploy_us;      // core: routing + scheduling
  udc::Histogram drain_us;       // sim: RunToCompletion after a deploy
  udc::Histogram teardown_us;    // core: destroying one evicted deployment
  udc::Histogram stop_us;        // exec: EnvManager::Stop
  udc::Histogram invoke_us;      // core: DagRuntime::RunOnce
  udc::Histogram verify_us;      // core: verify RPC round trip
  udc::Histogram bill_us;        // core: bill RPC round trip
  udc::Histogram parse_us;       // aspects: ParseAppSpec probe
  udc::Histogram next_start_us;  // exec: NextStartLatency probe
  int64_t verifies = 0;
  uint64_t quotes_issued = 0;    // attest: quotes minted by verifies
  // Probe time is not workload time; RunTimed takes it out of the block
  // clock.
  double probe_us = 0;
};

// Times one call when a sink is given; reads no clock otherwise, so the
// untraced run pays nothing for the traced run's timers.
class LayerTimer {
 public:
  explicit LayerTimer(udc::Histogram* sink)
      : sink_(sink),
        start_(sink != nullptr ? Clock::now() : Clock::time_point()) {}
  ~LayerTimer() {
    if (sink_ != nullptr) {
      sink_->Add(MicrosSince(start_));
    }
  }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  udc::Histogram* sink_;
  Clock::time_point start_;
};

// Public counters of the layers, read between blocks.
struct Counters {
  int64_t txn_committed = 0;
  int64_t txn_aborted = 0;
  int64_t txn_ops_staged = 0;
  int64_t txn_ops_undone = 0;
  int64_t cell_fallbacks = 0;
  int64_t cross_cell_deploys = 0;
  int64_t region_fallbacks = 0;
  int64_t cross_region_deploys = 0;
  int64_t warm_starts = 0;
  int64_t tepid_starts = 0;
  int64_t remote_starts = 0;
  int64_t cold_starts = 0;
  int64_t launches_cancelled = 0;
  int64_t evictions = 0;
  int64_t messages_delivered = 0;
  int64_t wan_messages_sent = 0;
  int64_t wan_bytes_sent = 0;
  int64_t image_quotes_minted = 0;
  int64_t events = 0;
  int64_t recorder_records = 0;

  static Counters Read(udc::UdcCloud& cloud);
  Counters operator-(const Counters& base) const;
};

// One workload: a cloud plus the tenants driving it. Construction generates
// the inputs from the seed and builds the cloud; Step runs deploy number
// `index` with all of its per-deploy work.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual udc::UdcCloud& cloud() = 0;
  // `sim` receives the deploy's sim-time results; `timers` is null in the
  // untraced run.
  virtual DeployResult Step(int64_t index, SimStats* sim,
                            LayerTimers* timers) = 0;
  // Tears down every live deployment, drains the simulation, and appends a
  // message to `errors` for each leak found.
  virtual void Drain(std::vector<std::string>* errors) = 0;
};

// The three workloads. `name` is fleet_churn, federation_skew or
// tenant_lifecycle.
bool KnownWorkload(const std::string& name);
Sizes SizesFor(const std::string& name, bool tiny);
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const Sizes& sizes);

std::unique_ptr<Workload> MakeChurnWorkload(uint64_t seed, const Sizes& sizes,
                                            bool federated);
std::unique_ptr<Workload> MakeLifecycleWorkload(uint64_t seed,
                                                const Sizes& sizes);

// --- Helpers shared by the workloads.

[[noreturn]] void Die(const std::string& message);
// splitmix64: a seed-stable hash for per-deploy choices.
uint64_t Mix64(uint64_t x);
// The microservice apps every workload deploys, made by the program's own
// generator (GenerateMicroserviceApp, which sets each service's isolation
// by its role). Every (chain length, fan-out, backend) shape appears once,
// so the seed changes the apps' contents but not the mix of shapes.
std::vector<udc::AppSpec> MicroserviceCatalog(udc::Rng& rng);
// Builds a workload's cloud. This is the one place the benchmark configures
// the program, and it sets only public knobs later changes keep: the seed,
// the rack/cell/region partition, the env store switch and, with regions,
// the WAN link matrix.
std::unique_ptr<udc::UdcCloud> MakeCloud(uint64_t seed, const Sizes& sizes,
                                         bool env_store);
// Sim time from admission until the slowest module environment of
// `deployment` is ready, in milliseconds.
double StartMillis(const udc::Deployment& deployment);
// Mixes admission and, when admitted, each module's rack and start mode.
void MixDeploy(Fingerprint* fingerprint, const udc::Deployment* deployment);
// Times NextStartLatency for every task module of a live deployment on its
// home node (read-only probe).
void ProbeNextStart(udc::UdcCloud& cloud, const udc::Deployment& deployment,
                    LayerTimers* timers);
// After the final drain the cloud must hold nothing: no allocated pool
// capacity, no live environment, no provisioned attestation identity and,
// with the store on, no live store reference.
void CheckDrained(udc::UdcCloud& cloud, const std::string& label,
                  std::vector<std::string>* errors);

}  // namespace udcbench

#endif  // UDC_PERFBENCH_BENCH_H_
