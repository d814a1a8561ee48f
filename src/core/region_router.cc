#include "src/core/region_router.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace udc {

namespace {

// Same routing key as CellRouter: cpu-blade headroom tracks overall
// pressure; specs dominated by another kind spill through the fallbacks.
constexpr DeviceKind kRoutingKind = DeviceKind::kCpuBlade;

}  // namespace

RegionRouter::RegionRouter(Simulation* sim, DisaggregatedDatacenter* datacenter,
                           Fabric* fabric, EnvManager* env_manager,
                           AttestationService* attestation,
                           const PriceList* prices, SchedulerConfig base)
    : sim_(sim), datacenter_(datacenter),
      engine_(sim, datacenter, env_manager, attestation),
      region_count_(datacenter->topology().region_count()),
      record_place_latency_(base.record_place_latency),
      cross_region_deploys_(
          sim->metrics().CounterSeries("sched.cross_region_deploys")),
      region_fallbacks_(
          sim->metrics().CounterSeries("sched.region_fallbacks")) {
  const Topology& topology = datacenter->topology();
  const int cells = topology.cell_count();
  assert(region_count_ > 0 && "RegionRouter requires a regioned topology");
  assert(cells > 0 && "RegionRouter requires a cell-partitioned topology");
  cells_.reserve(static_cast<size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    SchedulerConfig config = base;
    config.cell = c;
    // The cell schedulers never open their own deploy transactions (the
    // router's engine owns those); routed latency is recorded here.
    config.record_place_latency = false;
    cells_.push_back(std::make_unique<UdcScheduler>(
        sim, datacenter, fabric, env_manager, attestation, prices, config));
  }
  region_deploys_.reserve(static_cast<size_t>(region_count_));
  region_span_sets_.reserve(static_cast<size_t>(region_count_));
  if (record_place_latency_) {
    place_latency_us_ =
        sim->metrics().EnableSketchHistogram("sched.region_place_latency_us");
    region_place_latency_us_.reserve(static_cast<size_t>(region_count_));
  }
  for (int r = 0; r < region_count_; ++r) {
    const MetricLabels labels = {{"region", StrFormat("%d", r)}};
    region_deploys_.push_back(
        sim->metrics().CounterSeries("sched.region_deploys", labels));
    region_span_sets_.push_back(
        sim->spans().InternLabelSet({{"region", StrFormat("%d", r)}}));
    if (record_place_latency_) {
      region_place_latency_us_.push_back(sim->metrics().EnableSketchHistogram(
          "sched.region_place_latency_us", labels));
    }
  }
}

void RegionRouter::SetSequencer(SwitchSequencer* sequencer) {
  for (auto& cell : cells_) {
    cell->SetSequencer(sequencer);
  }
}

const std::vector<int64_t>& RegionRouter::RegionFreeSummary(
    DeviceKind kind) const {
  return datacenter_->pool(kind)
      .PlacementIndex(datacenter_->topology())
      .region_free();
}

const std::vector<int64_t>& RegionRouter::CellFreeSummary(
    DeviceKind kind) const {
  return datacenter_->pool(kind)
      .PlacementIndex(datacenter_->topology())
      .cell_free();
}

int64_t RegionRouter::RegionDeploys(int r) const {
  return sim_->metrics().value(region_deploys_[static_cast<size_t>(r)]);
}

int64_t RegionRouter::cross_region_deploys() const {
  return sim_->metrics().value(cross_region_deploys_);
}

int64_t RegionRouter::region_fallbacks() const {
  return sim_->metrics().value(region_fallbacks_);
}

int RegionRouter::RouteRegion(const AppSpec& spec) const {
  // A declared affinity pins the home region (data sovereignty beats load
  // spreading); the first module in declaration order with one wins.
  for (const ModuleId module : spec.graph.ModuleIds()) {
    const auto it = spec.aspects.find(module);
    const int r = it == spec.aspects.end() ? -1
                                           : it->second.dist.region_affinity;
    if (r >= 0 && r < region_count_) {
      return r;
    }
  }
  const std::vector<int64_t>& free = RegionFreeSummary(kRoutingKind);
  int best = 0;
  for (size_t r = 1; r < free.size(); ++r) {
    if (free[r] > free[static_cast<size_t>(best)]) {
      best = static_cast<int>(r);
    }
  }
  return best;
}

int RegionRouter::RouteCellInRegion(int region) const {
  const Topology& topology = datacenter_->topology();
  const std::vector<int64_t>& free = CellFreeSummary(kRoutingKind);
  const int begin = topology.RegionCellBegin(region);
  const int end = topology.RegionCellEnd(region);
  int best = begin;
  for (int c = begin + 1; c < end; ++c) {
    if (static_cast<size_t>(c) < free.size() &&
        free[static_cast<size_t>(c)] > free[static_cast<size_t>(best)]) {
      best = c;
    }
  }
  return best;
}

std::vector<int> RegionRouter::FallbackCells(int home_region, int home_cell,
                                             int affinity,
                                             int anti_affinity) const {
  const Topology& topology = datacenter_->topology();
  const std::vector<int64_t>& cell_free = CellFreeSummary(kRoutingKind);
  const std::vector<int64_t>& region_free = RegionFreeSummary(kRoutingKind);

  const auto cell_order = [&](std::vector<int>& cells) {
    std::sort(cells.begin(), cells.end(), [&](int a, int b) {
      const int64_t fa = cell_free[static_cast<size_t>(a)];
      const int64_t fb = cell_free[static_cast<size_t>(b)];
      if (fa != fb) {
        return fa > fb;
      }
      return a < b;
    });
  };
  const auto admissible = [&](int region) {
    if (region == anti_affinity) {
      return false;
    }
    return affinity < 0 || region == affinity;
  };

  std::vector<int> out;
  out.reserve(static_cast<size_t>(topology.cell_count()));
  // Home region first: the home cell's siblings by free capacity.
  if (admissible(home_region)) {
    for (int c = topology.RegionCellBegin(home_region);
         c < topology.RegionCellEnd(home_region); ++c) {
      if (c != home_cell) {
        out.push_back(c);
      }
    }
    cell_order(out);
  }
  // Remote regions by (free desc, region asc), each region's cells by
  // (free desc, cell asc).
  std::vector<int> regions;
  for (int r = 0; r < region_count_; ++r) {
    if (r != home_region && admissible(r)) {
      regions.push_back(r);
    }
  }
  std::sort(regions.begin(), regions.end(), [&](int a, int b) {
    const int64_t fa = region_free[static_cast<size_t>(a)];
    const int64_t fb = region_free[static_cast<size_t>(b)];
    if (fa != fb) {
      return fa > fb;
    }
    return a < b;
  });
  for (const int r : regions) {
    std::vector<int> cells;
    for (int c = topology.RegionCellBegin(r); c < topology.RegionCellEnd(r);
         ++c) {
      cells.push_back(c);
    }
    cell_order(cells);
    out.insert(out.end(), cells.begin(), cells.end());
  }
  return out;
}

Result<std::unique_ptr<Deployment>> RegionRouter::Deploy(TenantId tenant,
                                                         const AppSpec& spec) {
  return DeployOneRouted(tenant, std::make_shared<const AppSpec>(spec),
                         /*batch=*/nullptr);
}

Result<std::unique_ptr<Deployment>> RegionRouter::Deploy(
    TenantId tenant, std::shared_ptr<const AppSpec> spec) {
  return DeployOneRouted(tenant, std::move(spec), /*batch=*/nullptr);
}

std::vector<Result<std::unique_ptr<Deployment>>> RegionRouter::DeployAll(
    TenantId tenant, const std::vector<const AppSpec*>& specs) {
  ScopedSpan span = sim_->Scope(
      "sched", "sched.deploy_batch",
      {{"specs", StrFormat("%zu", specs.size())},
       {"tenant", StrFormat("%llu",
                            static_cast<unsigned long long>(tenant.value()))}});
  UdcScheduler::BatchContext batch;
  std::vector<Result<std::unique_ptr<Deployment>>> results;
  results.reserve(specs.size());
  for (const AppSpec* spec : specs) {
    results.push_back(
        DeployOneRouted(tenant, std::make_shared<const AppSpec>(*spec),
                        &batch));
  }
  return results;
}

Result<std::unique_ptr<Deployment>> RegionRouter::DeployOneRouted(
    TenantId tenant, std::shared_ptr<const AppSpec> shared_spec,
    UdcScheduler::BatchContext* batch) {
  const AppSpec& spec = *shared_spec;
  // Wall-clock routed-placement cost, observed on every exit path into the
  // aggregate and home-region sketches (slo.sched.region_place_p99's
  // source). Guarded like CellRouter's latency scope.
  struct LatencyScope {
    RegionRouter* router;
    int home = -1;
    std::chrono::steady_clock::time_point start;
    explicit LatencyScope(RegionRouter* r) : router(r) {
      if (router->record_place_latency_) {
        start = std::chrono::steady_clock::now();
      }
    }
    ~LatencyScope() {
      if (router->record_place_latency_) {
        const auto elapsed = std::chrono::steady_clock::now() - start;
        const double us =
            std::chrono::duration<double, std::micro>(elapsed).count();
        router->sim_->metrics().Observe(router->place_latency_us_, us);
        if (home >= 0) {
          router->sim_->metrics().Observe(
              router->region_place_latency_us_[static_cast<size_t>(home)], us);
        }
      }
    }
  } latency_scope(this);

  UDC_RETURN_IF_ERROR(spec.graph.Validate());
  for (const auto& [module, aspects] : spec.aspects) {
    UDC_RETURN_IF_ERROR(ValidateAspects(aspects));
  }

  const Topology& topology = datacenter_->topology();
  const int home_region = RouteRegion(spec);
  const int home_cell = RouteCellInRegion(home_region);
  latency_scope.home = home_region;

  uint64_t span_id = 0;
  if (batch == nullptr) {
    span_id = sim_->spans().BeginWithSet(
        "sched", "sched.deploy",
        region_span_sets_[static_cast<size_t>(home_region)]);
  }
  auto deployment = std::make_unique<Deployment>(
      tenant, std::move(shared_spec), datacenter_, sim_->now(),
      engine_.env_manager(), engine_.attestation());
  PlacementTxn txn = engine_.Begin("deploy");
  bool spanned_regions = false;

  const auto fail = [&](Status status) -> Status {
    txn.Abort();
    deployment->Abandon();
    if (batch != nullptr) {
      batch->free_by_rack_valid.fill(false);
    }
    if (span_id != 0) {
      sim_->spans().End(span_id);
    }
    return status;
  };

  // Stages one module into cell `c`. Each attempt stages into the shared
  // root txn; a rejection unwinds exactly that attempt's sub-plan (AbortTo)
  // before the next cell — earlier modules' staged sub-plans stay intact,
  // so the deploy remains one transaction even when its legs land in three
  // regions.
  const auto attempt = [&](int c, ModuleId module, bool is_data) -> Status {
    const size_t mark = txn.staged_ops();
    Status status = cells_[static_cast<size_t>(c)]->PlaceModuleInTxn(
        tenant, spec, module, is_data, deployment.get(), txn, batch);
    if (!status.ok()) {
      txn.AbortTo(mark);
      if (batch != nullptr) {
        // The failed attempt's cached rack debits were just undone.
        batch->free_by_rack_valid.fill(false);
      }
    }
    return status;
  };

  // Places one module: the home cell first whenever the module may run in
  // the home region, then — only after a rejection — the fallback ladder.
  // AbortTo restores the free summaries exactly, so the ladder built after
  // the home attempt is the one that would have been built before it.
  const auto place = [&](ModuleId module, bool is_data) -> Status {
    const AspectSet aspects = spec.AspectsFor(module);
    int affinity = aspects.dist.region_affinity;
    if (affinity >= region_count_) {
      affinity = -1;  // out-of-range affinity cannot be honored; any region
    }
    const int anti_affinity = aspects.dist.region_anti_affinity;
    const bool home_admissible =
        home_region != anti_affinity &&
        (affinity < 0 || affinity == home_region);
    Status status = OkStatus();
    if (home_admissible) {
      status = attempt(home_cell, module, is_data);
      if (status.ok()) {
        return status;
      }
    }
    const std::vector<int> ladder =
        FallbackCells(home_region, home_cell, affinity, anti_affinity);
    if (!home_admissible && ladder.empty()) {
      return InvalidArgumentError(
          "region constraints leave no admissible region");
    }
    for (const int c : ladder) {
      status = attempt(c, module, is_data);
      if (status.ok()) {
        if (topology.RegionOf(c) != home_region) {
          spanned_regions = true;
          sim_->metrics().Increment(region_fallbacks_);
        }
        return status;
      }
    }
    return status;  // the last candidate's rejection
  };

  // Same admission order as UdcScheduler::DeployOne and CellRouter: data
  // modules first, then tasks topologically.
  for (const ModuleId data : spec.graph.DataIds()) {
    Status status = place(data, /*is_data=*/true);
    if (!status.ok()) {
      return fail(std::move(status));
    }
  }
  const auto topo = spec.graph.TopoOrder();
  if (!topo.ok()) {
    return fail(topo.status());
  }
  for (const ModuleId task : *topo) {
    Status status = place(task, /*is_data=*/false);
    if (!status.ok()) {
      return fail(std::move(status));
    }
  }
  const Status committed = txn.Commit();
  if (!committed.ok()) {
    if (span_id != 0) {
      sim_->spans().End(span_id);
    }
    return committed;
  }

  sim_->metrics().Increment(region_deploys_[static_cast<size_t>(home_region)]);
  if (spanned_regions) {
    sim_->metrics().Increment(cross_region_deploys_);
  }
  if (span_id != 0) {
    sim_->spans().End(span_id);
  }
  UDC_LOG(Info) << "deployed " << spec.graph.app_name() << " for tenant "
                << tenant.value() << " in region " << home_region << " cell "
                << home_cell << (spanned_regions ? " (+remote leg)" : "");
  return deployment;
}

}  // namespace udc
