#include "src/core/region_router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace udc {

namespace {

// Routing keys off cpu-blade headroom: every task DAG demands cpu, so the
// cpu partition tracks overall pressure. Specs dominated by another kind
// still land correctly — the home cell's rejection spills them through the
// fallback ladder.
constexpr DeviceKind kRoutingKind = DeviceKind::kCpuBlade;

// Provisions the devices of `allocation`'s slices from `first` on, for
// `deployment`'s teardown to retire, as the scheduler does for a deploy.
void ProvisionSlices(PlacementTxn& txn, Deployment* deployment,
                     const PoolAllocation& allocation, size_t first) {
  for (size_t i = first; i < allocation.slices.size(); ++i) {
    txn.Provision(allocation.slices[i].device.value());
    deployment->RecordProvisionedIdentity(allocation.slices[i].device.value());
  }
}

// Sorts `ids` by (free desc, id asc).
void SortByFree(std::vector<int>& ids, const std::vector<int64_t>& free) {
  std::sort(ids.begin(), ids.end(), [&free](int a, int b) {
    const int64_t fa = free[static_cast<size_t>(a)];
    const int64_t fb = free[static_cast<size_t>(b)];
    if (fa != fb) {
      return fa > fb;
    }
    return a < b;
  });
}

}  // namespace

RegionRouter::RegionRouter(Simulation* sim, DisaggregatedDatacenter* datacenter,
                           Fabric* fabric, EnvManager* env_manager,
                           AttestationService* attestation,
                           const PriceList* prices, SchedulerConfig config)
    : sim_(sim), datacenter_(datacenter), topology_(datacenter->topology()),
      engine_(sim, datacenter, env_manager, attestation),
      scheduler_(sim, datacenter, fabric, prices, config),
      cell_count_(topology_.cell_count()),
      region_count_(topology_.region_count()),
      record_place_latency_(config.record_place_latency),
      cross_cell_deploys_(
          sim->metrics().CounterSeries("sched.cross_cell_deploys")),
      cell_fallbacks_(sim->metrics().CounterSeries("sched.cell_fallbacks")) {
  if (record_place_latency_) {
    place_latency_us_ =
        sim->metrics().HistogramSeries("sched.place_latency_us");
  }
  for (int c = 0; c < cell_count_; ++c) {
    const std::string cell = StrFormat("%d", c);
    cell_deploys_.push_back(
        sim->metrics().CounterSeries("sched.cell_deploys", {{"cell", cell}}));
    deploy_span_sets_.push_back(sim->spans().InternLabelSet(
        {{"region", StrFormat("%d", topology_.RegionOf(c))}, {"cell", cell}}));
    if (record_place_latency_) {
      cell_place_latency_us_.push_back(sim->metrics().HistogramSeries(
          "sched.cell_place_latency_us", {{"cell", cell}}));
    }
  }
  cross_region_deploys_ =
      sim->metrics().CounterSeries("sched.cross_region_deploys");
  region_fallbacks_ = sim->metrics().CounterSeries("sched.region_fallbacks");
  for (int r = 0; r < region_count_; ++r) {
    const MetricLabels labels = {{"region", StrFormat("%d", r)}};
    region_deploys_.push_back(
        sim->metrics().CounterSeries("sched.region_deploys", labels));
    if (record_place_latency_) {
      region_place_latency_us_.push_back(sim->metrics().HistogramSeries(
          "sched.region_place_latency_us", labels));
    }
  }
}

const std::vector<int64_t>& RegionRouter::RegionFreeSummary(
    DeviceKind kind) const {
  return datacenter_->pool(kind).index().region_free();
}

const std::vector<int64_t>& RegionRouter::CellFreeSummary(
    DeviceKind kind) const {
  return datacenter_->pool(kind).index().cell_free();
}

int64_t RegionRouter::CellDeploys(int c) const {
  return sim_->metrics().value(cell_deploys_[static_cast<size_t>(c)]);
}

int64_t RegionRouter::cross_cell_deploys() const {
  return sim_->metrics().value(cross_cell_deploys_);
}

int64_t RegionRouter::cell_fallbacks() const {
  return sim_->metrics().value(cell_fallbacks_);
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
  if (region_count_ == 1) {
    return 0;  // one region: nothing to route
  }
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
  const int begin = topology_.RegionCellBegin(region);
  const int end = topology_.RegionCellEnd(region);
  if (end - begin <= 1) {
    return begin;  // one cell: no summary to consult
  }
  const std::vector<int64_t>& free = CellFreeSummary(kRoutingKind);
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
  const auto admissible = [&](int region) {
    if (region == anti_affinity) {
      return false;
    }
    return affinity < 0 || region == affinity;
  };
  const auto cells_of = [&](int region, std::vector<int>& out) {
    std::vector<int> cells;
    for (int c = topology_.RegionCellBegin(region);
         c < topology_.RegionCellEnd(region); ++c) {
      if (c != home_cell) {
        cells.push_back(c);
      }
    }
    if (cells.size() > 1) {
      SortByFree(cells, CellFreeSummary(kRoutingKind));
    }
    out.insert(out.end(), cells.begin(), cells.end());
  };

  std::vector<int> out;
  // Home region first: the home cell's siblings by free capacity.
  if (admissible(home_region)) {
    cells_of(home_region, out);
  }
  // Remote regions by (free desc, region asc), each region's cells by
  // (free desc, cell asc).
  std::vector<int> regions;
  for (int r = 0; r < region_count_; ++r) {
    if (r != home_region && admissible(r)) {
      regions.push_back(r);
    }
  }
  if (regions.size() > 1) {
    SortByFree(regions, RegionFreeSummary(kRoutingKind));
  }
  for (const int r : regions) {
    cells_of(r, out);
  }
  return out;
}

template <typename Attempt>
Result<int> RegionRouter::PlaceOnLadder(const AppSpec& spec, ModuleId module,
                                        int home_region, int home_cell,
                                        Attempt&& attempt) const {
  int affinity = -1;
  int anti_affinity = -1;
  if (region_count_ > 1) {  // one region: nothing to steer
    const AspectSet aspects = spec.AspectsFor(module);
    // An out-of-range affinity cannot be honored; any region will do.
    if (aspects.dist.region_affinity < region_count_) {
      affinity = aspects.dist.region_affinity;
    }
    anti_affinity = aspects.dist.region_anti_affinity;
  }
  const bool home_admissible =
      home_region != anti_affinity &&
      (affinity < 0 || affinity == home_region);
  Status status = OkStatus();
  if (home_admissible) {
    status = attempt(home_cell);
    if (status.ok()) {
      return home_cell;
    }
  }
  // A rejected attempt leaves the free summaries as they were, so this is
  // the ladder that would have been built before the home attempt.
  const std::vector<int> ladder =
      FallbackCells(home_region, home_cell, affinity, anti_affinity);
  if (!home_admissible && ladder.empty()) {
    return Status(InvalidArgumentError(
        "region constraints leave no admissible region"));
  }
  for (const int c : ladder) {
    status = attempt(c);
    if (status.ok()) {
      return c;
    }
  }
  return status;  // the last candidate's rejection
}

Result<PoolAllocation> RegionRouter::Reallocate(
    PlacementTxn& txn, Deployment* deployment, ModuleId module,
    DeviceKind kind, int64_t amount, AllocationConstraints constraints) {
  const int home_cell = topology_.CellOf(constraints.preferred_rack);
  PoolAllocation allocation;
  const auto attempt = [&](int c) -> Status {
    constraints.cell = c;
    UDC_ASSIGN_OR_RETURN(allocation, txn.Allocate(kind, deployment->tenant(),
                                                  amount, constraints));
    return OkStatus();
  };
  UDC_RETURN_IF_ERROR(PlaceOnLadder(deployment->spec(), module,
                                    topology_.RegionOf(home_cell), home_cell,
                                    attempt)
                          .status());
  ProvisionSlices(txn, deployment, allocation, 0);
  return allocation;
}

Status RegionRouter::ResizeAllocation(PlacementTxn& txn, Deployment* deployment,
                                      PoolAllocation& allocation,
                                      int64_t delta) {
  ResourcePool* pool = datacenter_->PoolById(allocation.pool);
  if (pool == nullptr) {
    return InternalError("allocation's pool not found");
  }
  const size_t held = allocation.slices.size();
  UDC_RETURN_IF_ERROR(txn.Resize(pool, allocation, delta));
  ProvisionSlices(txn, deployment, allocation, held);
  return OkStatus();
}

void RegionRouter::RehomeTask(PlacementTxn& txn, Deployment* deployment,
                              ModuleId module, NodeId node) {
  Placement* placement = deployment->MutablePlacementOf(module);
  placement->home = node;
  placement->rack = topology_.RackOf(node);
  ResourceUnit* unit = deployment->FindUnit(placement->unit);
  if (unit->env == nullptr) {
    return;
  }
  LaunchOptions options;
  options.kind = unit->env->kind();
  options.tenancy = unit->env->tenancy();
  options.image = placement->name;
  options.allow_warm = false;  // a repair's warm slot died with its device
  txn.StageStop(unit->env);
  unit->env = txn.Launch(deployment->tenant(), node, options, nullptr);
  // The new host's root of trust quotes the environment.
  txn.Provision(node.value());
  deployment->RecordProvisionedIdentity(node.value());
  placement->env_ready_at = unit->env->ready_at();
}

Result<std::unique_ptr<Deployment>> RegionRouter::Deploy(
    TenantId tenant, std::shared_ptr<const AppSpec> shared_spec) {
  const AppSpec& spec = *shared_spec;
  // Wall-clock placement cost, observed on every exit path into the
  // aggregate sketch and the home cell's and home region's sketches.
  // Guarded so runs without the flag never touch the host clock.
  struct LatencyScope {
    RegionRouter* router;
    int home_cell = -1;
    std::chrono::steady_clock::time_point start;
    explicit LatencyScope(RegionRouter* r) : router(r) {
      if (router->record_place_latency_) {
        start = std::chrono::steady_clock::now();
      }
    }
    ~LatencyScope() {
      if (!router->record_place_latency_) {
        return;
      }
      const auto elapsed = std::chrono::steady_clock::now() - start;
      const double us =
          std::chrono::duration<double, std::micro>(elapsed).count();
      MetricsRegistry& metrics = router->sim_->metrics();
      metrics.Observe(router->place_latency_us_, us);
      if (home_cell < 0) {
        return;
      }
      metrics.Observe(
          router->cell_place_latency_us_[static_cast<size_t>(home_cell)], us);
      metrics.Observe(router->region_place_latency_us_[static_cast<size_t>(
                          router->topology_.RegionOf(home_cell))],
                      us);
    }
  } latency_scope(this);

  UDC_RETURN_IF_ERROR(spec.graph.Validate());
  for (const auto& [module, aspects] : spec.aspects) {
    UDC_RETURN_IF_ERROR(ValidateAspects(aspects));
  }

  const int home_region = RouteRegion(spec);
  const int home_cell = RouteCellInRegion(home_region);
  latency_scope.home_cell = home_cell;

  // The deploy span is the current scope until the deploy returns, so the
  // txn span and every sched.place_* span nest under it in one trace.
  ScopedSpan span(&sim_->spans(), "sched", "sched.deploy",
                  deploy_span_sets_[static_cast<size_t>(home_cell)]);
  auto deployment = std::make_unique<Deployment>(
      tenant, std::move(shared_spec), &engine_, sim_->now());
  PlacementTxn txn = engine_.Begin("deploy");
  bool spanned_cells = false;
  bool spanned_regions = false;

  // On any failure: abort the transaction (undoing every staged
  // allocation, launch and provision across all modules and cells), then
  // abandon the partial deployment so its teardown does not double-release
  // what the abort already returned.
  const auto fail = [&](Status status) -> Status {
    txn.Abort();
    deployment->Abandon();
    return status;
  };

  // Stages one module into cell `c`. Each attempt stages into the shared
  // root txn; a rejection unwinds exactly that attempt's sub-plan (AbortTo)
  // before the next cell — earlier modules' staged sub-plans stay intact,
  // so the deploy remains one transaction even when its legs land in three
  // regions.
  const auto attempt = [&](int c, ModuleId module, bool is_data) -> Status {
    const size_t mark = txn.staged_ops();
    Status status = scheduler_.PlaceModuleInTxn(tenant, spec, module, is_data,
                                                c, deployment.get(), txn);
    if (!status.ok()) {
      txn.AbortTo(mark);
    }
    return status;
  };

  // Places one module: the home cell first whenever the module may run in
  // the home region, then — only after a rejection — the fallback ladder.
  const auto place = [&](ModuleId module, bool is_data) -> Status {
    const Result<int> cell =
        PlaceOnLadder(spec, module, home_region, home_cell,
                      [&](int c) { return attempt(c, module, is_data); });
    if (!cell.ok()) {
      return cell.status();
    }
    if (*cell != home_cell) {
      spanned_cells = true;
      sim_->metrics().Increment(cell_fallbacks_);
      if (topology_.RegionOf(*cell) != home_region) {
        spanned_regions = true;
        sim_->metrics().Increment(region_fallbacks_);
      }
    }
    return OkStatus();
  };

  // Data modules first (tasks want to land near their data), then tasks in
  // topological order so DAG-neighbour locality can chain.
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
  UDC_RETURN_IF_ERROR(txn.Commit());

  sim_->metrics().Increment(cell_deploys_[static_cast<size_t>(home_cell)]);
  sim_->metrics().Increment(region_deploys_[static_cast<size_t>(home_region)]);
  if (spanned_cells) {
    sim_->metrics().Increment(cross_cell_deploys_);
  }
  if (spanned_regions) {
    sim_->metrics().Increment(cross_region_deploys_);
  }
  UDC_LOG(Info) << "deployed " << spec.graph.app_name() << " for tenant "
                << tenant.value() << " in cell " << home_cell
                << (spanned_cells ? " (+spill)" : "");
  return deployment;
}

}  // namespace udc
