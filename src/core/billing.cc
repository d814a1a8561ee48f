#include "src/core/billing.h"

#include <utility>

#include "src/common/strings.h"

namespace udc {

std::string Bill::Table() const {
  std::string out = StrFormat("bill tenant=%llu window=[%s, %s]\n",
                              static_cast<unsigned long long>(tenant.value()),
                              from.ToString().c_str(), to.ToString().c_str());
  for (const BillLine& line : lines) {
    out += StrFormat("  %-40s %s\n", line.item.c_str(),
                     line.amount.ToString().c_str());
  }
  out += StrFormat("  %-40s %s\n", "TOTAL", total.ToString().c_str());
  return out;
}

BillingEngine::BillingEngine(Simulation* sim, PriceList prices,
                             BillingConfig config)
    : sim_(sim), prices_(std::move(prices)), config_(config) {}

Bill BillingEngine::BillFor(const Deployment& deployment, SimTime from,
                            SimTime to) const {
  Bill bill;
  bill.tenant = deployment.tenant();
  bill.from = from;
  bill.to = to;
  const SimTime duration = to - from;

  for (const HighLevelObject& object : deployment.objects()) {
    const ResourceVector held = deployment.ResourcesOf(object.module);
    Money line_amount = prices_.CostFor(held, duration);

    // Exclusivity surcharge for single-tenant / strong-isolation modules.
    const bool exclusive =
        object.aspects.exec.defined &&
        (object.aspects.exec.tenancy == TenancyMode::kSingleTenant ||
         object.aspects.exec.isolation >= IsolationLevel::kStrong);
    if (exclusive) {
      line_amount += Scale(line_amount, config_.exclusivity_surcharge);
    }
    // Replication surcharge beyond the first copy (the copies themselves are
    // already in `held`; the surcharge covers the provider's coordination).
    if (object.aspects.dist.replication_factor > 1) {
      line_amount += Scale(
          line_amount,
          config_.replication_surcharge *
              static_cast<double>(object.aspects.dist.replication_factor - 1));
    }
    bill.lines.push_back(BillLine{object.module_name, line_amount});
    bill.total += line_amount;
  }
  return bill;
}

Bill BillingEngine::BillToNow(const Deployment& deployment) const {
  return BillFor(deployment, deployment.deployed_at(), sim_->now());
}

Money BillingEngine::TotalRevenue(const std::vector<Bill>& bills) {
  Money total;
  for (const Bill& b : bills) {
    total += b.total;
  }
  return total;
}

}  // namespace udc
