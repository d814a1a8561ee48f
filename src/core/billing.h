// Usage-based billing (paper sec. 2 and 4: users "obtain and pay only for
// the resources and features they need"; the provider "can increase the unit
// price ... that still offers users a lower total cost than today's cloud").
//
// The engine meters each deployment's held resources over time and prices
// them with the provider's (possibly multiplied) unit price list. Premium
// features — single-tenant exclusivity and replication — are surcharged,
// since dedicating hardware has real provider cost.

#ifndef UDC_SRC_CORE_BILLING_H_
#define UDC_SRC_CORE_BILLING_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/deployment.h"
#include "src/sim/simulation.h"

namespace udc {

struct BillLine {
  std::string item;
  Money amount;
};

struct Bill {
  TenantId tenant;
  SimTime from;
  SimTime to;
  std::vector<BillLine> lines;
  Money total;

  std::string Table() const;
};

struct BillingConfig {
  // Surcharge factor applied to resources held with exclusive tenancy.
  double exclusivity_surcharge = 0.25;
  // Flat per-replica-GiB-hour factor relative to the medium's base price.
  double replication_surcharge = 0.10;
};

class BillingEngine {
 public:
  BillingEngine(Simulation* sim, PriceList prices,
                BillingConfig config = BillingConfig());

  // Prices everything `deployment` holds for the window [from, to].
  Bill BillFor(const Deployment& deployment, SimTime from, SimTime to) const;

  // Convenience: bill from deployment time to now.
  Bill BillToNow(const Deployment& deployment) const;

  // Provider-side revenue for a set of bills.
  static Money TotalRevenue(const std::vector<Bill>& bills);

 private:
  Simulation* sim_;
  PriceList prices_;
  BillingConfig config_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_BILLING_H_
