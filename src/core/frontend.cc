#include "src/core/frontend.h"

#include <algorithm>

#include "src/common/strings.h"

namespace udc {

namespace {

// Request payloads lead with "tenant=<id>\n"; deploy carries the udcl text
// after that line, the others carry "id=<deployment>".
bool ParseHeader(std::string_view payload, uint64_t* tenant,
                 std::string_view* rest) {
  const size_t newline = payload.find('\n');
  const std::string_view first =
      newline == std::string_view::npos ? payload : payload.substr(0, newline);
  if (!StartsWith(first, "tenant=")) {
    return false;
  }
  if (!ParseUint64(first.substr(7), tenant)) {
    return false;
  }
  *rest = newline == std::string_view::npos ? std::string_view()
                                            : payload.substr(newline + 1);
  return true;
}

bool ParseDeploymentId(std::string_view rest, uint64_t* id) {
  const std::string_view trimmed = TrimWhitespace(rest);
  if (!StartsWith(trimmed, "id=")) {
    return false;
  }
  return ParseUint64(trimmed.substr(3), id);
}

}  // namespace

CloudFrontend::CloudFrontend(UdcCloud* cloud, NodeId node)
    : cloud_(cloud), endpoint_(cloud->sim(), &cloud->fabric(), node),
      deploys_(cloud->sim()->metrics().CounterSeries("frontend.deploys")),
      deploy_latency_ms_(cloud->sim()->metrics().HistogramSeries(
          "frontend.deploy_latency_ms")),
      spec_cache_hits_(
          cloud->sim()->metrics().CounterSeries("frontend.spec_cache_hits")),
      spec_cache_misses_(cloud->sim()->metrics().CounterSeries(
          "frontend.spec_cache_misses")) {
  endpoint_.Serve("deploy", [this](const Message& m) { return HandleDeploy(m); });
  endpoint_.Serve("verify", [this](const Message& m) { return HandleVerify(m); });
  endpoint_.Serve("bill", [this](const Message& m) { return HandleBill(m); });
  endpoint_.Serve("teardown",
                  [this](const Message& m) { return HandleTeardown(m); });
}

Deployment* CloudFrontend::FindDeployment(uint64_t id) {
  const auto it = deployments_.find(id);
  return it == deployments_.end() ? nullptr : it->second.get();
}

Result<uint64_t> CloudFrontend::Admit(TenantId tenant,
                                      std::shared_ptr<const AppSpec> spec) {
  auto deployment = cloud_->Deploy(tenant, std::move(spec));
  if (!deployment.ok()) {
    return deployment.status();
  }
  const uint64_t id = next_id_++;
  // Tenant-visible deploy latency in simulated time: accepted now, usable
  // once the slowest module environment is up. Deterministic (no host
  // clock), so always on; slo.frontend.deploy_latency_p99 windows it.
  SimTime ready = cloud_->sim()->now();
  for (const auto& [module, placement] : (*deployment)->placements()) {
    ready = std::max(ready, placement.env_ready_at);
  }
  cloud_->sim()->metrics().Observe(
      deploy_latency_ms_,
      static_cast<double>((ready - cloud_->sim()->now()).millis()));
  deployments_[id] = std::move(*deployment);
  owners_[id] = tenant;
  cloud_->sim()->metrics().Increment(deploys_);
  return id;
}

Result<std::shared_ptr<const AppSpec>> CloudFrontend::LookupSpec(
    std::string_view udcl) {
  MetricsRegistry& metrics = cloud_->sim()->metrics();
  const Sha256Digest digest = Sha256::Hash(udcl);
  if (const auto it = spec_index_.find(digest); it != spec_index_.end()) {
    spec_lru_.splice(spec_lru_.begin(), spec_lru_, it->second);
    metrics.Increment(spec_cache_hits_);
    return it->second->spec;
  }
  metrics.Increment(spec_cache_misses_);
  auto parsed = ParseAppSpec(udcl);
  if (!parsed.ok()) {
    return parsed.status();
  }
  // Parsing reads nothing but the text, so a spec that placement rejects
  // stays cached like any other.
  auto spec = std::make_shared<const AppSpec>(*std::move(parsed));
  const size_t charge = std::max(udcl.size(), kSpecMinChargeBytes);
  spec_lru_.push_front(CachedSpec{digest, charge, spec});
  spec_index_.emplace(digest, spec_lru_.begin());
  spec_cache_bytes_ += charge;
  // Past the budget the least recently used specs go, even this one if its
  // text alone is larger. A deployment holding an evicted spec keeps it.
  while (spec_cache_bytes_ > kSpecCacheBytes) {
    const CachedSpec& oldest = spec_lru_.back();
    spec_cache_bytes_ -= oldest.charge;
    spec_index_.erase(oldest.digest);
    spec_lru_.pop_back();
  }
  return spec;
}

std::string CloudFrontend::HandleDeploy(const Message& msg) {
  uint64_t tenant = 0;
  std::string_view udcl;
  if (!ParseHeader(msg.payload, &tenant, &udcl)) {
    return "err:malformed request";
  }
  ScopedSpan span = cloud_->sim()->Scope(
      "frontend", "frontend.deploy",
      {{"tenant", StrFormat("%llu", static_cast<unsigned long long>(tenant))}});
  auto spec = LookupSpec(udcl);
  if (!spec.ok()) {
    span.AddLabel("error", "parse");
    return "err:" + spec.status().ToString();
  }
  span.AddLabel("app", (*spec)->graph.app_name());
  const Result<uint64_t> id = Admit(TenantId(tenant), *std::move(spec));
  if (!id.ok()) {
    span.AddLabel("error", "deploy");
    return "err:" + id.status().ToString();
  }
  return StrFormat("ok:%llu", static_cast<unsigned long long>(*id));
}

std::string_view CloudFrontend::CheckOwnedRequest(const Message& msg,
                                                  uint64_t* id) const {
  uint64_t tenant = 0;
  std::string_view rest;
  if (!ParseHeader(msg.payload, &tenant, &rest) ||
      !ParseDeploymentId(rest, id)) {
    return "err:malformed request";
  }
  const auto owner = owners_.find(*id);
  if (owner == owners_.end() || owner->second != TenantId(tenant)) {
    return "err:PERMISSION_DENIED: not your deployment";
  }
  return {};
}

std::string CloudFrontend::HandleVerify(const Message& msg) {
  uint64_t id = 0;
  if (const std::string_view error = CheckOwnedRequest(msg, &id);
      !error.empty()) {
    return std::string(error);
  }
  auto report = cloud_->Verify(FindDeployment(id));
  if (!report.ok()) {
    return "err:" + report.status().ToString();
  }
  return "ok:" + report->Table();
}

std::string CloudFrontend::HandleBill(const Message& msg) {
  uint64_t id = 0;
  if (const std::string_view error = CheckOwnedRequest(msg, &id);
      !error.empty()) {
    return std::string(error);
  }
  const Bill bill = cloud_->billing().BillToNow(*FindDeployment(id));
  return "ok:" + bill.Table();
}

std::string CloudFrontend::HandleTeardown(const Message& msg) {
  uint64_t id = 0;
  if (const std::string_view error = CheckOwnedRequest(msg, &id);
      !error.empty()) {
    return std::string(error);
  }
  deployments_.erase(id);  // destructor releases every allocation
  owners_.erase(id);
  return "ok:released";
}

TenantClient::TenantClient(Simulation* sim, Fabric* fabric, NodeId node,
                           NodeId frontend, TenantId tenant)
    : endpoint_(sim, fabric, node), frontend_(frontend), tenant_(tenant) {}

void TenantClient::Deploy(const std::string& udcl_text,
                          std::function<void(Result<std::string>)> done) {
  const std::string payload =
      StrFormat("tenant=%llu\n", static_cast<unsigned long long>(tenant_.value())) +
      udcl_text;
  endpoint_.Call(frontend_, "deploy", payload,
                 Bytes(static_cast<int64_t>(payload.size())), Bytes::KiB(1),
                 SimTime::Seconds(5), std::move(done));
}

void TenantClient::Verify(uint64_t deployment_id,
                          std::function<void(Result<std::string>)> done) {
  endpoint_.Call(frontend_, "verify",
                 StrFormat("tenant=%llu\nid=%llu",
                           static_cast<unsigned long long>(tenant_.value()),
                           static_cast<unsigned long long>(deployment_id)),
                 Bytes::B(64), Bytes::KiB(4), SimTime::Seconds(5),
                 std::move(done));
}

void TenantClient::Bill(uint64_t deployment_id,
                        std::function<void(Result<std::string>)> done) {
  endpoint_.Call(frontend_, "bill",
                 StrFormat("tenant=%llu\nid=%llu",
                           static_cast<unsigned long long>(tenant_.value()),
                           static_cast<unsigned long long>(deployment_id)),
                 Bytes::B(64), Bytes::KiB(4), SimTime::Seconds(5),
                 std::move(done));
}

void TenantClient::Teardown(uint64_t deployment_id,
                            std::function<void(Result<std::string>)> done) {
  endpoint_.Call(frontend_, "teardown",
                 StrFormat("tenant=%llu\nid=%llu",
                           static_cast<unsigned long long>(tenant_.value()),
                           static_cast<unsigned long long>(deployment_id)),
                 Bytes::B(64), Bytes::B(64), SimTime::Seconds(5),
                 std::move(done));
}

}  // namespace udc
