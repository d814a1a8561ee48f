// Provider frontend: the control plane as a networked service.
//
// Tenants do not link against the scheduler; they submit udcl text to the
// provider's frontend endpoint over the fabric and drive their deployments
// by id. This closes the loop on Figure 1's "cloud-managed" side: the same
// RPC plane the paper's users would see.
//
//   methods: deploy (udcl text)   -> deployment id
//            verify:<id>          -> verification table
//            bill:<id>            -> current bill table
//            teardown:<id>        -> releases everything
//
// Each udcl text is parsed once. The frontend caches the parsed spec under
// the SHA-256 of the text (content addressing, as the env store keys
// images), so a deploy of a text it has seen skips the parse, and every
// deployment of one text shares one immutable AppSpec. A text that fails to
// parse is answered and never cached. The cache is an LRU bounded by
// kSpecCacheBytes of udcl text; an evicted spec lives on in the deployments
// that hold it. A parsed spec takes 3.6x (the medical app) to 8x (a small
// catalog app) its text's bytes of heap, and at most about 42x (one "task"
// line with a one-letter name after another), so the cache holds at most
// about 5.3 MiB of specs.

#ifndef UDC_SRC_CORE_FRONTEND_H_
#define UDC_SRC_CORE_FRONTEND_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/core/udc_cloud.h"
#include "src/crypto/sha256.h"
#include "src/net/rpc.h"

namespace udc {

class CloudFrontend {
 public:
  // The spec cache holds specs of at most this many bytes of udcl text,
  // each text counted as at least kSpecMinChargeBytes.
  static constexpr size_t kSpecCacheBytes = size_t{128} << 10;
  // About the heap of the smallest spec plus its cache entry, so a flood of
  // tiny texts cannot hold more specs than the budget has room for.
  static constexpr size_t kSpecMinChargeBytes = 1024;

  // Binds the service to `node` on the cloud's fabric.
  CloudFrontend(UdcCloud* cloud, NodeId node);

  NodeId node() const { return endpoint_.node(); }
  size_t live_deployments() const { return deployments_.size(); }
  size_t cached_specs() const { return spec_index_.size(); }

  Deployment* FindDeployment(uint64_t id);

 private:
  // A parsed spec in the cache, with its text's digest and budget charge.
  struct CachedSpec {
    Sha256Digest digest;
    size_t charge = 0;
    std::shared_ptr<const AppSpec> spec;
  };

  // The spec `udcl` parses into: the cached one when a text with the same
  // SHA-256 was parsed before, else a fresh parse, cached if it parsed.
  // Counts frontend.spec_cache_hits or frontend.spec_cache_misses.
  Result<std::shared_ptr<const AppSpec>> LookupSpec(std::string_view udcl);
  // Deploys `spec` and admits the deployment: assigns its id, records the
  // owner, observes frontend.deploy_latency_ms and counts frontend.deploys.
  Result<uint64_t> Admit(TenantId tenant, std::shared_ptr<const AppSpec> spec);
  // The check verify, bill and teardown share: parses "tenant=<t>\nid=<d>"
  // into `*id` and checks that tenant t owns deployment d. Returns the error
  // response to send, or an empty view when the request may proceed.
  std::string_view CheckOwnedRequest(const Message& msg, uint64_t* id) const;
  std::string HandleDeploy(const Message& msg);
  std::string HandleVerify(const Message& msg);
  std::string HandleBill(const Message& msg);
  std::string HandleTeardown(const Message& msg);

  UdcCloud* cloud_;
  RpcEndpoint endpoint_;
  CounterHandle deploys_;
  HistogramHandle deploy_latency_ms_;
  CounterHandle spec_cache_hits_;
  CounterHandle spec_cache_misses_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Deployment>> deployments_;
  std::map<uint64_t, TenantId> owners_;
  // Most recently used first; spec_index_ finds an entry by its digest.
  std::list<CachedSpec> spec_lru_;
  std::unordered_map<Sha256Digest, std::list<CachedSpec>::iterator,
                     Sha256DigestHash>
      spec_index_;
  size_t spec_cache_bytes_ = 0;  // the cached specs' charges
};

// Tenant-side client: wraps the RPC calls.
class TenantClient {
 public:
  TenantClient(Simulation* sim, Fabric* fabric, NodeId node, NodeId frontend,
               TenantId tenant);

  // Submits a spec; `done` receives "ok:<deployment-id>" or "err:<message>".
  void Deploy(const std::string& udcl_text,
              std::function<void(Result<std::string>)> done);
  void Verify(uint64_t deployment_id,
              std::function<void(Result<std::string>)> done);
  void Bill(uint64_t deployment_id,
            std::function<void(Result<std::string>)> done);
  void Teardown(uint64_t deployment_id,
                std::function<void(Result<std::string>)> done);

 private:
  RpcEndpoint endpoint_;
  NodeId frontend_;
  TenantId tenant_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_FRONTEND_H_
