// Provider frontend: the control plane as a networked service.
//
// Tenants do not link against the scheduler; they submit udcl text to the
// provider's frontend endpoint over the fabric and drive their deployments
// by id. This closes the loop on Figure 1's "cloud-managed" side: the same
// RPC plane the paper's users would see.
//
//   methods: deploy (udcl text)        -> deployment id
//            deploy_batch (udcl texts) -> deployment ids, positional (one
//                                         RPC; each distinct text parsed
//                                         once, each spec its own deploy)
//            verify:<id>               -> verification table
//            bill:<id>                 -> current bill table
//            teardown:<id>             -> releases everything

#ifndef UDC_SRC_CORE_FRONTEND_H_
#define UDC_SRC_CORE_FRONTEND_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/core/udc_cloud.h"
#include "src/net/rpc.h"

namespace udc {

class CloudFrontend {
 public:
  // Binds the service to `node` on the cloud's fabric.
  CloudFrontend(UdcCloud* cloud, NodeId node);

  NodeId node() const { return endpoint_.node(); }
  size_t live_deployments() const { return deployments_.size(); }

  Deployment* FindDeployment(uint64_t id);

 private:
  // Deploys `spec` and admits the deployment: assigns its id, records the
  // owner, observes frontend.deploy_latency_ms and counts frontend.deploys.
  // Both deploy RPCs admit through here.
  Result<uint64_t> Admit(TenantId tenant, std::shared_ptr<const AppSpec> spec);
  // The check verify, bill and teardown share: parses "tenant=<t>\nid=<d>"
  // into `*id` and checks that tenant t owns deployment d. Returns the error
  // response to send, or an empty view when the request may proceed.
  std::string_view CheckOwnedRequest(const Message& msg, uint64_t* id) const;
  std::string HandleDeploy(const Message& msg);
  std::string HandleDeployBatch(const Message& msg);
  std::string HandleVerify(const Message& msg);
  std::string HandleBill(const Message& msg);
  std::string HandleTeardown(const Message& msg);

  UdcCloud* cloud_;
  RpcEndpoint endpoint_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Deployment>> deployments_;
  std::map<uint64_t, TenantId> owners_;
};

// Tenant-side client: wraps the RPC calls.
class TenantClient {
 public:
  TenantClient(Simulation* sim, Fabric* fabric, NodeId node, NodeId frontend,
               TenantId tenant);

  // Submits a spec; `done` receives "ok:<deployment-id>" or "err:<message>".
  void Deploy(const std::string& udcl_text,
              std::function<void(Result<std::string>)> done);
  // Submits several specs in one RPC; `done` receives "ok:" followed by a
  // comma-separated token per spec, positionally: a deployment id, or "x"
  // for a spec that failed to parse or deploy.
  void DeployBatch(const std::vector<std::string>& udcl_texts,
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
