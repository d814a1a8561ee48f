// Message fabric over the datacenter topology.
//
// Disaggregated devices are "network-attached"; every interaction between
// modules, devices and the control plane is a message on this fabric. The
// fabric charges propagation + serialization time from the Topology model,
// counts messages/bytes in the telemetry registry, and delivers to handlers
// registered per node.
//
// Send is on the simulator's hottest path, so it is built around three
// pools (DESIGN.md §6 "Simulation kernel"):
//   * Message objects are recycled across deliveries — the strings keep
//     their capacity, so a warm fabric sends without allocating.
//   * `type` strings are interned to small ids the first time each distinct
//     type is seen; the per-message span reuses the interned label set
//     instead of building a fresh label vector. Handlers still see the full
//     string via Message::type. Unbounded type families (sequencer seqnos
//     bake the sequence number into the type) stop interning past a cap and
//     take the uninterned path.
//   * The delivery closure captures 24 bytes, well inside InlineCallback's
//     inline buffer — no std::function, no heap.

#ifndef UDC_SRC_NET_FABRIC_H_
#define UDC_SRC_NET_FABRIC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/units.h"
#include "src/hw/topology.h"
#include "src/sim/simulation.h"

namespace udc {

struct Message {
  MessageId id;
  NodeId from;
  NodeId to;
  std::string type;        // e.g. "rpc.req", "repl.prepare", "seq.mcast"
  std::string payload;     // opaque; logical content
  Bytes size;              // wire size used for timing (>= payload size)
  SimTime sent_at;
  SimTime delivered_at;
  // Interned id for `type` (Fabric::InternType); 0 = uninterned.
  uint32_t type_id = 0;
  // Protocol scratch words carried verbatim to the handler, so protocols
  // (RPC call ids, response sizes) need not encode integers into the type
  // string and parse them back out per message.
  uint64_t tag = 0;
  int64_t tag2 = 0;
};

// One directed WAN link between two regions. Latency is one-way
// propagation; bandwidth is the serialization rate for bulk payloads.
// Asymmetric routes (cheap east->west, slow west->east) are expressed by
// giving the two directions different params.
struct WanLinkParams {
  SimTime latency = SimTime::Millis(30);
  double bw_mbps = 1250.0;  // 10 Gbit/s in MiB/s
};

class Fabric {
 public:
  using Handler = std::function<void(const Message&)>;

  Fabric(Simulation* sim, const Topology* topology);

  // --- WAN link model (region federation) ------------------------------
  //
  // ConfigureWan arms the cross-region path: sends whose endpoints live in
  // different topology regions pay a WAN delay on top of the intra-DC
  // transfer time. Intra-region sends are byte-for-byte unchanged — the
  // WAN branch is a single integer compare when unconfigured.
  void ConfigureWan(const WanLinkParams& default_link);
  // Overrides one directed link; ConfigureWan must have run first.
  void SetWanLink(int src_region, int dst_region, const WanLinkParams& link);
  bool wan_configured() const { return wan_regions_ > 0; }
  const WanLinkParams& WanLink(int src_region, int dst_region) const;

  // One-way completion time for `size` bytes over the directed WAN link,
  // with deterministic FIFO bandwidth sharing: concurrent bulk transfers on
  // the same directed link serialize behind each other, so the k-th
  // simultaneous transfer sees k times the serialization delay. Advances
  // the link's busy-horizon. Returns queue wait + serialization +
  // propagation.
  SimTime WanTransferTime(int src_region, int dst_region, Bytes size);
  // The uncongested price of the same transfer — serialization +
  // propagation with no queueing, no byte accounting, no link mutation.
  // Planner/Peek paths use this so previews stay pure.
  SimTime WanPrice(int src_region, int dst_region, Bytes size) const;

  // Per-region WAN byte accounting (for udcctl regions and benches).
  int64_t wan_bytes_out(int region) const;
  int64_t wan_bytes_in(int region) const;
  uint64_t wan_messages_sent() const { return wan_messages_sent_; }
  int64_t wan_bytes_sent() const { return wan_bytes_sent_; }

  // Registers the message handler for `node`; replaces any previous one.
  void Bind(NodeId node, Handler handler);
  void Unbind(NodeId node);

  // Marks a node unreachable (failed device); messages to it are dropped.
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;

  // Sends one message; delivery is scheduled after the transfer time.
  // Returns the assigned message id. Messages to down or unbound nodes are
  // silently dropped (and counted), like a real lossy fabric. `tag`/`tag2`
  // ride to the handler in Message::tag/tag2. The Message a handler
  // receives is pooled: references into it are valid only for the duration
  // of the handler call.
  MessageId Send(NodeId from, NodeId to, std::string_view type,
                 std::string payload, Bytes size, uint64_t tag = 0,
                 int64_t tag2 = 0);

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  int64_t bytes_sent() const { return bytes_sent_; }

  // Introspection for tests/benches.
  size_t down_node_count() const { return down_.size(); }
  size_t interned_type_count() const { return types_.size(); }
  size_t message_arena_size() const { return arena_.size(); }
  size_t message_pool_size() const { return free_messages_.size(); }

 private:
  struct TypeInfo {
    std::string name;
    uint32_t span_label_set = 0;  // SpanTracer::InternLabelSet handle
  };

  struct WanLinkState {
    WanLinkParams params;
    // FIFO busy-horizon: the sim time at which the directed link's last
    // queued transfer finishes serializing.
    SimTime busy_until;
  };

  // Extra delay a cross-region send pays (FIFO-queued on the directed
  // link), or zero for intra-region / unconfigured sends.
  SimTime WanExtraDelay(NodeId from, NodeId to, Bytes size);

  // Returns the interned id for `type` (creating one if the table is not
  // full), or 0 when the type must stay uninterned.
  uint32_t InternType(std::string_view type);
  Message* AcquireMessage();
  void ReleaseMessage(Message* msg);
  void Deliver(Message* msg, uint64_t span);

  // Distinct interned types are expected to be protocol constants (a few
  // dozen); the cap keeps adversarial/unbounded type families (per-seqno
  // multicast types) from growing the table without bound.
  static constexpr size_t kMaxInternedTypes = 256;

  Simulation* sim_;
  const Topology* topology_;
  IdGenerator<MessageId> message_ids_;
  std::unordered_map<NodeId, Handler> handlers_;
  std::unordered_map<NodeId, bool> down_;
  // Message pool: the deque owns every Message ever created (stable
  // addresses); free_messages_ holds the ones awaiting reuse. In steady
  // state the arena stops growing at the max number of in-flight messages.
  std::deque<Message> arena_;
  std::vector<Message*> free_messages_;
  // Type interning table; ids are 1-based indexes into types_.
  std::deque<TypeInfo> types_;
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      type_index_;
  // Interned metric series: the fabric counts every message, so the hot
  // path bumps pre-resolved handles.
  CounterHandle messages_sent_metric_;
  CounterHandle bytes_sent_metric_;
  CounterHandle messages_delivered_metric_;
  CounterHandle messages_dropped_metric_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
  int64_t bytes_sent_ = 0;
  // WAN link model; sized regions^2 when configured (regions is small —
  // single digits — so the dense matrix is cheap and O(1) to index).
  int wan_regions_ = 0;
  std::vector<WanLinkState> wan_links_;
  std::vector<int64_t> wan_bytes_out_;  // per src region
  std::vector<int64_t> wan_bytes_in_;   // per dst region
  CounterHandle wan_messages_metric_;
  CounterHandle wan_bytes_metric_;
  HistogramHandle wan_queue_metric_;
  uint64_t wan_messages_sent_ = 0;
  int64_t wan_bytes_sent_ = 0;
};

}  // namespace udc

#endif  // UDC_SRC_NET_FABRIC_H_
