#include "src/net/fabric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace udc {

Fabric::Fabric(Simulation* sim, const Topology* topology)
    : sim_(sim), topology_(topology),
      messages_sent_metric_(sim->metrics().CounterSeries("net.messages_sent")),
      bytes_sent_metric_(sim->metrics().CounterSeries("net.bytes_sent")),
      messages_delivered_metric_(
          sim->metrics().CounterSeries("net.messages_delivered")),
      messages_dropped_metric_(
          sim->metrics().CounterSeries("net.messages_dropped")) {}

void Fabric::ConfigureWan(const WanLinkParams& default_link) {
  const int regions = topology_->region_count();
  wan_regions_ = regions;
  wan_links_.assign(static_cast<size_t>(regions) * regions,
                    WanLinkState{default_link, SimTime()});
  wan_bytes_out_.assign(regions, 0);
  wan_bytes_in_.assign(regions, 0);
  wan_messages_metric_ = sim_->metrics().CounterSeries("net.wan_messages_sent");
  wan_bytes_metric_ = sim_->metrics().CounterSeries("net.wan_bytes_sent");
  wan_queue_metric_ = sim_->metrics().HistogramSeries("net.wan_queue_us");
}

void Fabric::SetWanLink(int src_region, int dst_region,
                        const WanLinkParams& link) {
  assert(wan_regions_ > 0);
  assert(src_region >= 0 && src_region < wan_regions_);
  assert(dst_region >= 0 && dst_region < wan_regions_);
  wan_links_[static_cast<size_t>(src_region) * wan_regions_ + dst_region]
      .params = link;
}

const WanLinkParams& Fabric::WanLink(int src_region, int dst_region) const {
  return wan_links_[static_cast<size_t>(src_region) * wan_regions_ +
                    dst_region]
      .params;
}

int64_t Fabric::wan_bytes_out(int region) const {
  return region >= 0 && region < wan_regions_ ? wan_bytes_out_[region] : 0;
}

int64_t Fabric::wan_bytes_in(int region) const {
  return region >= 0 && region < wan_regions_ ? wan_bytes_in_[region] : 0;
}

uint64_t Fabric::wan_messages_sent() const {
  return wan_regions_ > 0 ? static_cast<uint64_t>(
                                sim_->metrics().value(wan_messages_metric_))
                          : 0;
}

int64_t Fabric::wan_bytes_sent() const {
  return wan_regions_ > 0 ? sim_->metrics().value(wan_bytes_metric_) : 0;
}

uint64_t Fabric::messages_sent() const {
  return static_cast<uint64_t>(sim_->metrics().value(messages_sent_metric_));
}

uint64_t Fabric::messages_delivered() const {
  return static_cast<uint64_t>(
      sim_->metrics().value(messages_delivered_metric_));
}

uint64_t Fabric::messages_dropped() const {
  return static_cast<uint64_t>(
      sim_->metrics().value(messages_dropped_metric_));
}

int64_t Fabric::bytes_sent() const {
  return sim_->metrics().value(bytes_sent_metric_);
}

SimTime Fabric::WanTransferTime(int src_region, int dst_region, Bytes size) {
  assert(src_region >= 0 && src_region < wan_regions_);
  assert(dst_region >= 0 && dst_region < wan_regions_);
  WanLinkState& link =
      wan_links_[static_cast<size_t>(src_region) * wan_regions_ + dst_region];
  const SimTime now = sim_->now();
  const double serialization_us = size.mib() / link.params.bw_mbps * 1e6;
  const SimTime serialization(
      static_cast<int64_t>(std::llround(serialization_us)));
  // FIFO bandwidth sharing: a transfer starts when the link's previous
  // queued transfer finishes serializing, so simultaneous bulk movers split
  // the link in arrival order — deterministic, and the aggregate completion
  // time equals the ideal shared-bandwidth schedule.
  const SimTime start = std::max(now, link.busy_until);
  link.busy_until = start + serialization;
  const SimTime queue = start - now;
  wan_bytes_out_[src_region] += size.bytes();
  wan_bytes_in_[dst_region] += size.bytes();
  sim_->metrics().Increment(wan_messages_metric_);
  sim_->metrics().Increment(wan_bytes_metric_, size.bytes());
  sim_->metrics().Observe(wan_queue_metric_,
                          static_cast<double>(queue.micros()));
  return queue + serialization + link.params.latency;
}

SimTime Fabric::WanPrice(int src_region, int dst_region, Bytes size) const {
  if (src_region < 0 || dst_region < 0 || src_region >= wan_regions_ ||
      dst_region >= wan_regions_ || src_region == dst_region) {
    return SimTime(0);
  }
  const WanLinkParams& params = WanLink(src_region, dst_region);
  const double serialization_us = size.mib() / params.bw_mbps * 1e6;
  return params.latency +
         SimTime(static_cast<int64_t>(std::llround(serialization_us)));
}

SimTime Fabric::WanExtraDelay(NodeId from, NodeId to, Bytes size) {
  const int src = topology_->RegionOfRack(topology_->RackOf(from));
  const int dst = topology_->RegionOfRack(topology_->RackOf(to));
  if (src < 0 || dst < 0 || src == dst || src >= wan_regions_ ||
      dst >= wan_regions_) {
    return SimTime(0);
  }
  return WanTransferTime(src, dst, size);
}

void Fabric::Bind(NodeId node, Handler handler) {
  handlers_[node] = std::move(handler);
}

void Fabric::Unbind(NodeId node) { handlers_.erase(node); }

void Fabric::SetNodeUp(NodeId node, bool up) {
  if (up) {
    // Erase rather than store `false`: long-running churn (devices failing
    // and recovering) must not grow the map with entries for healthy nodes.
    down_.erase(node);
  } else {
    down_[node] = true;
  }
}

bool Fabric::IsNodeUp(NodeId node) const {
  const auto it = down_.find(node);
  return it == down_.end() || !it->second;
}

uint32_t Fabric::InternType(std::string_view type) {
  const auto it = type_index_.find(type);
  if (it != type_index_.end()) {
    return it->second;
  }
  if (types_.size() >= kMaxInternedTypes) {
    return 0;
  }
  TypeInfo info;
  info.name.assign(type);
  info.span_label_set = sim_->spans().InternLabelSet({{"type", info.name}});
  types_.push_back(std::move(info));
  const uint32_t id = static_cast<uint32_t>(types_.size());
  type_index_.emplace(types_.back().name, id);
  return id;
}

Message* Fabric::AcquireMessage() {
  if (!free_messages_.empty()) {
    Message* msg = free_messages_.back();
    free_messages_.pop_back();
    return msg;
  }
  arena_.emplace_back();
  return &arena_.back();
}

void Fabric::ReleaseMessage(Message* msg) {
  // Strings keep their capacity for the next sender; clearing here keeps
  // peak memory at (in-flight messages) x (largest payload seen).
  msg->payload.clear();
  free_messages_.push_back(msg);
}

MessageId Fabric::Send(NodeId from, NodeId to, std::string_view type,
                       std::string payload, Bytes size, uint64_t tag,
                       int64_t tag2) {
  const MessageId id = message_ids_.Next();
  sim_->metrics().Increment(messages_sent_metric_);
  sim_->metrics().Increment(bytes_sent_metric_, size.bytes());

  Message* msg = AcquireMessage();
  msg->id = id;
  msg->from = from;
  msg->to = to;
  msg->type_id = InternType(type);
  msg->type.assign(type);  // reuses pooled capacity
  if (payload.empty()) {
    msg->payload.clear();
  } else {
    msg->payload = std::move(payload);
  }
  msg->size = size;
  msg->sent_at = sim_->now();
  msg->delivered_at = SimTime();
  msg->tag = tag;
  msg->tag2 = tag2;

  // One span per message, send -> deliver (or drop); parents under whatever
  // control-plane scope issued the send. Interned types reuse the interned
  // label set; unknown types fall back to a per-span label vector.
  const uint64_t span =
      msg->type_id != 0
          ? sim_->spans().BeginWithSet("net", "net.message",
                                       types_[msg->type_id - 1].span_label_set)
          : sim_->spans().Begin("net", "net.message", {{"type", msg->type}});

  SimTime delay = topology_->TransferTime(from, to, size);
  if (wan_regions_ > 1) {
    delay = delay + WanExtraDelay(from, to, size);
  }
  // 24-byte capture: stays in InlineCallback's inline buffer.
  sim_->After(delay, [this, msg, span] { Deliver(msg, span); });
  return id;
}

void Fabric::Deliver(Message* msg, uint64_t span) {
  const auto it = handlers_.find(msg->to);
  if (!IsNodeUp(msg->to) || it == handlers_.end()) {
    sim_->metrics().Increment(messages_dropped_metric_);
    sim_->spans().AddLabel(span, "dropped", "true");
    sim_->spans().End(span);
    ReleaseMessage(msg);
    return;
  }
  msg->delivered_at = sim_->now();
  sim_->metrics().Increment(messages_delivered_metric_);
  sim_->spans().End(span);
  it->second(*msg);
  ReleaseMessage(msg);
}

}  // namespace udc
