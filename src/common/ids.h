// Strongly-typed integer identifiers.
//
// Every entity in the system (tenants, modules, devices, resource units, ...)
// is identified by a 64-bit id wrapped in a distinct type so that a DeviceId
// cannot be passed where a ModuleId is expected.

#ifndef UDC_SRC_COMMON_IDS_H_
#define UDC_SRC_COMMON_IDS_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace udc {

// CRTP-free strong id. `Tag` is an empty struct used only for type identity.
template <typename Tag>
class TypedId {
 public:
  constexpr TypedId() : value_(kInvalidValue) {}
  constexpr explicit TypedId(uint64_t value) : value_(value) {}

  static constexpr TypedId Invalid() { return TypedId(); }

  constexpr uint64_t value() const { return value_; }
  constexpr bool valid() const { return value_ != kInvalidValue; }

  friend constexpr bool operator==(TypedId a, TypedId b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(TypedId a, TypedId b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(TypedId a, TypedId b) {
    return a.value_ < b.value_;
  }

  friend std::ostream& operator<<(std::ostream& os, TypedId id) {
    if (!id.valid()) {
      return os << "<invalid>";
    }
    return os << id.value_;
  }

 private:
  static constexpr uint64_t kInvalidValue = ~uint64_t{0};
  uint64_t value_;
};

struct TenantIdTag {};
struct ModuleIdTag {};
struct DeviceIdTag {};
struct PoolIdTag {};
struct ResourceUnitIdTag {};
struct ObjectIdTag {};       // high-level object (module + aspects bundle)
struct ActorIdTag {};
struct MessageIdTag {};
struct NodeIdTag {};         // fabric node (device, switch, or server)
struct ServerIdTag {};       // baseline monolithic server
struct InstanceIdTag {};     // baseline VM/container instance
struct QuoteIdTag {};        // attestation quote
struct CheckpointIdTag {};
struct InvocationIdTag {};   // one execution of a task module

using TenantId = TypedId<TenantIdTag>;
using ModuleId = TypedId<ModuleIdTag>;
using DeviceId = TypedId<DeviceIdTag>;
using PoolId = TypedId<PoolIdTag>;
using ResourceUnitId = TypedId<ResourceUnitIdTag>;
using ObjectId = TypedId<ObjectIdTag>;
using ActorId = TypedId<ActorIdTag>;
using MessageId = TypedId<MessageIdTag>;
using NodeId = TypedId<NodeIdTag>;
using ServerId = TypedId<ServerIdTag>;
using InstanceId = TypedId<InstanceIdTag>;
using QuoteId = TypedId<QuoteIdTag>;
using CheckpointId = TypedId<CheckpointIdTag>;
using InvocationId = TypedId<InvocationIdTag>;

// Monotonic id generator; one per id space, owned by whichever registry
// creates entities of that type.
template <typename Id>
class IdGenerator {
 public:
  IdGenerator() : next_(0) {}
  explicit IdGenerator(uint64_t first) : next_(first) {}

  Id Next() { return Id(next_++); }
  uint64_t issued() const { return next_; }

 private:
  uint64_t next_;
};

}  // namespace udc

namespace std {
template <typename Tag>
struct hash<udc::TypedId<Tag>> {
  size_t operator()(udc::TypedId<Tag> id) const noexcept {
    return std::hash<uint64_t>{}(id.value());
  }
};
}  // namespace std

#endif  // UDC_SRC_COMMON_IDS_H_
