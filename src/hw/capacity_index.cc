#include "src/hw/capacity_index.h"

#include <cassert>

namespace udc {

FreeCapacityIndex::FreeCapacityIndex(const Topology& topology)
    : topology_(topology),
      per_rack_(static_cast<size_t>(topology.rack_count())),
      per_cell_(static_cast<size_t>(topology.cell_count())),
      rack_free_(static_cast<size_t>(topology.rack_count()), 0),
      cell_free_(static_cast<size_t>(topology.cell_count()), 0),
      region_free_(static_cast<size_t>(topology.region_count()), 0) {}

void FreeCapacityIndex::Attach(Device* device) {
  DeviceState& state = states_.emplace_back();
  state.rack = topology_.RackOf(device->node());
  state.cell = topology_.CellOf(state.rack);
  state.region = topology_.RegionOf(state.cell);
  assert(state.rack >= 0 &&
         static_cast<size_t>(state.rack) < per_rack_.size() &&
         static_cast<size_t>(state.cell) < per_cell_.size() &&
         "a pooled device sits in a rack of the layout the index was built on");
  state.healthy = device->healthy();
  total_capacity_ += device->capacity();
  total_allocated_ += device->allocated();
  if (state.healthy) {
    healthy_capacity_ += device->capacity();
    healthy_allocated_ += device->allocated();
    AddFree(state, device->free_capacity());
  }
  List(device, state);
  device->set_capacity_index(this);
  device->set_index_state(&state);
}

void FreeCapacityIndex::AddFree(const DeviceState& state, int64_t delta) {
  rack_free_[static_cast<size_t>(state.rack)] += delta;
  cell_free_[static_cast<size_t>(state.cell)] += delta;
  region_free_[static_cast<size_t>(state.region)] += delta;
}

namespace {

// Moves `list`'s node for `old_entry` to key `new_free` without freeing or
// reallocating the tree node (extract + reinsert) — alloc/release changes a
// device's key in the same two lists, so the steady state churns no memory.
void RelinkEntry(FreeCapacityIndex::OrderedFreeList& list,
                 const FreeCapacityIndex::Entry& old_entry, int64_t new_free) {
  auto node = list.extract(old_entry);
  if (node.empty()) {
    return;
  }
  node.value().free = new_free;
  list.insert(std::move(node));
}

}  // namespace

void FreeCapacityIndex::OnFreeChanged(Device* device, int64_t old_free) {
  DeviceState* cached = StateOf(device);
  if (cached == nullptr) {
    return;
  }
  DeviceState& state = *cached;
  const int64_t free = device->free_capacity();
  if (free == old_free) {
    return;
  }
  const int64_t delta = free - old_free;  // +release, -allocate
  total_allocated_ -= delta;
  if (state.healthy) {
    healthy_allocated_ -= delta;
    AddFree(state, delta);
  }
  if (state.listed && free > 0) {
    // Stays on the same two lists with a new key: relink in place.
    const Entry old_entry{state.listed_free, device->id().value(), device};
    RelinkEntry(per_rack_[static_cast<size_t>(state.rack)], old_entry, free);
    RelinkEntry(per_cell_[static_cast<size_t>(state.cell)], old_entry, free);
    state.listed_free = free;
    return;
  }
  Unlist(device, state);
  List(device, state);
}

void FreeCapacityIndex::OnHealthChanged(Device* device) {
  DeviceState* cached = StateOf(device);
  if (cached == nullptr) {
    return;
  }
  DeviceState& state = *cached;
  const bool healthy = device->healthy();
  if (healthy == state.healthy) {
    return;
  }
  state.healthy = healthy;
  const int64_t sign = healthy ? 1 : -1;
  healthy_capacity_ += sign * device->capacity();
  healthy_allocated_ += sign * device->allocated();
  AddFree(state, sign * device->free_capacity());
  if (healthy) {
    List(device, state);
  } else {
    Unlist(device, state);
  }
}

const FreeCapacityIndex::OrderedFreeList* FreeCapacityIndex::RackFreeList(
    int rack) const {
  if (rack < 0 || static_cast<size_t>(rack) >= per_rack_.size()) {
    return nullptr;
  }
  return &per_rack_[static_cast<size_t>(rack)];
}

int FreeCapacityIndex::RackOf(const Device* device) const {
  const DeviceState* state = StateOf(device);
  return state == nullptr ? -1 : state->rack;
}

const FreeCapacityIndex::OrderedFreeList* FreeCapacityIndex::CellFreeList(
    int cell) const {
  if (cell < 0 || static_cast<size_t>(cell) >= per_cell_.size()) {
    return nullptr;
  }
  return &per_cell_[static_cast<size_t>(cell)];
}

int FreeCapacityIndex::CellOf(const Device* device) const {
  const DeviceState* state = StateOf(device);
  return state == nullptr ? -1 : state->cell;
}

int FreeCapacityIndex::RegionOf(const Device* device) const {
  const DeviceState* state = StateOf(device);
  return state == nullptr ? -1 : state->region;
}

void FreeCapacityIndex::List(Device* device, DeviceState& state) {
  const int64_t free = device->free_capacity();
  if (!state.healthy || free <= 0) {
    return;
  }
  const Entry entry{free, device->id().value(), device};
  per_rack_[static_cast<size_t>(state.rack)].insert(entry);
  per_cell_[static_cast<size_t>(state.cell)].insert(entry);
  state.listed = true;
  state.listed_free = free;
}

void FreeCapacityIndex::Unlist(Device* device, DeviceState& state) {
  if (!state.listed) {
    return;
  }
  const Entry entry{state.listed_free, device->id().value(), device};
  per_rack_[static_cast<size_t>(state.rack)].erase(entry);
  per_cell_[static_cast<size_t>(state.cell)].erase(entry);
  state.listed = false;
}

}  // namespace udc
