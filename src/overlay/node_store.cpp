#include "overlay/node_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace egoist::overlay {

NodeStore::NodeStore(std::size_t nodes, std::size_t wiring_capacity,
                     std::size_t donated_capacity)
    : wiring_cap_(wiring_capacity),
      donated_cap_(donated_capacity),
      wiring_(nodes * wiring_capacity, NodeId{-1}),
      wiring_count_(nodes, 0),
      donated_(nodes * donated_capacity, NodeId{-1}),
      donated_count_(nodes, 0),
      online_(nodes, 0) {}

void NodeStore::set_online(std::size_t node, bool online) {
  if (is_online(node) == online) return;
  online_[node] = online ? 1 : 0;
  const auto id = static_cast<NodeId>(node);
  const auto it =
      std::lower_bound(online_list_.begin(), online_list_.end(), id);
  if (online) {
    online_list_.insert(it, id);
  } else {
    online_list_.erase(it);
  }
}

void NodeStore::set_wiring(std::size_t node, std::span<const NodeId> links) {
  if (links.size() > wiring_cap_) {
    throw std::length_error("wiring exceeds store capacity");
  }
  std::copy(links.begin(), links.end(), wiring_.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                node * wiring_cap_));
  wiring_count_[node] = static_cast<std::uint32_t>(links.size());
}

void NodeStore::set_donated(std::size_t node, std::span<const NodeId> links) {
  if (links.size() > donated_cap_) {
    throw std::length_error("donated links exceed store capacity");
  }
  std::copy(links.begin(), links.end(), donated_.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                node * donated_cap_));
  donated_count_[node] = static_cast<std::uint32_t>(links.size());
}

void EpochStore::begin(std::size_t nodes, std::size_t wiring_capacity) {
  wiring_cap_ = wiring_capacity;
  proposed_.assign(nodes * wiring_capacity, NodeId{-1});
  proposed_count_.assign(nodes, 0);
  adopt_.assign(nodes, 0);
}

void EpochStore::begin_dense(std::size_t nodes, std::size_t wiring_capacity) {
  begin(nodes, wiring_capacity);
  dense_ = true;
  direct_.reshape(nodes, nodes);
}

void EpochStore::begin_sparse(std::size_t nodes, std::size_t wiring_capacity,
                              std::size_t pool_capacity) {
  begin(nodes, wiring_capacity);
  dense_ = false;
  pool_cap_ = pool_capacity;
  // Slots are only read up to their count, so stale contents need no reset.
  pool_ids_.resize(nodes * pool_capacity);
  pool_values_.resize(nodes * pool_capacity);
  pool_count_.assign(nodes, 0);
}

void EpochStore::set_pool(std::size_t node, std::span<const NodeId> ids) {
  if (ids.size() > pool_cap_) {
    throw std::length_error("pool exceeds slot capacity");
  }
  std::copy(ids.begin(), ids.end(),
            pool_ids_.begin() + static_cast<std::ptrdiff_t>(node * pool_cap_));
  pool_count_[node] = static_cast<std::uint32_t>(ids.size());
}

void EpochStore::set_proposal(std::size_t node, std::span<const NodeId> wiring,
                              bool adopt) {
  if (wiring.size() > wiring_cap_) {
    throw std::length_error("proposal exceeds store capacity");
  }
  std::copy(wiring.begin(), wiring.end(),
            proposed_.begin() + static_cast<std::ptrdiff_t>(node * wiring_cap_));
  proposed_count_[node] = static_cast<std::uint32_t>(wiring.size());
  adopt_[node] = adopt ? 1 : 0;
}

}  // namespace egoist::overlay
