// Structure-of-arrays component storage for per-node overlay state.
//
// The per-node objects the network used to keep (one heap-allocated
// vector<NodeId> per node for wiring and donated links, a vector<bool> for
// membership) scatter an epoch's working set across the heap. NodeStore
// hoists them into flat component slabs — one contiguous array per
// component, fixed per-node capacity, a count array beside it — so a
// worker sweeping a node range touches consecutive cache lines and two
// workers can never write the same allocation.
//
// EpochStore holds the epoch-scoped planes of the parallel pipeline
// (overlay/epoch_engine.hpp): the measurement plane captured during the
// snapshot phase (a dense n x n matrix, or fixed-stride per-node pool
// slots in §5 scale mode) and the proposal plane the evaluate phase writes
// (proposed wiring rows + adoption flags, one disjoint slot per node).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/distance_matrix.hpp"

namespace egoist::overlay {

using graph::NodeId;

class NodeStore {
 public:
  NodeStore() = default;
  /// Capacities are hard per-node bounds (set_* throws beyond them): the
  /// wiring degree bound k (n - 1 for a full mesh) and the donated-link
  /// budget k2. All nodes start offline with empty rows.
  NodeStore(std::size_t nodes, std::size_t wiring_capacity,
            std::size_t donated_capacity);

  std::size_t size() const { return online_.size(); }
  std::size_t wiring_capacity() const { return wiring_cap_; }
  std::size_t donated_capacity() const { return donated_cap_; }

  bool is_online(std::size_t node) const { return online_[node] != 0; }
  /// Keeps the ascending online list in step: O(log n) to find the slot
  /// plus one memmove of the list tail.
  void set_online(std::size_t node, bool online);
  std::size_t online_count() const { return online_list_.size(); }
  /// The online nodes, ascending — a view, invalidated by set_online.
  std::span<const NodeId> online_list() const { return online_list_; }

  std::span<const NodeId> wiring(std::size_t node) const {
    return {wiring_.data() + node * wiring_cap_, wiring_count_[node]};
  }
  std::span<const NodeId> donated(std::size_t node) const {
    return {donated_.data() + node * donated_cap_, donated_count_[node]};
  }

  /// Copies (cheap: at most the capacity) for call sites that need an
  /// owning container — search seeds, hook payloads.
  std::vector<NodeId> wiring_vec(std::size_t node) const {
    const auto w = wiring(node);
    return {w.begin(), w.end()};
  }
  std::vector<NodeId> donated_vec(std::size_t node) const {
    const auto d = donated(node);
    return {d.begin(), d.end()};
  }

  void set_wiring(std::size_t node, std::span<const NodeId> links);
  void set_donated(std::size_t node, std::span<const NodeId> links);
  void clear_wiring(std::size_t node) { wiring_count_[node] = 0; }
  void clear_donated(std::size_t node) { donated_count_[node] = 0; }

 private:
  std::size_t wiring_cap_ = 0;
  std::size_t donated_cap_ = 0;
  std::vector<NodeId> wiring_;                ///< nodes x wiring_cap_
  std::vector<std::uint32_t> wiring_count_;
  std::vector<NodeId> donated_;               ///< nodes x donated_cap_
  std::vector<std::uint32_t> donated_count_;
  std::vector<std::uint8_t> online_;
  std::vector<NodeId> online_list_;  ///< ascending
};

class EpochStore {
 public:
  /// Dense mode: the measurement plane is an n x n matrix (row v = node
  /// v's fresh direct measurements, indexed by destination id).
  void begin_dense(std::size_t nodes, std::size_t wiring_capacity);

  /// Scale mode: the plane is one fixed-stride pool slot per node (ids +
  /// measured values, at most `pool_capacity` each), so memory stays
  /// O(n * pool) instead of O(n^2) and the snapshot tasks of distinct nodes
  /// fill disjoint slots concurrently. Nodes without set_pool keep an
  /// empty pool.
  void begin_sparse(std::size_t nodes, std::size_t wiring_capacity,
                    std::size_t pool_capacity);

  bool dense() const { return dense_; }

  std::span<double> direct_row(std::size_t node) {
    return direct_.row(node);
  }
  std::span<const double> direct_row(std::size_t node) const {
    return direct_.row(node);
  }

  /// Stores node's pool ids; its values (pool_values(node)[i] measures
  /// ids[i]) are the caller's to fill. Safe for concurrent callers on
  /// distinct nodes.
  void set_pool(std::size_t node, std::span<const NodeId> ids);
  std::span<const NodeId> pool_ids(std::size_t node) const {
    return {pool_ids_.data() + node * pool_cap_, pool_size(node)};
  }
  std::span<double> pool_values(std::size_t node) {
    return {pool_values_.data() + node * pool_cap_, pool_size(node)};
  }
  std::span<const double> pool_values(std::size_t node) const {
    return {pool_values_.data() + node * pool_cap_, pool_size(node)};
  }

  /// Proposal plane: one disjoint slot per node, safe for concurrent
  /// writers on distinct nodes.
  void set_proposal(std::size_t node, std::span<const NodeId> wiring,
                    bool adopt);
  std::span<const NodeId> proposal(std::size_t node) const {
    return {proposed_.data() + node * wiring_cap_, proposed_count_[node]};
  }
  bool adopted(std::size_t node) const { return adopt_[node] != 0; }

 private:
  void begin(std::size_t nodes, std::size_t wiring_capacity);
  std::size_t pool_size(std::size_t node) const {
    return node < pool_count_.size() ? pool_count_[node] : 0;
  }

  bool dense_ = false;
  std::size_t wiring_cap_ = 0;
  graph::DistanceMatrix direct_;              ///< dense measurement plane
  std::size_t pool_cap_ = 0;                  ///< sparse plane slot stride
  std::vector<NodeId> pool_ids_;              ///< nodes x pool_cap_
  std::vector<double> pool_values_;           ///< nodes x pool_cap_
  std::vector<std::uint32_t> pool_count_;
  std::vector<NodeId> proposed_;              ///< nodes x wiring_cap_
  std::vector<std::uint32_t> proposed_count_;
  std::vector<std::uint8_t> adopt_;
};

}  // namespace egoist::overlay
