// Local wiring objectives — the cost functions nodes minimize.
//
// A node i evaluating a candidate neighbor set s only needs (a) the direct
// link cost from i to every candidate, and (b) the residual-graph distances
// d_{G-i}(v, j) from every candidate v to every destination j (i's own
// out-edges cannot improve routes that leave through a neighbor, since a
// path re-entering i would have to exit through the same wiring again).
// That makes BR a weighted facility-location-style problem over
// precomputed matrices:
//
//   delay/load:  C_i(s) = sum_j p_ij * min_{v in s} (d_iv + d_{G-i}(v, j))
//   bandwidth:   B_i(s) = sum_j max_{w in s} min(bw_iw, W_{G-i}(w, j))
//
// Both decompose per target as  cost = sum_j w_j * fold(best_{v in s}
// link_value(v, j)), which the interface exposes directly so the
// best-response search can evaluate candidate swaps incrementally in O(n)
// rather than O(k n).
//
// Residual matrices are stored as flat row-major graph::DistanceMatrix
// (produced allocation-free by graph::PathEngine); the nested-vector
// constructors remain as conversions for hand-built fixtures and the
// legacy all-pairs path.
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/distance_matrix.hpp"

namespace egoist::core {

using graph::NodeId;

/// Cost of a candidate wiring for one node. Implementations are immutable
/// snapshots of the network state at evaluation time. "Lower is better"
/// (maximizing objectives negate in fold()).
class WiringObjective {
 public:
  virtual ~WiringObjective() = default;

  /// Candidate neighbor ids (never contains the node itself).
  virtual const std::vector<NodeId>& candidates() const = 0;

  /// The node whose wiring is being optimized.
  virtual NodeId self() const = 0;

  /// Destinations the node cares about (never contains self()).
  virtual const std::vector<NodeId>& targets() const = 0;

  /// Routing preference p_ij of target j.
  virtual double target_weight(NodeId j) const = 0;

  /// Quality of reaching target j through direct neighbor v (delay: path
  /// cost, possibly kUnreachable; bandwidth: bottleneck, possibly 0).
  virtual double link_value(NodeId v, NodeId j) const = 0;

  /// Bulk form of link_value for the search's cache: fills
  /// out[s * targets.size() + t] = link_value(sources[s], targets[t]).
  /// The default loops over the virtual link_value; concrete objectives
  /// override with a flat non-virtual loop (the fill dominates evaluator
  /// setup at large n). out.size() must be sources.size() * targets.size().
  virtual void fill_link_values(std::span<const NodeId> sources,
                                std::span<const NodeId> targets,
                                std::span<double> out) const;

  /// False: per-target best is the minimum link_value (delay/load).
  /// True: the maximum (bandwidth).
  virtual bool maximize_link_value() const = 0;

  /// Folds the per-target best value into a cost contribution (applies the
  /// unreachable penalty for delay, negation for bandwidth).
  virtual double fold(double best_value) const = 0;

  /// The value fold() substitutes for an unreachable best (delay: the
  /// "M >> n" penalty; maximizing objectives have no unreachable sentinel
  /// and return 0). The best-response search caches this once and inlines
  /// the fold in its hot loops, so every objective's fold() must equal
  ///   maximize ? -v : (v == kUnreachable ? fold_penalty() : v).
  virtual double fold_penalty() const = 0;

  /// Neutral element for the per-target best (kUnreachable or 0).
  double no_link_value() const;

  /// Total cost of a wiring: sum_j weight(j) * fold(best link value).
  double cost(std::span<const NodeId> wiring) const;
};

/// Additive-metric objective (delay, or node load via per-node edge costs).
class DelayObjective final : public WiringObjective {
 public:
  /// direct_cost[v]: measured/announced cost of the direct link self -> v
  ///   (entries for non-candidates are ignored).
  /// residual_dist(v, j): distance from v to j in G_{-self}.
  /// preference[j]: routing preference p_ij (self entry ignored).
  /// targets: destinations to account for (active nodes, excluding self).
  /// unreachable_penalty: the paper's "M >> n" for unreachable targets.
  DelayObjective(NodeId self, std::vector<NodeId> candidates,
                 std::vector<double> direct_cost,
                 graph::DistanceMatrix residual_dist,
                 std::vector<double> preference, std::vector<NodeId> targets,
                 double unreachable_penalty);

  /// Legacy nested-matrix convenience (converts; throws on ragged input).
  DelayObjective(NodeId self, std::vector<NodeId> candidates,
                 std::vector<double> direct_cost,
                 const std::vector<std::vector<double>>& residual_dist,
                 std::vector<double> preference, std::vector<NodeId> targets,
                 double unreachable_penalty);

  /// Borrowing constructor: the residual matrix stays owned by the caller
  /// (the epoch loop's reusable scratch) and must outlive the objective.
  DelayObjective(NodeId self, std::vector<NodeId> candidates,
                 std::vector<double> direct_cost,
                 const graph::DistanceMatrix* residual_view,
                 std::vector<double> preference, std::vector<NodeId> targets,
                 double unreachable_penalty);

  const std::vector<NodeId>& candidates() const override { return candidates_; }
  NodeId self() const override { return self_; }
  const std::vector<NodeId>& targets() const override { return targets_; }
  double target_weight(NodeId j) const override {
    return preference_[static_cast<std::size_t>(j)];
  }
  double link_value(NodeId v, NodeId j) const override;
  void fill_link_values(std::span<const NodeId> sources,
                        std::span<const NodeId> targets,
                        std::span<double> out) const override;
  bool maximize_link_value() const override { return false; }
  double fold(double best_value) const override;
  double fold_penalty() const override { return unreachable_penalty_; }

  /// Distance from self to destination j under `wiring` (direct + residual);
  /// kUnreachable when no neighbor reaches j.
  double distance_to(std::span<const NodeId> wiring, NodeId j) const;

 private:
  const graph::DistanceMatrix& residual() const {
    return external_residual_ != nullptr ? *external_residual_ : owned_residual_;
  }

  NodeId self_;
  std::vector<NodeId> candidates_;
  std::vector<double> direct_cost_;
  graph::DistanceMatrix owned_residual_;
  const graph::DistanceMatrix* external_residual_ = nullptr;
  std::vector<double> preference_;
  std::vector<NodeId> targets_;
  double unreachable_penalty_;
};

/// Bottleneck-bandwidth objective (§4.1): maximize the sum over targets of
/// the best single-neighbor bottleneck. cost() = -score so that all search
/// code minimizes.
class BandwidthObjective final : public WiringObjective {
 public:
  /// direct_bw[v]: available bandwidth of the direct link self -> v.
  /// residual_bw(v, j): bottleneck bandwidth from v to j in G_{-self}.
  BandwidthObjective(NodeId self, std::vector<NodeId> candidates,
                     std::vector<double> direct_bw,
                     graph::DistanceMatrix residual_bw,
                     std::vector<NodeId> targets);

  /// Legacy nested-matrix convenience (converts; throws on ragged input).
  BandwidthObjective(NodeId self, std::vector<NodeId> candidates,
                     std::vector<double> direct_bw,
                     const std::vector<std::vector<double>>& residual_bw,
                     std::vector<NodeId> targets);

  /// Borrowing constructor (see DelayObjective).
  BandwidthObjective(NodeId self, std::vector<NodeId> candidates,
                     std::vector<double> direct_bw,
                     const graph::DistanceMatrix* residual_view,
                     std::vector<NodeId> targets);

  const std::vector<NodeId>& candidates() const override { return candidates_; }
  NodeId self() const override { return self_; }
  const std::vector<NodeId>& targets() const override { return targets_; }
  double target_weight(NodeId) const override { return 1.0; }
  double link_value(NodeId v, NodeId j) const override;
  void fill_link_values(std::span<const NodeId> sources,
                        std::span<const NodeId> targets,
                        std::span<double> out) const override;
  bool maximize_link_value() const override { return true; }
  double fold(double best_value) const override { return -best_value; }
  double fold_penalty() const override { return 0.0; }  // unused: maximizing

  /// The positive aggregate-bandwidth score (= -cost).
  double score(std::span<const NodeId> wiring) const { return -cost(wiring); }

  /// Bottleneck bandwidth from self to j under `wiring` (0 if unreachable).
  double bandwidth_to(std::span<const NodeId> wiring, NodeId j) const;

 private:
  const graph::DistanceMatrix& residual() const {
    return external_residual_ != nullptr ? *external_residual_ : owned_residual_;
  }

  NodeId self_;
  std::vector<NodeId> candidates_;
  std::vector<double> direct_bw_;
  graph::DistanceMatrix owned_residual_;
  const graph::DistanceMatrix* external_residual_ = nullptr;
  std::vector<NodeId> targets_;
};

/// Sampled-scale objective (§5): scores candidate wirings against a small
/// set of epoch-shared landmark destinations instead of all n targets.
/// The landmark distance matrix is (n rows x L columns): row v holds the
/// distance (shortest) or bottleneck (widest) from node v to each
/// landmark, computed once per epoch by L reverse traversals of the
/// announced overlay and shared by every node's evaluation — so a BR
/// evaluation touches O(|candidates| x L) state and nothing O(n^2).
///
/// Semantics match DelayObjective/BandwidthObjective per landmark:
///   minimize: value(v, l) = direct[v] + dist(v, l)  (kUnreachable-clamped)
///   maximize: value(v, l) = min(direct[v], bottleneck(v, l))
/// Landmark distances are taken on the full announced graph (no G_{-self}
/// exclusion): at scale, paths through the evaluating node's own out-edges
/// are a vanishing fraction of any landmark tree, and the residual
/// exclusion would cost a per-node traversal — this is the documented
/// approximation of the scale regime, not of the dense reference path.
class LandmarkObjective final : public WiringObjective {
 public:
  /// direct[v]: measured direct cost/value of the link self -> v; sized
  ///   n and borrowed, not copied (only candidate entries are read).
  /// landmark_dist: n x |landmark_col range| matrix described above.
  /// landmark_col: node id -> column of landmark_dist (-1 = not a
  ///   landmark); sized n. `direct` and both landmark objects must
  ///   outlive the objective (the landmark state is epoch-shared).
  /// targets: the landmark ids this node scores against (self excluded).
  LandmarkObjective(NodeId self, std::vector<NodeId> candidates,
                    std::span<const double> direct,
                    const graph::DistanceMatrix* landmark_dist,
                    const std::vector<std::int32_t>* landmark_col,
                    std::vector<NodeId> targets, bool maximize,
                    double unreachable_penalty);

  const std::vector<NodeId>& candidates() const override { return candidates_; }
  NodeId self() const override { return self_; }
  const std::vector<NodeId>& targets() const override { return targets_; }
  double target_weight(NodeId) const override { return 1.0; }
  double link_value(NodeId v, NodeId j) const override;
  void fill_link_values(std::span<const NodeId> sources,
                        std::span<const NodeId> targets,
                        std::span<double> out) const override;
  bool maximize_link_value() const override { return maximize_; }
  double fold(double best_value) const override;
  double fold_penalty() const override {
    return maximize_ ? 0.0 : unreachable_penalty_;
  }

 private:
  double value_at(NodeId v, std::size_t col, double direct) const;

  NodeId self_;
  std::vector<NodeId> candidates_;
  std::span<const double> direct_;
  const graph::DistanceMatrix* dist_;
  const std::vector<std::int32_t>* col_;
  std::vector<NodeId> targets_;
  bool maximize_;
  double unreachable_penalty_;
};

}  // namespace egoist::core
