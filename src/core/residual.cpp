#include "core/residual.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/shortest_path.hpp"
#include "graph/widest_path.hpp"

namespace egoist::core {

namespace {

graph::Digraph residual_of(const graph::Digraph& overlay, NodeId self) {
  graph::Digraph residual(overlay.node_count());
  for (std::size_t u = 0; u < overlay.node_count(); ++u) {
    const auto uid = static_cast<NodeId>(u);
    residual.set_active(uid, overlay.is_active(uid));
    if (uid == self) continue;  // drop self's out-edges: G_{-i}
    for (const auto& e : overlay.out_edges(uid)) {
      residual.set_edge(uid, e.to, e.weight);
    }
  }
  return residual;
}

std::vector<NodeId> others(const graph::Digraph& overlay, NodeId self) {
  std::vector<NodeId> out;
  for (NodeId v : overlay.active_nodes()) {
    if (v != self) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> others(const graph::CsrGraph& overlay, NodeId self) {
  std::vector<NodeId> out;
  for (NodeId v : overlay.active_nodes()) {
    if (v != self) out.push_back(v);
  }
  return out;
}

void check_active_self(const graph::CsrGraph& csr, NodeId self) {
  csr.check_node(self);
  if (!csr.is_active(self)) {
    throw std::invalid_argument("self must be active");
  }
}

std::vector<double> uniform_preference(std::size_t n,
                                       const std::vector<NodeId>& targets) {
  std::vector<double> pref(n, 0.0);
  const double w =
      targets.empty() ? 0.0 : 1.0 / static_cast<double>(targets.size());
  for (NodeId j : targets) pref[static_cast<std::size_t>(j)] = w;
  return pref;
}

std::vector<double> resolve_preference(
    std::optional<std::vector<double>>&& preference, std::size_t n,
    const std::vector<NodeId>& targets) {
  if (!preference) return uniform_preference(n, targets);
  std::vector<double> pref = std::move(*preference);
  if (pref.size() != n) {
    throw std::invalid_argument("preference size mismatch");
  }
  return pref;
}

}  // namespace

double default_unreachable_penalty(const graph::Digraph& overlay,
                                   bool finite_only) {
  // 1000x the largest edge weight (or 1e6 for empty overlays) keeps
  // connectivity dominant without destroying float precision.
  double max_weight = 0.0;
  for (std::size_t u = 0; u < overlay.node_count(); ++u) {
    for (const auto& e : overlay.out_edges(static_cast<NodeId>(u))) {
      if (finite_only && !std::isfinite(e.weight)) continue;
      max_weight = std::max(max_weight, e.weight);
    }
  }
  const double scale = max_weight > 0.0 ? max_weight : 1.0;
  return 1000.0 * scale * static_cast<double>(std::max<std::size_t>(
                              overlay.node_count(), 1));
}

double default_unreachable_penalty(const graph::CsrGraph& overlay) {
  const double scale = overlay.max_weight() > 0.0 ? overlay.max_weight() : 1.0;
  return 1000.0 * scale * static_cast<double>(std::max<std::size_t>(
                              overlay.node_count(), 1));
}

DelayObjective make_delay_objective(const graph::Digraph& overlay, NodeId self,
                                    const std::vector<double>& direct_cost,
                                    std::optional<std::vector<double>> preference,
                                    std::optional<double> unreachable_penalty) {
  overlay.check_node(self);
  if (!overlay.is_active(self)) {
    throw std::invalid_argument("self must be active");
  }
  const auto residual = residual_of(overlay, self);
  auto dist = graph::DistanceMatrix::from_nested(
      graph::all_pairs_shortest_paths(residual));
  auto candidates = others(overlay, self);
  auto targets = candidates;
  auto pref = resolve_preference(std::move(preference), overlay.node_count(),
                                 targets);
  return DelayObjective(
      self, std::move(candidates), direct_cost, std::move(dist), std::move(pref),
      std::move(targets),
      unreachable_penalty.value_or(default_unreachable_penalty(overlay)));
}

DelayObjective make_delay_objective(graph::PathEngine& engine, NodeId self,
                                    const std::vector<double>& direct_cost,
                                    std::optional<std::vector<double>> preference,
                                    std::optional<double> unreachable_penalty,
                                    graph::DistanceMatrix* scratch) {
  check_active_self(engine.csr(), self);
  auto candidates = others(engine.csr(), self);
  auto targets = candidates;
  auto pref = resolve_preference(std::move(preference), engine.node_count(),
                                 targets);
  const double penalty =
      unreachable_penalty.value_or(default_unreachable_penalty(engine.csr()));
  if (scratch != nullptr) {
    engine.all_shortest(self, *scratch);
    return DelayObjective(self, std::move(candidates), direct_cost, scratch,
                          std::move(pref), std::move(targets), penalty);
  }
  return DelayObjective(self, std::move(candidates), direct_cost,
                        engine.all_shortest(self), std::move(pref),
                        std::move(targets), penalty);
}

DelayObjective make_delay_objective(const graph::PathEngine& engine,
                                    graph::PathEngine::QueryScratch& query,
                                    NodeId self,
                                    const std::vector<double>& direct_cost,
                                    std::optional<std::vector<double>> preference,
                                    std::optional<double> unreachable_penalty,
                                    graph::DistanceMatrix* scratch) {
  check_active_self(engine.csr(), self);
  auto candidates = others(engine.csr(), self);
  auto targets = candidates;
  auto pref = resolve_preference(std::move(preference), engine.node_count(),
                                 targets);
  const double penalty =
      unreachable_penalty.value_or(default_unreachable_penalty(engine.csr()));
  if (scratch != nullptr) {
    engine.all_shortest(self, *scratch, query);
    return DelayObjective(self, std::move(candidates), direct_cost, scratch,
                          std::move(pref), std::move(targets), penalty);
  }
  graph::DistanceMatrix dist;
  engine.all_shortest(self, dist, query);
  return DelayObjective(self, std::move(candidates), direct_cost,
                        std::move(dist), std::move(pref), std::move(targets),
                        penalty);
}

BandwidthObjective make_bandwidth_objective(const graph::Digraph& overlay,
                                            NodeId self,
                                            const std::vector<double>& direct_bw) {
  overlay.check_node(self);
  if (!overlay.is_active(self)) {
    throw std::invalid_argument("self must be active");
  }
  const auto residual = residual_of(overlay, self);
  auto bw = graph::DistanceMatrix::from_nested(
      graph::all_pairs_widest_paths(residual));
  auto candidates = others(overlay, self);
  auto targets = candidates;
  return BandwidthObjective(self, std::move(candidates), direct_bw, std::move(bw),
                            std::move(targets));
}

BandwidthObjective make_bandwidth_objective(graph::PathEngine& engine,
                                            NodeId self,
                                            const std::vector<double>& direct_bw,
                                            graph::DistanceMatrix* scratch) {
  check_active_self(engine.csr(), self);
  auto candidates = others(engine.csr(), self);
  auto targets = candidates;
  if (scratch != nullptr) {
    engine.all_widest(self, *scratch);
    return BandwidthObjective(self, std::move(candidates), direct_bw, scratch,
                              std::move(targets));
  }
  return BandwidthObjective(self, std::move(candidates), direct_bw,
                            engine.all_widest(self), std::move(targets));
}

BandwidthObjective make_bandwidth_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_bw,
    graph::DistanceMatrix* scratch) {
  check_active_self(engine.csr(), self);
  auto candidates = others(engine.csr(), self);
  auto targets = candidates;
  if (scratch != nullptr) {
    engine.all_widest(self, *scratch, query);
    return BandwidthObjective(self, std::move(candidates), direct_bw, scratch,
                              std::move(targets));
  }
  graph::DistanceMatrix bw;
  engine.all_widest(self, bw, query);
  return BandwidthObjective(self, std::move(candidates), direct_bw,
                            std::move(bw), std::move(targets));
}

DelayObjective make_sampled_delay_objective(
    const graph::Digraph& overlay, NodeId self,
    const std::vector<double>& direct_cost, const std::vector<NodeId>& sample,
    std::optional<double> unreachable_penalty) {
  overlay.check_node(self);
  if (!overlay.is_active(self)) {
    throw std::invalid_argument("self must be active");
  }
  for (NodeId v : sample) {
    overlay.check_node(v);
    if (v == self) throw std::invalid_argument("sample may not contain self");
  }
  const auto residual = residual_of(overlay, self);
  // Only rows for sampled nodes are needed; compute them directly.
  graph::DistanceMatrix dist(overlay.node_count(), overlay.node_count(),
                             graph::kUnreachable);
  for (NodeId v : sample) {
    if (!overlay.is_active(v)) continue;
    const auto row = graph::dijkstra(residual, v).dist;
    std::copy(row.begin(), row.end(),
              dist.row(static_cast<std::size_t>(v)).begin());
  }
  return DelayObjective(
      self, sample, direct_cost, std::move(dist),
      uniform_preference(overlay.node_count(), sample), sample,
      unreachable_penalty.value_or(default_unreachable_penalty(overlay)));
}

DelayObjective make_sampled_delay_objective(
    graph::PathEngine& engine, NodeId self,
    const std::vector<double>& direct_cost, const std::vector<NodeId>& sample,
    std::optional<double> unreachable_penalty) {
  const auto& csr = engine.csr();
  check_active_self(csr, self);
  for (NodeId v : sample) {
    csr.check_node(v);
    if (v == self) throw std::invalid_argument("sample may not contain self");
  }
  const std::size_t n = engine.node_count();
  graph::DistanceMatrix dist(n, n, graph::kUnreachable);
  for (NodeId v : sample) {
    if (!csr.is_active(v)) continue;
    engine.shortest_from(v, self, dist.row(static_cast<std::size_t>(v)));
  }
  return DelayObjective(
      self, sample, direct_cost, std::move(dist),
      uniform_preference(n, sample), sample,
      unreachable_penalty.value_or(default_unreachable_penalty(csr)));
}

DelayObjective make_sampled_delay_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_cost,
    const std::vector<NodeId>& sample,
    std::optional<double> unreachable_penalty) {
  const auto& csr = engine.csr();
  check_active_self(csr, self);
  for (NodeId v : sample) {
    csr.check_node(v);
    if (v == self) throw std::invalid_argument("sample may not contain self");
  }
  const std::size_t n = engine.node_count();
  graph::DistanceMatrix dist(n, n, graph::kUnreachable);
  for (NodeId v : sample) {
    if (!csr.is_active(v)) continue;
    engine.shortest_from(v, self, dist.row(static_cast<std::size_t>(v)), query);
  }
  return DelayObjective(
      self, sample, direct_cost, std::move(dist),
      uniform_preference(n, sample), sample,
      unreachable_penalty.value_or(default_unreachable_penalty(csr)));
}

}  // namespace egoist::core
