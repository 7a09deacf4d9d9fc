#include "audit.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

namespace perfbench {

using egoist::graph::Digraph;
using egoist::graph::NodeId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

std::vector<double> reference_distances(const Digraph& g, NodeId src) {
  std::vector<double> dist(g.node_count(), kInf);
  if (!g.is_active(src)) return dist;
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.push({0.0, src});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& edge : g.out_edges(u)) {
      if (!g.is_active(edge.to)) continue;
      const double candidate = d + edge.weight;
      if (candidate < dist[static_cast<std::size_t>(edge.to)]) {
        dist[static_cast<std::size_t>(edge.to)] = candidate;
        heap.push({candidate, edge.to});
      }
    }
  }
  return dist;
}

bool Auditor::pinned(const AuditSample& sample) const {
  return sample.seq < snapshots_.size() && snapshots_[sample.seq].valid();
}

const std::vector<double>& Auditor::row(std::uint64_t seq, NodeId src) {
  const auto key = std::make_pair(seq, src);
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    it = rows_.emplace(key, reference_distances(
                                snapshots_[seq].announced_graph(), src))
             .first;
  }
  return it->second;
}

bool Auditor::matches(const AuditSample& s) {
  const auto& snap = snapshots_[s.seq];
  const auto n = static_cast<std::int32_t>(snap.size());
  if (s.src < 0 || s.src >= n || s.dst < 0 || s.dst >= n) return false;
  if (!snap.is_online(s.src) || !snap.is_online(s.dst)) return !s.reachable;
  if (s.src == s.dst) {
    return s.reachable && s.next_hop == s.src && s.cost == 0.0;
  }
  const double best = row(s.seq, s.src)[static_cast<std::size_t>(s.dst)];
  if (best == kInf) return !s.reachable;
  if (!s.reachable || !close_enough(s.cost, best)) return false;
  // The first hop must be an out-neighbour of src from which dst is still
  // reachable at exactly the remaining cost.
  const auto& g = snap.announced_graph();
  if (s.next_hop < 0 || s.next_hop >= n || !g.is_active(s.next_hop)) {
    return false;
  }
  for (const auto& edge : g.out_edges(s.src)) {
    if (edge.to != s.next_hop) continue;
    if (s.next_hop == s.dst) return close_enough(edge.weight, best);
    const double rest =
        row(s.seq, s.next_hop)[static_cast<std::size_t>(s.dst)];
    return rest != kInf && close_enough(edge.weight + rest, best);
  }
  return false;
}

}  // namespace perfbench
