// Read-set audit of served route answers.
//
// Every answer the serving stack returns names the publication it was read
// from (publish_seq). The benchmark keeps the WiringSnapshot of a fixed
// subset of publications and, after the measured window, re-derives each
// sampled answer with its own Dijkstra over that snapshot's announced
// graph. The reference deliberately shares no code with the library's
// graph::dijkstra or the RouteService row construction.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "host/wiring_snapshot.hpp"

namespace perfbench {

/// One served answer, as the client decoded it.
struct AuditSample {
  std::int32_t src = -1;
  std::int32_t dst = -1;
  bool reachable = false;
  std::int32_t next_hop = -1;
  double cost = 0.0;
  std::uint64_t seq = 0;
};

/// Distances from one source over the active nodes of `g`.
std::vector<double> reference_distances(const egoist::graph::Digraph& g,
                                        egoist::graph::NodeId src);

/// Memoizes reference rows per (publication, source) across samples.
class Auditor {
 public:
  /// `snapshots[seq]` is the pinned publication, or an invalid snapshot
  /// when that publication was not retained.
  explicit Auditor(const std::vector<egoist::host::WiringSnapshot>& snapshots)
      : snapshots_(snapshots) {}

  /// True when the publication of `sample` was retained.
  bool pinned(const AuditSample& sample) const;

  /// True when `sample` is what the pinned publication answers: the same
  /// reachability, the shortest cost, and a first hop that lies on a
  /// shortest path. Call only for pinned samples.
  bool matches(const AuditSample& sample);

 private:
  const std::vector<double>& row(std::uint64_t seq, egoist::graph::NodeId src);

  const std::vector<egoist::host::WiringSnapshot>& snapshots_;
  std::map<std::pair<std::uint64_t, egoist::graph::NodeId>,
           std::vector<double>>
      rows_;
};

}  // namespace perfbench
