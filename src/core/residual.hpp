// Builders that turn an overlay snapshot into per-node wiring objectives.
//
// A node computing its best response works on the *residual* graph G_{-i}
// (the overlay with its own out-edges removed, §2.1) as learned through the
// link-state protocol, plus its own direct-link measurements. These helpers
// do that derivation: strip the node's out-edges, run the appropriate
// all-pairs computation, and package the result as a WiringObjective.
//
// Two paths produce the same objectives:
//
// - The graph::PathEngine overloads (the hot path): the engine holds a CSR
//   snapshot of the overlay and serves G_{-i} as an O(1) residual *view*
//   (no graph copy, no per-call allocations). One engine is shared across
//   every node evaluated against the same snapshot.
// - The Digraph overloads (the legacy reference): materialize the residual
//   Digraph and run graph::all_pairs_* on it. Kept as the independent
//   implementation the equivalence tests compare against, and as the
//   baseline the perf_epoch_scaling bench measures.
//
// Distances from the two paths are bit-identical by construction.
#pragma once

#include <optional>
#include <vector>

#include "core/objective.hpp"
#include "graph/digraph.hpp"
#include "graph/path_engine.hpp"

namespace egoist::core {

/// Penalty used for unreachable destinations when none is supplied:
/// comfortably larger than any realistic path cost ("M >> n").
/// `finite_only` skips non-finite edge weights (links announced at an
/// unmeasured, infinite cost), which would otherwise make the penalty
/// infinite; off by default, the historical scan.
double default_unreachable_penalty(const graph::Digraph& overlay,
                                   bool finite_only = false);

/// As above, from a CSR snapshot (scans the cached max weight instead of
/// every adjacency list).
double default_unreachable_penalty(const graph::CsrGraph& overlay);

/// Builds a delay/load objective for `self`.
///
/// overlay:      current global wiring (edge weights = announced costs);
///               self's out-edges are ignored (residual graph semantics).
/// direct_cost:  measured direct-link cost self -> v, indexed by id; only
///               candidate entries are read.
/// preference:   p_ij per destination; std::nullopt = uniform over targets.
/// Candidates and targets default to all active nodes except self.
DelayObjective make_delay_objective(
    const graph::Digraph& overlay, NodeId self,
    const std::vector<double>& direct_cost,
    std::optional<std::vector<double>> preference = std::nullopt,
    std::optional<double> unreachable_penalty = std::nullopt);

/// Engine-backed variant: residual distances come from the shared CSR
/// snapshot with self's out-edge range excluded. The engine must have been
/// rebuilt from the overlay the caller is deciding on. When `scratch` is
/// non-null the residual matrix is written into it and the objective
/// borrows it (the epoch loop reuses one matrix instead of allocating
/// n^2 doubles per node); it must then outlive the objective.
DelayObjective make_delay_objective(
    graph::PathEngine& engine, NodeId self,
    const std::vector<double>& direct_cost,
    std::optional<std::vector<double>> preference = std::nullopt,
    std::optional<double> unreachable_penalty = std::nullopt,
    graph::DistanceMatrix* scratch = nullptr);

/// Const-engine variant for worker threads: all mutable query state lives
/// in the caller-owned `query` scratch, so any number of workers can build
/// objectives concurrently against one prepared engine (see
/// PathEngine::prepare_shortest). `scratch` semantics as above.
DelayObjective make_delay_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_cost,
    std::optional<std::vector<double>> preference = std::nullopt,
    std::optional<double> unreachable_penalty = std::nullopt,
    graph::DistanceMatrix* scratch = nullptr);

/// Builds a bandwidth objective for `self` (edge weights = available
/// bandwidth; residual computation = all-pairs widest paths).
BandwidthObjective make_bandwidth_objective(const graph::Digraph& overlay,
                                            NodeId self,
                                            const std::vector<double>& direct_bw);

/// Engine-backed variant of the bandwidth objective (scratch as above).
BandwidthObjective make_bandwidth_objective(graph::PathEngine& engine,
                                            NodeId self,
                                            const std::vector<double>& direct_bw,
                                            graph::DistanceMatrix* scratch = nullptr);

/// Const-engine variant (see the delay twin; prepare_widest first).
BandwidthObjective make_bandwidth_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_bw,
    graph::DistanceMatrix* scratch = nullptr);

/// Restricted variants for the sampling policies of §5: candidates and
/// targets are limited to `sample` (the newcomer only measures and reasons
/// about the sampled nodes).
DelayObjective make_sampled_delay_objective(
    const graph::Digraph& overlay, NodeId self,
    const std::vector<double>& direct_cost, const std::vector<NodeId>& sample,
    std::optional<double> unreachable_penalty = std::nullopt);

/// Engine-backed sampled variant: only the sampled sources' residual rows
/// are computed (single-source queries against the shared snapshot).
DelayObjective make_sampled_delay_objective(
    graph::PathEngine& engine, NodeId self,
    const std::vector<double>& direct_cost, const std::vector<NodeId>& sample,
    std::optional<double> unreachable_penalty = std::nullopt);

/// Const-engine sampled variant for worker threads.
DelayObjective make_sampled_delay_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_cost,
    const std::vector<NodeId>& sample,
    std::optional<double> unreachable_penalty = std::nullopt);

}  // namespace egoist::core
