// EgoistNetwork — one overlay (one policy, one metric) deployed on a shared
// Environment: the in-silico equivalent of one of the paper's concurrent
// per-policy PlanetLab agents.
//
// The network tracks, per node, the current wiring; an "announced" overlay
// graph whose edge weights are the costs nodes advertise through the
// link-state protocol (free riders inflate theirs, §3.4); and the node's
// online/offline state (churn, §4.4). Each wiring epoch every online node
// re-measures its candidate links, rebuilds its residual view from the
// announced graph and re-evaluates its wiring under its policy — adopting a
// new one when the policy says so (for BR(eps): when the improvement
// exceeds eps, §4.3).
//
// Scoring always uses the *true* instantaneous substrate quantities, never
// the announced ones, so measurement error and lying are visible in the
// results exactly as they were on PlanetLab.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "graph/digraph.hpp"
#include "graph/path_engine.hpp"
#include "net/underlay.hpp"
#include "overlay/config.hpp"
#include "overlay/dirty_tracker.hpp"
#include "overlay/environment.hpp"
#include "overlay/node_store.hpp"
#include "util/rng.hpp"

namespace egoist::overlay {

using graph::NodeId;

class EpochEngine;
struct EpochWorkspace;

/// The §5 scale-mode candidate sampler. Appends to `pool` min(count,
/// eligible) distinct ids drawn uniformly from `online` (ascending), never
/// `self` nor an id already in `pool`; `eligible` is the number of such
/// ids (pool entries must themselves be online). Draws by rejection —
/// O(count) expected draws, each checked against the pool by a linear
/// scan — unless count is at least half of the eligible ids; then it
/// enumerates them and runs a partial Fisher-Yates instead.
void sample_candidates(std::span<const NodeId> online, NodeId self,
                       std::size_t count, net::CounterStream& stream,
                       std::vector<NodeId>& pool);

/// Observation hooks the hosting layer installs to mirror engine activity
/// as typed events (host::OverlayHost's subscription API). Both optional;
/// neither influences the trajectory — the engine behaves identically with
/// or without observers.
struct NetworkHooks {
  /// A node adopted a new wiring (counted in total_rewirings). Backbone
  /// splices and announcement refreshes are maintenance, not re-wirings,
  /// and do not fire this.
  std::function<void(int node, const std::vector<NodeId>& old_wiring,
                     const std::vector<NodeId>& new_wiring)>
      on_rewire;
  /// A node went online/offline (fired before any resulting backbone
  /// splice or immediate repair re-wirings).
  std::function<void(int node, bool online)> on_membership;
};

class EgoistNetwork {
 public:
  /// All nodes join (in id order) at construction; use set_online to model
  /// churn afterwards.
  EgoistNetwork(Environment& env, OverlayConfig config);
  ~EgoistNetwork();

  std::size_t size() const { return store_.size(); }
  const OverlayConfig& config() const { return config_; }

  /// --- Membership (churn hooks) ---
  void set_online(int node, bool online);
  bool is_online(int node) const;
  std::size_t online_count() const;
  std::vector<NodeId> online_nodes() const;

  /// --- Protocol dynamics ---
  /// One wiring epoch. With config.epoch_workers == 0 (the default), every
  /// online node re-evaluates its wiring in a freshly shuffled order, each
  /// seeing the re-wirings of the nodes before it (nodes are not
  /// synchronized, §4.2). With epoch_workers >= 1 and a BR/HybridBR policy,
  /// the epoch runs as the deterministic parallel pipeline instead:
  /// snapshot (all measurements and RNG draws — sequential in ascending
  /// node order in dense mode; in scale mode the landmark traversals, the
  /// pool sampling and the measurements run on the workers, each node
  /// drawing from its own counter-based streams), evaluate (parallel —
  /// every node best-responds to the immutable epoch-start state), merge
  /// (sequential — adopted re-wirings applied and hooks fired in ascending
  /// node order). The pipeline trajectory is bit-identical at any worker
  /// count. Returns the number of nodes that changed their wiring this
  /// epoch.
  int run_epoch();

  /// Evaluates a single node's wiring (the staggered, unsynchronized mode:
  /// on average one node re-evaluates every T/n seconds). Returns true when
  /// the node re-wired. No-op (false) for offline nodes.
  bool run_node(int node);

  int epochs_run() const { return epochs_; }
  std::uint64_t total_rewirings() const { return total_rewirings_; }

  /// --- Incremental-epoch telemetry (meaningful in every mode; with
  /// incremental off, skipped is always 0) ---
  /// Node evaluations actually performed by run_epoch / run_node.
  std::uint64_t total_evaluations() const { return total_evaluations_; }
  /// Online-node turns skipped because the node's dirty bit was clear (and,
  /// in tolerance mode, its drift probe stayed under the threshold).
  std::uint64_t total_skipped_evals() const { return total_skipped_evals_; }
  /// Nodes currently marked for re-evaluation (n with incremental off —
  /// the tracker then just mirrors "everyone always re-evaluates").
  std::size_t dirty_count() const {
    return config_.incremental ? dirty_.dirty_count() : store_.size();
  }

  /// Current wiring (chosen neighbors, including donated links) of a node.
  /// A view into the SoA node store; invalidated by the next mutation of
  /// the node's row (epoch, churn, backbone splice).
  std::span<const NodeId> wiring(int node) const;

  /// HybridBR's donated backbone links of a node (empty for other
  /// policies). Same view semantics as wiring().
  std::span<const NodeId> donated(int node) const;

  /// --- Graph views ---
  /// Wiring with announced costs (what the link-state protocol carries).
  const graph::Digraph& announced_graph() const { return announced_; }

  /// Wiring with true, instantaneous metric costs (delay ms / node load /
  /// negative-free bandwidth depending on the metric).
  graph::Digraph true_cost_graph() const;

  /// Wiring with true available bandwidth as weights (for the multipath and
  /// disjoint-path applications; valid under any metric).
  graph::Digraph true_bandwidth_graph() const;

  /// --- Scores (computed on true costs, online nodes only) ---
  /// Uniform routing cost per online node (delay/load metrics).
  std::vector<double> node_costs() const;

  /// Efficiency (mean of 1/d, 0 when disconnected) per online node.
  std::vector<double> node_efficiencies() const;

  /// Mean bottleneck bandwidth to all destinations per online node.
  std::vector<double> node_bandwidth_scores() const;

  /// Per-node normalized routing preferences for scoring: empty when
  /// preferences are uniform (zipf exponent 0), otherwise indexed by node
  /// id with entries populated for the online nodes. This is the
  /// `preferences` input of overlay/scoring.hpp, also captured by
  /// host::WiringSnapshot so detached reads score identically.
  std::vector<std::vector<double>> score_preferences() const;

  /// The planes of the last pipeline epoch (measurement snapshot and
  /// proposals), for telemetry and determinism checks. Empty before the
  /// first pipeline epoch.
  const EpochStore& epoch_store() const { return epoch_store_; }

  /// Installs (or clears, with default-constructed hooks) the observers.
  void set_hooks(NetworkHooks hooks) { hooks_ = std::move(hooks); }

 private:
  /// Bootstrap wiring for a node joining (or re-joining) the overlay.
  void join(int node);

  /// Re-evaluates one node's wiring; returns true when it re-wired.
  bool evaluate_node(int node);

  /// Measures the direct metric cost/value from `node` to every online
  /// other (ping / coords / own load / bandwidth probe), indexed by id —
  /// the dense-mode row, drawn from the measurement plane's own streams.
  std::vector<double> measure_direct(int node);

  /// One measurement of link node -> v; `noise` as for
  /// Environment::measure_delay_ping (nullptr = the plane's own streams).
  double measure_link(int node, NodeId v, net::CounterStream* noise);

  /// Value of a link nobody measured: kUnreachable, or 0 for bandwidth.
  double unmeasured() const;

  /// Donated backbone links for `node`: +/- ring offsets over the online
  /// set (k2/2 bidirectional cycles, §3.3).
  std::vector<NodeId> backbone_links(int node) const;

  /// Rebuilds donated links of every online node (called on membership
  /// changes: the backbone is monitored aggressively and spliced
  /// immediately, unlike lazy BR links).
  void refresh_backbone();

  /// Installs a wiring and re-announces the node's links. `direct` is
  /// indexed by node id and must cover every wiring entry.
  void apply_wiring(int node, std::vector<NodeId> wiring,
                    std::span<const double> direct);

  /// Announced cost of link node -> v given its measured value.
  double announced_cost(int node, double measured) const;

  /// The graph a node reasons over: the announced overlay, optionally with
  /// audited costs (announcements that exceed audit_tolerance x the
  /// coordinate estimate are replaced by the estimate, §3.4). Returns a
  /// reference to announced_ when audits are off (the common case — no
  /// per-node graph copy), or to the member audit buffer otherwise.
  const graph::Digraph& decision_graph();

  /// The "M >> n" fold penalty for the current decision graph: the value
  /// cached for this epoch when inside run_epoch (computed once instead of
  /// rescanning every edge once per node), a fresh scan otherwise.
  double unreachable_penalty(const graph::Digraph& decision) const;

  /// The fresh scan behind unreachable_penalty. Scale mode skips
  /// non-finite weights: a link to a departed node is re-announced at its
  /// unmeasured (infinite) cost until its holder re-wires, an infinite
  /// penalty makes the BR(eps) test compare inf - inf = NaN, and NaN
  /// adopted every differing proposal of a node with an unreachable
  /// landmark — whole-overlay re-wiring epochs. Dense mode keeps the
  /// historical scan: taking it finite there too changes the churned
  /// dense outputs (fig2_churn, ablation panels (a) and (b)), which must
  /// stay byte-identical.
  double scan_penalty(const graph::Digraph& decision) const;

  /// Per-policy choice of new wiring. `direct` comes from measure_direct.
  std::vector<NodeId> choose_wiring(int node, const std::vector<double>& direct);

  /// --- §5 scale mode (config_.br_sample > 0) ---
  bool scale_mode() const { return config_.br_sample > 0; }

  /// The next turn of `node`'s private counter-based stream of kind
  /// `kind`: keyed by (seed, node, turn), with the node's turn counter
  /// advanced. Only the node's own task may call this, which is what makes
  /// scale-mode sampling and measurement race-free and worker-count
  /// invariant.
  net::CounterStream open_stream(NodeId node, std::uint64_t kind);

  /// Candidate pool for a scale-mode evaluation, ascending, into `pool`:
  /// the node's current wiring and donated links plus br_sample others
  /// from sample_candidates on a fresh turn of its sample stream. O(pool).
  void sample_pool(int node, std::vector<NodeId>& pool);

  /// Direct measurement restricted to `pool`, out[i] for pool[i] (self and
  /// offline members read unmeasured()) — the only pairs the node probes.
  /// Scale mode draws the noise from a fresh turn of the node's private
  /// stream, so distinct nodes may measure concurrently; dense mode draws
  /// from the measurement plane's own sequential streams.
  void measure_pool(int node, std::span<const NodeId> pool,
                    std::span<double> out);

  /// Upper bound of a scale-mode pool: committed links plus the sample.
  std::size_t pool_capacity() const;

  /// (Re)computes the epoch-shared landmark state: samples br_landmarks
  /// online destinations (sequentially, from rng_) and runs one reverse
  /// traversal of the announced graph per landmark (shortest for
  /// delay/load, widest for bandwidth) — one column per task on `workers`
  /// when given, in a loop otherwise.
  void refresh_landmarks(EpochEngine* workers = nullptr);

  /// Scale-mode node evaluation (sampled candidates x landmark targets);
  /// same BR(eps) adoption rule and hooks as the dense path.
  bool evaluate_node_sampled(int node);

  /// Scale-mode bootstrap wiring: k closest/widest of a fresh sample.
  void join_sampled(int node);

  /// A (re)joining node's single bootstrap link (§3.1). Scale mode draws
  /// the bootstrap with sample_candidates and measures that one pair.
  void connect_bootstrap(int node);

  /// Builds the metric-appropriate residual objective over the decision
  /// graph — through the shared CSR engine or the legacy residual-copy
  /// path, per config — and runs the BR search. When `current_for_cost`
  /// is non-null, *current_cost receives that wiring's cost under the same
  /// objective (the BR(eps) adoption baseline).
  core::BestResponseResult run_best_response(
      int node, const std::vector<double>& direct, std::size_t free_k,
      const core::BestResponseOptions& options,
      const std::vector<NodeId>* current_for_cost, double* current_cost);

  bool is_cheater(int node) const;

  /// Node `node`'s routing preference over all destinations (normalized
  /// over the currently online targets; offline entries zeroed).
  std::vector<double> preference_of(int node) const;

  /// --- Deterministic parallel epoch pipeline (config_.epoch_workers >= 1,
  /// BR/HybridBR; see run_epoch) ---
  bool use_pipeline() const;
  int run_epoch_pipeline();

  /// The lazily built worker pool + per-worker workspaces (rebuilt when the
  /// knob changes).
  EpochEngine& epoch_engine();

  /// Evaluate-phase body: computes node v's best response against the epoch
  /// snapshot and writes its proposal slot. Runs concurrently for distinct
  /// nodes — reads only frozen state and `ws`, writes only v's disjoint
  /// EpochStore slot.
  void evaluate_proposal(NodeId v, EpochWorkspace& ws,
                         const graph::Digraph& decision, double penalty,
                         std::size_t base_free_k);

  /// --- Incremental dirty-set epochs (config_.incremental) ---
  /// The epoch-turn skip decision: the node's dirty bit, or — tolerance
  /// mode only — an O(k) drift probe of its own wiring links against the
  /// baseline captured at its last evaluation.
  bool node_needs_evaluation(int node);

  /// Post-announce marking, called from apply_wiring with the node's
  /// previous announced out-edge row: exact mode marks everyone on any
  /// delta; tolerance mode marks the announcer's holders plus the sources
  /// whose base-tree rows the engine's incremental patch invalidated.
  void note_announce(int node, std::span<const graph::Edge> old_row);

  /// Online nodes whose wiring or donated links contain `node` (the
  /// announced graph has no reverse index; rows are k-bounded so the scan
  /// is O(n * k)).
  void collect_holders(int node, std::vector<NodeId>& out) const;

  Environment& env_;
  OverlayConfig config_;
  NetworkHooks hooks_;
  util::Rng rng_;
  std::vector<std::vector<double>> base_preference_;  ///< unnormalized Zipf weights

  /// SoA component store for per-node overlay state (membership, wiring
  /// rows, donated rows) — flat slabs instead of one heap vector per node.
  NodeStore store_;

  /// Epoch-scoped planes of the parallel pipeline: the measurement
  /// snapshot (dense rows or scale-mode pools) and the proposal slots.
  EpochStore epoch_store_;

  /// Worker pool + workspaces for the evaluate phase (pipeline mode only).
  std::unique_ptr<EpochEngine> epoch_engine_;

  graph::Digraph announced_;

  /// Shared CSR path engine (PathBackend::kCsrEngine): re-snapshots the
  /// decision graph before each BR evaluation, reusing its flat buffers, so
  /// the residual all-pairs runs allocation-free. Each node's G_{-i} is an
  /// O(1) exclusion view over the snapshot instead of a graph copy.
  graph::PathEngine engine_;

  /// Residual-matrix scratch reused by every engine-backed objective (the
  /// objective borrows it for the duration of one evaluation) so the epoch
  /// loop performs no n^2 allocations.
  graph::DistanceMatrix residual_scratch_;

  /// Link-value scratch reused by every best_response() search.
  core::BestResponseScratch br_scratch_;

  /// Audited decision graph buffer (only populated when audits are on).
  graph::Digraph audited_;

  /// True while run_epoch keeps the engine synchronized with announced_:
  /// the engine is snapshotted once at the epoch boundary and then patched
  /// incrementally after each node re-announces (update_out_edges), so its
  /// shared base trees survive the whole sequential epoch. Off outside
  /// epochs (run_node, immediate re-wiring: per-call snapshots) and in
  /// audit mode (the audited decision graph is rebuilt per node).
  bool engine_synced_ = false;

  /// Per-epoch cache of core::default_unreachable_penalty over the decision
  /// graph: set for the duration of run_epoch, empty outside it (join and
  /// immediate-rewire paths compute a fresh value, as the seed did).
  std::optional<double> epoch_penalty_;

  /// Scale-mode landmark state: distance/bottleneck from every node to each
  /// landmark (n x L, epoch-shared), the landmark ids, and the id -> column
  /// map. Nodes decide on the announced graph as of the last refresh, like
  /// agents acting on the last flooded link state. A refresh serves one
  /// epoch-equivalent of evaluations: run_epoch refreshes at its boundary;
  /// the staggered/run_node path decrements `evals_left` and refreshes
  /// after online_count() evaluations, so both schedules recompute the L
  /// reverse traversals once per epoch, not once per node. Membership
  /// changes invalidate the state (landmarks may have left).
  struct LandmarkState {
    bool valid = false;
    std::size_t evals_left = 0;
    std::vector<NodeId> landmarks;
    std::vector<std::int32_t> column;  ///< node id -> column; -1 = none
    graph::DistanceMatrix dist;
    graph::Digraph reversed{0};          ///< refresh scratch
  };
  LandmarkState landmark_state_;

  /// Per-node invalidation state for incremental epochs (only reset — and
  /// only consulted — when config_.incremental is on).
  DirtyTracker dirty_;
  std::vector<graph::Edge> old_row_scratch_;  ///< apply_wiring announce delta
  std::vector<NodeId> holder_scratch_;        ///< tolerance-mode marking
  std::vector<NodeId> drift_links_scratch_;   ///< drift-probe link list

  /// Scale mode: per-node turn counters of the private counter-based
  /// streams (open_stream), and reusable pool-sized buffers plus one
  /// id-indexed row (all unmeasured() between uses) for the sequential
  /// paths and the merge.
  std::vector<std::uint32_t> stream_turn_;
  std::vector<NodeId> pool_scratch_;
  std::vector<double> values_scratch_;
  std::vector<double> direct_scratch_;

  int epochs_ = 0;
  std::uint64_t total_rewirings_ = 0;
  std::uint64_t total_evaluations_ = 0;
  std::uint64_t total_skipped_evals_ = 0;
};

}  // namespace egoist::overlay
