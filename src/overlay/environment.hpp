// The shared "PlanetLab" substrate an overlay (or several, concurrently)
// runs against: true delays, available bandwidth, node load, and the
// measurement planes (ping, Vivaldi coordinates, pathChirp-like probes).
//
// The paper neutralizes extrinsic variability by running all policies
// concurrently on the same nodes; we reproduce that by constructing one
// Substrate and evaluating every policy's overlay against it through its
// own Environment (one measurement plane per overlay).
//
// Substrates are backed by a pluggable net::UnderlayBackend: the dense
// stateful models (the default — every fixed-seed figure stays
// byte-identical) or the procedural O(n)-memory substrate that opens the
// §5 scale regime. Measurement planes follow suit: below
// sparse_plane_threshold nodes on a dense backend they keep the historical
// dense per-pair arrays (bit-exact); at scale, or on the procedural
// backend, they hold sparse pair state — one row of (destination, EWMA)
// entries per source, holding the pairs that source actually probed — and
// derive per-pair delay drift procedurally: O(probed pairs), not O(n^2).
// A pair's state is touched only through its source's row, so measurements
// from distinct sources may run concurrently when the caller supplies each
// source's noise stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coord/vivaldi.hpp"
#include "net/load.hpp"
#include "net/measurement.hpp"
#include "net/underlay.hpp"

namespace egoist::overlay {

struct EnvironmentConfig {
  net::GeoDelayConfig geo;            ///< PlanetLab-like delay generator knobs
  net::BandwidthConfig bandwidth;
  net::LoadConfig load;
  coord::VivaldiConfig vivaldi;
  double ping_jitter_ms = 1.0;        ///< per-sample ping noise
  int ping_samples = 5;
  double bw_probe_error = 0.05;       ///< pathChirp-like relative error
  int coord_warmup_rounds = 200;      ///< Vivaldi convergence before use

  /// Slow per-pair delay drift (mean-reverting, relative): Internet paths
  /// wander as routes and queues change, which is what sustains a nonzero
  /// re-wiring rate at steady state (Fig 3).
  double delay_drift_volatility = 0.004;  ///< innovation per sqrt(second)
  double delay_drift_reversion = 0.01;    ///< pull toward 0 per second
  double delay_drift_cap = 0.3;           ///< |drift| bound

  /// Which substrate backend to construct (dense = the historical models).
  net::UnderlayKind underlay = net::UnderlayKind::kDense;

  /// Measurement planes switch from the historical dense per-pair arrays
  /// to sparse probed-pair state at this node count (and always on the
  /// procedural backend). Dense planes below the threshold are bit-exact
  /// with the pre-backend code; sparse planes draw their delay drift from
  /// a procedural hash stream instead of a stateful O(n^2) sweep.
  std::size_t sparse_plane_threshold = 512;
};

/// The dynamic processes every overlay on one deployment shares: the
/// underlay backend (delay/bandwidth/load fields) and the Vivaldi
/// coordinate system. Advanced at most once per point in time — concurrent
/// overlays whose measurement planes advance in lockstep see one substrate
/// trajectory, identical to the trajectory a single overlay would see.
class Substrate {
 public:
  Substrate(std::size_t n, std::uint64_t seed, EnvironmentConfig config = {});

  std::size_t size() const { return backend_->size(); }
  std::uint64_t seed() const { return seed_; }
  const EnvironmentConfig& config() const { return config_; }

  const net::UnderlayBackend& backend() const { return *backend_; }
  net::UnderlayKind underlay_kind() const { return backend_->kind(); }

  const net::DelayField& delays() const { return backend_->delays(); }
  const net::BandwidthField& bandwidth() const { return backend_->bandwidth(); }
  const net::LoadField& load() const { return backend_->load(); }
  const coord::VivaldiSystem& coords() const { return coords_; }

  /// Substrate storage footprint: backend state plus the O(n) coordinate
  /// system (telemetry for the scale experiments).
  std::size_t memory_bytes() const;

  double now() const { return now_; }

  /// Advances the dynamic processes by `dt` seconds, landing on plane time
  /// `to`. A no-op when the substrate already reached `to` — that is how N
  /// lockstep measurement planes share one substrate without advancing it
  /// N times per step. (Planes whose advance schedules differ each pull the
  /// substrate forward by their own dt; determinism always holds, but
  /// equivalence with a solo run needs matching schedules.)
  void advance_step(double dt, double to);

 private:
  std::unique_ptr<net::UnderlayBackend> backend_;
  coord::VivaldiSystem coords_;
  EnvironmentConfig config_;
  std::uint64_t seed_;
  double now_ = 0.0;
};

/// One overlay's view of a Substrate: the true (oracle) quantities used for
/// scoring, plus the noisy measurement plane the overlay's nodes decide on
/// (ping EWMAs, bandwidth probe state, per-pair delay drift, load
/// estimators, and the measurement noise stream).
///
/// The owning constructor builds a private Substrate, which is the classic
/// single-overlay deployment. The sharing constructor attaches a fresh,
/// identically-seeded plane to an existing Substrate — the multi-overlay
/// host path: every plane seeded alike sees the same noise realization, so
/// concurrent overlays are compared under identical conditions exactly like
/// the paper's per-policy PlanetLab agents.
class Environment {
 public:
  Environment(std::size_t n, std::uint64_t seed, EnvironmentConfig config = {});

  /// Measurement-plane fork over a shared substrate; `seed` seeds this
  /// plane's noise streams the same way the owning constructor would.
  Environment(std::shared_ptr<Substrate> substrate, std::uint64_t seed);

  std::size_t size() const { return substrate_->size(); }

  const net::DelayField& delays() const { return substrate_->delays(); }
  const net::BandwidthField& bandwidth() const { return substrate_->bandwidth(); }
  const net::LoadField& load() const { return substrate_->load(); }
  const coord::VivaldiSystem& coords() const { return substrate_->coords(); }
  const std::shared_ptr<Substrate>& substrate() const { return substrate_; }

  /// --- True (oracle) per-link quantities, used to score overlays ---
  /// Base delay modulated by the current drift state.
  double true_delay(int i, int j) const;
  double true_load(int node) const { return substrate_->load().load(node); }
  double true_avail_bw(int i, int j) const {
    return substrate_->bandwidth().avail_bw(i, j);
  }

  /// --- Measured quantities, used by nodes to decide ---
  /// Ping estimates are smoothed across calls (EWMA, alpha = 0.3): nodes
  /// monitor links continuously and fold fresh samples into a running
  /// average rather than trusting a single epoch's probe.
  ///
  /// `jitter` is the source of the per-sample queueing noise: nullptr draws
  /// from this plane's own sequential stream (the historical behaviour);
  /// a caller-owned stream makes the call touch no shared state beyond
  /// pair (i, j), so calls for distinct sources i may run concurrently.
  double measure_delay_ping(int i, int j, net::CounterStream* jitter = nullptr);
  double measure_delay_coords(int i, int j) const {
    return substrate_->coords().estimate_one_way(i, j);
  }
  /// EWMA-smoothed load as the node itself reports it.
  double measure_load(int node) const;
  /// `noise` as for measure_delay_ping: nullptr = the prober's own stream.
  double measure_avail_bw(int i, int j, net::CounterStream* noise = nullptr) {
    return noise != nullptr ? bw_probe_.estimate(i, j, noise->gaussian())
                            : bw_probe_.estimate(i, j);
  }

  /// Advances this plane (and, when it is the first plane to reach the new
  /// time, the shared substrate) by dt seconds: bandwidth cross traffic,
  /// node load, one coordinate-maintenance round, load EWMAs, delay drift.
  void advance(double dt);

  double now() const { return now_; }

  /// --- Plane telemetry (scale experiments) ---
  /// True when this plane holds sparse probed-pair state instead of the
  /// dense n^2 arrays.
  bool sparse_plane() const { return sparse_plane_; }

  /// Directed pairs this plane has pinged at least once.
  std::size_t probed_pairs() const;

  /// Bytes of per-pair measurement state (ping EWMAs + drift). For the
  /// sparse plane: one row pointer per node, plus the header and allocated
  /// entry capacity of every source row that probed something.
  std::size_t plane_memory_bytes() const;

 private:
  double drift(int i, int j) const;

  /// Sparse plane: one source's probed pairs. entries[0, sorted) is
  /// ordered by destination; later entries are a short unsorted tail that
  /// is merged in once it reaches kPingTail, so a lookup is a binary search
  /// plus a bounded scan and an insert costs O(row / kPingTail) amortized.
  struct PingEntry {
    std::int32_t dst;
    double ewma;
  };
  struct PingRow {
    std::vector<PingEntry> entries;
    std::size_t sorted = 0;
  };
  static constexpr std::size_t kPingTail = 16;

  /// The EWMA slot of pair (i, j) in the sparse plane (NaN when new).
  double& sparse_ewma(int i, int j);

  std::shared_ptr<Substrate> substrate_;
  net::BandwidthProber bw_probe_;
  std::vector<net::LoadEstimator> load_estimators_;
  bool sparse_plane_ = false;

  /// Dense plane (historical layout; bit-exact below the threshold).
  std::vector<double> ping_smoothed_;  ///< per-pair EWMA; NaN = no sample yet
  std::vector<double> delay_drift_;    ///< per-pair relative drift state

  /// Sparse plane: EWMA state only for pairs actually probed, one row per
  /// source (allocated at its first probe); drift is a pure function of
  /// (plane drift seed, i, j, time) — no per-pair state.
  std::vector<std::unique_ptr<PingRow>> ping_rows_;
  std::uint64_t drift_seed_ = 0;
  double drift_amp_ = 0.0;
  double drift_tau_ = 1.0;

  util::Rng rng_;
  double now_ = 0.0;
};

}  // namespace egoist::overlay
