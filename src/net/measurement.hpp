// Measurement-plane simulators: ping, pathChirp-like probing, and the
// overhead accounting of §4.3.
//
// Active ping: one-way delay is estimated as RTT/2 averaged over several
// samples (the paper's method), so asymmetric pairs carry an inherent
// estimation error — which is one reason BR over measured costs differs
// from BR over true costs. Each ICMP ECHO request/reply is 320 bits.
//
// pathChirp: returns the true available bandwidth perturbed by a relative
// error (the tool is "fast and accurate" but not exact); probing consumes
// < 2% of the path's available bandwidth (paper measurement).
#pragma once

#include <cstdint>

#include "net/fields.hpp"
#include "util/rng.hpp"

namespace egoist::net {

/// Bit sizes and rates from §4.3 used for overhead accounting.
struct OverheadConstants {
  static constexpr double kPingMessageBits = 320.0;       ///< ICMP ECHO req/reply
  static constexpr double kCoordRequestBits = 320.0;      ///< pyxida HTTP request
  static constexpr double kCoordPerNodeBits = 32.0;       ///< per-node coordinate payload
  static constexpr double kLsaHeaderBits = 192.0;         ///< link-state header+padding
  static constexpr double kLsaPerNeighborBits = 32.0;     ///< per-neighbor payload
};

/// Simulated ping-based one-way delay estimator. Works against any
/// DelayField (dense matrix or procedural backend).
class PingProber {
 public:
  /// jitter_ms: per-sample measurement noise; samples: RTT samples averaged
  /// per estimate (the paper averages "over enough samples").
  PingProber(const DelayField& delays, std::uint64_t seed, double jitter_ms = 2.0,
             int samples = 5);

  /// Estimated one-way delay i -> j (ms): mean(RTT samples) / 2.
  double estimate_one_way(int i, int j);

  /// Bits injected by one estimate (request + reply per sample).
  double bits_per_estimate() const;

  /// §4.3 formula: active measurement load for a node re-probing the
  /// (n - k - 1) non-neighbors once per wiring epoch T (bits/sec).
  /// Degenerate overlays with n <= k + 1 have no non-neighbors to probe
  /// and clamp to 0 instead of underflowing the (n - k - 1) term.
  static double ping_load_bps(std::size_t n, std::size_t k, double epoch_s);

 private:
  const DelayField& delays_;
  util::Rng rng_;
  double jitter_ms_;
  int samples_;
};

/// Simulated pathChirp-like available-bandwidth prober. Works against any
/// BandwidthField.
class BandwidthProber {
 public:
  BandwidthProber(const BandwidthField& bw, std::uint64_t seed,
                  double relative_error = 0.05);

  /// Estimated available bandwidth i -> j (Mbps), perturbed by a draw
  /// from this prober's own sequential noise stream.
  double estimate(int i, int j);

  /// The same estimate with the caller's standard-normal draw `z` as the
  /// error term (callers that own a private noise stream).
  double estimate(int i, int j, double z) const;

  /// Probe traffic for one estimate as a fraction of the measured path's
  /// available bandwidth (paper: < 2%).
  static constexpr double kProbeFraction = 0.02;

 private:
  const BandwidthField& bw_;
  util::Rng rng_;
  double relative_error_;
};

/// §4.3 overhead formulas, reproduced verbatim so the overhead bench can
/// compare simulated byte counts against the paper's closed forms.
struct OverheadFormulas {
  /// Coordinate-system measurement load per node (bps): one request/reply
  /// carrying all n coordinates per epoch.
  static double coord_load_bps(std::size_t n, double epoch_s);

  /// Link-state announcement load per node (bps): header + k neighbor
  /// entries every announce interval.
  static double lsa_load_bps(std::size_t k, double announce_s);
};

}  // namespace egoist::net
