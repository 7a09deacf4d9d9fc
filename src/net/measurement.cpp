#include "net/measurement.hpp"

#include <algorithm>
#include <stdexcept>

namespace egoist::net {

PingProber::PingProber(const DelayField& delays, std::uint64_t seed,
                       double jitter_ms, int samples)
    : delays_(delays), rng_(seed), jitter_ms_(jitter_ms), samples_(samples) {
  if (samples < 1) throw std::invalid_argument("need >= 1 sample");
  if (jitter_ms < 0.0) throw std::invalid_argument("jitter must be >= 0");
}

double PingProber::estimate_one_way(int i, int j) {
  const double rtt = delays_.rtt(i, j);
  double sum = 0.0;
  for (int s = 0; s < samples_; ++s) {
    // Queueing adds delay, never removes it: fold the absolute value.
    sum += rtt + std::abs(rng_.normal(0.0, jitter_ms_));
  }
  return sum / static_cast<double>(samples_) / 2.0;
}

double PingProber::bits_per_estimate() const {
  return 2.0 * OverheadConstants::kPingMessageBits * samples_;
}

double PingProber::ping_load_bps(std::size_t n, std::size_t k, double epoch_s) {
  if (epoch_s <= 0.0) throw std::invalid_argument("epoch must be positive");
  // Degenerate overlays (n <= k + 1): every other node is already a
  // neighbor, so there is nothing to re-probe. Clamp instead of letting the
  // unsigned (n - k - 1) underflow.
  if (n <= k + 1) return 0.0;
  return static_cast<double>(n - k - 1) * OverheadConstants::kPingMessageBits /
         epoch_s;
}

BandwidthProber::BandwidthProber(const BandwidthField& bw, std::uint64_t seed,
                                 double relative_error)
    : bw_(bw), rng_(seed), relative_error_(relative_error) {
  if (relative_error < 0.0 || relative_error >= 1.0) {
    throw std::invalid_argument("relative error in [0, 1)");
  }
}

double BandwidthProber::estimate(int i, int j) {
  return estimate(i, j, rng_.normal(0.0, 1.0));
}

double BandwidthProber::estimate(int i, int j, double z) const {
  const double truth = bw_.avail_bw(i, j);
  return std::max(0.0, truth * (1.0 + relative_error_ * z));
}

double OverheadFormulas::coord_load_bps(std::size_t n, double epoch_s) {
  if (epoch_s <= 0.0) throw std::invalid_argument("epoch must be positive");
  return (OverheadConstants::kCoordRequestBits +
          OverheadConstants::kCoordPerNodeBits * static_cast<double>(n)) /
         epoch_s;
}

double OverheadFormulas::lsa_load_bps(std::size_t k, double announce_s) {
  if (announce_s <= 0.0) throw std::invalid_argument("interval must be positive");
  return (OverheadConstants::kLsaHeaderBits +
          OverheadConstants::kLsaPerNeighborBits * static_cast<double>(k)) /
         announce_s;
}

}  // namespace egoist::net
