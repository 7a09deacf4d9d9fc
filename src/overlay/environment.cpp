#include "overlay/environment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace egoist::overlay {

Substrate::Substrate(std::size_t n, std::uint64_t seed, EnvironmentConfig config)
    : backend_(net::make_underlay(config.underlay, n, seed, config.geo,
                                  config.bandwidth, config.load)),
      coords_(backend_->delays(), seed ^ 0xC00Dull, config.vivaldi),
      config_(config),
      seed_(seed) {
  coords_.converge(config.coord_warmup_rounds);
}

void Substrate::advance_step(double dt, double to) {
  if (to <= now_) return;  // another plane already pulled us here
  backend_->advance(dt);
  coords_.tick();  // one coordinate-maintenance round per advance
  now_ = to;
}

std::size_t Substrate::memory_bytes() const {
  // Vivaldi: one coordinate (position + height) and one error term per node.
  const std::size_t coords =
      size() * (sizeof(coord::Coordinate) + sizeof(double));
  return backend_->memory_bytes() + coords;
}

Environment::Environment(std::size_t n, std::uint64_t seed,
                         EnvironmentConfig config)
    : Environment(std::make_shared<Substrate>(n, seed, config), seed) {}

Environment::Environment(std::shared_ptr<Substrate> substrate,
                         std::uint64_t seed)
    : substrate_(std::move(substrate)),
      bw_probe_(substrate_->bandwidth(), seed ^ 0xBEEFull,
                substrate_->config().bw_probe_error),
      rng_(seed ^ 0xE417ull),
      now_(substrate_->now()) {
  const auto& config = substrate_->config();
  const std::size_t n = substrate_->size();
  sparse_plane_ = config.underlay == net::UnderlayKind::kProcedural ||
                  n >= config.sparse_plane_threshold;
  if (!sparse_plane_) {
    // Historical dense plane: state laid out exactly as the pre-backend
    // Environment did, so fixed-seed figure runs stay byte-identical.
    ping_smoothed_.assign(n * n, std::numeric_limits<double>::quiet_NaN());
    delay_drift_.assign(n * n, 0.0);
  } else {
    // Sparse plane: ping EWMAs materialize per probed pair in the source's
    // row; drift is the procedural hash stream below (stationary moments
    // calibrated to the dense OU process), so advance() needs no per-pair
    // sweep.
    ping_rows_.resize(n);
    drift_seed_ = seed ^ 0xD21F7ull;
    drift_tau_ = config.delay_drift_reversion > 0.0
                     ? 1.0 / config.delay_drift_reversion
                     : 1.0;
    drift_amp_ = config.delay_drift_reversion > 0.0
                     ? config.delay_drift_volatility /
                           std::sqrt(2.0 * config.delay_drift_reversion)
                     : 0.0;
  }
  load_estimators_.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    load_estimators_.emplace_back(60.0);
    load_estimators_.back().observe(substrate_->load().load(static_cast<int>(v)),
                                    0.0);
  }
}

double Environment::drift(int i, int j) const {
  if (!sparse_plane_) {
    return delay_drift_[static_cast<std::size_t>(i) * size() +
                        static_cast<std::size_t>(j)];
  }
  const auto& config = substrate_->config();
  const double d = drift_amp_ * net::ou_noise(drift_seed_,
                                              static_cast<std::uint64_t>(i),
                                              static_cast<std::uint64_t>(j),
                                              now_, drift_tau_);
  return std::clamp(d, -config.delay_drift_cap, config.delay_drift_cap);
}

double Environment::true_delay(int i, int j) const {
  const double base = substrate_->delays().delay(i, j);
  return base * (1.0 + drift(i, j));
}

double& Environment::sparse_ewma(int i, int j) {
  auto& slot = ping_rows_[static_cast<std::size_t>(i)];
  if (!slot) slot = std::make_unique<PingRow>();
  PingRow& row = *slot;
  auto& entries = row.entries;
  const auto by_dst = [](const PingEntry& e, std::int32_t dst) {
    return e.dst < dst;
  };
  const auto sorted_end =
      entries.begin() + static_cast<std::ptrdiff_t>(row.sorted);
  const auto it = std::lower_bound(entries.begin(), sorted_end, j, by_dst);
  if (it != sorted_end && it->dst == j) return it->ewma;
  for (auto t = sorted_end; t != entries.end(); ++t) {
    if (t->dst == j) return t->ewma;
  }
  if (entries.size() - row.sorted >= kPingTail) {
    const auto dst_less = [](const PingEntry& a, const PingEntry& b) {
      return a.dst < b.dst;
    };
    const auto tail = entries.begin() + static_cast<std::ptrdiff_t>(row.sorted);
    std::sort(tail, entries.end(), dst_less);
    std::inplace_merge(entries.begin(), tail, entries.end(), dst_less);
    row.sorted = entries.size();
  }
  // Grow by a quarter, not the default doubling: rows only ever grow, so
  // the slack would otherwise be a standing share of the plane.
  if (entries.size() == entries.capacity()) {
    entries.reserve(entries.size() + entries.size() / 4 + 4);
  }
  entries.push_back({j, std::numeric_limits<double>::quiet_NaN()});
  return entries.back().ewma;
}

double Environment::measure_delay_ping(int i, int j,
                                       net::CounterStream* jitter) {
  const auto& config = substrate_->config();
  // RTT/2 averaged over ping_samples probes; queueing noise only adds.
  const double rtt = true_delay(i, j) + true_delay(j, i);
  double sum = 0.0;
  for (int s = 0; s < config.ping_samples; ++s) {
    const double noise = jitter != nullptr
                             ? config.ping_jitter_ms * jitter->gaussian()
                             : rng_.normal(0.0, config.ping_jitter_ms);
    sum += rtt + std::abs(noise);
  }
  const double sample = sum / config.ping_samples / 2.0;

  double& smoothed =
      sparse_plane_ ? sparse_ewma(i, j)
                    : ping_smoothed_[static_cast<std::size_t>(i) * size() +
                                     static_cast<std::size_t>(j)];
  if (std::isnan(smoothed)) {
    smoothed = sample;
  } else {
    // Nodes monitor links continuously; fold fresh samples into a running
    // average rather than trusting a single epoch's probe.
    constexpr double kAlpha = 0.3;
    smoothed = (1.0 - kAlpha) * smoothed + kAlpha * sample;
  }
  return smoothed;
}

double Environment::measure_load(int node) const {
  const auto& est = load_estimators_.at(static_cast<std::size_t>(node));
  return est.has_estimate() ? est.estimate() : 0.0;
}

void Environment::advance(double dt) {
  now_ += dt;
  substrate_->advance_step(dt, now_);
  for (std::size_t v = 0; v < load_estimators_.size(); ++v) {
    load_estimators_[v].observe(substrate_->load().load(static_cast<int>(v)),
                                now_);
  }
  if (sparse_plane_) return;  // drift is procedural: nothing to sweep
  // Mean-reverting relative delay drift per directed pair.
  const auto& config = substrate_->config();
  const double pull = std::min(1.0, config.delay_drift_reversion * dt);
  const double noise = config.delay_drift_volatility * std::sqrt(dt);
  for (double& d : delay_drift_) {
    d = (1.0 - pull) * d + noise * rng_.normal(0.0, 1.0);
    d = std::clamp(d, -config.delay_drift_cap, config.delay_drift_cap);
  }
}

std::size_t Environment::probed_pairs() const {
  if (sparse_plane_) {
    std::size_t probed = 0;
    for (const auto& row : ping_rows_) {
      if (row) probed += row->entries.size();
    }
    return probed;
  }
  std::size_t probed = 0;
  for (const double v : ping_smoothed_) {
    if (!std::isnan(v)) ++probed;
  }
  return probed;
}

std::size_t Environment::plane_memory_bytes() const {
  if (!sparse_plane_) {
    return (ping_smoothed_.size() + delay_drift_.size()) * sizeof(double);
  }
  std::size_t bytes = ping_rows_.capacity() * sizeof(ping_rows_[0]);
  for (const auto& row : ping_rows_) {
    if (row) bytes += sizeof(PingRow) + row->entries.capacity() * sizeof(PingEntry);
  }
  return bytes;
}

}  // namespace egoist::overlay
