// §5 scale-mode contract tests: sampled BR epochs are deterministic,
// respect k, keep the measurement plane at O(probed pairs), work on both
// backends and in the staggered host mode, and the config guards reject
// unsupported combinations.
#include <gtest/gtest.h>

#include <algorithm>

#include "churn/churn.hpp"
#include "host/overlay_host.hpp"

namespace egoist::overlay {
namespace {

EnvironmentConfig scale_env(net::UnderlayKind kind) {
  EnvironmentConfig config;
  config.underlay = kind;
  config.sparse_plane_threshold = 0;
  config.coord_warmup_rounds = 5;
  return config;
}

OverlayConfig scale_config(Policy policy = Policy::kBestResponse,
                           Metric metric = Metric::kDelayPing) {
  OverlayConfig config;
  config.policy = policy;
  config.metric = metric;
  config.k = 4;
  config.seed = 5;
  config.br_sample = 8;
  config.br_landmarks = 12;
  return config;
}

TEST(ScaleModeTest, RejectsUnsupportedCombinations) {
  Environment env(16, 1, scale_env(net::UnderlayKind::kDense));
  auto bad = scale_config(Policy::kClosest);
  EXPECT_THROW(EgoistNetwork(env, bad), std::invalid_argument);
  bad = scale_config();
  bad.br_landmarks = 0;
  EXPECT_THROW(EgoistNetwork(env, bad), std::invalid_argument);
  bad = scale_config();
  bad.preference_zipf_exponent = 1.0;
  EXPECT_THROW(EgoistNetwork(env, bad), std::invalid_argument);
  bad = scale_config();
  bad.enable_audits = true;
  EXPECT_THROW(EgoistNetwork(env, bad), std::invalid_argument);
}

TEST(ScaleModeTest, EpochsAreDeterministicAndRespectK) {
  for (const auto kind :
       {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
    auto run = [&](int epochs) {
      Environment env(40, 7, scale_env(kind));
      EgoistNetwork net(env, scale_config());
      for (int e = 0; e < epochs; ++e) {
        env.advance(60.0);
        net.run_epoch();
      }
      std::vector<std::vector<NodeId>> wirings;
      for (int v = 0; v < 40; ++v) {
        const auto wiring = net.wiring(v);
        wirings.emplace_back(wiring.begin(), wiring.end());
      }
      return std::make_pair(wirings, net.total_rewirings());
    };
    const auto [wirings_a, rewired_a] = run(3);
    const auto [wirings_b, rewired_b] = run(3);
    EXPECT_EQ(wirings_a, wirings_b);
    EXPECT_EQ(rewired_a, rewired_b);
    for (const auto& wiring : wirings_a) {
      EXPECT_LE(wiring.size(), 4u);
      EXPECT_FALSE(wiring.empty());
    }
  }
}

TEST(ScaleModeTest, MeasurementStaysWithinSampledPairs) {
  // Every node probes at most its pool (sample + committed links) per
  // evaluation: the sparse plane must stay far below n^2.
  constexpr std::size_t kN = 120;
  Environment env(kN, 11, scale_env(net::UnderlayKind::kProcedural));
  auto config = scale_config();
  EgoistNetwork net(env, config);
  env.advance(60.0);
  net.run_epoch();
  ASSERT_TRUE(env.sparse_plane());
  // Bootstrap (two join passes) + one epoch: <= ~3 pools per node, each
  // pool at most sample + k links (plus their reverse probes is not a
  // thing — pings are directed).
  const std::size_t per_node_budget = 3 * (config.br_sample + config.k + 1);
  EXPECT_LT(env.probed_pairs(), kN * per_node_budget);
  EXPECT_LT(env.probed_pairs(), kN * (kN - 1) / 2);
}

TEST(ScaleModeTest, SamplerContract) {
  // A 12-node overlay with br_sample = 8: a node's committed links leave
  // at most 11 - k eligible ids, so the sampler must take its enumeration
  // path, and still hand back a distinct, online, self- and commitment-free
  // sample of exactly min(8, eligible) ids.
  Environment env(12, 3, scale_env(net::UnderlayKind::kProcedural));
  EgoistNetwork net(env, scale_config());
  net.set_online(7, false);
  const auto online = net.online_nodes();
  for (const NodeId self : online) {
    const auto wiring = net.wiring(self);
    std::vector<NodeId> pool;
    for (const NodeId v : wiring) {
      if (net.is_online(v)) pool.push_back(v);
    }
    const std::size_t committed = pool.size();
    const std::size_t eligible = online.size() - 1 - committed;
    const std::size_t m = std::min<std::size_t>(8, eligible);
    EXPECT_GE(2 * m, eligible);  // the enumeration path
    net::CounterStream stream(99, static_cast<std::uint64_t>(self), 0);
    sample_candidates(online, self, 8, stream, pool);
    ASSERT_EQ(pool.size(), committed + m);
    std::vector<NodeId> sample(pool.begin() + static_cast<std::ptrdiff_t>(committed),
                               pool.end());
    for (const NodeId v : sample) {
      EXPECT_NE(v, self);
      EXPECT_TRUE(net.is_online(v));
      EXPECT_EQ(std::find(wiring.begin(), wiring.end(), v), wiring.end());
    }
    std::sort(sample.begin(), sample.end());
    EXPECT_EQ(std::adjacent_find(sample.begin(), sample.end()), sample.end());
  }

  // Larger online lists take the rejection path: same contract, and the
  // draws depend only on the stream key.
  std::vector<NodeId> many(200);
  for (std::size_t v = 0; v < many.size(); ++v) many[v] = static_cast<NodeId>(2 * v);
  std::vector<NodeId> pool{4, 10, 12};
  const std::size_t eligible = many.size() - pool.size() - 1;  // 8 is listed
  EXPECT_LT(2 * 32u, eligible);  // the rejection path
  net::CounterStream stream(5, 6, 7);
  sample_candidates(many, 8, 32, stream, pool);
  ASSERT_EQ(pool.size(), 35u);
  std::vector<NodeId> sorted = pool;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (const NodeId v : pool) {
    EXPECT_NE(v, 8);
    EXPECT_TRUE(std::binary_search(many.begin(), many.end(), v));
  }
  std::vector<NodeId> again{4, 10, 12};
  net::CounterStream same_key(5, 6, 7);
  sample_candidates(many, 8, 32, same_key, again);
  EXPECT_EQ(again, pool);
}

TEST(ScaleModeTest, DepartedNeighborsDoNotTriggerMassRewiring) {
  // Churn with a tenth of the overlay starting offline. Holders that keep
  // a link to a departed node re-announce it at its unmeasured, infinite
  // cost, and fresh joiners are landmarks nobody reaches yet. The fold
  // penalty must stay finite over the infinite links, or the BR(eps) test
  // compares inf - inf = NaN for every node facing an unreachable landmark
  // and adopts every differing proposal.
  constexpr std::size_t kN = 1000;
  Environment env(kN, 21, scale_env(net::UnderlayKind::kProcedural));
  auto config = scale_config();
  config.k = 10;
  config.br_sample = 32;
  config.br_landmarks = 64;
  config.epoch_workers = 2;
  EgoistNetwork net(env, config);
  churn::ChurnConfig churn_config;
  churn_config.initial_on_fraction = 0.9;
  const churn::ChurnTrace trace(kN, 6 * 60.0, 5, churn_config);
  for (std::size_t v = 0; v < kN; ++v) {
    if (!trace.initial_on()[v]) net.set_online(static_cast<int>(v), false);
  }
  std::size_t next = 0;
  for (int e = 0; e < 6; ++e) {
    env.advance(60.0);
    for (; next < trace.events().size() &&
           trace.events()[next].time <= (e + 1) * 60.0;
         ++next) {
      net.set_online(trace.events()[next].node, trace.events()[next].on);
    }
    // With the NaN, the first epoch after the departures re-wires nearly
    // half the overlay here; with a finite penalty every epoch stays
    // well under a quarter.
    const int rewired = net.run_epoch();
    EXPECT_LT(4 * static_cast<std::size_t>(rewired), net.online_count())
        << "epoch " << e << " re-wired " << rewired << " of "
        << net.online_count();
  }
}

TEST(ScaleModeTest, HybridBRKeepsDonatedBackboneLinks) {
  Environment env(30, 3, scale_env(net::UnderlayKind::kProcedural));
  auto config = scale_config(Policy::kHybridBR);
  config.donated_links = 2;
  EgoistNetwork net(env, config);
  env.advance(60.0);
  net.run_epoch();
  for (int v = 0; v < 30; ++v) {
    EXPECT_EQ(net.donated(v).size(), 2u);
    for (const NodeId d : net.donated(v)) {
      const auto& wiring = net.wiring(v);
      EXPECT_NE(std::find(wiring.begin(), wiring.end(), d), wiring.end())
          << "donated link " << d << " missing from node " << v;
    }
  }
}

TEST(ScaleModeTest, BandwidthMetricRunsOnWidestLandmarks) {
  Environment env(24, 13, scale_env(net::UnderlayKind::kProcedural));
  EgoistNetwork net(env, scale_config(Policy::kBestResponse,
                                      Metric::kBandwidth));
  env.advance(60.0);
  EXPECT_NO_THROW(net.run_epoch());
  for (int v = 0; v < 24; ++v) EXPECT_FALSE(net.wiring(v).empty());
}

TEST(ScaleModeTest, RunNodeWorksOutsideEpochs) {
  Environment env(24, 17, scale_env(net::UnderlayKind::kProcedural));
  EgoistNetwork net(env, scale_config());
  env.advance(60.0);
  EXPECT_NO_THROW(net.run_node(5));
  // Churn paths (set_online + immediate repair) stay functional.
  net.set_online(5, false);
  net.set_online(5, true);
  EXPECT_TRUE(net.is_online(5));
}

TEST(ScaleModeTest, StaggeredHostDriverCompletesEpochs) {
  host::OverlayHost host(20, 23, scale_env(net::UnderlayKind::kProcedural));
  auto spec = host::OverlaySpec(scale_config())
                  .epoch_period(60.0)
                  .staggered(/*order_seed=*/3);
  const auto overlay = host.deploy(spec);
  host.run_epochs(overlay, 2);
  EXPECT_EQ(host.epochs_run(overlay), 2);
  const auto snapshot = host.snapshot(overlay);
  for (int v = 0; v < 20; ++v) EXPECT_FALSE(snapshot.wiring(v).empty());
}

}  // namespace
}  // namespace egoist::overlay
