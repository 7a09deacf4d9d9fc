// Measurement-plane contract tests for the underlay-backend seam: dense
// planes keep the historical n^2 layout below the threshold, sparse planes
// key state by probed pairs (and derive drift procedurally), and
// identically-seeded planes on one substrate stay in lockstep on either
// backend.
#include "overlay/environment.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace egoist::overlay {
namespace {

EnvironmentConfig sparse_config(net::UnderlayKind kind) {
  EnvironmentConfig config;
  config.underlay = kind;
  config.sparse_plane_threshold = 0;  // sparse planes at any size
  config.coord_warmup_rounds = 5;
  return config;
}

TEST(EnvironmentPlaneTest, DenseAndSparsePlanesAgreeOnPingValues) {
  // The sparse plane changes *storage*, not the ping pipeline: with drift
  // disabled (dense drift starts at 0; the procedural stream is stationary
  // and must be silenced to compare) and no advance() between probes, the
  // same probe sequence yields bit-identical EWMAs on both layouts.
  EnvironmentConfig dense;
  dense.coord_warmup_rounds = 5;
  dense.sparse_plane_threshold = 1u << 20;
  dense.delay_drift_volatility = 0.0;
  auto sparse = dense;
  sparse.sparse_plane_threshold = 0;

  Environment dense_env(10, 42, dense);
  Environment sparse_env(10, 42, sparse);
  ASSERT_FALSE(dense_env.sparse_plane());
  ASSERT_TRUE(sparse_env.sparse_plane());

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      for (int j = 0; j < 10; ++j) {
        if (i == j) continue;
        EXPECT_DOUBLE_EQ(dense_env.measure_delay_ping(i, j),
                         sparse_env.measure_delay_ping(i, j));
      }
    }
  }
  EXPECT_EQ(dense_env.probed_pairs(), 90u);
  EXPECT_EQ(sparse_env.probed_pairs(), 90u);
}

TEST(EnvironmentPlaneTest, SparsePlaneMemoryTracksProbedPairs) {
  Environment env(200, 7, sparse_config(net::UnderlayKind::kProcedural));
  ASSERT_TRUE(env.sparse_plane());
  EXPECT_EQ(env.probed_pairs(), 0u);
  const std::size_t empty_bytes = env.plane_memory_bytes();
  for (int j = 1; j <= 20; ++j) env.measure_delay_ping(0, j);
  EXPECT_EQ(env.probed_pairs(), 20u);
  EXPECT_GT(env.plane_memory_bytes(), empty_bytes);
  // Re-probing existing pairs allocates nothing new.
  const std::size_t bytes = env.plane_memory_bytes();
  for (int j = 1; j <= 20; ++j) env.measure_delay_ping(0, j);
  EXPECT_EQ(env.probed_pairs(), 20u);
  EXPECT_EQ(env.plane_memory_bytes(), bytes);

  // The dense plane at the same n would hold 2 * n^2 doubles.
  EnvironmentConfig dense;
  dense.coord_warmup_rounds = 5;
  Environment dense_env(200, 7, dense);
  ASSERT_FALSE(dense_env.sparse_plane());
  EXPECT_EQ(dense_env.plane_memory_bytes(), 2u * 200 * 200 * sizeof(double));
  EXPECT_LT(bytes * 100, dense_env.plane_memory_bytes());
}

TEST(EnvironmentPlaneTest, PerSourcePlaneCountsExactlyTheProbedPairs) {
  // Rows longer than the unsorted tail, probed in scrambled order with
  // repeats: the per-source plane must hold each directed pair once, agree
  // with the dense layout on every EWMA, and size its memory by the rows
  // that exist.
  EnvironmentConfig dense;
  dense.coord_warmup_rounds = 5;
  dense.sparse_plane_threshold = 1u << 20;
  dense.delay_drift_volatility = 0.0;
  auto sparse = dense;
  sparse.sparse_plane_threshold = 0;
  constexpr int kN = 80;
  Environment dense_env(kN, 9, dense);
  Environment sparse_env(kN, 9, sparse);
  ASSERT_TRUE(sparse_env.sparse_plane());
  const std::size_t empty_bytes = sparse_env.plane_memory_bytes();

  std::size_t distinct = 0;
  for (int i = 0; i < 3; ++i) {  // three sources probe, the rest never do
    for (int round = 0; round < 3; ++round) {
      for (int step = 0; step < kN; ++step) {
        const int j = (step * 37 + i * 11) % kN;  // 37 is coprime to 80
        if (j == i) continue;
        if (round == 0) ++distinct;
        EXPECT_DOUBLE_EQ(dense_env.measure_delay_ping(i, j),
                         sparse_env.measure_delay_ping(i, j))
            << "pair " << i << "->" << j << " round " << round;
      }
      EXPECT_EQ(sparse_env.probed_pairs(), distinct);
    }
  }
  EXPECT_EQ(distinct, 3u * (kN - 1));
  EXPECT_EQ(dense_env.probed_pairs(), distinct);

  // Memory: at least one 12-byte payload (id + EWMA) per pair beyond the
  // empty plane, and at most twice a padded 16-byte entry per pair plus a
  // row header per probing source (growth slack).
  const std::size_t bytes = sparse_env.plane_memory_bytes() - empty_bytes;
  EXPECT_GE(bytes, distinct * (sizeof(std::int32_t) + sizeof(double)));
  EXPECT_LE(bytes, 2 * distinct * 16 + 3 * 64);
}

TEST(EnvironmentPlaneTest, ProceduralDriftIsBoundedAndMoves) {
  Environment env(32, 3, sparse_config(net::UnderlayKind::kProcedural));
  const double base = env.delays().delay(2, 5);
  bool moved = false;
  double previous = env.true_delay(2, 5);
  for (int step = 0; step < 50; ++step) {
    env.advance(30.0);
    const double now = env.true_delay(2, 5);
    const auto& config = env.substrate()->config();
    EXPECT_GE(now, base * (1.0 - config.delay_drift_cap) - 1e-9);
    EXPECT_LE(now, base * (1.0 + config.delay_drift_cap) + 1e-9);
    moved = moved || now != previous;
    previous = now;
  }
  EXPECT_TRUE(moved);
}

TEST(EnvironmentPlaneTest, IdenticallySeededPlanesLockstepOnBothBackends) {
  for (const auto kind :
       {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
    auto substrate = std::make_shared<Substrate>(16, 9, sparse_config(kind));
    Environment a(substrate, 21);
    Environment b(substrate, 21);
    for (int step = 0; step < 4; ++step) {
      a.advance(15.0);
      b.advance(15.0);
      for (int i = 0; i < 16; ++i) {
        for (int j = 0; j < 16; ++j) {
          if (i == j) continue;
          EXPECT_DOUBLE_EQ(a.true_delay(i, j), b.true_delay(i, j));
          EXPECT_DOUBLE_EQ(a.measure_delay_ping(i, j),
                           b.measure_delay_ping(i, j));
        }
        EXPECT_DOUBLE_EQ(a.measure_load(i), b.measure_load(i));
        EXPECT_DOUBLE_EQ(a.measure_avail_bw(i, (i + 1) % 16),
                         b.measure_avail_bw(i, (i + 1) % 16));
      }
    }
  }
}

TEST(SubstrateTest, MemoryBytesReflectsBackendChoice) {
  Substrate dense(64, 1, [] {
    EnvironmentConfig c;
    c.coord_warmup_rounds = 5;
    return c;
  }());
  Substrate procedural(64, 1, sparse_config(net::UnderlayKind::kProcedural));
  EXPECT_EQ(dense.underlay_kind(), net::UnderlayKind::kDense);
  EXPECT_EQ(procedural.underlay_kind(), net::UnderlayKind::kProcedural);
  EXPECT_LT(procedural.memory_bytes(), dense.memory_bytes());
  EXPECT_EQ(dense.size(), 64u);
  EXPECT_EQ(procedural.size(), 64u);
}

}  // namespace
}  // namespace egoist::overlay
