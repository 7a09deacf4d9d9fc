// Determinism stress suite for the parallel BR epoch pipeline.
//
// The pipeline's contract (overlay/epoch_engine.hpp): with epoch_workers
// >= 1, the wiring trajectory is a pure function of the deployment — the
// worker count only changes wall-clock time. This suite pins that down by
// replaying the same seed at workers in {1, 2, 4, 8} across the full
// configuration matrix — BR and HybridBR, dense and procedural underlay
// backends, synchronized and staggered-with-churn schedules, dense and §5
// sampled scale mode — and requiring bit-identical wiring trajectories,
// online sets, scores, and re-wiring counts at every epoch.
#include <gtest/gtest.h>

#include <string>

#include "determinism_harness.hpp"

namespace egoist::testing {
namespace {

using host::OverlaySpec;
using overlay::Metric;
using overlay::Policy;

constexpr int kWorkerCounts[] = {1, 2, 4, 8};

OverlaySpec base_spec(Policy policy, Metric metric) {
  OverlaySpec spec;
  spec.policy(policy).metric(metric).k(3).seed(99);
  if (policy == Policy::kHybridBR) spec.donated_links(2);
  return spec;
}

overlay::EnvironmentConfig env_config(net::UnderlayKind kind) {
  overlay::EnvironmentConfig env;
  env.underlay = kind;
  if (kind == net::UnderlayKind::kProcedural) env.coord_warmup_rounds = 10;
  return env;
}

churn::ChurnTrace make_trace(std::size_t nodes, int epochs) {
  churn::ChurnConfig config;
  config.mean_on_s = 150.0;
  config.mean_off_s = 50.0;
  config.initial_on_fraction = 0.8;
  return churn::ChurnTrace(nodes, epochs * 60.0, 77, config);
}

/// Records the case at every worker count and requires each trajectory to
/// equal the workers=1 one, bit for bit.
void expect_worker_count_invariance(DeterminismCase c, const std::string& label) {
  c.spec.workers(1);
  const Trajectory reference = record_trajectory(c);
  for (int workers : kWorkerCounts) {
    if (workers == 1) continue;
    DeterminismCase parallel = c;
    parallel.spec.workers(workers);
    expect_same_trajectory(reference, record_trajectory(parallel),
                           label + " @ workers=" + std::to_string(workers));
  }
}

TEST(ParallelEpochTest, SynchronizedEpochsAreWorkerCountInvariant) {
  for (Policy policy : {Policy::kBestResponse, Policy::kHybridBR}) {
    for (const auto kind :
         {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
      DeterminismCase c;
      c.env = env_config(kind);
      c.spec = base_spec(policy, Metric::kDelayPing);
      const std::string label = std::string(to_string(policy)) + " / " +
                                (kind == net::UnderlayKind::kDense
                                     ? "dense"
                                     : "procedural");
      expect_worker_count_invariance(c, label);
    }
  }
}

TEST(ParallelEpochTest, StaggeredChurnedEpochsAreWorkerCountInvariant) {
  // The staggered T/n scheduler evaluates nodes one at a time and churn
  // replays between slots; neither goes through the parallel pipeline, so
  // worker-count invariance must hold trivially — this guards against the
  // pipeline ever leaking into the per-node path.
  for (Policy policy : {Policy::kBestResponse, Policy::kHybridBR}) {
    for (const auto kind :
         {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
      DeterminismCase c;
      c.epochs = 3;
      c.env = env_config(kind);
      c.spec = base_spec(policy, Metric::kDelayPing)
                   .epoch_period(60.0)
                   .staggered(0xBDu)
                   .churn(make_trace(c.nodes, c.epochs));
      const std::string label = std::string("staggered ") +
                                to_string(policy) + " / " +
                                (kind == net::UnderlayKind::kDense
                                     ? "dense"
                                     : "procedural");
      expect_worker_count_invariance(c, label);
    }
  }
}

TEST(ParallelEpochTest, SynchronizedChurnIsWorkerCountInvariant) {
  // Synchronized epochs with a churn trace: membership flips (which stay
  // sequential and consume RNG) interleave with pipeline epochs.
  DeterminismCase c;
  c.epochs = 4;
  c.spec = base_spec(Policy::kHybridBR, Metric::kDelayPing)
               .epoch_period(60.0)
               .churn(make_trace(c.nodes, c.epochs));
  expect_worker_count_invariance(c, "synchronized churn HybridBR");
}

TEST(ParallelEpochTest, BandwidthMetricIsWorkerCountInvariant) {
  DeterminismCase c;
  c.spec = base_spec(Policy::kBestResponse, Metric::kBandwidth);
  expect_worker_count_invariance(c, "BR bandwidth");
}

TEST(ParallelEpochTest, LegacyPathBackendIsWorkerCountInvariant) {
  // The pipeline must be deterministic on the reference residual-copy
  // backend too, not just the CSR engine.
  DeterminismCase c;
  c.epochs = 3;
  c.spec = base_spec(Policy::kBestResponse, Metric::kDelayPing)
               .path_backend(overlay::PathBackend::kLegacy);
  expect_worker_count_invariance(c, "BR legacy backend");
}

/// Everything a scale-mode pipeline run produces, epoch by epoch: every
/// node's wiring and its pool (ids + measured values, from the epoch's
/// EpochStore), the measurement plane's probed-pair count and the
/// re-wiring counts.
struct ScaleRecord {
  std::vector<std::vector<std::vector<graph::NodeId>>> wirings;
  std::vector<std::vector<std::vector<graph::NodeId>>> pool_ids;
  std::vector<std::vector<std::vector<double>>> pool_values;
  std::vector<std::size_t> probed_pairs;
  std::vector<int> rewired;
};

/// n = 200 in scale mode on the procedural backend, churn replayed
/// between epochs through set_online.
ScaleRecord record_scale(int workers, const churn::ChurnTrace& trace) {
  const std::size_t n = trace.initial_on().size();
  overlay::EnvironmentConfig env_cfg = env_config(net::UnderlayKind::kProcedural);
  overlay::Environment env(n, 31, env_cfg);
  overlay::OverlayConfig config;
  config.policy = Policy::kBestResponse;
  config.k = 6;
  config.seed = 17;
  config.br_sample = 16;
  config.br_landmarks = 24;
  config.epoch_workers = workers;
  overlay::EgoistNetwork net(env, config);
  const auto& initial = trace.initial_on();
  for (std::size_t v = 0; v < n; ++v) {
    if (!initial[v]) net.set_online(static_cast<int>(v), false);
  }
  ScaleRecord out;
  std::size_t next = 0;
  const auto& events = trace.events();
  for (int e = 0; e < 5; ++e) {
    env.advance(60.0);
    for (; next < events.size() && events[next].time <= (e + 1) * 60.0;
         ++next) {
      net.set_online(events[next].node, events[next].on);
    }
    out.rewired.push_back(net.run_epoch());
    out.probed_pairs.push_back(env.probed_pairs());
    auto& wirings = out.wirings.emplace_back();
    auto& ids = out.pool_ids.emplace_back();
    auto& values = out.pool_values.emplace_back();
    for (std::size_t v = 0; v < n; ++v) {
      const auto w = net.wiring(static_cast<int>(v));
      wirings.emplace_back(w.begin(), w.end());
      const auto pool = net.epoch_store().pool_ids(v);
      ids.emplace_back(pool.begin(), pool.end());
      const auto measured = net.epoch_store().pool_values(v);
      values.emplace_back(measured.begin(), measured.end());
    }
  }
  return out;
}

TEST(ParallelEpochTest, ScaleModeIsWorkerCountInvariant) {
  // §5 sampled scale mode: the snapshot runs on the workers — landmark
  // traversals one column per task, sampling and measurement one node per
  // task on the node's own counter-based streams — so the sampled pipeline
  // must be invariant across worker counts: through the host harness on
  // both backends, and at n = 200 with churn replayed, where wirings, every
  // pool's ids and values, probed pairs and re-wirings must match.
  for (const auto kind :
       {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
    DeterminismCase c;
    c.nodes = 24;
    c.epochs = 3;
    c.env = env_config(kind);
    c.env.sparse_plane_threshold = 0;
    overlay::OverlayConfig config;
    config.policy = Policy::kBestResponse;
    config.k = 4;
    config.seed = 5;
    config.br_sample = 8;
    config.br_landmarks = 12;
    c.spec = OverlaySpec(config);
    expect_worker_count_invariance(
        c, kind == net::UnderlayKind::kDense ? "scale dense"
                                             : "scale procedural");
  }

  churn::ChurnConfig churn_config;
  churn_config.mean_on_s = 240.0;
  churn_config.mean_off_s = 60.0;
  churn_config.initial_on_fraction = 0.85;
  const churn::ChurnTrace trace(200, 5 * 60.0, 123, churn_config);
  ASSERT_FALSE(trace.events().empty());
  const ScaleRecord reference = record_scale(1, trace);
  EXPECT_GT(reference.rewired.front(), 0);
  for (int workers : {2, 3, 4, 8}) {
    const ScaleRecord parallel = record_scale(workers, trace);
    const std::string label = "n=200 churned @ workers=" + std::to_string(workers);
    EXPECT_EQ(reference.rewired, parallel.rewired) << label;
    EXPECT_EQ(reference.probed_pairs, parallel.probed_pairs) << label;
    for (std::size_t e = 0; e < reference.wirings.size(); ++e) {
      EXPECT_EQ(reference.wirings[e], parallel.wirings[e]) << label << " epoch " << e;
      EXPECT_EQ(reference.pool_ids[e], parallel.pool_ids[e]) << label << " epoch " << e;
      EXPECT_EQ(reference.pool_values[e], parallel.pool_values[e])
          << label << " epoch " << e;
    }
  }
}

TEST(ParallelEpochTest, ZipfPreferencesAndCheatersAreWorkerCountInvariant) {
  // Skewed preferences exercise preference_of() in the workers; cheaters
  // exercise announced-cost inflation during the sequential merge.
  DeterminismCase c;
  c.epochs = 3;
  c.spec = base_spec(Policy::kBestResponse, Metric::kDelayCoords)
               .preference_zipf(1.0)
               .cheaters({2, 5}, 2.0);
  expect_worker_count_invariance(c, "BR zipf + cheaters");
}

TEST(ParallelEpochTest, NonBrPoliciesIgnoreTheWorkerKnob) {
  // The heuristics never enter the pipeline: workers=4 must replay the
  // sequential (workers=0) trajectory exactly, shuffled epoch order and
  // all.
  for (Policy policy : {Policy::kRandom, Policy::kClosest, Policy::kRegular}) {
    DeterminismCase sequential;
    sequential.epochs = 3;
    sequential.spec = base_spec(policy, Metric::kDelayPing).workers(0);
    DeterminismCase parallel = sequential;
    parallel.spec.workers(4);
    expect_same_trajectory(record_trajectory(sequential),
                           record_trajectory(parallel),
                           std::string(to_string(policy)) + " ignores workers");
  }
}

TEST(ParallelEpochTest, PipelineWiringsRespectDegreeAndMembership) {
  DeterminismCase c;
  c.spec = base_spec(Policy::kHybridBR, Metric::kDelayPing).workers(4);
  const auto trajectory = record_trajectory(c);
  for (const auto& epoch : trajectory.wirings) {
    for (const auto& wiring : epoch) {
      EXPECT_LE(wiring.size(), 3u);
      EXPECT_FALSE(wiring.empty());
    }
  }
  // The pipeline actually re-wires (the runs are not vacuous).
  EXPECT_GT(trajectory.rewirings.back(), 0u);
}

TEST(ParallelEpochTest, NegativeWorkerCountIsRejected) {
  overlay::Environment env(12, 1);
  overlay::OverlayConfig config;
  config.k = 3;
  config.epoch_workers = -1;
  EXPECT_THROW(overlay::EgoistNetwork(env, config), std::invalid_argument);
}

}  // namespace
}  // namespace egoist::testing
