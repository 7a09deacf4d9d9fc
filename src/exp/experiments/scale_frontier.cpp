// scale_frontier: how far the substrate seam pushes n (§5 scale regime).
//
// For each n in n-list, builds an OverlayHost on the chosen underlay
// backend (procedural by default — O(n) substrate state, O(1) advance),
// deploys one BR/HybridBR overlay in §5 scale mode (sampled candidates x
// epoch-shared landmark destinations — no O(n^2) residual state), runs the
// requested BR epochs, and reports wall time alongside the memory
// telemetry that proves the O(n k + probed-pairs) claim: substrate bytes,
// measurement-plane bytes, probed-pair count, and process peak RSS.
//
// Quality is tracked by a sampled oracle: shortest-path routing cost over
// the true-cost overlay graph from score-sources random online sources
// (full all-pairs scoring would itself be O(n^2) and is exactly what this
// experiment exists to avoid).
//
// `workers = N` (default 0) runs the BR epochs through the parallel epoch
// pipeline with N workers (0 keeps the sequential epoch); `profile = true`
// enables the in-process profiler around the timed epochs and emits
// per-phase rows ("profile" panel; see docs/EXPERIMENTS.md).
//
// Long-horizon churn (ISSUE 7): `churn-horizon = N` (epochs, 0 = static
// membership) synthesizes a §4.4 ON/OFF trace over the timed region and
// replays it between epochs through the network escape hatch — membership
// flips land outside the clock, the epochs they perturb inside it.
// `incremental = true` runs the dirty-set epochs (tolerance mode,
// `drift-threshold`, default 0.05) and the rows report evaluated /
// skipped_evals / dirty_frac / dirty_nodes; `compare-full = true`
// additionally runs the full-recompute variant of every n on the same
// trace and reports speedup_vs_full on the incremental rows.
//
// The "epochs" panel has one row per timed epoch with its online count,
// evaluations, re-wirings and wall time — the per-epoch re-wiring series
// docs/EXPERIMENTS.md records. Every row carries
// `host_cpus` so worker-count timings are read against the hardware.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "churn/churn.hpp"
#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"
#include "graph/shortest_path.hpp"
#include "util/profiler.hpp"

namespace egoist::exp {

namespace {

struct FrontierRow {
  std::size_t n = 0;
  std::string variant;         ///< "full" or "incremental"
  std::string underlay;
  double build_ms = 0.0;       ///< host construction + deploy (bootstrap)
  double epoch_ms_mean = 0.0;
  double epoch_ms_min = 0.0;
  int rewirings = 0;
  std::uint64_t evaluated = 0;   ///< node evaluations in the timed epochs
  std::uint64_t skipped = 0;     ///< evaluations skipped (incremental)
  double dirty_frac = 1.0;       ///< evaluated / (evaluated + skipped)
  std::size_t dirty_nodes = 0;   ///< marked nodes after the last epoch
  double speedup_vs_full = 0.0;  ///< 0 = n/a (needs compare-full)
  double churn_rate = 0.0;       ///< paper's metric over the replayed trace
  double mean_cost = 0.0;      ///< sampled-source mean routing cost (ms)
  std::size_t unreachable = 0; ///< unreachable sampled pairs
  std::size_t substrate_bytes = 0;
  std::size_t plane_bytes = 0;
  std::size_t probed_pairs = 0;
  std::size_t peak_rss_bytes = 0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void run_scale_frontier(const ParamReader& params, ResultSink& sink) {
  std::vector<std::size_t> n_list;
  for (const auto& item :
       split_csv(params.get_string("n-list", "1000,2000,5000,10000,20000"))) {
    const int v = std::stoi(item);
    if (v < 8) throw std::invalid_argument("n must be >= 8");
    n_list.push_back(static_cast<std::size_t>(v));
  }
  if (n_list.empty()) throw std::invalid_argument("empty n-list");

  overlay::OverlayConfig config;
  config.policy = overlay::parse_policy(params.get_string("policy", "BR"));
  config.metric =
      overlay::parse_metric(params.get_string("metric", "delay(ping)"));
  config.k = static_cast<std::size_t>(params.get_int("k", 10));
  config.seed = params.get_seed("seed", 42);
  config.br_sample =
      static_cast<std::size_t>(params.get_int("br-sample", 32));
  config.br_landmarks =
      static_cast<std::size_t>(params.get_int("br-landmarks", 64));
  if (config.br_sample == 0) {
    throw std::invalid_argument("scale_frontier requires br-sample > 0");
  }
  // 0 keeps the sequential epoch; >= 1 switches to the parallel pipeline
  // (bit-identical trajectory at any positive count). Negatives are
  // rejected by the overlay config validation.
  config.epoch_workers = params.get_int("workers", 0);

  auto env_config = parse_underlay(params);
  // The whole point of this experiment is the scale regime; default to the
  // procedural backend unless the scenario explicitly asks for dense.
  if (params.spec().find("underlay") == nullptr) {
    env_config.underlay = net::UnderlayKind::kProcedural;
  }
  env_config.coord_warmup_rounds =
      params.get_int("coord-warmup", env_config.coord_warmup_rounds);

  const int warmup = params.get_int("warmup", 0);
  const int epochs = params.get_int("epochs", 1);
  if (warmup < 0 || epochs < 1) {
    throw std::invalid_argument("need warmup >= 0 and epochs >= 1");
  }
  const double epoch_s = params.get_double("epoch-seconds", 60.0);
  const int score_sources = params.get_int("score-sources", 16);
  const bool profile = params.get_bool("profile", false);
  // Churn replay + incremental dirty-set knobs (see the header comment).
  const int churn_horizon = params.get_int("churn-horizon", 0);
  const double churn_timescale = params.get_double("churn-timescale", 0.2);
  const bool incremental = params.get_bool("incremental", false);
  const double drift_threshold = params.get_double("drift-threshold", 0.05);
  const bool compare_full = params.get_bool("compare-full", false);
  const std::string host_cpus =
      std::to_string(std::thread::hardware_concurrency());
  if (churn_horizon < 0) {
    throw std::invalid_argument("churn-horizon must be >= 0");
  }
  util::ProfileSession profile_session(profile);

  sink.section(
      "scale frontier: " +
          std::string(overlay::to_string(config.policy)) + " on " +
          overlay::to_string(config.metric) + ", " +
          net::to_string(env_config.underlay) + " underlay",
      "One overlay in scale mode (sample=" +
          std::to_string(config.br_sample) +
          ", landmarks=" + std::to_string(config.br_landmarks) +
          ", k=" + std::to_string(config.k) + "); " + std::to_string(epochs) +
          " timed BR epoch(s) per n after " + std::to_string(warmup) +
          " warmup. Memory columns are the O(n k + probed-pairs) evidence.");

  const std::vector<std::string> kColumns{
      "n",           "variant",         "underlay",    "workers",
      "host_cpus",
      "build_ms",    "epoch_ms_mean",   "epoch_ms_min", "rewirings",
      "evaluated",   "skipped_evals",   "dirty_frac",  "dirty_nodes",
      "speedup_vs_full", "mean_cost",   "unreachable", "churn_rate",
      "substrate_bytes", "plane_bytes", "probed_pairs", "peak_rss_bytes"};
  util::Table table(kColumns);

  // One measured deployment: builds the host, replays the (shared) churn
  // trace between timed epochs through the network escape hatch, and
  // fills every telemetry column. `run_incremental` toggles the dirty-set
  // epochs; the trace and every seed are identical across variants, so
  // full vs incremental compare the same workload.
  const auto run_variant = [&](std::size_t n, bool run_incremental,
                               const std::optional<churn::ChurnTrace>& trace) {
    overlay::OverlayConfig variant_config = config;
    variant_config.incremental = run_incremental;
    variant_config.drift_threshold = run_incremental ? drift_threshold : 0.0;

    FrontierRow row;
    row.n = n;
    row.variant = run_incremental ? "incremental" : "full";
    row.underlay = net::to_string(env_config.underlay);

    const auto build_start = std::chrono::steady_clock::now();
    host::OverlayHost deployment(n, variant_config.seed, env_config);
    const auto handle = deployment.deploy(
        host::OverlaySpec(variant_config).epoch_period(epoch_s));
    row.build_ms = ms_since(build_start);

    if (warmup > 0) deployment.run_epochs(handle, warmup);

    // Time run_epoch() only, via the escape hatch (substrate advancement
    // and event dispatch outside the clock), as perf_epoch_scaling does.
    auto& env = deployment.environment(handle);
    auto& net = deployment.network(handle);
    // Trace time 0 = start of the timed region: take nodes that begin OFF
    // down before the first timed epoch (outside the clock).
    std::size_t next_event = 0;
    if (trace) {
      const auto& initial = trace->initial_on();
      for (std::size_t v = 0; v < initial.size(); ++v) {
        if (!initial[v]) net.set_online(static_cast<int>(v), false);
      }
      row.churn_rate = trace->churn_rate();
    }
    // Profile the timed epochs only: drop whatever bootstrap and warmup
    // recorded.
    if (profile) util::Profiler::instance().reset();
    const std::uint64_t evals_mark = net.total_evaluations();
    const std::uint64_t skips_mark = net.total_skipped_evals();
    row.epoch_ms_min = std::numeric_limits<double>::infinity();
    for (int e = 0; e < epochs; ++e) {
      env.advance(epoch_s);
      if (trace) {
        // Membership flips up to the end of this epoch land before its
        // clock starts; the epoch then pays their re-evaluation cost.
        const double until = (e + 1) * epoch_s;
        const auto& events = trace->events();
        for (; next_event < events.size() && events[next_event].time <= until;
             ++next_event) {
          net.set_online(events[next_event].node, events[next_event].on);
        }
      }
      const std::uint64_t epoch_evals = net.total_evaluations();
      const auto start = std::chrono::steady_clock::now();
      const int rewired = net.run_epoch();
      const double ms = ms_since(start);
      row.rewirings += rewired;
      row.epoch_ms_mean += ms;
      row.epoch_ms_min = std::min(row.epoch_ms_min, ms);
      std::ostringstream epoch_ms;
      epoch_ms << std::fixed << std::setprecision(1) << ms;
      sink.row("epochs",
               {"n", "variant", "workers", "host_cpus", "epoch", "online",
                "evaluated", "rewirings", "epoch_ms"},
               {std::to_string(n), row.variant,
                std::to_string(config.epoch_workers), host_cpus,
                std::to_string(e + 1), std::to_string(net.online_count()),
                std::to_string(net.total_evaluations() - epoch_evals),
                std::to_string(rewired), epoch_ms.str()});
    }
    row.epoch_ms_mean /= epochs;
    row.evaluated = net.total_evaluations() - evals_mark;
    row.skipped = net.total_skipped_evals() - skips_mark;
    const double total_evals = static_cast<double>(row.evaluated + row.skipped);
    row.dirty_frac =
        total_evals > 0.0 ? static_cast<double>(row.evaluated) / total_evals
                          : 1.0;
    row.dirty_nodes = net.dirty_count();

    if (profile) {
      std::vector<std::string> columns{"n", "variant", "workers"};
      const auto& phase_columns = util::profile_columns();
      columns.insert(columns.end(), phase_columns.begin(),
                     phase_columns.end());
      for (const auto& phase : util::Profiler::instance().report()) {
        std::vector<std::string> cells{std::to_string(n), row.variant,
                                       std::to_string(config.epoch_workers)};
        const auto phase_cells = util::phase_cells(phase);
        cells.insert(cells.end(), phase_cells.begin(), phase_cells.end());
        sink.row("profile", columns, cells);
      }
    }

    // Sampled oracle score: routing cost from a few true-cost sources.
    if (score_sources > 0 && config.metric != overlay::Metric::kBandwidth) {
      const auto true_graph = net.true_cost_graph();
      const auto online = net.online_nodes();
      util::Rng source_rng(config.seed ^ (0x5CA1Eull + n));
      const auto sources = source_rng.sample_without_replacement(
          std::span<const overlay::NodeId>(online),
          std::min<std::size_t>(static_cast<std::size_t>(score_sources),
                                online.size()));
      double total = 0.0;
      std::size_t reachable = 0;
      for (const auto src : sources) {
        const auto tree = graph::dijkstra(true_graph, src);
        for (const auto dst : online) {
          if (dst == src) continue;
          const double d = tree.dist[static_cast<std::size_t>(dst)];
          if (d == graph::kUnreachable) {
            ++row.unreachable;
          } else {
            total += d;
            ++reachable;
          }
        }
      }
      row.mean_cost = reachable > 0 ? total / static_cast<double>(reachable) : 0.0;
    }

    row.substrate_bytes = deployment.substrate()->memory_bytes();
    row.plane_bytes = env.plane_memory_bytes();
    row.probed_pairs = env.probed_pairs();
    row.peak_rss_bytes = util::peak_rss_bytes();
    return row;
  };

  const auto add_row = [&](const FrontierRow& row) {
    std::ostringstream build_ms, mean_ms, min_ms, dirty_frac, speedup, cost,
        rate;
    build_ms << std::fixed << std::setprecision(1) << row.build_ms;
    mean_ms << std::fixed << std::setprecision(1) << row.epoch_ms_mean;
    min_ms << std::fixed << std::setprecision(1) << row.epoch_ms_min;
    dirty_frac << std::fixed << std::setprecision(3) << row.dirty_frac;
    if (row.speedup_vs_full > 0.0) {
      speedup << std::fixed << std::setprecision(3) << row.speedup_vs_full;
    } else {
      speedup << "-";
    }
    cost << std::fixed << std::setprecision(3) << row.mean_cost;
    rate << std::fixed << std::setprecision(4) << row.churn_rate;
    table.add_row({std::to_string(row.n),
                   row.variant,
                   row.underlay,
                   std::to_string(config.epoch_workers),
                   host_cpus,
                   build_ms.str(),
                   mean_ms.str(),
                   min_ms.str(),
                   std::to_string(row.rewirings),
                   std::to_string(row.evaluated),
                   std::to_string(row.skipped),
                   dirty_frac.str(),
                   std::to_string(row.dirty_nodes),
                   speedup.str(),
                   cost.str(),
                   std::to_string(row.unreachable),
                   rate.str(),
                   std::to_string(row.substrate_bytes),
                   std::to_string(row.plane_bytes),
                   std::to_string(row.probed_pairs),
                   std::to_string(row.peak_rss_bytes)});
  };

  for (const std::size_t n : n_list) {
    // One trace per n, shared verbatim by both variants: full vs
    // incremental replay the same joins and leaves.
    std::optional<churn::ChurnTrace> trace;
    if (churn_horizon > 0) {
      churn::ChurnConfig churn_config;
      churn_config.timescale = churn_timescale;
      churn_config.initial_on_fraction = 0.9;
      trace.emplace(n, churn_horizon * epoch_s, config.seed ^ 0xC0FFEEull,
                    churn_config);
    }
    if (incremental && compare_full) {
      const FrontierRow full = run_variant(n, false, trace);
      FrontierRow inc = run_variant(n, true, trace);
      if (full.epoch_ms_mean > 0.0 && inc.epoch_ms_mean > 0.0) {
        inc.speedup_vs_full = full.epoch_ms_mean / inc.epoch_ms_mean;
      }
      add_row(full);
      add_row(inc);
    } else {
      add_row(run_variant(n, incremental, trace));
    }
  }

  // One emission only: JsonLinesSink expands the table into one structured
  // row per n.
  sink.table("scale_frontier", table);
}

}  // namespace egoist::exp
