// perfbench — the serving-stack benchmark.
//
// Drives the real stack: an OverlayHost running BR epochs, a RouteService
// publishing each epoch's WiringSnapshot, an rpc::Server answering over a
// Unix-domain socket, and rpc::Clients in this process as the load
// generator. One run is one workload (see kWorkloads and GLOSSARY.md):
//
//   setup    deploy + warmup epochs + RouteService + Server + client
//            connects, repeated kSetupReps times; the last one is kept.
//   epochs   (epoch_scale only) epochs back to back; a single probe client
//            asks one ROUTE per millisecond so route freshness is observed.
//   rounds   kRounds times a closed chunk then an open chunk:
//   closed   every generator thread keeps `depth` frames in flight through
//            its rpc::Client -> route_qps.
//   open     one sender thread sends on a fixed schedule at the workload's
//            constant rate over raw connections (one per generator) and
//            reads replies as they arrive; latency runs from when a
//            request was due. route_hot runs one epoch in each.
//
// The host thread (this one) drives the epochs itself and records, per
// publication, when run_epochs was called; the clients record the first
// answer stamped with each publish_seq. A fixed sample of answers is
// audited afterwards against a reference Dijkstra over the publication the
// answer names (audit.hpp). Server loops, generators and the sender are
// pinned to CPUs of their own when there are enough (see Run).
//
// With --trace 1 the second half of the epochs and of the rounds is
// traced: spans around the calls this file makes into each layer
// (spans.hpp), plus the library's own epoch profiler scopes. The first half
// runs untraced, and the difference between the halves is the reported
// tracing overhead.
//
// The last line of stdout is one JSON object: stamp, checks, and every
// metric with its unit and sample count. perfbench/run.py builds this
// binary, runs it and turns that line into the benchmark's result.
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "audit.hpp"
#include "churn/churn.hpp"
#include "exp/serve_workload.hpp"
#include "host/overlay_host.hpp"
#include "host/route_service.hpp"
#include "rpc/byte_queue.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "spans.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "wire/protocol.hpp"

namespace perfbench {
namespace {

namespace host = egoist::host;
namespace rpc = egoist::rpc;
namespace wire = egoist::wire;
using egoist::graph::NodeId;

constexpr int kSetupReps = 3;
constexpr std::uint64_t kMaxSeq = 1 << 14;   // publications one run may make
constexpr std::size_t kRing = 1 << 15;       // generated pairs per generator
constexpr std::uint64_t kAuditEvery = 61;    // audit every 61st answer...
constexpr int kSpanEvery = 16;               // ...span every 16th client call
constexpr int kHostProbeOps = 256;           // calls per host probe span
constexpr std::size_t kMaxPinned = 16;       // publications kept for the audit
constexpr double kEpochPeriod = 60.0;        // virtual seconds per epoch
constexpr double kProbeIntervalS = 0.001;    // epoch-part freshness probe
constexpr int kBatch = 16;  // lookups per BATCH_ROUTE frame in codec timing
// Open-loop percentiles are the median over equal slices of the open
// chunks of each slice's percentile, kOpenSlices slices in all (fewer when
// a slice would hold under kLookupsPerSlice lookups, so every slice's p99
// has ten lookups beyond it; ~5 ms of traffic). On a shared host, stalls
// of a millisecond or more (vCPU preemption, other tenants) come at a rate
// that differs from run to run; pooled over the window they decide the
// p99, but each spoils only the few slices it overlaps, so the median
// slice measures the serving path.
constexpr int kOpenSlices = 4000;
constexpr double kLookupsPerSlice = 1000.0;
// Serving, the same on every workload: 8 hot sources drawn from the online
// nodes, zipf(0.9) destinations, single ROUTE frames; two server loops; two
// closed-loop generators with 16 frames in flight each; the open loop at a
// constant 200k lookups/s.
constexpr int kLoops = 2;
constexpr int kGens = 2;
constexpr std::size_t kHotSources = 8;
constexpr int kDepth = 16;
constexpr double kOpenRate = 200000.0;
constexpr int kRounds = 8;                   // closed + open chunk pairs
constexpr double kMinChunkS = 0.25;          // shortest closed or open chunk
constexpr double kOpenEpochAt = 0.1;         // open-chunk epochs start here
// The deployment (underlay, overlay and churn trace) is part of a
// workload's definition, like n: --seed varies the traffic, not the
// overlay it is served from. 42 is the seed of the repo's scenarios.
constexpr std::uint64_t kDeploySeed = 42;

/// One workload. Every number here is a constant of the workload, never
/// derived at run time; --seed only changes the generated lookups.
///
/// The measured window is `alone_epochs` epochs back to back, probed by one
/// client, then kRounds rounds of [closed chunk] [open chunk], the chunks
/// sharing what is left of --seconds evenly. Spreading the serving metrics
/// over the whole window, rather than one phase each, keeps a slow spell of
/// the host (seconds long) from landing on one metric only.
struct Workload {
  const char* name;
  std::size_t n;
  int epoch_workers;          // OverlayConfig::epoch_workers
  int warmup;                 // epochs before serving starts (setup)
  int alone_epochs;           // before the rounds, with nothing else running
  int open_epochs;            // per round, during the open chunk
  std::size_t audit_samples;  // audited answers per run (cap)
  std::size_t horizon_epochs; // churn trace length
};

// route_hot    warm rows, per-frame wire/rpc cost; one publish per round
//              lands while the open loop runs, on a CPU of its own.
// epoch_scale  the n=10k BR epoch with 4 workers, alone, exactly 6 times
//              so every run reaches the same measurement-plane size; then
//              serving as route_hot, without epochs.
const Workload kWorkloads[] = {
    {"route_hot", 2000, 1, 2, 0, 1, 600, 2048},
    {"epoch_scale", 10000, 4, 1, 6, 0, 240, 256},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sock;
  std::string spans_path;
  std::string rev = "unknown";
  std::string build_type = "unknown";
  std::size_t n_override = 0;  // smoke tests: shrink the overlay
  bool corrupt_audit = false;  // tests: the audit must catch this
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Latencies are kept as 32-bit ns, saturating at ~4.3 s; a failed lookup
/// is recorded as the saturated value, so it misses every latency limit.
constexpr std::uint32_t kFailedNs = std::numeric_limits<std::uint32_t>::max();

std::uint32_t clip_ns(std::int64_t ns) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, kFailedNs));
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Per-publication bookkeeping, indexed by publish_seq.
struct SeqTable {
  std::vector<std::int64_t> call_ns;  // host thread: run_epochs called
  std::unique_ptr<std::atomic<std::int64_t>[]> first_answer_ns;
  std::unique_ptr<std::atomic<const std::vector<char>*>[]> online;
  std::vector<std::unique_ptr<std::vector<char>>> online_store;
  std::vector<host::WiringSnapshot> pinned;  // audited publications
  std::size_t pinned_count = 0;

  SeqTable()
      : call_ns(kMaxSeq, 0),
        first_answer_ns(new std::atomic<std::int64_t>[kMaxSeq]),
        online(new std::atomic<const std::vector<char>*>[kMaxSeq]),
        online_store(kMaxSeq),
        pinned(kMaxSeq) {
    for (std::uint64_t i = 0; i < kMaxSeq; ++i) {
      first_answer_ns[i].store(0, std::memory_order_relaxed);
      online[i].store(nullptr, std::memory_order_relaxed);
    }
  }
};

struct EpochRecord {
  std::uint64_t seq = 0;
  double seconds = 0.0;
  bool traced = false;
  std::uint64_t evaluated = 0;
  std::uint64_t skipped = 0;
  int rewired = 0;
};

/// One generator thread's inputs and tallies.
struct GenState {
  explicit GenState(std::uint32_t thread) : spans(thread) {}

  std::vector<wire::BatchRoutePair> ring;
  std::size_t cursor = 0;
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::uint64_t closed_answered[2] = {0, 0};  // [traced]
  std::vector<std::uint32_t> latency_ns;      // open loop, per lookup
  std::vector<std::uint16_t> latency_slice;   // ...and its open-loop slice
  std::vector<std::uint32_t> late_ns;         // open loop, per frame
  std::uint64_t last_seq = 0;
  std::uint64_t audit_tick = 0;
  std::size_t audit_cap = 0;
  std::vector<AuditSample> samples;
  std::uint64_t unreach[3] = {0, 0, 0};  // src offline, dst offline, other
  std::uint64_t calls = 0;
  std::int64_t open_start = 0;  // open loop: the chunk's slices
  std::int64_t slice_ns = 1;
  std::int64_t slices = 1;
  int slice_base = 0;
  SpanLog spans;
  std::string error;
};

/// The open-loop sender's own connection: a raw nonblocking socket and
/// frame buffers, so sending never waits for a reply (rpc::Client's take
/// blocks, which would couple each send to the previous answer).
struct RawConn {
  RawConn() = default;
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  struct Pending {
    std::int64_t due;
    std::size_t at;  // ring index of the frame's first lookup
    std::uint64_t id;
  };

  int fd = -1;
  rpc::ByteQueue in;
  std::vector<std::uint8_t> out;
  std::size_t out_sent = 0;
  std::deque<Pending> pending;
};

std::unique_ptr<RawConn> connect_raw(const std::string& path) {
  auto conn = std::make_unique<RawConn>();
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  conn->fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (conn->fd < 0) throw std::runtime_error("socket failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
  }
  ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL, 0) | O_NONBLOCK);
  return conn;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`.
void pin_thread(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(tid, sizeof(set), &set);
}

/// The ids of this process's threads, ascending.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] != '.') ids.push_back(std::atoi(e->d_name));
    }
    ::closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int c : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

/// The serving stack. Heap-pinned: subscriptions capture its address.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<host::OverlayHost> host;
  host::OverlayHandle handle;
  std::unique_ptr<host::RouteService> service;
  std::unique_ptr<rpc::Server> server;
  std::vector<rpc::Client> clients;        // closed loop, one per generator
  std::vector<std::unique_ptr<RawConn>> raw;  // open loop, one per generator
};

/// State shared by the host thread, the subscriptions and the generators.
struct Run {
  Run(const Workload& workload, const Options& options)
      : w(workload), o(options), cpus(allowed_cpus()),
        rng(mix(options.seed, 7)) {
    // Placement is fixed, so runs differ in what they measure, not in
    // where the scheduler happened to put the threads. With a CPU for each
    // server loop and each closed-loop generator, loop i takes the i-th
    // CPU, generator g the (loops + g)-th, and the open-loop sender (which
    // spins between frames) the last. While serving, the host thread,
    // which runs route_hot's epochs, keeps off the loops' CPUs; the epoch
    // workers may run anywhere.
    if (cpus.size() >= static_cast<std::size_t>(kLoops + kGens)) {
      sender_cpu = cpus.back();
      loop_cpus.assign(cpus.begin(), cpus.begin() + kLoops);
      gen_cpus.assign(cpus.begin() + kLoops, cpus.begin() + kLoops + kGens);
      host_cpus.assign(cpus.begin() + kLoops, cpus.end());
    }
  }

  const Workload& w;
  const Options& o;
  std::vector<int> cpus;       // the process's CPUs
  int sender_cpu = -1;         // -1: nothing pinned
  std::vector<int> loop_cpus;
  std::vector<int> gen_cpus;
  std::vector<int> host_cpus;  // the host thread's while serving
  SeqTable seqs;
  std::atomic<bool> tracing{false};
  std::atomic<bool> stop{false};
  egoist::util::Rng rng;  // host thread only

  // Host thread only.
  std::uint64_t seq = 0;  // latest publication (or the one being made)
  std::uint64_t epoch_span = 0;
  std::int64_t before_done_ns = 0;
  std::vector<EpochRecord> epochs;
  std::size_t retired_max = 0;
  std::vector<std::string> errors;
  SpanLog host_spans{0};
};

// --- setup and teardown -----------------------------------------------------

std::unique_ptr<Stack> build_stack(Run& run) {
  const Workload& w = run.w;
  const std::size_t n = run.o.n_override > 0 ? run.o.n_override : w.n;
  auto stack = std::make_unique<Stack>();
  Stack* s = stack.get();

  egoist::overlay::OverlayConfig config;
  config.policy = egoist::overlay::Policy::kBestResponse;
  config.metric = egoist::overlay::Metric::kDelayPing;
  config.k = 10;
  config.seed = kDeploySeed;
  config.br_sample = 32;
  config.br_landmarks = 64;
  config.epoch_workers = w.epoch_workers;
  egoist::overlay::EnvironmentConfig env;
  env.underlay = egoist::net::UnderlayKind::kProcedural;
  egoist::churn::ChurnConfig churn;
  churn.initial_on_fraction = 0.9;

  s->host = std::make_unique<host::OverlayHost>(n, config.seed, env);
  s->handle = s->host->deploy(
      host::OverlaySpec(config).epoch_period(kEpochPeriod).churn(
          egoist::churn::ChurnTrace(
              n,
              kEpochPeriod * static_cast<double>(w.warmup + w.horizon_epochs),
              kDeploySeed ^ 0xC0FFEEull, churn)));
  if (w.warmup > 0) s->host->run_epochs(s->handle, w.warmup);

  // Fires before the RouteService publishes (subscription order): the BR
  // epoch is over, the publication has not started.
  s->host->on_epoch_end(s->handle, [&run, s](const host::EpochEvent& ev) {
    const std::uint64_t seq = run.seq;
    const std::int64_t t_end = now_ns();
    EpochRecord rec;
    rec.seq = seq;
    rec.seconds = seconds_between(run.seqs.call_ns[seq], t_end);
    rec.traced = run.tracing.load(std::memory_order_relaxed);
    rec.evaluated = ev.evaluated;
    rec.skipped = ev.skipped;
    rec.rewired = ev.rewired;
    run.epochs.push_back(rec);
    // Membership of the publication about to be made, for classifying
    // unreachable answers stamped with this publish_seq.
    const auto& net = s->host->network(s->handle);
    auto online = std::make_unique<std::vector<char>>(s->host->size());
    for (std::size_t v = 0; v < online->size(); ++v) {
      (*online)[v] = net.is_online(static_cast<int>(v)) ? 1 : 0;
    }
    run.seqs.online[seq].store(online.get(), std::memory_order_release);
    run.seqs.online_store[seq] = std::move(online);
    if (rec.traced) {
      const std::int64_t t0 = now_ns();
      const auto snap = s->host->snapshot(s->handle);
      run.host_spans.add("host.snapshot", t0, now_ns(), run.epoch_span);
    }
    run.before_done_ns = now_ns();
  });

  host::RouteService::Options service_options;
  service_options.max_cached_sources = 256;
  service_options.verify_seals = true;
  s->service = std::make_unique<host::RouteService>(*s->host, s->handle,
                                                    service_options);

  // Fires after the RouteService published the epoch's snapshot.
  s->host->on_epoch_end(s->handle, [&run, s](const host::EpochEvent&) {
    const std::int64_t t_published = now_ns();
    const std::uint64_t seq = run.seq;
    const auto served = s->service->acquire();
    if (served.publish_seq() != seq) {
      run.errors.push_back("publication " +
                           std::to_string(served.publish_seq()) + " where " +
                           std::to_string(seq) + " was expected");
      return;
    }
    if (run.seqs.pinned_count < kMaxPinned) {
      run.seqs.pinned[seq] = served.snapshot();
      ++run.seqs.pinned_count;
    }
    run.retired_max = std::max(run.retired_max, s->service->retired_pending());
    if (!run.tracing.load(std::memory_order_relaxed)) return;
    run.host_spans.add("host.publish", run.before_done_ns, t_published,
                       run.epoch_span);
    // A cold row: the first lookup from a source after the publication.
    const auto& online = served.snapshot().online_nodes();
    if (online.size() < 2) return;
    const auto pick = [&] {
      return online[static_cast<std::size_t>(run.rng.uniform_int(
          0, static_cast<std::int64_t>(online.size()) - 1))];
    };
    const NodeId src = pick();
    std::int64_t t0 = now_ns();
    served.route(src, pick());
    run.host_spans.add("host.row_build", t0, now_ns(), run.epoch_span);
    std::vector<NodeId> dsts(kHostProbeOps);
    for (auto& d : dsts) d = pick();
    t0 = now_ns();
    for (const NodeId d : dsts) served.route(src, d);
    run.host_spans.add("host.route_cached", t0, now_ns(), run.epoch_span,
                       kHostProbeOps);
    t0 = now_ns();
    for (int i = 0; i < kHostProbeOps; ++i) s->service->acquire();
    run.host_spans.add("host.acquire", t0, now_ns(), run.epoch_span,
                       kHostProbeOps);
  });

  rpc::ServerOptions server_options;
  server_options.uds_path = run.o.sock;
  server_options.loops = kLoops;
  server_options.idle_timeout_s = 0.0;
  s->server = std::make_unique<rpc::Server>(*s->service, server_options);
  // The threads start() adds are the server's loops.
  const auto before = thread_ids();
  s->server->start();
  if (run.sender_cpu >= 0) {
    std::size_t i = 0;
    for (const pid_t tid : thread_ids()) {
      if (std::binary_search(before.begin(), before.end(), tid)) continue;
      pin_thread(tid, {run.loop_cpus[i++ % run.loop_cpus.size()]});
    }
  }
  for (int g = 0; g < kGens; ++g) {
    s->clients.push_back(rpc::Client::connect_uds(run.o.sock));
  }
  for (int g = 0; g < kGens; ++g) s->raw.push_back(connect_raw(run.o.sock));
  return stack;
}

struct Teardown {
  bool drained = false;
  rpc::ServerStats server;
  std::vector<rpc::ServerStats> per_loop;
  host::RouteService::Stats service;
};

Teardown teardown(Stack& s) {
  Teardown t;
  s.clients.clear();
  s.raw.clear();
  s.server->stop();
  t.server = s.server->stats();
  t.per_loop = s.server->per_loop_stats();
  t.drained = s.service->drain(5.0);
  t.service = s.service->stats();
  s.server.reset();
  s.service.reset();
  s.host.reset();
  return t;
}

// --- load generation --------------------------------------------------------

/// Records what every answer carries: freshness, the unreachable split
/// (traced), and the audit sample.
void note_answer(Run& run, GenState& g, const wire::BatchRoutePair& pair,
                 bool reachable, std::int32_t next_hop, double cost,
                 std::uint64_t seq, std::int64_t t) {
  ++g.answered;
  if (seq != g.last_seq) {
    if (seq == 0 || seq >= kMaxSeq) {
      throw std::runtime_error("answer stamped with publish_seq " +
                               std::to_string(seq));
    }
    auto& slot = run.seqs.first_answer_ns[seq];
    std::int64_t cur = slot.load(std::memory_order_relaxed);
    while ((cur == 0 || t < cur) &&
           !slot.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    }
    g.last_seq = seq;
  }
  if (!reachable && run.tracing.load(std::memory_order_relaxed)) {
    if (const auto* online =
            run.seqs.online[seq].load(std::memory_order_acquire)) {
      const int reason = !(*online)[static_cast<std::size_t>(pair.src)]   ? 0
                         : !(*online)[static_cast<std::size_t>(pair.dst)] ? 1
                                                                          : 2;
      ++g.unreach[reason];
    }
  }
  if (++g.audit_tick % kAuditEvery == 0 && g.samples.size() < g.audit_cap) {
    g.samples.push_back(
        {pair.src, pair.dst, reachable, next_hop, cost, seq});
  }
}

/// Answers a generator may add to the audit sample in one chunk: half the
/// sample comes through the rpc::Clients, half through the open loop's own
/// decoder, spread over the rounds.
std::size_t audit_share(const Workload& w, bool open) {
  const int ways = 2 * kRounds * (open ? 1 : kGens);
  return w.audit_samples / static_cast<std::size_t>(ways);
}

/// Posts the next ROUTE frame from the ring; returns its ring index.
std::size_t post_next(GenState& g, rpc::Client& c) {
  const std::size_t at = g.cursor;
  c.post_route(g.ring[at].src, g.ring[at].dst);
  g.cursor = (at + 1) % g.ring.size();
  ++g.attempted;
  return at;
}

/// Takes the oldest outstanding response and notes its answer.
void take_next(Run& run, GenState& g, rpc::Client& c, std::size_t at) {
  const bool traced = run.tracing.load(std::memory_order_relaxed) &&
                      ++g.calls % kSpanEvery == 0;
  const std::int64_t t0 = traced ? now_ns() : 0;
  const auto resp = c.take_route();
  const std::int64_t t = now_ns();
  if (traced) g.spans.add("rpc.client_take", t0, t);
  note_answer(run, g, g.ring[at], resp.reachable != 0, resp.next_hop,
              resp.cost, resp.publish_seq, t);
}

void flush(Run& run, GenState& g, rpc::Client& c) {
  if (run.tracing.load(std::memory_order_relaxed) &&
      g.calls % kSpanEvery == 0) {
    const std::int64_t t0 = now_ns();
    c.flush();
    g.spans.add("rpc.client_flush", t0, now_ns());
    return;
  }
  c.flush();
}

/// Closed loop: `depth` frames in flight until run.stop.
void closed_loop(Run& run, GenState& g, rpc::Client& c, int index) {
  if (run.sender_cpu >= 0) {
    pin_thread(0, {run.gen_cpus[static_cast<std::size_t>(index)]});
  }
  g.audit_cap = g.samples.size() + audit_share(run.w, false);
  std::deque<std::size_t> inflight;
  try {
    for (int d = 0; d < kDepth; ++d) inflight.push_back(post_next(g, c));
    flush(run, g, c);
    while (!run.stop.load(std::memory_order_relaxed)) {
      take_next(run, g, c, inflight.front());
      inflight.pop_front();
      ++g.closed_answered[run.tracing.load(std::memory_order_relaxed) ? 1 : 0];
      inflight.push_back(post_next(g, c));
      flush(run, g, c);
    }
    while (!inflight.empty()) {
      take_next(run, g, c, inflight.front());
      inflight.pop_front();
    }
  } catch (const std::exception& e) {
    g.error = e.what();
    g.failed += inflight.size();
    run.stop.store(true, std::memory_order_relaxed);
  }
}

/// Writes what the socket takes without blocking.
void send_some(RawConn& c) {
  while (c.out_sent < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_sent,
                             c.out.size() - c.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("send failed");
  }
  c.out.clear();
  c.out_sent = 0;
}

/// The open-loop slice a lookup due at `due` belongs to.
std::uint16_t slice_of(const GenState& g, std::int64_t due) {
  return static_cast<std::uint16_t>(
      g.slice_base + std::clamp<std::int64_t>((due - g.open_start) / g.slice_ns,
                                              0, g.slices - 1));
}

/// Reads what has arrived and notes every complete response.
void receive_some(Run& run, GenState& g, RawConn& c) {
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      c.in.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    throw std::runtime_error("recv failed");
  }
  const std::int64_t t = now_ns();
  for (;;) {
    const auto bytes = c.in.readable();
    const auto hd = wire::decode_header(bytes);
    if (hd.status == wire::DecodeStatus::kNeedMore) return;
    if (hd.status != wire::DecodeStatus::kOk) {
      throw std::runtime_error(std::string("bad frame: ") +
                               wire::to_string(hd.status));
    }
    const std::size_t len = wire::kHeaderSize + hd.header.payload_len;
    if (bytes.size() < len) return;
    const auto decoded = wire::decode_response(
        hd.header, bytes.subspan(wire::kHeaderSize, hd.header.payload_len));
    if (decoded.status != wire::DecodeStatus::kOk || c.pending.empty() ||
        hd.header.request_id != c.pending.front().id) {
      throw std::runtime_error("undecodable or unexpected response");
    }
    const RawConn::Pending p = c.pending.front();
    c.pending.pop_front();
    g.latency_slice.push_back(slice_of(g, p.due));
    if (const auto* r = std::get_if<wire::RouteResponse>(&decoded.response)) {
      note_answer(run, g, g.ring[p.at], r->reachable != 0, r->next_hop, r->cost,
                  r->publish_seq, t);
      g.latency_ns.push_back(clip_ns(t - p.due));
    } else {
      // An ERROR response: the lookup failed.
      ++g.failed;
      g.latency_ns.push_back(kFailedNs);
    }
    c.in.consume(len);
  }
}

/// Open loop: one sender thread spreads ROUTE frames due on a fixed
/// schedule from `start` over its connections and reads replies as they
/// come; each lookup is timed from when it was due. Sending stops at
/// `end`, or later if the phase outlasts it (an epoch still running), and
/// the chunk owns open-loop slices [slice_base, slice_base + max_slices).
void open_loop(Run& run, GenState& g,
               std::vector<std::unique_ptr<RawConn>>& conns,
               std::int64_t start, std::int64_t end, int slice_base,
               int max_slices) {
  // Wake from ppoll within a microsecond of the deadline, not the default
  // 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  if (run.sender_cpu >= 0) pin_thread(0, {run.sender_cpu});
  const double period_ns = 1e9 / kOpenRate;
  const double lookups = static_cast<double>(end - start) / period_ns;
  g.open_start = start;
  g.slice_base = slice_base;
  g.slices = static_cast<std::int64_t>(std::clamp(
      lookups / kLookupsPerSlice, 1.0, static_cast<double>(max_slices)));
  g.slice_ns = std::max<std::int64_t>((end - start) / g.slices, 1);
  g.audit_cap = g.samples.size() + audit_share(run.w, true);
  const auto due_of = [&](std::uint64_t i) {
    return start +
           static_cast<std::int64_t>(period_ns * static_cast<double>(i));
  };
  const auto sending = [&](std::int64_t due) {
    return due < end || !run.stop.load(std::memory_order_relaxed);
  };
  std::vector<pollfd> fds(conns.size());
  std::uint64_t sent = 0;
  try {
    for (;;) {
      const std::int64_t now = now_ns();
      while (due_of(sent) <= now && sending(due_of(sent))) {
        RawConn& c = *conns[sent % conns.size()];
        const std::size_t at = g.cursor;
        wire::encode_route_request(c.out, sent,
                                   {g.ring[at].src, g.ring[at].dst});
        g.cursor = (at + 1) % g.ring.size();
        ++g.attempted;
        c.pending.push_back({due_of(sent), at, sent});
        g.late_ns.push_back(clip_ns(now - due_of(sent)));
        ++sent;
      }
      bool waiting = false;
      for (std::size_t i = 0; i < conns.size(); ++i) {
        RawConn& c = *conns[i];
        if (!c.out.empty()) send_some(c);
        if (!c.pending.empty()) receive_some(run, g, c);
        if (!c.pending.empty() && now - c.pending.front().due > 5'000'000'000) {
          throw std::runtime_error("no reply within 5 s");
        }
        waiting = waiting || !c.pending.empty() || !c.out.empty();
        const short events = POLLIN | (c.out.empty() ? 0 : POLLOUT);
        fds[i] = {c.fd, events, 0};
      }
      const std::int64_t next = due_of(sent);
      const bool more = sending(next);
      if (!waiting && !more) break;
      // Sleep until a reply arrives or shortly before the next frame is
      // due; closer than that, spin.
      const std::int64_t until = (more ? next : now + 1'000'000) - 20'000;
      const std::int64_t wait =
          std::min<std::int64_t>(until - now_ns(), 1'000'000);
      if (wait > 10'000) {
        const timespec ts{0, static_cast<long>(wait)};
        ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      }
    }
  } catch (const std::exception& e) {
    g.error = e.what();
    for (auto& c : conns) {
      g.failed += c->pending.size();
      for (const auto& p : c->pending) {
        g.latency_ns.push_back(kFailedNs);
        g.latency_slice.push_back(slice_of(g, p.due));
      }
      c->pending.clear();
    }
    run.stop.store(true, std::memory_order_relaxed);
  }
}

/// Epoch-part probe: one ROUTE per millisecond until run.stop.
void probe_loop(Run& run, GenState& g, rpc::Client& c) {
  g.audit_cap = g.samples.size() + audit_share(run.w, false);
  try {
    while (!run.stop.load(std::memory_order_relaxed)) {
      const std::size_t at = post_next(g, c);
      take_next(run, g, c, at);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kProbeIntervalS));
    }
  } catch (const std::exception& e) {
    g.error = e.what();
    ++g.failed;
  }
}

// --- the measured window ----------------------------------------------------

/// Drives one epoch on the host thread and records its publication.
void run_epoch(Run& run, Stack& s) {
  ++run.seq;
  if (run.seq >= kMaxSeq) throw std::runtime_error("too many publications");
  run.epoch_span = run.host_spans.open();
  const std::int64_t t0 = now_ns();
  run.seqs.call_ns[run.seq] = t0;
  s.host->run_epochs(s.handle, 1);
  if (run.tracing.load(std::memory_order_relaxed)) {
    run.host_spans.close(run.epoch_span, "overlay.epoch", t0, now_ns());
  }
  if (s.service->stats().publishes != run.seq) {
    throw std::runtime_error("epoch did not publish exactly once");
  }
}

struct PhaseResult {
  double seconds = 0.0;
  int publishes = 0;
  int planned = 0;
};

/// Runs the host side of one phase: `epochs` epochs back to back from
/// `epochs_at_s` into the phase, then waits until `seconds` have passed
/// since its start (a phase of epochs alone passes 0). Retired views are
/// sampled throughout.
PhaseResult drive_phase(Run& run, Stack& s, double seconds, int epochs,
                        double epochs_at_s) {
  PhaseResult r;
  r.planned = epochs;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t epochs_at =
      start + static_cast<std::int64_t>(epochs_at_s * 1e9);
  for (;;) {
    const std::int64_t now = now_ns();
    if (r.publishes < epochs && now >= epochs_at) {
      run_epoch(run, s);
      ++r.publishes;
      continue;
    }
    if (r.publishes == epochs && now >= end) break;
    const std::int64_t wake =
        std::min(r.publishes < epochs ? epochs_at : end, now + 20'000'000);
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::max<std::int64_t>(wake - now, 0)));
    run.retired_max = std::max(run.retired_max, s.service->retired_pending());
  }
  run.retired_max = std::max(run.retired_max, s.service->retired_pending());
  r.seconds = seconds_between(start, now_ns());
  return r;
}

/// Runs `body` on `threads` generator threads while the host thread drives
/// the phase. While serving, the host thread keeps off the loops' CPUs.
template <typename Body>
PhaseResult run_phase(Run& run, Stack& s, std::vector<GenState>& gens,
                      int threads, double seconds, int epochs,
                      double epochs_at_s, Body body) {
  run.stop.store(false, std::memory_order_relaxed);
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) {
    auto& g = gens[static_cast<std::size_t>(i)];
    if (!g.error.empty()) continue;
    pool.emplace_back(
        [&, i] { body(g, s.clients[static_cast<std::size_t>(i)], i); });
  }
  const bool serving = seconds > 0.0 && run.sender_cpu >= 0;
  if (serving) pin_thread(0, run.host_cpus);
  PhaseResult r;
  try {
    r = drive_phase(run, s, seconds, epochs, epochs_at_s);
  } catch (...) {
    run.stop.store(true, std::memory_order_relaxed);
    for (auto& t : pool) t.join();
    if (serving) pin_thread(0, run.cpus);
    throw;
  }
  run.stop.store(true, std::memory_order_relaxed);
  for (auto& t : pool) t.join();
  if (serving) pin_thread(0, run.cpus);
  return r;
}

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile; failed lookups sort last.
double percentile_ns(std::vector<std::uint32_t> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t rank = std::min(
      v.size() - 1,
      static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(v.size()))) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

CpuTimes cpu_now() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {sec(u.ru_utime), sec(u.ru_stime)};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(ch);
  }
  return out;
}

/// Codec times in ns per request + response frame pair.
struct CodecTimes {
  double route_encode_ns = 0.0;
  double route_decode_ns = 0.0;
  double batch_encode_ns = 0.0;
  double batch_decode_ns = 0.0;
};

/// Median codec time per request + response frame pair, over the
/// workload's own generated lookups: a ROUTE pair carries one lookup, a
/// BATCH_ROUTE pair `batch` of them.
CodecTimes time_codec(Run& run, const std::vector<wire::BatchRoutePair>& pairs,
                      int batch) {
  constexpr int kReps = 7;
  const std::size_t lookups = std::min<std::size_t>(pairs.size(), 4096);
  const auto per = static_cast<std::size_t>(batch);
  const std::size_t frames = lookups / per;
  const wire::RouteResponse resp{1, 3, 42.5, 7, 9};
  const wire::BatchRouteResponse bresp{
      7, 9, std::vector<wire::BatchRouteEntry>(per, {1, 3, 42.5})};
  std::vector<std::uint8_t> stream;
  stream.reserve(lookups * 2 * (wire::kHeaderSize + 32));
  std::uint64_t sink = 0;
  const auto ns_per = [](std::int64_t t0, std::size_t ops) {
    return static_cast<double>(now_ns() - t0) / static_cast<double>(ops);
  };
  // Decodes `stream`: alternating request and response frames.
  const auto decode_all = [&] {
    std::span<const std::uint8_t> bytes(stream);
    for (bool response = false; !bytes.empty(); response = !response) {
      const auto h = wire::decode_header(bytes);
      if (h.status != wire::DecodeStatus::kOk) {
        throw std::runtime_error("codec timing: bad header");
      }
      const auto payload =
          bytes.subspan(wire::kHeaderSize, h.header.payload_len);
      const auto status =
          response ? wire::decode_response(h.header, payload).status
                   : wire::decode_request(h.header, payload).status;
      if (status != wire::DecodeStatus::kOk) {
        throw std::runtime_error("codec timing: bad payload");
      }
      sink += h.header.payload_len;
      bytes = bytes.subspan(wire::kHeaderSize + h.header.payload_len);
    }
  };
  std::vector<double> enc, dec, benc, bdec;
  for (int rep = 0; rep < kReps; ++rep) {
    stream.clear();
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < lookups; ++i) {
      wire::encode_route_request(stream, i, {pairs[i].src, pairs[i].dst});
      wire::encode_route_response(stream, i, resp);
    }
    enc.push_back(ns_per(t0, lookups));
    t0 = now_ns();
    decode_all();
    dec.push_back(ns_per(t0, lookups));

    stream.clear();
    wire::BatchRouteRequest breq;
    t0 = now_ns();
    for (std::size_t f = 0; f < frames; ++f) {
      const auto first = pairs.begin() + static_cast<std::ptrdiff_t>(f * per);
      breq.pairs.assign(first, first + static_cast<std::ptrdiff_t>(per));
      wire::encode_batch_route_request(stream, f, breq);
      wire::encode_batch_route_response(stream, f, bresp);
    }
    benc.push_back(ns_per(t0, frames));
    t0 = now_ns();
    decode_all();
    bdec.push_back(ns_per(t0, frames));
  }
  if (sink == 0) run.errors.push_back("codec timing decoded nothing");
  return {median(enc), median(dec), median(benc), median(bdec)};
}

int run_benchmark(const Options& o) {
  const Workload* found = nullptr;
  for (const auto& w : kWorkloads) {
    if (o.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::cerr << "perfbench: unknown workload " << o.workload << "\n";
    return 2;
  }
  const Workload& w = *found;
  Run run(w, o);

  // --- setup, kSetupReps times; the last stack is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::vector<Teardown> teardowns;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (stack) teardowns.push_back(teardown(*stack));
    const std::int64_t t0 = now_ns();
    stack = build_stack(run);
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  Stack& s = *stack;
  const std::size_t n = s.host->size();

  // Publication 1 is the one the RouteService made in its constructor.
  {
    const auto served = s.service->acquire();
    run.seq = served.publish_seq();
    auto online = std::make_unique<std::vector<char>>(n);
    for (std::size_t v = 0; v < n; ++v) {
      (*online)[v] = served.snapshot().is_online(static_cast<int>(v)) ? 1 : 0;
    }
    run.seqs.online[run.seq].store(online.get(), std::memory_order_release);
    run.seqs.online_store[run.seq] = std::move(online);
    run.seqs.pinned[run.seq] = served.snapshot();
    ++run.seqs.pinned_count;
  }

  // --- generated inputs: per-generator (src, dst) rings from the seed.
  std::vector<GenState> gens;
  {
    const auto snap = s.service->acquire().snapshot();
    const auto& online = snap.online_nodes();
    egoist::util::Rng pool_rng(mix(o.seed, 3));
    const std::vector<NodeId> sources = pool_rng.sample_without_replacement(
        std::span<const NodeId>(online), std::min(kHotSources, online.size()));
    const egoist::exp::ZipfSampler zipf(n, 0.9);
    for (int g = 0; g < kGens; ++g) {
      gens.emplace_back(static_cast<std::uint32_t>(g + 1));
      auto& gen = gens.back();
      egoist::util::Rng rng(mix(o.seed, 100 + static_cast<std::uint64_t>(g)));
      gen.ring.resize(kRing);
      for (auto& p : gen.ring) {
        p.src = sources[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
        p.dst = zipf.draw(rng);
      }
      gen.latency_ns.reserve(1 << 20);
      gen.latency_slice.reserve(1 << 20);
      gen.late_ns.reserve(1 << 18);
    }
  }
  const auto stats_before = s.service->stats();

  // --- the measured window (see Workload). With --trace 1 the second half
  // of the epochs alone and of the rounds is traced and the first half is
  // not, which gives the tracing overhead.
  auto& profiler = egoist::util::Profiler::instance();
  int publishes = 0, planned = 0;
  double closed_s[2] = {0.0, 0.0};  // [traced]
  double open_s = 0.0;
  CpuTimes cpu;  // over the closed chunks
  const int chunk_slices = kOpenSlices / kRounds;
  const std::int64_t window_start = now_ns();
  const auto trace = [&](bool on) {
    run.tracing.store(on, std::memory_order_relaxed);
    profiler.set_enabled(on);
  };
  const auto tally = [&](const PhaseResult& r) {
    publishes += r.publishes;
    planned += r.planned;
  };
  try {
    const int untraced = o.trace ? w.alone_epochs / 2 : w.alone_epochs;
    for (const bool traced : {false, true}) {
      const int epochs = traced ? w.alone_epochs - untraced : untraced;
      if (epochs == 0) continue;
      trace(traced);
      tally(run_phase(run, s, gens, 1, 0.0, epochs, 0.0,
                      [&](GenState& g, rpc::Client& c, int) {
                        probe_loop(run, g, c);
                      }));
    }
    for (int round = 0; round < kRounds; ++round) {
      const bool traced = o.trace && 2 * round >= kRounds;
      trace(traced);
      // What is left of the window, shared evenly by the chunks to come.
      const double left_s =
          o.seconds - seconds_between(window_start, now_ns());
      const double chunk_s =
          std::max(kMinChunkS, left_s / (2.0 * (kRounds - round)));
      const CpuTimes c0 = cpu_now();
      closed_s[traced ? 1 : 0] +=
          run_phase(run, s, gens, kGens, chunk_s, 0, 0.0,
                    [&](GenState& g, rpc::Client& c, int i) {
                      closed_loop(run, g, c, i);
                    })
              .seconds;
      const CpuTimes c1 = cpu_now();
      cpu.user_s += c1.user_s - c0.user_s;
      cpu.sys_s += c1.sys_s - c0.sys_s;
      const std::int64_t open_start = now_ns() + 2'000'000;
      const std::int64_t open_end =
          open_start + static_cast<std::int64_t>(chunk_s * 1e9);
      const PhaseResult open = run_phase(
          run, s, gens, 1, 0.002 + chunk_s, w.open_epochs,
          0.002 + kOpenEpochAt * chunk_s, [&](GenState& g, rpc::Client&, int) {
            open_loop(run, g, s.raw, open_start, open_end,
                      round * chunk_slices, chunk_slices);
          });
      tally(open);
      open_s += open.seconds;
    }
  } catch (const std::exception& e) {
    run.errors.push_back(std::string("window: ") + e.what());
  }
  trace(false);
  const auto stats_after = s.service->stats();
  const auto profile = o.trace ? egoist::util::Profiler::instance().report()
                               : std::vector<egoist::util::Profiler::Phase>{};
  egoist::util::Profiler::instance().reset();
  const auto& env = s.host->environment(s.handle);
  const std::size_t probed_pairs = env.probed_pairs();
  const std::size_t plane_bytes = env.plane_memory_bytes();
  const double peak_rss_mb =
      static_cast<double>(egoist::util::peak_rss_bytes()) / (1024.0 * 1024.0);
  teardowns.push_back(teardown(s));
  const Teardown& last = teardowns.back();
  const auto& per_loop = last.per_loop;

  // --- audit. --corrupt-audit alters the first audited answer, as a
  // server bug would, to prove the audit catches it.
  Auditor auditor(run.seqs.pinned);
  std::uint64_t audited = 0, mismatches = 0;
  for (const auto& g : gens) {
    for (AuditSample sample : g.samples) {
      if (!auditor.pinned(sample)) continue;
      if (o.corrupt_audit && audited == 0) {
        sample.cost = sample.reachable ? sample.cost + 1.0 : 1.0;
        sample.reachable = true;
      }
      ++audited;
      if (!auditor.matches(sample)) ++mismatches;
    }
  }

  // --- tallies.
  std::uint64_t attempted = 0, answered = 0, failed = 0;
  std::uint64_t closed_answered[2] = {0, 0};
  std::vector<std::uint32_t> late;
  std::vector<std::vector<std::uint32_t>> latency(kOpenSlices);
  std::size_t latency_samples = 0;
  std::uint64_t unreach[3] = {0, 0, 0};
  for (const auto& g : gens) {
    attempted += g.attempted;
    answered += g.answered;
    failed += g.failed;
    closed_answered[0] += g.closed_answered[0];
    closed_answered[1] += g.closed_answered[1];
    for (std::size_t i = 0; i < g.latency_ns.size(); ++i) {
      latency[g.latency_slice[i]].push_back(g.latency_ns[i]);
    }
    latency_samples += g.latency_ns.size();
    late.insert(late.end(), g.late_ns.begin(), g.late_ns.end());
    for (int i = 0; i < 3; ++i) unreach[i] += g.unreach[i];
    if (!g.error.empty()) run.errors.push_back("generator: " + g.error);
  }
  failed += mismatches;
  // A lookup whose frame was never answered (cut off by a failure) failed.
  if (attempted > answered + failed) failed = attempted - answered;

  // Every run drives the same number of epochs from the same deployment,
  // so these are medians over the same trajectory epochs in every run.
  std::vector<double> epoch_to_answer_ms, timed_epoch_s;
  for (const auto& e : run.epochs) {
    timed_epoch_s.push_back(e.seconds);
    const std::int64_t first = run.seqs.first_answer_ns[e.seq].load();
    if (first > 0) {
      epoch_to_answer_ms.push_back(
          static_cast<double>(first - run.seqs.call_ns[e.seq]) / 1e6);
    }
  }
  std::vector<double> epoch_s[2];  // [traced]
  std::vector<double> evaluated, rewired;
  double evals = 0.0, skips = 0.0;
  for (const auto& e : run.epochs) {
    epoch_s[e.traced ? 1 : 0].push_back(e.seconds);
    evaluated.push_back(static_cast<double>(e.evaluated));
    rewired.push_back(static_cast<double>(e.rewired));
    evals += static_cast<double>(e.evaluated);
    skips += static_cast<double>(e.skipped);
  }

  // --- checks.
  bool drained = true;
  std::uint64_t seal_violations = 0, decode_errors = 0, error_responses = 0;
  for (const auto& t : teardowns) {
    drained = drained && t.drained;
    seal_violations += t.service.seal_violations;
    decode_errors += t.server.decode_errors;
    error_responses += t.server.error_responses;
  }
  const bool cadence_ok = publishes == planned && planned > 0;
  const bool correct = run.errors.empty() && failed == 0 && mismatches == 0 &&
                       seal_violations == 0 && decode_errors == 0 &&
                       error_responses == 0 && drained && cadence_ok &&
                       audited > 0 && answered > 0;

  // --- metrics.
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m;
  const std::uint64_t closed_answers = closed_answered[0] + closed_answered[1];
  const double cpu_s = cpu.user_s + cpu.sys_s;
  if (!o.trace) {
    const auto sliced = [&](double p) {
      std::vector<double> per_slice;
      for (const auto& slice : latency) {
        if (!slice.empty()) per_slice.push_back(percentile_ns(slice, p) / 1e3);
      }
      return median(per_slice);
    };
    m.push_back({"setup_s", median(setup_s), "s", setup_s.size()});
    m.push_back({"route_qps",
                 ratio(count(closed_answers), closed_s[0] + closed_s[1]), "1/s",
                 closed_answers});
    m.push_back({"route_p50_us", sliced(50), "us", latency_samples});
    m.push_back({"route_p99_us", sliced(99), "us", latency_samples});
    m.push_back({"route_ok_frac",
                 ratio(count(attempted - std::min(failed, attempted)),
                       count(attempted)),
                 "ratio", attempted});
    m.push_back({"epoch_to_answer_ms", median(epoch_to_answer_ms), "ms",
                 epoch_to_answer_ms.size()});
    m.push_back({"epoch_s", median(timed_epoch_s), "s", timed_epoch_s.size()});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MB", 1});
    m.push_back({"cpu_us_per_query", ratio(cpu_s * 1e6, count(closed_answers)),
                 "us", closed_answers});
  } else {
    for (const char* phase : {"snapshot", "evaluate", "merge"}) {
      const std::string path = std::string("epoch/") + phase;
      Metric metric{std::string("overlay.") + phase + "_ms", 0.0, "ms", 0};
      for (const auto& p : profile) {
        if (p.path == path && p.count > 0) {
          metric.value = count(p.total_ns) / 1e6 / count(p.count);
          metric.samples = p.count;
        }
      }
      m.push_back(metric);
    }
    m.push_back({"overlay.evaluated", median(evaluated), "count",
                 evaluated.size()});
    m.push_back({"overlay.rewirings", median(rewired), "count",
                 rewired.size()});
    m.push_back({"overlay.dirty_frac", ratio(evals, evals + skips), "ratio",
                 run.epochs.size()});
    m.push_back({"net.probed_pairs", count(probed_pairs), "count", 1});
    m.push_back({"net.plane_bytes", count(plane_bytes), "B", 1});

    std::vector<const SpanLog*> logs{&run.host_spans};
    for (const auto& g : gens) logs.push_back(&g.spans);
    const auto span_metric = [&](const char* metric, const char* span,
                                 double scale, const char* unit) {
      const auto [ns, spans] = median_span_ns(logs, span);
      m.push_back({metric, ns / scale, unit, spans});
    };
    span_metric("host.snapshot_ms", "host.snapshot", 1e6, "ms");
    span_metric("host.publish_ms", "host.publish", 1e6, "ms");
    span_metric("host.acquire_ns", "host.acquire", 1.0, "ns");
    span_metric("host.route_cached_ns", "host.route_cached", 1.0, "ns");
    span_metric("host.row_build_us", "host.row_build", 1e3, "us");
    const auto delta = [&](std::uint64_t host::RouteService::Stats::*field) {
      return stats_after.*field - stats_before.*field;
    };
    const std::uint64_t queries =
        delta(&host::RouteService::Stats::queries_route);
    const std::uint64_t misses =
        delta(&host::RouteService::Stats::rows_built) +
        delta(&host::RouteService::Stats::uncached_queries);
    m.push_back({"host.row_hit_ratio",
                 1.0 - ratio(count(misses), count(queries)), "ratio", queries});
    m.push_back({"host.rows_discarded",
                 count(delta(&host::RouteService::Stats::rows_discarded)),
                 "count", 1});
    m.push_back({"host.stale_served",
                 count(delta(&host::RouteService::Stats::stale_served)),
                 "count", 1});
    m.push_back({"host.retired_pending_max", count(run.retired_max), "count",
                 1});
    const char* reasons[3] = {"host.unreach_src_offline",
                              "host.unreach_dst_offline",
                              "host.unreach_disconnected"};
    for (int i = 0; i < 3; ++i) {
      m.push_back({reasons[i], count(unreach[i]), "count", 1});
    }

    const auto codec = time_codec(run, gens.front().ring, kBatch);
    m.push_back({"wire.route_encode_ns", codec.route_encode_ns, "ns", 7});
    m.push_back({"wire.route_decode_ns", codec.route_decode_ns, "ns", 7});
    m.push_back({"wire.batch_encode_ns", codec.batch_encode_ns, "ns", 7});
    m.push_back({"wire.batch_decode_ns", codec.batch_decode_ns, "ns", 7});
    const auto& srv = last.server;
    m.push_back({"wire.bytes_per_query",
                 ratio(count(srv.bytes_in + srv.bytes_out), count(answered)),
                 "B", answered});
    m.push_back({"rpc.frames_per_batch",
                 ratio(count(srv.frames_in), count(srv.batches)), "count",
                 srv.batches});
    m.push_back({"rpc.bytes_in", count(srv.bytes_in), "B", 1});
    m.push_back({"rpc.bytes_out", count(srv.bytes_out), "B", 1});
    double frames_min = std::numeric_limits<double>::infinity();
    double frames_sum = 0.0;
    for (const auto& l : per_loop) {
      frames_min = std::min(frames_min, count(l.frames_out));
      frames_sum += count(l.frames_out);
    }
    m.push_back({"rpc.loop_balance",
                 ratio(frames_min, ratio(frames_sum, count(per_loop.size()))),
                 "ratio", per_loop.size()});
    span_metric("rpc.client_flush_us", "rpc.client_flush", 1e3, "us");
    span_metric("rpc.client_take_wait_us", "rpc.client_take", 1e3, "us");
    m.push_back({"proc.sys_cpu_frac", ratio(cpu.sys_s, cpu_s),
                 "ratio", 1});
    m.push_back({"gen.late_us_p50", percentile_ns(late, 50) / 1e3, "us",
                 late.size()});
    m.push_back({"gen.late_us_max", percentile_ns(late, 100) / 1e3, "us",
                 late.size()});

    // Tracing overhead: the traced rounds against the untraced ones.
    const double qps_untraced = ratio(count(closed_answered[0]), closed_s[0]);
    const double qps_traced = ratio(count(closed_answered[1]), closed_s[1]);
    m.push_back({"trace.qps_overhead_frac",
                 qps_untraced > 0.0 ? 1.0 - qps_traced / qps_untraced : 0.0,
                 "ratio", closed_answers});
    const double e0 = median(epoch_s[0]);
    const double e1 = median(epoch_s[1]);
    m.push_back({"trace.epoch_overhead_frac",
                 e0 > 0.0 && e1 > 0.0 ? e1 / e0 - 1.0 : 0.0, "ratio",
                 epoch_s[0].size() + epoch_s[1].size()});
    if (!o.spans_path.empty() && !write_spans(logs, o.spans_path)) {
      run.errors.push_back("cannot write spans to " + o.spans_path);
    }
  }

  // --- the report line.
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"workload\":\"" << w.name << "\",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"stamp\":{\"host_cpus\":" << std::thread::hardware_concurrency()
      << ",\"rev\":\"" << json_escape(o.rev) << "\",\"build_type\":\""
      << json_escape(o.build_type) << "\",\"seed\":" << o.seed
      << ",\"n\":" << n << ",\"seconds\":" << o.seconds
      << ",\"threads\":\"host=1 epoch_workers=" << w.epoch_workers
      << " loops=" << kLoops << " closed_generators=" << kGens
      << " open_senders=1 sender_cpu="
      << (run.sender_cpu >= 0 ? std::to_string(run.sender_cpu) : "any")
      << " loop_cpus="
      << (run.sender_cpu >= 0 ? cpu_list(run.loop_cpus) : "any")
      << " generator_cpus="
      << (run.sender_cpu >= 0 ? cpu_list(run.gen_cpus) : "any") << "\"}"
      << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"checks\":{\"audited\":" << audited
      << ",\"audit_mismatches\":" << mismatches
      << ",\"seal_violations\":" << seal_violations
      << ",\"decode_errors\":" << decode_errors
      << ",\"error_responses\":" << error_responses
      << ",\"drained\":" << (drained ? "true" : "false")
      << ",\"publishes_vs_planned\":\"" << publishes << "/" << planned
      << "\",\"open_loop_s\":" << open_s << ",\"errors\":[";
  for (std::size_t i = 0; i < run.errors.size(); ++i) {
    out << (i ? "," : "") << "\"" << json_escape(run.errors[i]) << "\"";
  }
  out << "]},\"metrics\":{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double v = std::isfinite(m[i].value) ? m[i].value : -1.0;
    out << (i ? "," : "") << "\"" << m[i].name << "\":{\"value\":" << v
        << ",\"unit\":\"" << m[i].unit << "\",\"samples\":" << m[i].samples
        << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() != "0";
    else if (arg == "--sock") o.sock = value();
    else if (arg == "--spans") o.spans_path = value();
    else if (arg == "--rev") o.rev = value();
    else if (arg == "--build-type") o.build_type = value();
    else if (arg == "--n") o.n_override = std::stoull(value());
    else if (arg == "--corrupt-audit") o.corrupt_audit = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.workload.empty() || o.sock.empty()) {
    throw std::invalid_argument("--workload and --sock are required");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_benchmark(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
