// appbench: end-to-end and per-layer benchmark of the tdg runtime on three
// application workloads (README.md gives why each was chosen). One process
// runs one workload from a single producer thread and prints one JSON
// result line last:
//
//   appbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans <file>]
//
// --trace 0 times untraced solves and reports the end-to-end metrics.
// --trace 1 interleaves untraced, traced and metrics-off solves with a
// host-parallelism control loop and reports the per-layer metrics; the
// spans of the last traced solve are written to --spans at exit.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/cholesky/cholesky.hpp"
#include "apps/common/emitter.hpp"
#include "apps/hpcg/hpcg.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/runtime.hpp"

extern char** environ;

namespace {

using namespace tdg;
using apps::Emitter;
using apps::LDep;
using apps::RuntimeEmitter;

// --- fixed run shape (identical across commits) -----------------------------
constexpr int kSetups = 31;         // setup_s is the median of these
constexpr int kWarmupSolves = 2;    // per leg of a traced run, untimed
constexpr int kMinSamples = 5;      // timed solves per leg, at least
// The end-to-end run is split into segments, each on a freshly constructed
// Runtime, so run_s is not the luck of one thread placement.
constexpr int kSegments = 16;
constexpr std::uint64_t kControlWork = 8'000'000;  // control-loop steps

// --- statistics ------------------------------------------------------------

/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform draw in [-1, 1) keyed by (seed, key).
double unit_draw(std::uint64_t seed, std::uint64_t key) {
  const std::uint64_t r = splitmix64(seed ^ splitmix64(key));
  return static_cast<double>(r >> 11) * 0x1.0p-52 - 1.0;
}

// --- spans -----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;      ///< task sequence number or iteration number
  std::int64_t parent = -1;  ///< index of the span that caused it
  double seconds() const {
    return end_ns > start_ns ? static_cast<double>(end_ns - start_ns) * 1e-9
                             : 0.0;
  }
};

/// In-memory span store. Only the producer appends; a task body writes the
/// start and end of its own span, which was appended when it was submitted.
/// std::deque keeps element addresses stable across push_back, and the
/// solve's final taskwait orders every body's writes before any read.
class SpanLog {
 public:
  std::int64_t open(const char* name, std::uint64_t id, std::int64_t parent) {
    const std::int64_t s = add(name, id, parent);
    spans_.back().start_ns = now_ns();
    return s;
  }
  std::int64_t add(const char* name, std::uint64_t id, std::int64_t parent) {
    spans_.push_back(Span{name, 0, 0, id, parent});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t s) { at(s).end_ns = now_ns(); }
  Span& at(std::int64_t s) { return spans_[static_cast<std::size_t>(s)]; }
  const std::deque<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  /// TSV: index, name, start/end in ns from the first span, id, parent.
  void write_tsv(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write spans to " + path);
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    auto rel = [origin](std::uint64_t t) {
      return t >= origin ? static_cast<long long>(t - origin) : -1LL;
    };
    os << "span\tname\tstart_ns\tend_ns\tid\tparent\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << i << '\t' << s.name << '\t' << rel(s.start_ns) << '\t'
         << rel(s.end_ns) << '\t' << s.id << '\t' << s.parent << '\n';
    }
  }

 private:
  std::deque<Span> spans_;
};

/// Emitter decorator that records a span around every call into the
/// runtime — compute() -> Runtime::submit, the task body it wraps,
/// begin_iteration, end_iteration — and around taskwait.
class TracingEmitter final : public Emitter {
 public:
  TracingEmitter(Emitter& inner, Runtime& rt, SpanLog& log)
      : inner_(inner), rt_(rt), log_(log) {
    solve_ = log_.open("solve", 0, -1);
    iteration_ = solve_;
  }

  bool concrete() const override { return true; }

  void compute(const char* label, std::span<const LDep> deps,
               double est_seconds, std::uint64_t bytes,
               std::function<void()> body) override {
    const std::uint64_t task = next_task_++;
    const std::int64_t submit = log_.open("submit", task, iteration_);
    Span* run = &log_.at(log_.add("body", task, submit));
    inner_.compute(label, deps, est_seconds, bytes,
                   [run, body = std::move(body)] {
                     run->start_ns = now_ns();
                     body();
                     run->end_ns = now_ns();
                   });
    log_.close(submit);
  }

  void send(const char* label, std::span<const LDep> deps, const void* buf,
            std::uint64_t bytes, int peer, int tag) override {
    inner_.send(label, deps, buf, bytes, peer, tag);
  }
  void recv(const char* label, std::span<const LDep> deps, void* buf,
            std::uint64_t bytes, int peer, int tag) override {
    inner_.recv(label, deps, buf, bytes, peer, tag);
  }
  void allreduce(const char* label, std::span<const LDep> deps,
                 const double* in, double* out, std::size_t count,
                 mpi::Op op) override {
    inner_.allreduce(label, deps, in, out, count, op);
  }

  bool begin_iteration(std::uint32_t iteration) override {
    iteration_ = log_.open("iteration", iteration, solve_);
    const std::int64_t s = log_.open("begin_iteration", iteration, iteration_);
    const bool emit = inner_.begin_iteration(iteration);
    log_.close(s);
    return emit;
  }

  void end_iteration() override {
    const std::int64_t s =
        log_.open("end_iteration", log_.at(iteration_).id, iteration_);
    inner_.end_iteration();
    log_.close(s);
    log_.close(iteration_);
    last_iteration_ = iteration_;
    iteration_ = solve_;
  }

  void taskwait() {
    const std::int64_t s = log_.open("taskwait", 0, solve_);
    rt_.taskwait();
    log_.close(s);
  }

  void finish() { log_.close(solve_); }

  /// The span of the solve's last completed iteration (-1 if none).
  std::int64_t last_iteration() const { return last_iteration_; }

  using Emitter::compute;
  using Emitter::send;
  using Emitter::recv;
  using Emitter::allreduce;

 private:
  Emitter& inner_;
  Runtime& rt_;
  SpanLog& log_;
  std::uint64_t next_task_ = 0;
  std::int64_t solve_ = -1;
  std::int64_t iteration_ = -1;
  std::int64_t last_iteration_ = -1;
};

// --- workloads -------------------------------------------------------------

using Waiter = std::function<void()>;

/// One application problem. build() is the timed problem construction;
/// reference() runs the serial reference once (untimed, for checking);
/// prepare() restores the input before a solve (untimed); solve() is the
/// timed part; check() is the oracle against the reference.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual bool persistent() const { return false; }
  virtual void build(std::uint64_t seed) = 0;
  virtual void reference() = 0;
  virtual void prepare() = 0;
  virtual void solve(Emitter& em, const Waiter& taskwait) = 0;
  /// Empty when the solve matches the reference, else the reason.
  virtual std::string check(const RuntimeStats& st) const = 0;
};

/// lulesh-mini rediscovering its graph every timestep: the discovery-bound
/// case. The solve length keeps the inoutset reader growth visible.
class LuleshRediscover final : public Workload {
 public:
  LuleshRediscover() {
    cfg_.npoints = 32768;
    cfg_.tpl = 64;
    cfg_.iterations = 128;
  }

  void build(std::uint64_t seed) override {
    input_ = std::make_unique<apps::lulesh::Mesh>(cfg_.npoints);
    // Seeded Sedov spike: position in the middle half, energy +-25%.
    auto& m = *input_;
    const auto centre = static_cast<std::size_t>(cfg_.npoints / 2);
    m.e[centre] = 0;
    m.p[centre] = 0;
    const auto quarter = static_cast<std::uint64_t>(cfg_.npoints / 4);
    const std::size_t at = static_cast<std::size_t>(
        quarter + splitmix64(seed) % (2 * quarter));
    m.e[at] = 3.948746e+1 * (1.0 + 0.25 * unit_draw(seed, 1));
    m.p[at] = 1.0;
    mesh_ = std::make_unique<apps::lulesh::Mesh>(m);
  }

  void reference() override {
    *mesh_ = *input_;
    apps::lulesh::run_reference(*mesh_, cfg_);
    if (!mesh_->all_finite()) {
      throw std::runtime_error("lulesh reference not finite");
    }
    ref_ = mesh_->digest();
  }

  void prepare() override { *mesh_ = *input_; }

  void solve(Emitter& em, const Waiter& taskwait) override {
    for (int it = 0; it < cfg_.iterations; ++it) {
      const auto i = static_cast<std::uint32_t>(it);
      if (em.begin_iteration(i)) {
        apps::lulesh::emit_iteration(em, *mesh_, cfg_, i, nullptr);
      }
      em.end_iteration();
    }
    taskwait();
  }

  std::string check(const RuntimeStats&) const override {
    if (!mesh_->all_finite()) return "mesh not finite";
    if (!(mesh_->digest() == ref_)) return "digest differs from run_reference";
    return {};
  }

 private:
  apps::lulesh::Config cfg_;
  std::unique_ptr<apps::lulesh::Mesh> input_, mesh_;
  apps::lulesh::Mesh::Digest ref_{};
};

/// HPCG CG inside a persistent region: discovered once, then replayed with
/// a barrier every iteration. Bypasses discovery; stresses replay,
/// scheduling and a memory-bound SpMV.
class HpcgPersistent final : public Workload {
 public:
  HpcgPersistent() {
    cfg_.nx = cfg_.ny = cfg_.nz_global = 32;
    cfg_.tpl = 32;
    cfg_.nspmv = 4;
    cfg_.cg_iterations = 50;
  }

  bool persistent() const override { return true; }

  void build(std::uint64_t seed) override {
    prob_ = apps::hpcg::build_problem(cfg_);
    // Seeded right-hand side b = A x* with x* = 1 +- 0.5 (ghost planes 0).
    std::vector<double> xs(static_cast<std::size_t>(prob_.vec_len()), 0.0);
    const std::int64_t plane = prob_.plane();
    for (std::int64_t r = 0; r < prob_.nrows(); ++r) {
      xs[static_cast<std::size_t>(r + plane)] =
          1.0 + 0.5 * unit_draw(seed, static_cast<std::uint64_t>(r));
    }
    const auto& a = prob_.a;
    for (std::int64_t r = 0; r < a.nrows; ++r) {
      double s = 0;
      for (auto k = a.row_ptr[static_cast<std::size_t>(r)];
           k < a.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const auto u = static_cast<std::size_t>(k);
        s += a.vals[u] * xs[static_cast<std::size_t>(a.cols[u])];
      }
      prob_.b[static_cast<std::size_t>(r)] = s;
    }
  }

  void reference() override {
    apps::hpcg::CgState st(prob_, cfg_.tpl);
    apps::hpcg::run_reference(prob_, st, cfg_);
    ref_history_ = st.residual_history;
    ref_x_ = st.x;
  }

  void prepare() override {
    st_ = std::make_unique<apps::hpcg::CgState>(prob_, cfg_.tpl);
  }

  void solve(Emitter& em, const Waiter& taskwait) override {
    apps::hpcg::emit_init(em, prob_, *st_, cfg_, nullptr);
    taskwait();  // the init phase is not part of the iterated region
    for (int it = 0; it < cfg_.cg_iterations; ++it) {
      const auto i = static_cast<std::uint32_t>(it);
      if (em.begin_iteration(i)) {
        apps::hpcg::emit_iteration(em, prob_, *st_, cfg_, i, nullptr);
      }
      em.end_iteration();
    }
    taskwait();
  }

  std::string check(const RuntimeStats&) const override {
    if (!same_bits(st_->residual_history, ref_history_)) {
      return "residual history differs from run_reference";
    }
    if (!same_bits(st_->x, ref_x_)) {
      return "solution differs from run_reference";
    }
    return {};
  }

 private:
  static bool same_bits(const std::vector<double>& a,
                        const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  }

  apps::hpcg::Config cfg_;
  apps::hpcg::Problem prob_;
  std::unique_ptr<apps::hpcg::CgState> st_;
  std::vector<double> ref_history_, ref_x_;
};

/// Tile Cholesky rediscovered every factorization: coarse compute-bound
/// tasks where discovery is a small share and the kernels, park and wake
/// dominate.
class CholeskyTiles final : public Workload {
 public:
  static constexpr int kNt = 24;
  static constexpr int kB = 64;

  void build(std::uint64_t seed) override {
    input_ = std::make_unique<apps::cholesky::TiledMatrix>(kNt, kB);
    input_->fill_spd();
    // Seeded symmetric +-50% scaling of the off-diagonal entries keeps the
    // matrix diagonally dominant (off-diagonal row sums stay far below n).
    const std::int64_t n = input_->n();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const auto key = static_cast<std::uint64_t>(std::min(i, j) * n +
                                                    std::max(i, j));
        element(*input_, i, j) *= 1.0 + 0.5 * unit_draw(seed, key);
      }
    }
    work_ = std::make_unique<apps::cholesky::TiledMatrix>(*input_);
  }

  // The reference factorizes the working matrix in place (prepare()
  // restores it) and keeps only a digest, so the benchmark holds two
  // matrices, not three, and peak_rss_mb stays closer to the runtime's own.
  void reference() override {
    *work_ = *input_;
    apps::cholesky::run_reference(*work_);
    const double err = work_->reconstruction_error(*input_);
    if (!(err < 1e-9 * static_cast<double>(work_->n()))) {
      throw std::runtime_error("cholesky reference fails reconstruction_error");
    }
    ref_digest_ = digest(*work_);
  }

  void prepare() override { *work_ = *input_; }

  void solve(Emitter& em, const Waiter& taskwait) override {
    if (em.begin_iteration(0)) {
      apps::cholesky::emit_factorization(em, *work_, /*refill=*/false);
    }
    em.end_iteration();
    taskwait();
  }

  std::string check(const RuntimeStats& st) const override {
    if (st.tasks_executed != apps::cholesky::kernel_count(kNt)) {
      return "executed " + std::to_string(st.tasks_executed) +
             " kernels, expected " +
             std::to_string(apps::cholesky::kernel_count(kNt));
    }
    // The reference passed reconstruction_error; the task graph applies
    // the same tile operations in the same order, so the factor must match
    // it bit for bit.
    if (digest(*work_) != ref_digest_) {
      return "factor differs from run_reference";
    }
    return {};
  }

 private:
  static double& element(apps::cholesky::TiledMatrix& m, std::int64_t i,
                         std::int64_t j) {
    auto& t = m.tile(static_cast<int>(i / kB), static_cast<int>(j / kB));
    return t[static_cast<std::size_t>((i % kB) * kB + (j % kB))];
  }

  /// 64-bit digest of every bit of every tile.
  static std::uint64_t digest(const apps::cholesky::TiledMatrix& m) {
    std::uint64_t h = 0;
    for (const auto& t : m.tiles) {
      for (const double v : t) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h = splitmix64(h ^ bits);
      }
    }
    return h;
  }

  std::unique_ptr<apps::cholesky::TiledMatrix> input_, work_;
  std::uint64_t ref_digest_ = 0;
};

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "lulesh_rediscover") return std::make_unique<LuleshRediscover>();
  if (name == "hpcg_persistent") return std::make_unique<HpcgPersistent>();
  if (name == "cholesky_tiles") return std::make_unique<CholeskyTiles>();
  return nullptr;
}

// --- solving and measuring -------------------------------------------------

/// Exact structural counts of a solve; they must repeat on every solve.
struct Counts {
  std::uint64_t tasks_created = 0, tasks_executed = 0, edges = 0,
                redirect_nodes = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const RuntimeStats& st) {
  return {st.tasks_created, st.tasks_executed,
          st.discovery.edges_created + st.discovery.edges_pruned,
          st.internal_nodes};
}

/// Per-layer values of one solve, by metric name.
using Layers = std::map<std::string, double>;

/// What one solve reports.
struct Solve {
  std::string failure;  ///< empty when the oracle passed
  double run_s = 0;
  Counts counts;
  Layers layers;
};

/// What a solve reads back besides its time and oracle.
enum class Probe {
  None,      ///< nothing: the end-to-end solves
  Counters,  ///< Runtime::stats, metrics().snapshot, profiler().breakdown
  Spans,     ///< run through the TracingEmitter and read its spans
};

constexpr double kMiB = 1024.0 * 1024.0;

void read_counters(const RuntimeStats& st, const MetricsSnapshot& d,
                   double arena_bytes, const Breakdown& b, double run_s,
                   Layers& out) {
  const auto& disc = st.discovery;
  const auto tasks = static_cast<double>(st.tasks_created);
  const auto executed = static_cast<double>(st.tasks_executed);
  const auto edges =
      static_cast<double>(disc.edges_created + disc.edges_pruned);
  auto count = [&d](const char* name) {
    return static_cast<double>(d.value(name));
  };
  auto hist = [&d](const char* name, double p) {
    const auto* e = d.find(name);
    return e != nullptr ? e->percentile(p) : 0.0;
  };
  out["runtime.discovery_share"] = ratio(st.discovery_seconds(), run_s);
  out["depend.edges_per_task"] = ratio(edges, tasks);
  out["depend.pruned_share"] =
      ratio(static_cast<double>(disc.edges_pruned), edges);
  out["depend.duplicate_per_task"] =
      ratio(static_cast<double>(disc.edges_duplicate), tasks);
  out["depend.redirect_nodes"] = static_cast<double>(st.internal_nodes);
  out["depend.probe_len_p95"] = hist("discovery.probe_len", 0.95);
  out["depend.arena_mb"] = arena_bytes / kMiB;
  out["sched.queue_ns_p50"] = hist("exec.queue_ns", 0.50);
  out["sched.queue_ns_p95"] = hist("exec.queue_ns", 0.95);
  out["sched.steals_per_task"] = ratio(count("sched.steals"), executed);
  out["sched.steal_failures_per_task"] =
      ratio(count("sched.steal_failures"), executed);
  out["sched.parks_per_task"] = ratio(count("sched.parks"), executed);
  out["sched.wakeups_per_task"] = ratio(count("sched.wakeups"), executed);
  out["sched.throttle_stalls"] = count("sched.throttle_stalls");
  const double fresh = count("alloc.slab_fresh");
  out["alloc.fresh_share"] =
      ratio(fresh, fresh + count("alloc.slab_recycled"));
  const double total = b.work + b.overhead + b.idle;
  out["profile.work_share"] = ratio(b.work, total);
  out["profile.overhead_share"] = ratio(b.overhead, total);
  out["profile.idle_share"] = ratio(b.idle, total);
}

void read_spans(const SpanLog& log, std::int64_t last_iteration,
                Layers& out) {
  std::vector<double> submit_ns, last_submit_ns, body_ns, barrier_ms;
  double taskwait_s = 0;
  for (const Span& s : log.spans()) {
    const std::string_view name = s.name;
    const double ns = s.seconds() * 1e9;
    if (name == "submit") {
      submit_ns.push_back(ns);
      if (s.parent == last_iteration) last_submit_ns.push_back(ns);
    } else if (name == "body") {
      body_ns.push_back(ns);
    } else if (name == "end_iteration") {
      barrier_ms.push_back(ns * 1e-6);
    } else if (name == "taskwait") {
      taskwait_s += s.seconds();
    }
  }
  out["runtime.submit_ns_p50"] = percentile(submit_ns, 0.50);
  out["runtime.submit_ns_p99"] = percentile(submit_ns, 0.99);
  out["runtime.taskwait_s"] = taskwait_s;
  out["persistent.replay_ns_p50"] = percentile(last_submit_ns, 0.50);
  out["persistent.barrier_ms_p50"] = percentile(barrier_ms, 0.50);
  out["persistent.barrier_ms_p95"] = percentile(barrier_ms, 0.95);
  out["kernel.body_ns_p50"] = percentile(body_ns, 0.50);
  out["kernel.body_ns_p99"] = percentile(body_ns, 0.99);
}

/// Run one solve of `w` on `rt`: restore the input, time the solve, read
/// back what `probe` asks for, check the oracle, and clear the dependency
/// history so every solve starts from the same state. Probe::Spans records
/// into `log`, which then holds this solve's spans.
Solve solve_once(Workload& w, Runtime& rt, Probe probe,
                 SpanLog* log = nullptr) {
  Solve r;
  w.prepare();
  rt.reset_stats();
  MetricsSnapshot before;
  Breakdown profile_before;
  if (probe == Probe::Counters) {
    before = rt.metrics().snapshot();
    profile_before = rt.profiler().breakdown();
  }
  RuntimeStats st;
  {
    RuntimeEmitter::Options opts;
    opts.persistent = w.persistent();
    RuntimeEmitter inner(rt, opts);
    std::optional<TracingEmitter> traced;
    if (probe == Probe::Spans) {
      log->clear();
      traced.emplace(inner, rt, *log);
    }
    Emitter& em = traced ? static_cast<Emitter&>(*traced) : inner;
    const Waiter wait = [&] {
      if (traced) {
        traced->taskwait();
      } else {
        rt.taskwait();
      }
    };
    const std::uint64_t t0 = now_ns();
    try {
      w.solve(em, wait);
    } catch (const std::exception& e) {
      r.failure = e.what();
    }
    r.run_s = static_cast<double>(now_ns() - t0) * 1e-9;
    st = rt.stats();
    if (traced) {
      traced->finish();
      read_spans(*log, traced->last_iteration(), r.layers);
    }
    if (probe == Probe::Counters) {
      const MetricsSnapshot after = rt.metrics().snapshot();
      const auto* arena = after.find("discovery.arena_bytes");
      const Breakdown profile = rt.profiler().breakdown();
      Breakdown b;
      b.work = profile.work - profile_before.work;
      b.overhead = profile.overhead - profile_before.overhead;
      b.idle = profile.idle - profile_before.idle;
      read_counters(st, MetricsSnapshot::delta(after, before),
                    arena != nullptr ? static_cast<double>(arena->level) : 0,
                    b, r.run_s, r.layers);
    }
  }
  rt.clear_dependency_scope();
  r.counts = counts_of(st);
  if (r.failure.empty() && st.tasks_failed + st.tasks_cancelled != 0) {
    r.failure = std::to_string(st.tasks_failed) + " failed and " +
                std::to_string(st.tasks_cancelled) + " cancelled tasks";
  }
  if (r.failure.empty()) r.failure = w.check(st);
  return r;
}

/// Fixed-work compute loop split over `threads` threads; wall seconds.
double control_leg(unsigned threads) {
  std::vector<double> out(threads, 0.0);
  const std::uint64_t per = kControlWork / threads;
  const std::uint64_t t0 = now_ns();
  {
    std::vector<std::thread> team;
    team.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      team.emplace_back([&out, t, per] {
        double x = 1.0 + 1e-3 * t;
        for (std::uint64_t i = 0; i < per; ++i) x = x * 0.9999999 + 1e-7;
        out[t] = x;
      });
    }
    for (auto& th : team) th.join();
  }
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (double x : out) {
    if (!std::isfinite(x)) throw std::runtime_error("control loop diverged");
  }
  return s;
}

/// The solves of one leg (one way of running the workload).
struct Leg {
  const char* name;
  std::vector<double> run_s;   ///< timed solves only
  std::vector<Layers> layers;  ///< timed solves only
  std::uint64_t attempted = 0, failed = 0;
  std::optional<Counts> counts;
  bool counts_vary = false;

  void add(Solve s, bool timed) {
    ++attempted;
    if (!s.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "appbench: %s solve failed: %s\n", name,
                   s.failure.c_str());
    }
    if (!counts) {
      counts = s.counts;
    } else if (!(*counts == s.counts)) {
      counts_vary = true;
    }
    if (!timed) return;
    run_s.push_back(s.run_s);
    if (!s.layers.empty()) layers.push_back(std::move(s.layers));
  }

  /// Median over the timed solves of every per-layer value they report.
  void medians_into(Layers& out) const {
    std::map<std::string, std::vector<double>> all;
    for (const Layers& l : layers) {
      for (const auto& [name, v] : l) all[name].push_back(v);
    }
    for (auto& [name, v] : all) out[name] = median(std::move(v));
  }

  void print_counts() const {
    if (!counts) return;
    if (counts_vary) {
      std::printf("appbench: counts leg=%s varies\n", name);
      return;
    }
    std::printf(
        "appbench: counts leg=%s tasks_created=%llu tasks_executed=%llu "
        "edges=%llu redirect_nodes=%llu\n",
        name, static_cast<unsigned long long>(counts->tasks_created),
        static_cast<unsigned long long>(counts->tasks_executed),
        static_cast<unsigned long long>(counts->edges),
        static_cast<unsigned long long>(counts->redirect_nodes));
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    // core/runtime
    {"runtime.submit_ns_p50", "ns"},
    {"runtime.submit_ns_p99", "ns"},
    {"runtime.discovery_share", "ratio"},
    {"runtime.taskwait_s", "s"},
    // core/depend
    {"depend.edges_per_task", "edges/task"},
    {"depend.pruned_share", "ratio"},
    {"depend.duplicate_per_task", "edges/task"},
    {"depend.redirect_nodes", "count"},
    {"depend.probe_len_p95", "probes"},
    {"depend.arena_mb", "MB"},
    // core/persistent
    {"persistent.replay_ns_p50", "ns"},
    {"persistent.barrier_ms_p50", "ms"},
    {"persistent.barrier_ms_p95", "ms"},
    // core/worker_pool + core/deque
    {"sched.queue_ns_p50", "ns"},
    {"sched.queue_ns_p95", "ns"},
    {"sched.steals_per_task", "1/task"},
    {"sched.steal_failures_per_task", "1/task"},
    {"sched.parks_per_task", "1/task"},
    {"sched.wakeups_per_task", "1/task"},
    {"sched.throttle_stalls", "count"},
    // core/slab
    {"alloc.fresh_share", "ratio"},
    // core/profiler
    {"profile.work_share", "ratio"},
    {"profile.overhead_share", "ratio"},
    {"profile.idle_share", "ratio"},
    // apps kernels
    {"kernel.body_ns_p50", "ns"},
    {"kernel.body_ns_p99", "ns"},
    // core/metrics, tracing, host control, run-time tail
    {"metrics.overhead_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"host.par_eff", "ratio"},
    {"run_s_p90", "s"},
    {"run.samples", "count"},
};

/// Print the result line: every metric of `defs`, by name and unit.
template <std::size_t N>
void print_result(const MetricDef (&defs)[N], const Layers& values,
                  std::uint64_t attempted, std::uint64_t failed) {
  std::string out = "{\"correct\": ";
  out += failed == 0 && attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end() || !std::isfinite(it->second)) {
      throw std::logic_error(std::string("no value for ") + defs[i].name);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", it->second);
    if (i != 0) out += ", ";
    out += std::string("\"") + defs[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "appbench: %s\nusage: appbench --workload <lulesh_rediscover|"
               "hpcg_persistent|cholesky_tiles> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::string_view(v) == "1";
      if (!a.trace && std::string_view(v) != "0") usage("--trace takes 0 or 1");
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage("unknown flag");
    }
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// End-to-end run: setup_s over repeated constructions, run_s over
/// untraced solves on kSegments successive runtimes (one untimed warm-up
/// solve each), the process's peak RSS.
int run_e2e(const Args& args, const Runtime::Config& cfg) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  std::unique_ptr<Runtime> rt;
  for (int k = 0; k < kSetups; ++k) {
    rt.reset();
    w.reset();
    const std::uint64_t t0 = now_ns();
    w = make_workload(args.workload);
    w->build(args.seed);
    rt = std::make_unique<Runtime>(cfg);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  w->reference();

  Leg plain{"plain"};
  for (int seg = 0; seg < kSegments; ++seg) {
    if (seg > 0) {
      rt.reset();
      rt = std::make_unique<Runtime>(cfg);
    }
    const std::uint64_t deadline = deadline_after(args.seconds / kSegments);
    plain.add(solve_once(*w, *rt, Probe::None), false);
    while (now_ns() < deadline ||
           plain.run_s.size() < static_cast<std::size_t>(seg + 1)) {
      plain.add(solve_once(*w, *rt, Probe::None), true);
    }
  }
  rt.reset();
  plain.print_counts();

  const Layers values = {{"run_s", median(plain.run_s)},
                         {"setup_s", median(setup_s)},
                         {"peak_rss_mb", peak_rss_mb()}};
  print_result(kEndToEnd, values, plain.attempted, plain.failed);
  return 0;
}

/// Traced run: untraced solves reading the runtime's counters, traced
/// solves and metrics-off solves, interleaved with the host-parallelism
/// control loop at 1 and N threads; per-layer metrics.
int run_traced(const Args& args, const Runtime::Config& cfg) {
  auto w = make_workload(args.workload);
  w->build(args.seed);
  w->reference();
  Runtime rt(cfg);
  Runtime::Config off_cfg = cfg;
  off_cfg.metrics = false;
  Runtime rt_off(off_cfg);
  SpanLog log;

  Leg plain{"plain"}, traced{"traced"}, metrics_off{"metrics_off"};
  std::vector<double> control1, controln;
  const unsigned n = cfg.num_threads;
  const std::vector<std::function<void(bool)>> legs = {
      [&](bool timed) {
        plain.add(solve_once(*w, rt, Probe::Counters), timed);
      },
      [&](bool timed) {
        traced.add(solve_once(*w, rt, Probe::Spans, &log), timed);
      },
      [&](bool timed) {
        metrics_off.add(solve_once(*w, rt_off, Probe::None), timed);
      },
      [&](bool timed) {
        const double s = control_leg(1);
        if (timed) control1.push_back(s);
      },
      [&](bool timed) {
        const double s = control_leg(n);
        if (timed) controln.push_back(s);
      },
  };
  for (int k = 0; k < kWarmupSolves; ++k) {
    for (const auto& leg : legs) leg(false);
  }
  // Rotate the leg order every round so no leg always follows another.
  const std::uint64_t deadline = deadline_after(args.seconds);
  for (std::size_t round = 0;
       now_ns() < deadline || plain.run_s.size() < kMinSamples; ++round) {
    for (std::size_t i = 0; i < legs.size(); ++i) {
      legs[(round + i) % legs.size()](true);
    }
  }
  if (!args.spans.empty()) log.write_tsv(args.spans);
  for (const Leg* leg : {&plain, &traced, &metrics_off}) leg->print_counts();

  Layers values;
  plain.medians_into(values);
  traced.medians_into(values);
  const double run_s = median(plain.run_s);
  values["metrics.overhead_share"] =
      ratio(run_s, median(metrics_off.run_s)) - 1;
  values["trace.overhead_share"] = ratio(median(traced.run_s), run_s) - 1;
  values["host.par_eff"] = ratio(median(control1), n * median(controln));
  values["run_s_p90"] = percentile(plain.run_s, 0.90);
  values["run.samples"] = static_cast<double>(plain.run_s.size());

  print_result(kPerLayer, values,
               plain.attempted + traced.attempted + metrics_off.attempted,
               plain.failed + traced.failed + metrics_off.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every TDG_* variable can change the measured program (metrics, trace,
  // verification, race checking, chunk cache): refuse to run under any.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TDG_", 4) == 0) {
      std::fprintf(stderr, "appbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  const Args args = parse_args(argc, argv);
  if (make_workload(args.workload) == nullptr) usage("unknown workload");

  Runtime::Config cfg;
  const unsigned nproc = host_cpus();
  cfg.num_threads = std::min(4u, nproc);
  std::printf(
      "appbench: workload=%s seed=%llu seconds=%g trace=%d threads=%u "
      "nproc=%u build=%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, cfg.num_threads, nproc,
      APPBENCH_BUILD_TYPE);
  std::fflush(stdout);
  try {
    return args.trace ? run_traced(args, cfg) : run_e2e(args, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "appbench: %s\n", e.what());
    return 1;
  }
}
