#include "apps/taskbench/taskbench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/common.hpp"
#include "core/error.hpp"

namespace tdg::apps::taskbench {

namespace {

// ---------------------------------------------------------------------------
// Deterministic per-task randomness (splitmix64 over a mixed key): the same
// (seed, step, point) always draws the same neighbours, so random_nearest
// emits identical clauses on every engine, every iteration and every replay.
// ---------------------------------------------------------------------------

std::uint64_t task_hash(std::uint64_t seed, int step, int point, int salt) {
  std::uint64_t h =
      splitmix64(seed ^ (static_cast<std::uint64_t>(step) << 32 |
                         static_cast<std::uint32_t>(point)));
  return splitmix64(h ^ static_cast<std::uint64_t>(salt));
}

/// Uniform draw in [0, 1).
double hash01(std::uint64_t seed, int step, int point, int salt) {
  return static_cast<double>(task_hash(seed, step, point, salt) >> 11) *
         0x1.0p-53;
}

int ceil_log2(int n) {
  int l = 0;
  while ((1 << l) < n) ++l;
  return l;
}

// ---------------------------------------------------------------------------
// Dependency addressing: double-buffered per-point slots. Step s writes
// parity s%2 and reads parity (s-1)%2, so a writer's WAR edges point at the
// previous step's readers — the real dependence structure of a
// double-buffered timestep loop, on both engines.
// ---------------------------------------------------------------------------

LAddr slot(int point, int parity) {
  return static_cast<LAddr>(point) * 2 + static_cast<LAddr>(parity);
}

/// The collective coupling slot (outside every point slot).
LAddr coll_slot(const Config& cfg) {
  return static_cast<LAddr>(cfg.width) * 2;
}

bool collective_step(const Config& cfg, int step) {
  return cfg.collective_period > 0 && step > 0 &&
         step % cfg.collective_period == 0;
}

// ---------------------------------------------------------------------------
// Concrete kernels. All take ~task_seconds wall time; they differ in what
// they do to the machine while burning it.
// ---------------------------------------------------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy-wait compute kernel (grain 0 returns immediately).
void spin_for(double seconds, double* sink) {
  if (seconds <= 0) return;
  const double deadline = now_seconds() + seconds;
  double acc = *sink;
  do {
    for (int i = 0; i < 64; ++i) acc = acc * 1.0000000001 + 1e-9;
  } while (now_seconds() < deadline);
  *sink = acc;
}

/// Stream a thread-local scratch buffer until the grain elapses (at least
/// one pass): every pass touches `bytes` of memory, churning the caches.
void stream_for(double seconds, std::uint64_t bytes, double* sink) {
  thread_local std::vector<std::uint64_t> scratch;
  const std::size_t words =
      std::max<std::size_t>(static_cast<std::size_t>(bytes) / 8, 64);
  if (scratch.size() < words) scratch.resize(words, 1);
  const double deadline = now_seconds() + seconds;
  std::uint64_t acc = 0;
  do {
    for (std::size_t i = 0; i < words; i += 8) {
      acc += scratch[i];
      scratch[i] = acc;
    }
  } while (now_seconds() < deadline);
  *sink += static_cast<double>(acc & 0xff) * 1e-12;
}

}  // namespace

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::Trivial: return "trivial";
    case Pattern::NoComm: return "no_comm";
    case Pattern::Stencil1D: return "stencil_1d";
    case Pattern::Nearest: return "nearest";
    case Pattern::Spread: return "spread";
    case Pattern::RandomNearest: return "random_nearest";
    case Pattern::Fft: return "fft";
    case Pattern::Tree: return "tree";
    case Pattern::Dom: return "dom";
  }
  return "?";
}

std::span<const Pattern> all_patterns() {
  static constexpr Pattern kAll[] = {
      Pattern::Trivial, Pattern::NoComm,        Pattern::Stencil1D,
      Pattern::Nearest, Pattern::Spread,        Pattern::RandomNearest,
      Pattern::Fft,     Pattern::Tree,          Pattern::Dom,
  };
  return kAll;
}

std::optional<Pattern> pattern_from_name(std::string_view name) {
  for (Pattern p : all_patterns()) {
    if (name == pattern_name(p)) return p;
  }
  return std::nullopt;
}

void dependencies(const Config& cfg, int step, int point,
                  std::vector<int>& out) {
  out.clear();
  TDG_REQUIRE(cfg.width > 0 && cfg.steps > 0, "taskbench: empty grid");
  TDG_REQUIRE(point >= 0 && point < cfg.width, "taskbench: point range");
  if (step <= 0) return;
  const int w = cfg.width;
  auto push = [&](int j) {
    if (j >= 0 && j < w) out.push_back(j);
  };
  switch (cfg.pattern) {
    case Pattern::Trivial:
      break;
    case Pattern::NoComm:
      push(point);
      break;
    case Pattern::Stencil1D:
      push(point - 1);
      push(point);
      push(point + 1);
      break;
    case Pattern::Nearest: {
      const int r = std::max(1, cfg.radix / 2);
      for (int j = point - r; j <= point + r; ++j) push(j);
      break;
    }
    case Pattern::Spread: {
      const int gap = std::max(1, w / std::max(1, cfg.radix));
      for (int k = 0; k < std::max(1, cfg.radix); ++k) {
        push((point + k * gap + step) % w);
      }
      break;
    }
    case Pattern::RandomNearest: {
      const int r = std::max(1, cfg.radix / 2);
      push(point);  // stays connected even when every draw misses
      for (int j = point - r; j <= point + r; ++j) {
        if (j == point) continue;
        if (task_hash(cfg.seed, step, point, j - point + 64) & 1) push(j);
      }
      break;
    }
    case Pattern::Fft: {
      const int partner = point ^ (1 << ((step - 1) % ceil_log2(w)));
      push(point);
      push(partner);
      break;
    }
    case Pattern::Tree: {
      // Binomial fan-in restarting every ceil_log2(w) steps: at depth d,
      // points aligned to 2^(d+1) absorb their 2^d sibling.
      const int d = (step - 1) % ceil_log2(w);
      push(point);
      if (point % (1 << (d + 1)) == 0) push(point + (1 << d));
      break;
    }
    case Pattern::Dom:
      push(point - 1);
      push(point);
      break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

// ---------------------------------------------------------------------------
// Kernels / cost accounting
// ---------------------------------------------------------------------------

double task_seconds(const Config& cfg, int step, int point) {
  const double grain = cfg.grain_us * 1e-6;
  if (cfg.kernel != Kernel::Imbalanced) return grain;
  const double spread = std::max(1.0, cfg.imbalance);
  return grain * (1.0 + (spread - 1.0) * hash01(cfg.seed, step, point, 7));
}

double total_task_seconds(const Config& cfg) {
  double per_iter = 0;
  for (int s = 0; s < cfg.steps; ++s) {
    for (int i = 0; i < cfg.width; ++i) per_iter += task_seconds(cfg, s, i);
  }
  return per_iter * cfg.iterations;
}

std::uint64_t tasks_per_iteration(const Config& cfg) {
  std::uint64_t n = static_cast<std::uint64_t>(cfg.width) * cfg.steps;
  for (int s = 0; s < cfg.steps; ++s) n += collective_step(cfg, s);
  return n;
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

Workspace::Workspace(const Config& cfg)
    : state(static_cast<std::size_t>(cfg.width) * 2, 0.0) {}

double Workspace::checksum() const {
  double sum = 0;
  for (double v : state) sum += v;
  return sum;
}

void emit(Emitter& em, const Config& cfg, Workspace* ws) {
  TDG_REQUIRE(cfg.width > 0 && cfg.steps > 0 && cfg.iterations > 0,
              "taskbench: empty grid");
  TDG_REQUIRE(!(em.concrete() && ws == nullptr),
              "taskbench: concrete emission needs a Workspace");
  const char* label = pattern_name(cfg.pattern);
  std::vector<int> deps;
  std::vector<LDep> ldeps;
  for (int it = 0; it < cfg.iterations; ++it) {
    if (em.begin_iteration(static_cast<std::uint32_t>(it))) {
      for (int s = 0; s < cfg.steps; ++s) {
        const int wpar = s % 2;
        const int rpar = 1 - wpar;
        const bool coll = collective_step(cfg, s);
        if (coll) {
          // The collective reads the previous step's first slot and every
          // task of this step reads its result: a per-period rank-coupling
          // barrier, like the paper apps' dt allreduce.
          em.allreduce(
              "taskbench::allreduce",
              {LDep::in(slot(0, rpar)), LDep::inout(coll_slot(cfg))},
              ws ? &ws->coll_in : nullptr, ws ? &ws->coll_out : nullptr, 1,
              mpi::Op::Sum);
        }
        for (int i = 0; i < cfg.width; ++i) {
          dependencies(cfg, s, i, deps);
          ldeps.clear();
          for (int j : deps) ldeps.push_back(LDep::in(slot(j, rpar)));
          if (coll) ldeps.push_back(LDep::in(coll_slot(cfg)));
          ldeps.push_back(LDep::out(slot(i, wpar)));
          const double secs = task_seconds(cfg, s, i);
          std::function<void()> body;
          if (em.concrete()) {
            // The kernel touches exactly what the clause declares: reads
            // the dependence slots, writes its own — any missing ordering
            // is a determinacy race the verifier (and the checksum) sees.
            body = [ws, &state = ws->state, cfg, s, i, wpar, rpar, secs,
                    reads = deps] {
              double acc = 0;
              for (int j : reads) acc += state[slot(j, rpar)];
              double v = acc * 0.25 + hash01(cfg.seed, s, i, 3) + 1.0;
              switch (cfg.kernel) {
                case Kernel::Compute:
                case Kernel::Imbalanced:
                  spin_for(secs, &v);
                  break;
                case Kernel::Memory:
                  stream_for(secs, cfg.kernel_bytes, &v);
                  break;
              }
              state[slot(i, wpar)] = v;
              ws->executed.fetch_add(1, std::memory_order_relaxed);
            };
          }
          em.compute(label, std::span<const LDep>(ldeps),
                     secs * cfg.sim_scale,
                     static_cast<std::uint64_t>(
                         static_cast<double>(cfg.kernel == Kernel::Memory
                                                 ? cfg.kernel_bytes
                                                 : 2048) *
                         cfg.sim_scale),
                     std::move(body));
        }
      }
    }
    em.end_iteration();
  }
}

sim::SimGraph build_sim_graph(const Config& cfg,
                              DiscoveryOptions builder_opts,
                              bool persistent) {
  SimEmitter em({builder_opts, persistent});
  emit(em, cfg, nullptr);
  return em.take();
}

RunResult run_taskbased(Runtime& rt, const Config& cfg, bool persistent) {
  TDG_REQUIRE(cfg.collective_period == 0,
              "taskbench: collectives need a distributed emitter");
  RuntimeEmitter::Options opts;
  opts.persistent = persistent;
  RuntimeEmitter em(rt, opts);
  Workspace ws(cfg);
  emit(em, cfg, &ws);
  rt.taskwait();
  return RunResult{ws.executed.load(std::memory_order_relaxed),
                   ws.checksum()};
}

}  // namespace tdg::apps::taskbench
