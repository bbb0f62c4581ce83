// Shared helpers for the experiment harnesses: calibrated machine/runtime
// configurations (Skylake-like node of the paper's Section 2, EPYC-like of
// Section 4), the parallel-for baseline graph model, and table printing.
//
// Absolute times are simulator outputs calibrated to the paper's orders of
// magnitude; the reproduction targets are the SHAPES: crossover TPLs,
// speedup factors, overlap ratios (see EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "apps/lulesh/simgraph.hpp"
#include "core/scheduler.hpp"
#include "sim/graph.hpp"
#include "sim/sim_runtime.hpp"

namespace bench {

// ---------------------------------------------------------------------------
// Calibrated configurations
// ---------------------------------------------------------------------------

/// 24-core Skylake-like NUMA domain (Fig. 1/2/6, Tables 1-2).
inline tdg::sim::MachineParams skylake24() {
  tdg::sim::MachineParams m;
  m.cores = 24;
  m.l2_bytes = 1e6;
  m.l3_bytes = 33e6;
  return m;
}

/// 16-core EPYC-like NUMA domain (one MPI process slot of Section 4).
inline tdg::sim::MachineParams epyc16() {
  tdg::sim::MachineParams m;
  m.cores = 16;
  m.l2_bytes = 0.5e6;
  m.l3_bytes = 32e6;
  m.dram_streams = 5.0;
  return m;
}

/// Discovery cost model of the unoptimized runtime (LLVM-like baseline of
/// Fig. 1 and the "none" row of Table 2). Calibrated so the discovery/
/// execution crossover lands near the paper's TPL (lulesh-mini emits ~10x
/// fewer tasks per iteration than LULESH's ~97 taskloops, so per-task costs
/// are proportionally heavier; see EXPERIMENTS.md).
inline tdg::sim::DiscoveryCosts discovery_unoptimized() {
  tdg::sim::DiscoveryCosts d;
  d.per_task = 20e-6;
  d.per_dep = 3e-6;
  d.per_edge = 1.5e-6;
  d.per_pruned = 0.3e-6;
  d.per_replay = 0.25e-6;
  return d;
}

/// Discovery cost model with the runtime-side fast paths of Section 3
/// (cheaper hashing and edge handling, besides creating fewer edges).
inline tdg::sim::DiscoveryCosts discovery_optimized() {
  tdg::sim::DiscoveryCosts d;
  d.per_task = 1.0e-6;
  d.per_dep = 0.3e-6;
  d.per_edge = 0.2e-6;
  d.per_pruned = 0.08e-6;
  d.per_replay = 0.25e-6;
  return d;
}

/// LLVM-like ready-task throttling (Section 5) vs MPC-OMP's total bound.
inline tdg::sim::SimThrottle throttle_llvm() {
  return {.max_ready = 6144, .max_total = static_cast<std::size_t>(-1)};
}
inline tdg::sim::SimThrottle throttle_mpc() {
  return {.max_ready = static_cast<std::size_t>(-1), .max_total = 10'000'000};
}

/// The real runtime under MPC-OMP's total bound, as the paper runs it (the
/// runtime's own default bound is lower, see tdg::ThrottleConfig).
inline tdg::ThrottleConfig runtime_throttle_mpc() {
  return {.max_ready = static_cast<std::size_t>(-1), .max_total = 10'000'000};
}

/// Canonical paper-figure simulator configurations: the one place that
/// assembles machine + discovery + throttle, so new sweeps (taskbench)
/// cannot drift from the figure benches. `mpc_throttle` selects MPC-OMP's
/// total bound (the SimThrottle default) over the LLVM-like ready bound.
inline tdg::sim::SimConfig skylake_config(bool optimized_discovery,
                                          bool mpc_throttle = true) {
  tdg::sim::SimConfig cfg;
  cfg.machine = skylake24();
  cfg.discovery =
      optimized_discovery ? discovery_optimized() : discovery_unoptimized();
  cfg.throttle = mpc_throttle ? throttle_mpc() : throttle_llvm();
  return cfg;
}

/// EPYC-node variant (Section 4's distributed runs, MPC throttle).
inline tdg::sim::SimConfig epyc_config(bool optimized_discovery) {
  tdg::sim::SimConfig cfg;
  cfg.machine = epyc16();
  cfg.discovery =
      optimized_discovery ? discovery_optimized() : discovery_unoptimized();
  cfg.throttle = throttle_mpc();
  return cfg;
}

// ---------------------------------------------------------------------------
// METG(95%) — Minimum Effective Task Granularity (Task Bench methodology)
// ---------------------------------------------------------------------------

/// One grain sample of a METG sweep.
struct MetgSample {
  double grain_us = 0;
  double efficiency = 0;
};

/// Average task grain of a simulated rank, in microseconds. Empty when the
/// rank executed no tasks (the divide-by-zero a raw work/tasks computation
/// hits on degenerate configs).
inline std::optional<double> grain_us_of(const tdg::sim::RankResult& r) {
  if (r.tasks_executed == 0) return std::nullopt;
  const double g = r.work / static_cast<double>(r.tasks_executed);
  if (!(g >= 0)) return std::nullopt;  // NaN/negative work guard
  return g * 1e6;
}

/// METG(threshold) from the *efficiency frontier*: starting at the
/// best-efficiency sample, walk toward finer grains while efficiency stays
/// >= threshold; METG is the finest grain reached before the first dip. A
/// raw min over the samples would jump across dips of a non-monotonic
/// curve and report a grain whose neighbourhood is not actually effective
/// (a spurious fine-grain recovery after a sub-threshold valley). Empty
/// when no sample clears the bar.
inline std::optional<double> metg_frontier(std::vector<MetgSample> samples,
                                           double threshold = 0.95) {
  std::sort(samples.begin(), samples.end(),
            [](const MetgSample& a, const MetgSample& b) {
              return a.grain_us > b.grain_us;
            });
  // Anchor at the best sample (the coarsest one on ties): coarse grains may
  // legitimately sit under the bar when they starve the machine of
  // parallelism — METG bounds the *fine* end, not the coarse end.
  std::size_t best = samples.size();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (best == samples.size() ||
        samples[i].efficiency > samples[best].efficiency) {
      best = i;
    }
  }
  if (best == samples.size() || !(samples[best].efficiency >= threshold)) {
    return std::nullopt;
  }
  std::optional<double> metg;
  for (std::size_t i = best; i < samples.size(); ++i) {
    if (!(samples[i].efficiency >= threshold)) break;  // NaN stops too
    metg = samples[i].grain_us;
  }
  return metg;
}

/// Normalize raw work-rates (useful seconds per second, or any throughput)
/// into best-relative efficiencies, the Task Bench METG normalization:
/// the sweep's best sample defines 100%.
inline std::vector<MetgSample> normalize_rates(
    const std::vector<MetgSample>& rate_samples) {
  double best = 0;
  for (const auto& s : rate_samples) best = std::max(best, s.efficiency);
  std::vector<MetgSample> out;
  out.reserve(rate_samples.size());
  for (const auto& s : rate_samples) {
    out.push_back({s.grain_us, best > 0 ? s.efficiency / best : 0.0});
  }
  return out;
}

/// "12.3" or "n/a" — never the 1e300 sentinel.
inline std::string fmt_metg(const std::optional<double>& metg, int prec = 1) {
  if (!metg) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, *metg);
  return buf;
}

/// Modelled intra-node mesh size (points). The paper fills 78% of a
/// Skylake node's DRAM with -s 384; our scaled intra-node study keeps the
/// same grain/TPL economics at 20M points.
inline constexpr double kIntraPoints = 20e6;

/// Paper-style LULESH intra-node options: the given TPL and iteration
/// count, optimization set {a, b, c, p}.
inline tdg::apps::lulesh::SimGraphOptions lulesh_intra(
    int tpl, int iterations, bool opt_a, bool opt_b, bool opt_c,
    bool opt_p) {
  tdg::apps::lulesh::SimGraphOptions o;
  o.cfg.tpl = tpl;
  o.cfg.iterations = iterations;
  o.cfg.minimized_deps = opt_a;
  o.cfg.npoints = std::max<std::int64_t>(4L * tpl, 1024);
  o.cfg.sim_scale = kIntraPoints / static_cast<double>(o.cfg.npoints);
  o.builder.dedup_edges = opt_b;
  o.builder.inoutset_redirect = opt_c;
  o.persistent = opt_p;
  return o;
}

// ---------------------------------------------------------------------------
// parallel-for baseline model
// ---------------------------------------------------------------------------

/// Build the BSP baseline TDG: every mesh-wide loop becomes `cores` chunk
/// tasks joined by a barrier (expressed as an inoutset generation consumed
/// by the next loop), one optional blocking collective per iteration.
/// Chunks of 1/cores of the mesh never fit a cache, which is exactly the
/// parallel-for drawback of Section 2.1.
inline tdg::sim::SimGraph parallel_for_graph(double points, int loops,
                                             int iterations, int cores,
                                             bool collective,
                                             double secs_per_point = 150e-9,
                                             double bytes_per_point = 350) {
  using namespace tdg::sim;
  SimGraphBuilder b;
  const double chunk_points = points / cores;
  std::uint64_t bar = 1;  // bar N is produced by phase N, consumed by N+1
  for (int it = 0; it < iterations; ++it) {
    if (collective) {
      // Blocking collective between iterations: ordered after the whole
      // previous iteration, gating the whole next one.
      SimTaskAttrs ar;
      ar.kind = SimTaskKind::Allreduce;
      ar.msg_bytes = 8;
      ar.cpu_seconds = 0.5e-6;
      ar.iteration = static_cast<std::uint32_t>(it);
      ar.label = "Allreduce(dt)";
      b.task(ar, {SimDep::in(bar), SimDep::out(bar + 1)});
      ++bar;
    }
    for (int l = 0; l < loops; ++l) {
      for (int c = 0; c < cores; ++c) {
        SimTaskAttrs a;
        a.cpu_seconds = chunk_points * secs_per_point;
        a.bytes = static_cast<std::uint64_t>(chunk_points * bytes_per_point);
        a.iteration = static_cast<std::uint32_t>(it);
        a.label = "for-chunk";
        b.task(a, {SimDep::in(bar), SimDep::inoutset(bar + 1)});
      }
      ++bar;
    }
  }
  return b.take();
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}
inline std::string fmt_u(std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace bench
