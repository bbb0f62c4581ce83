// Experiment MG — Section 3.3's METG report, extended into a Task-Bench-
// style workload matrix: Minimum Effective Task Granularity METG(95%) per
// dependence pattern x {optimized, unoptimized discovery}, on BOTH engines
// (the real runtime at 1..24 threads, the cluster simulator on the
// calibrated Skylake node and at 8..4096 representative ranks).
//
// METG(95%) is taken from the efficiency *frontier*: walking grains from
// coarse to fine, the smallest grain of the contiguous prefix that keeps
// efficiency >= 95% (a raw min over a non-monotonic curve would report a
// grain whose neighbourhood is not effective). Configurations that execute
// zero tasks are skipped instead of dividing by them, and a sweep where no
// sample clears the bar prints "n/a" rather than a 1e300 sentinel.
//
// Paper: Task Bench reports METG(95%) ~ 1 ms for OpenMP runtimes; the
// optimized runtime reaches 65 us (TPL 9216), 1.5 orders of magnitude
// better. Both configurations are swept here.
//
// Usage: bench_metg [--smoke] [--json FILE] [--patterns a,b,...]
//   --smoke     small instances (CI leg; sweeps all patterns, both engines)
//   --json F    machine-readable records {name, threads, value, unit} for
//               scripts/record_trajectory.py --bulk (BENCH_metg.json)
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/taskbench/taskbench.hpp"
#include "bench_util.hpp"
#include "core/tdg.hpp"

namespace {

namespace tb = tdg::apps::taskbench;
using bench::fmt;
using bench::fmt_metg;
using bench::fmt_u;
using bench::MetgSample;
using tdg::sim::ClusterSim;
using tdg::sim::SimConfig;
using tdg::sim::SimGraph;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Machine-readable records (BENCH_metg.json trajectory entries)
// ---------------------------------------------------------------------------

struct Record {
  std::string name;
  int threads;
  double value;
  std::string unit;
};

std::vector<Record> g_records;

void record(std::string name, int threads, double value, std::string unit) {
  if (!(value > 0)) return;  // NaN/zero: nothing worth recording
  g_records.push_back({std::move(name), threads, value, std::move(unit)});
}

bool write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_metg: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"threads\": %d, \"value\": %.17g, "
                 "\"unit\": \"%s\"}%s\n",
                 r.name.c_str(), r.threads, r.value, r.unit.c_str(),
                 i + 1 < g_records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------------------
// Sweep scales
// ---------------------------------------------------------------------------

struct Scale {
  int width, steps, iterations;
  std::vector<double> real_grains_us;
  std::vector<double> sim_grains_us;
  std::vector<int> real_threads;
  std::vector<int> sim_ranks;
};

Scale full_scale() {
  Scale s;
  s.width = 48;
  s.steps = 8;
  s.iterations = 4;
  s.real_grains_us = {1, 2, 5, 10, 20, 50, 100, 200};
  s.sim_grains_us = {2, 10, 50, 250, 1000, 4000};
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  for (int t : {1, 2, 4, 8, 16, 24}) {
    if (t <= hw) s.real_threads.push_back(t);
  }
  s.sim_ranks = {8, 64, 512, 4096};
  return s;
}

Scale smoke_scale() {
  Scale s;
  s.width = 8;
  s.steps = 4;
  s.iterations = 2;
  s.real_grains_us = {20, 100, 400};
  s.sim_grains_us = {10, 100, 1000, 4000};
  s.real_threads = {
      std::min(2, static_cast<int>(
                      std::max(1u, std::thread::hardware_concurrency())))};
  s.sim_ranks = {8, 64};
  return s;
}

tb::Config make_config(tb::Pattern p, const Scale& s, double grain_us) {
  tb::Config cfg;
  cfg.pattern = p;
  cfg.width = s.width;
  cfg.steps = s.steps;
  cfg.iterations = s.iterations;
  cfg.grain_us = grain_us;
  return cfg;
}

const char* cfg_name(bool optimized) { return optimized ? "opt" : "unopt"; }

// ---------------------------------------------------------------------------
// Real-runtime engine: wall-clock efficiency = ideal work / (threads * t)
// ---------------------------------------------------------------------------

void sweep_real(const std::vector<tb::Pattern>& patterns, const Scale& s) {
  bench::header("taskbench METG(95%), real runtime");
  bench::row({"pattern", "config", "threads", "METG(us)", "peak-util",
              "peak-k/s"});
  for (tb::Pattern p : patterns) {
    for (bool optimized : {false, true}) {
      for (int threads : s.real_threads) {
        // Raw work-rates first (useful seconds per wall second); the METG
        // efficiency is best-relative, per the Task Bench methodology.
        std::vector<MetgSample> rates;
        double peak_util = 0, peak_rate = 0;
        for (double grain : s.real_grains_us) {
          tb::Config cfg = make_config(p, s, grain);
          tdg::Runtime::Config rc;
          rc.num_threads = static_cast<unsigned>(threads);
          rc.throttle = bench::runtime_throttle_mpc();
          rc.discovery.dedup_edges = optimized;
          rc.discovery.inoutset_redirect = optimized;
          tdg::Runtime rt(rc);
          const double t0 = now_seconds();
          const auto res = tb::run_taskbased(rt, cfg, optimized);
          const double wall = now_seconds() - t0;
          if (res.tasks_executed == 0 || wall <= 0) continue;  // no sample
          const double work = tb::total_task_seconds(cfg);
          const double mean_grain_us =
              work / static_cast<double>(res.tasks_executed) * 1e6;
          rates.push_back({mean_grain_us, work / wall});
          peak_util = std::max(peak_util, work / wall / threads);
          peak_rate = std::max(
              peak_rate, static_cast<double>(res.tasks_executed) / wall);
        }
        const auto metg = bench::metg_frontier(bench::normalize_rates(rates));
        bench::row({tb::pattern_name(p), cfg_name(optimized),
                    fmt_u(static_cast<std::uint64_t>(threads)),
                    fmt_metg(metg), fmt(peak_util, 3),
                    fmt(peak_rate / 1e3, 1)});
        const std::string base = std::string("taskbench/") +
                                 tb::pattern_name(p) + "/real/" +
                                 cfg_name(optimized);
        record(base, threads, peak_rate, "tasks_per_second");
        if (metg) {
          record(std::string("metg/") + tb::pattern_name(p) + "/real/" +
                     cfg_name(optimized),
                 threads, *metg, "us");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Simulator engine: virtual efficiency = work / (cores * makespan)
// ---------------------------------------------------------------------------

tdg::sim::SimResult run_sim(const tb::Config& cfg, bool optimized,
                            int ranks) {
  // The canonical paper configs (hoisted into bench_util so this sweep and
  // the figure benches cannot drift apart).
  SimConfig sc = bench::skylake_config(optimized, /*mpc_throttle=*/optimized);
  sc.persistent = optimized;
  sc.iterations = optimized ? cfg.iterations : 1;
  if (ranks > 1) {
    sc.nranks = ranks;
    sc.representative = true;
  }
  tb::Config gcfg = cfg;
  // Non-persistent graphs carry all iterations inline (replay handles the
  // persistent case), exactly like the LULESH builders.
  if (!optimized) gcfg.iterations = cfg.iterations;
  SimGraph g = tb::build_sim_graph(
      gcfg, {.dedup_edges = optimized, .inoutset_redirect = optimized},
      optimized);
  ClusterSim sim(sc);
  sim.set_all_graphs(&g);
  return sim.run();
}

void sweep_sim(const std::vector<tb::Pattern>& patterns, const Scale& s) {
  bench::header("taskbench METG(95%), simulated 24-core node");
  bench::row({"pattern", "config", "METG(us)", "best-eff", "peak-k/s"});
  const int cores = bench::skylake24().cores;
  for (tb::Pattern p : patterns) {
    for (bool optimized : {false, true}) {
      std::vector<MetgSample> rates;
      double peak_util = 0, peak_rate = 0;
      for (double grain : s.sim_grains_us) {
        tb::Config cfg = make_config(p, s, grain);
        const auto r = run_sim(cfg, optimized, 1);
        const auto grain_us = bench::grain_us_of(r.ranks[0]);
        if (!grain_us || r.makespan <= 0) continue;  // zero-task guard
        const double rate = r.ranks[0].work / r.makespan;
        rates.push_back({*grain_us, rate});
        peak_util = std::max(peak_util, rate / cores);
        peak_rate = std::max(
            peak_rate,
            static_cast<double>(r.ranks[0].tasks_executed) / r.makespan);
      }
      const auto metg = bench::metg_frontier(bench::normalize_rates(rates));
      bench::row({tb::pattern_name(p), cfg_name(optimized), fmt_metg(metg),
                  fmt(peak_util, 3), fmt(peak_rate / 1e3, 1)});
      record(std::string("taskbench/") + tb::pattern_name(p) + "/sim/" +
                 cfg_name(optimized),
             cores, peak_rate, "tasks_per_second");
      if (metg) {
        record(std::string("metg/") + tb::pattern_name(p) + "/sim/" +
                   cfg_name(optimized),
               cores, *metg, "us");
      }
    }
  }
}

/// Rank scaling: one representative rank of an 8..4096-process run, with a
/// per-period allreduce coupling the virtual peers (their skew grows the
/// collective's critical path, squeezing efficiency at scale).
void sweep_sim_ranks(const std::vector<tb::Pattern>& patterns,
                     const Scale& s) {
  bench::header("taskbench rank scaling, simulator (representative rank)");
  bench::row({"pattern", "config", "ranks", "eff", "tasks/s"});
  for (tb::Pattern p : patterns) {
    for (bool optimized : {false, true}) {
      for (int ranks : s.sim_ranks) {
        tb::Config cfg = make_config(p, s, /*grain_us=*/20.0);
        cfg.collective_period = 2;
        const auto r = run_sim(cfg, optimized, ranks);
        const auto& rk = r.ranks[0];
        if (rk.tasks_executed == 0 || r.makespan <= 0) continue;
        const double eff = rk.work / (bench::skylake24().cores * r.makespan);
        const double rate =
            static_cast<double>(rk.tasks_executed) / r.makespan;
        bench::row({tb::pattern_name(p), cfg_name(optimized),
                    fmt_u(static_cast<std::uint64_t>(ranks)), fmt(eff, 3),
                    fmt(rate, 0)});
        record(std::string("taskbench/") + tb::pattern_name(p) +
                   "/simranks/" + cfg_name(optimized),
               ranks, rate, "tasks_per_second");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The original paper experiment: LULESH grain sweep (bugfixed)
// ---------------------------------------------------------------------------

void sweep_lulesh() {
  using tdg::apps::lulesh::build_sim_graph;
  constexpr int kIterations = 8;
  bench::header("METG(95%): LULESH grain sweep, optimized vs unoptimized");
  for (bool optimized : {false, true}) {
    struct Sample {
      int tpl;
      std::optional<double> grain_us;
      double total;
    };
    std::vector<Sample> samples;
    double best = 1e300;
    for (int tpl : {48, 192, 576, 1200, 2304, 4608, 9216, 18432, 36864}) {
      auto opts = bench::lulesh_intra(tpl, kIterations, optimized, optimized,
                                      optimized, optimized);
      SimConfig cfg = bench::skylake_config(optimized, optimized);
      cfg.persistent = optimized;
      cfg.iterations = optimized ? kIterations : 1;
      auto g = build_sim_graph(opts);
      ClusterSim sim(cfg);
      sim.set_all_graphs(&g);
      const auto r = sim.run();
      samples.push_back({tpl, bench::grain_us_of(r.ranks[0]), r.makespan});
      best = std::min(best, r.makespan);
    }
    std::printf("\n%s runtime:\n", optimized ? "optimized" : "unoptimized");
    bench::row({"TPL", "grain(us)", "total(s)", "efficiency"});
    std::vector<MetgSample> metg_samples;
    for (const auto& s : samples) {
      const double eff = best / s.total;
      bench::row({fmt_u(static_cast<std::uint64_t>(s.tpl)),
                  fmt_metg(s.grain_us), fmt(s.total, 2), fmt(eff, 3)});
      if (s.grain_us) metg_samples.push_back({*s.grain_us, eff});
    }
    const auto metg = bench::metg_frontier(metg_samples);
    std::printf("METG(95%%) = %s us\n", fmt_metg(metg).c_str());
    if (metg) {
      record(std::string("metg/lulesh/sim/") + cfg_name(optimized),
             bench::skylake24().cores, *metg, "us");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::vector<tb::Pattern> patterns(tb::all_patterns().begin(),
                                    tb::all_patterns().end());
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--smoke")) {
      smoke = true;
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--patterns") && i + 1 < argc) {
      patterns.clear();
      std::string csv = argv[++i];
      std::size_t pos = 0;
      while (pos <= csv.size()) {
        const std::size_t comma = std::min(csv.find(',', pos), csv.size());
        const std::string name = csv.substr(pos, comma - pos);
        const auto p = tb::pattern_from_name(name);
        if (!p) {
          std::fprintf(stderr, "bench_metg: unknown pattern '%s'\n",
                       name.c_str());
          return 2;
        }
        patterns.push_back(*p);
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_metg [--smoke] [--json FILE] "
                   "[--patterns a,b,...]\n");
      return 2;
    }
  }

  const Scale s = smoke ? smoke_scale() : full_scale();
  sweep_lulesh();
  sweep_sim(patterns, s);
  sweep_real(patterns, s);
  // The rank-scaling leg is shape-diversity, not a grain sweep: keep the
  // smoke run to two patterns so CI stays fast.
  std::vector<tb::Pattern> rank_patterns = patterns;
  if (smoke && rank_patterns.size() > 2) rank_patterns.resize(2);
  sweep_sim_ranks(rank_patterns, s);

  if (!json_path.empty() && !write_json(json_path)) return 1;
  return 0;
}
