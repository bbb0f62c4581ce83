// Experiment T2 — Table 2: crossing the discovery optimizations
// (a) minimal user dependences, (b) duplicate-edge elimination,
// (c) inoutset redirection, (p) persistent task graph.
//
// Two sections: the modelled paper-scale run (edges / discovery / total,
// like Table 2), and the same crossing executed on the REAL runtime of
// this repository with real kernels (exact edge counts, measured times on
// this host) — small scale, same orderings.
//
// Paper shapes: each optimization removes edges; (a)+(b)+(c) gives ~2.6x
// fewer edges and a large discovery speedup; adding (p) divides discovery
// by ~15 with a slightly higher total (the implicit barrier), and the
// first persistent iteration is ~10x costlier than the replays.
#include <array>

#include "apps/lulesh/lulesh.hpp"
#include "bench_util.hpp"
#include "core/tdg.hpp"

namespace {

using namespace bench;

struct Combo {
  const char* name;
  bool a, b, c, p;
};

constexpr std::array<Combo, 9> kCombos = {{
    {"none", false, false, false, false},
    {"(a)", true, false, false, false},
    {"(b)", false, true, false, false},
    {"(c)", false, false, true, false},
    {"(a)+(b)", true, true, false, false},
    {"(a)+(c)", true, false, true, false},
    {"(b)+(c)", false, true, true, false},
    {"(a)+(b)+(c)", true, true, true, false},
    {"(a)+(b)+(c)+(p)", true, true, true, true},
}};

void simulated_section() {
  using tdg::apps::lulesh::build_sim_graph;
  using tdg::sim::ClusterSim;
  using tdg::sim::SimConfig;
  constexpr int kTpl = 1872;
  constexpr int kIterations = 16;

  header("Table 2 (modelled, TPL=1872, 16 iterations)");
  row({"optimizations", "edges", "discovery(s)", "total(s)"}, 16);
  for (const Combo& c : kCombos) {
    auto opts = lulesh_intra(kTpl, kIterations, c.a, c.b, c.c, c.p);
    // Runtime-side fast paths come with (b)+(c) implemented.
    SimConfig cfg = skylake_config(c.b && c.c);
    cfg.persistent = c.p;
    cfg.iterations = c.p ? kIterations : 1;
    auto g = build_sim_graph(opts);
    ClusterSim sim(cfg);
    sim.set_all_graphs(&g);
    const auto r = sim.run();
    const auto& rk = r.ranks[0];
    row({c.name, fmt_u(rk.edges_created), fmt(rk.discovery_seconds, 2),
         fmt(r.makespan, 2)}, 16);
    if (c.p && rk.discovery_per_iteration.size() > 1) {
      std::printf(
          "    (p): first iteration %.3f s, replay average %.4f s\n",
          rk.discovery_per_iteration[0],
          (rk.discovery_seconds - rk.discovery_per_iteration[0]) /
              static_cast<double>(rk.discovery_per_iteration.size() - 1));
    }
  }
}

void real_runtime_section() {
  using tdg::Runtime;
  using tdg::apps::lulesh::Config;
  using tdg::apps::lulesh::Mesh;

  Config app;
  app.npoints = 1 << 15;
  app.iterations = 8;
  app.tpl = 256;

  header("Table 2 (real runtime on this host, npoints=32768, TPL=256, 8 it)");
  row({"optimizations", "edges", "dup-skipped", "redirects", "pruned",
       "wall(s)"}, 14);
  for (const Combo& c : kCombos) {
    Runtime::Config rc;
    rc.num_threads = 2;  // this machine exposes a single core
    rc.throttle = bench::runtime_throttle_mpc();
    rc.discovery.dedup_edges = c.b;
    rc.discovery.inoutset_redirect = c.c;
    Runtime rt(rc);
    Config acfg = app;
    acfg.minimized_deps = c.a;
    Mesh mesh(acfg.npoints);
    const double t0 = tdg::now_seconds();
    run_taskbased(rt, mesh, acfg, c.p);
    const double wall = tdg::now_seconds() - t0;
    const auto s = rt.stats();
    row({c.name, fmt_u(s.discovery.edges_created),
         fmt_u(s.discovery.edges_duplicate),
         fmt_u(s.discovery.redirect_nodes),
         fmt_u(s.discovery.edges_pruned), fmt(wall, 3)}, 14);
  }
}

}  // namespace

int main() {
  simulated_section();
  real_runtime_section();
  return 0;
}
