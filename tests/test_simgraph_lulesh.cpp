// The lulesh-mini simulator graph builder: intra-node and 3D-distributed
// structure, message size classes, persistent capture, and end-to-end
// execution of multi-rank graphs in the cluster simulator, including the
// Table-1 non-overlapped mode.
#include <gtest/gtest.h>

#include "apps/lulesh/simgraph.hpp"
#include "sim/sim_runtime.hpp"

namespace {

using tdg::apps::lulesh::build_sim_graph;
using tdg::apps::lulesh::SimGraphOptions;
using tdg::sim::ClusterSim;
using tdg::sim::SimConfig;
using tdg::sim::SimGraph;
using tdg::sim::SimTaskKind;

SimGraphOptions base_options(int tpl, int iterations) {
  SimGraphOptions o;
  o.cfg.tpl = tpl;
  o.cfg.iterations = iterations;
  o.cfg.npoints = 4L * tpl;
  o.cfg.sim_scale = 1000.0;
  return o;
}

TEST(SimGraphLulesh, IntraNodeTaskCountMatchesLoopStructure) {
  auto o = base_options(8, 3);
  SimGraph g = build_sim_graph(o);
  // 10 loops x tpl + dt + 2 ghosts per iteration, plus (c) redirects.
  const std::size_t user = (10u * 8 + 3) * 3;
  EXPECT_EQ(g.tasks.size() - g.redirect_nodes, user);
  EXPECT_GT(g.redirect_nodes, 0u);  // the SSUM inoutset fan-in
}

TEST(SimGraphLulesh, EdgeCallsPerTaskDoNotGrowWithTimesteps) {
  // Rediscovering every timestep, the dt reduction's inoutset generation
  // is followed by in readers each step. Closing the generation at those
  // readers keeps the edge calls per task flat; an open generation made
  // each member take an edge from every reader so far and each reader one
  // from every member so far. The simulator instantiation discovers the
  // graph without running it, so the counts are schedule-free.
  auto calls_per_task = [](int timesteps) {
    SimGraph g = build_sim_graph(base_options(64, timesteps));
    const std::uint64_t calls =
        g.structural_edges() + g.duplicate_edges_skipped;
    return static_cast<double>(calls) /
           static_cast<double>(g.tasks.size() - g.redirect_nodes);
  };
  const double at16 = calls_per_task(16);
  const double at64 = calls_per_task(64);
  EXPECT_NEAR(at64, at16, 0.1 * at16) << "16 steps: " << at16
                                      << ", 64 steps: " << at64;
}

TEST(SimGraphLulesh, PersistentCapturesOneIteration) {
  auto o = base_options(8, 5);
  o.persistent = true;
  SimGraph g = build_sim_graph(o);
  EXPECT_EQ(g.tasks.size() - g.redirect_nodes,
            static_cast<std::size_t>(10u * 8 + 3));
}

TEST(SimGraphLulesh, CubeCornerHasSevenNeighbours) {
  auto o = base_options(4, 1);
  o.rx = o.ry = o.rz = 3;
  o.rank = 0;  // corner of the cube
  o.s = 16;
  SimGraph g = build_sim_graph(o);
  int sends = 0, recvs = 0, allreduce = 0;
  for (const auto& t : g.tasks) {
    sends += t.attrs.kind == SimTaskKind::Send;
    recvs += t.attrs.kind == SimTaskKind::Recv;
    allreduce += t.attrs.kind == SimTaskKind::Allreduce;
  }
  EXPECT_EQ(sends, 7);
  EXPECT_EQ(recvs, 7);
  EXPECT_EQ(allreduce, 1);
}

TEST(SimGraphLulesh, CentreRankHasTwentySixNeighboursInThreeSizeClasses) {
  auto o = base_options(4, 1);
  o.rx = o.ry = o.rz = 3;
  o.rank = 13;  // centre
  o.s = 16;
  SimGraph g = build_sim_graph(o);
  int faces = 0, edges = 0, corners = 0;
  for (const auto& t : g.tasks) {
    if (t.attrs.kind != SimTaskKind::Send) continue;
    if (t.attrs.msg_bytes == 8ull * 16 * 16) ++faces;
    else if (t.attrs.msg_bytes == 8ull * 16) ++edges;
    else if (t.attrs.msg_bytes == 8) ++corners;
  }
  EXPECT_EQ(faces, 6);
  EXPECT_EQ(edges, 12);
  EXPECT_EQ(corners, 8);
}

TEST(SimGraphLulesh, FullCubeExecutesToCompletion) {
  constexpr int kRanks = 8;
  std::vector<SimGraph> graphs;
  for (int r = 0; r < kRanks; ++r) {
    auto o = base_options(4, 2);
    o.rx = o.ry = o.rz = 2;
    o.rank = r;
    o.s = 16;
    graphs.push_back(build_sim_graph(o));
  }
  SimConfig cfg;
  cfg.machine.cores = 4;
  cfg.nranks = kRanks;
  ClusterSim sim(cfg);
  for (int r = 0; r < kRanks; ++r) {
    sim.set_graph(r, &graphs[static_cast<std::size_t>(r)]);
  }
  const auto res = sim.run();
  ASSERT_EQ(res.ranks.size(), static_cast<std::size_t>(kRanks));
  for (const auto& rk : res.ranks) {
    EXPECT_GT(rk.tasks_executed, 0u);
    EXPECT_GT(rk.comm.requests, 0u);  // sends + the collective tracked
  }
  EXPECT_GT(res.makespan, 0.0);
}

TEST(SimGraphLulesh, PersistentCubeRunsAllIterations) {
  constexpr int kRanks = 8;
  constexpr int kIters = 3;
  std::vector<SimGraph> graphs;
  for (int r = 0; r < kRanks; ++r) {
    auto o = base_options(4, kIters);
    o.persistent = true;
    o.rx = o.ry = o.rz = 2;
    o.rank = r;
    o.s = 16;
    graphs.push_back(build_sim_graph(o));
  }
  SimConfig cfg;
  cfg.machine.cores = 4;
  cfg.nranks = kRanks;
  cfg.persistent = true;
  cfg.iterations = kIters;
  ClusterSim sim(cfg);
  for (int r = 0; r < kRanks; ++r) {
    sim.set_graph(r, &graphs[static_cast<std::size_t>(r)]);
  }
  const auto res = sim.run();
  for (const auto& rk : res.ranks) {
    ASSERT_EQ(rk.discovery_per_iteration.size(),
              static_cast<std::size_t>(kIters));
    // Replay iterations cost far less than the discovery iteration.
    EXPECT_LT(rk.discovery_per_iteration[1],
              rk.discovery_per_iteration[0] / 2);
  }
}

TEST(SimGraphLulesh, NonOverlappedBlocksExecutionBehindDiscovery) {
  auto o = base_options(32, 2);
  SimGraph g = build_sim_graph(o);
  SimConfig cfg;
  cfg.machine.cores = 8;
  cfg.non_overlapped = true;
  cfg.trace = true;
  ClusterSim sim(cfg);
  sim.set_all_graphs(&g);
  const auto res = sim.run();
  const auto& rk = res.ranks[0];
  // Nothing starts before discovery ends.
  double min_start = 1e300;
  for (const auto& rec : rk.trace) min_start = std::min(min_start, rec.start);
  EXPECT_GE(min_start, rk.discovery_seconds * 0.999);
  // Every edge is visible to the scheduler: none pruned.
  EXPECT_EQ(rk.edges_pruned, 0u);
}

TEST(SimGraphLulesh, TaskwaitVariantAddsEdges) {
  auto mk = [&](bool tw) {
    auto o = base_options(8, 2);
    o.rx = 2;
    o.ry = o.rz = 1;
    o.rank = 0;
    o.s = 16;
    o.taskwait_around_comm = tw;
    return build_sim_graph(o).structural_edges();
  };
  EXPECT_GT(mk(true), mk(false));
}

}  // namespace
