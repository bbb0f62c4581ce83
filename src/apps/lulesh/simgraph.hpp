// Simulator graph builders for lulesh-mini: the intra-node TDG (Figs. 1,
// 2, 6, Tables 1-2) and the distributed TDG with the paper's 3D rank cube
// and its 26-neighbour exchange of three message size classes — corner
// O(1), edge O(s), face O(s^2) bytes (Section 4.1) — which selects eager
// vs rendezvous protocols in the network model.
#pragma once

#include "apps/lulesh/lulesh.hpp"
#include "sim/graph.hpp"

namespace tdg::apps::lulesh {

struct SimGraphOptions {
  Config cfg;  ///< tpl, iterations, minimized_deps, sim_scale
  DiscoveryOptions builder;  ///< optimizations (b), (c)
  /// Persistent capture: only iteration 0 is emitted (the simulator
  /// replays it); otherwise all iterations with cross-iteration edges.
  bool persistent = false;

  /// 3D rank grid (Fig. 7: 5x5x5). When volume > 1, the graph includes
  /// the dt allreduce and 26-neighbour exchanges for this rank.
  int rx = 1, ry = 1, rz = 1;
  int rank = 0;
  /// Per-rank mesh edge s: message sizes are 8, 8s, 8s^2 bytes.
  std::int64_t s = 64;
  /// Section 4.1 ablation: bracket the communication sequence with
  /// taskwait-equivalent dependences (sends wait for the whole iteration)
  /// instead of fine dataflow integration.
  bool taskwait_around_comm = false;
};

/// Build this rank's TDG. In a multi-rank grid every rank must build with
/// the same options (only `rank` differing) so messages pair up.
sim::SimGraph build_sim_graph(const SimGraphOptions& opts);

}  // namespace tdg::apps::lulesh
