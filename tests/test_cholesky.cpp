// Tiled Cholesky: kernel correctness, reconstruction, task-graph
// equivalence with the serial reference, persistence across repeated
// factorizations, and the Section 4.4 graph properties.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/cholesky/cholesky.hpp"
#include "core/tdg.hpp"

namespace {

using tdg::Runtime;
using tdg::apps::cholesky::Config;
using tdg::apps::cholesky::kernel_count;
using tdg::apps::cholesky::TiledMatrix;

TEST(Cholesky, ReferenceFactorizationReconstructs) {
  TiledMatrix a(4, 8), ref(4, 8);
  a.fill_spd();
  ref.fill_spd();
  run_reference(a);
  EXPECT_LT(a.reconstruction_error(ref), 1e-9 * a.n());
}

TEST(Cholesky, SingleTileEqualsDensePotrf) {
  TiledMatrix a(1, 32), ref(1, 32);
  a.fill_spd();
  ref.fill_spd();
  run_reference(a);
  EXPECT_LT(a.reconstruction_error(ref), 1e-9 * a.n());
}

struct CholParams {
  // gtest names each instance by a byte dump of this struct, so it must
  // hold no padding: padding bytes are indeterminate and would change the
  // test names from one build to the next.
  int nt;
  int b;
  unsigned threads;
  std::uint32_t persistent;  // a flag, 4 bytes wide to leave no padding
  int iterations;
};

class CholeskyTask : public ::testing::TestWithParam<CholParams> {};

TEST_P(CholeskyTask, MatchesReferenceBitwise) {
  const auto p = GetParam();
  Config cfg;
  cfg.nt = p.nt;
  cfg.b = p.b;
  cfg.iterations = p.iterations;

  TiledMatrix ref(p.nt, p.b);
  ref.fill_spd();
  run_reference(ref);

  Runtime rt({.num_threads = p.threads});
  TiledMatrix a(p.nt, p.b);
  a.fill_spd();
  run_taskbased(rt, a, cfg, p.persistent);

  // Tile updates are ordered identically by the dependences, so every
  // entry matches the serial result exactly (even after re-filled
  // iterations, which recompute the same factorization).
  for (int i = 0; i < p.nt; ++i) {
    for (int j = 0; j < p.nt; ++j) {
      const auto& ta = a.tile(i, j);
      const auto& tr = ref.tile(i, j);
      for (std::size_t u = 0; u < ta.size(); ++u) {
        ASSERT_EQ(ta[u], tr[u]) << "tile(" << i << "," << j << ")[" << u
                                << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CholeskyTask,
    ::testing::Values(CholParams{1, 16, 2, false, 1},
                      CholParams{2, 8, 2, false, 1},
                      CholParams{4, 8, 4, false, 1},
                      CholParams{6, 4, 4, false, 1},
                      CholParams{4, 8, 4, false, 3},
                      CholParams{4, 8, 4, true, 3},
                      CholParams{6, 4, 1, true, 4}));

TEST(Cholesky, TaskCountMatchesFormula) {
  Config cfg;
  cfg.nt = 5;
  cfg.b = 4;
  cfg.iterations = 1;
  Runtime rt({.num_threads = 1});
  TiledMatrix a(cfg.nt, cfg.b);
  a.fill_spd();
  run_taskbased(rt, a, cfg, false);
  EXPECT_EQ(rt.stats().tasks_created, kernel_count(cfg.nt));
}

TEST(Cholesky, EdgeOptimizationsDoNotChangeDenseGraph) {
  // Section 4.4: optimizations (a)(b)(c) have no effect on the dense
  // dependency scheme — same edge counts with or without them.
  auto edges = [](bool dedup, bool redirect) {
    Runtime::Config rc;
    rc.num_threads = 1;
    rc.discovery.dedup_edges = dedup;
    rc.discovery.inoutset_redirect = redirect;
    Runtime rt(rc);
    Config cfg;
    cfg.nt = 6;
    cfg.b = 4;
    TiledMatrix a(cfg.nt, cfg.b);
    a.fill_spd();
    run_taskbased(rt, a, cfg, false);
    return rt.stats().discovery.edges_created +
           rt.stats().discovery.edges_pruned;
  };
  const auto base = edges(true, true);
  EXPECT_EQ(edges(false, true), base);
  EXPECT_EQ(edges(true, false), base);
  EXPECT_EQ(edges(false, false), base);
}

TEST(Cholesky, PersistentReplayCreatesTasksOnce) {
  Config cfg;
  cfg.nt = 4;
  cfg.b = 8;
  cfg.iterations = 5;
  Runtime rt({.num_threads = 2});
  TiledMatrix a(cfg.nt, cfg.b);
  a.fill_spd();
  run_taskbased(rt, a, cfg, true);
  const auto s = rt.stats();
  const std::uint64_t per_iter =
      kernel_count(cfg.nt) +
      static_cast<std::uint64_t>(cfg.nt) * cfg.nt;  // + init tasks
  EXPECT_EQ(s.tasks_created, per_iter);
  EXPECT_EQ(s.tasks_executed,
            per_iter * static_cast<std::uint64_t>(cfg.iterations));
}

TEST(Cholesky, NotPositiveDefiniteAborts) {
  std::vector<double> t(4, 0.0);  // 2x2 zero tile
  EXPECT_DEATH(tdg::apps::cholesky::kernels::potrf(t, 2),
               "positive definite");
}

}  // namespace
