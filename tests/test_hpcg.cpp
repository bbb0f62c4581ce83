// hpcg-mini: operator construction, CG convergence to the known all-ones
// solution, and equivalence of serial / task / persistent / distributed
// variants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "apps/hpcg/hpcg.hpp"
#include "core/tdg.hpp"
#include "mpi/interop.hpp"
#include "mpi/mpi.hpp"

namespace {

using tdg::Runtime;
using tdg::apps::hpcg::build_problem;
using tdg::apps::hpcg::CgState;
using tdg::apps::hpcg::Config;
using tdg::apps::hpcg::Problem;
using tdg::apps::hpcg::solution_error;

TEST(Hpcg, StencilOperatorShape) {
  Config cfg;
  cfg.nx = 4;
  cfg.ny = 4;
  cfg.nz_global = 4;
  Problem prob = build_problem(cfg);
  EXPECT_EQ(prob.nrows(), 64);
  // An interior point of a 4^3 lattice has all 27 neighbours.
  bool found27 = false;
  for (std::int64_t row = 0; row < prob.nrows(); ++row) {
    const auto nnz = prob.a.row_ptr[static_cast<std::size_t>(row) + 1] -
                     prob.a.row_ptr[static_cast<std::size_t>(row)];
    ASSERT_GE(nnz, 8);    // corner
    ASSERT_LE(nnz, 27);   // interior
    found27 |= (nnz == 27);
  }
  EXPECT_TRUE(found27);
  // Row sums land in b: interior rows sum to 26 - 26 = 0? No: 26 + 26*(-1)
  // = 0 for interior, positive near boundaries.
  for (std::int64_t row = 0; row < prob.nrows(); ++row) {
    EXPECT_GE(prob.b[static_cast<std::size_t>(row)], 0.0);
  }
}

TEST(Hpcg, ReferenceCgConvergesToOnes) {
  Config cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.nz_global = 8;
  cfg.cg_iterations = 30;
  cfg.tpl = 4;
  Problem prob = build_problem(cfg);
  CgState st(prob, cfg.tpl);
  run_reference(prob, st, cfg);
  ASSERT_EQ(st.residual_history.size(), 30u);
  EXPECT_LT(st.residual_history.back(), st.residual_history.front() * 1e-6);
  EXPECT_LT(solution_error(prob, st), 1e-6);
}

struct HpcgParams {
  // gtest names each instance by a byte dump of this struct, so it must
  // hold no padding: padding bytes are indeterminate and would change the
  // test names from one build to the next.
  int tpl;
  int nspmv;
  std::uint32_t persistent;  // a flag, 4 bytes wide to leave no padding
  unsigned threads;
};

class HpcgTask : public ::testing::TestWithParam<HpcgParams> {};

TEST_P(HpcgTask, MatchesReferenceBitwise) {
  const auto p = GetParam();
  Config cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.nz_global = 8;
  cfg.cg_iterations = 20;
  cfg.tpl = p.tpl;
  cfg.nspmv = p.nspmv;
  Problem prob = build_problem(cfg);

  CgState ref(prob, cfg.tpl);
  run_reference(prob, ref, cfg);

  Runtime rt({.num_threads = p.threads});
  CgState st(prob, cfg.tpl);
  run_taskbased(rt, prob, st, cfg, p.persistent);

  // Same blocked dot association => identical floating-point trajectory.
  EXPECT_EQ(st.rtz, ref.rtz);
  EXPECT_EQ(st.alpha, ref.alpha);
  EXPECT_EQ(st.beta, ref.beta);
  for (std::size_t i = 0; i < st.x.size(); ++i) {
    ASSERT_EQ(st.x[i], ref.x[i]) << "x[" << i << "]";
  }
  ASSERT_EQ(st.residual_history.size(), ref.residual_history.size());
  for (std::size_t i = 0; i < st.residual_history.size(); ++i) {
    ASSERT_EQ(st.residual_history[i], ref.residual_history[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, HpcgTask,
    ::testing::Values(HpcgParams{1, 1, false, 2},
                      HpcgParams{4, 2, false, 4},
                      HpcgParams{8, 4, false, 4},
                      HpcgParams{8, 8, false, 4},
                      HpcgParams{4, 2, true, 4},
                      HpcgParams{8, 4, true, 4},
                      HpcgParams{8, 4, true, 1}));

TEST(Hpcg, PersistentCreatesTasksOnce) {
  Config cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.nz_global = 8;
  cfg.cg_iterations = 10;
  cfg.tpl = 4;
  Runtime rt({.num_threads = 2});
  Problem prob = build_problem(cfg);
  CgState st(prob, cfg.tpl);
  run_taskbased(rt, prob, st, cfg, /*persistent=*/true);
  const auto s = rt.stats();
  // init: 2*tpl + 1 tasks; per iteration: nspmv + 5*tpl + 4 (+redirects).
  const std::uint64_t init = 2ull * cfg.tpl + 1;
  const std::uint64_t per_iter = static_cast<std::uint64_t>(cfg.nspmv) +
                                 5ull * cfg.tpl + 4;
  EXPECT_EQ(s.tasks_created, init + per_iter);
  EXPECT_GE(s.tasks_executed,
            init + per_iter * static_cast<std::uint64_t>(cfg.cg_iterations));
}

class HpcgDistributed : public ::testing::TestWithParam<int> {};

TEST_P(HpcgDistributed, ConvergesAndMatchesSerialSolution) {
  const int nranks = GetParam();
  Config cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.nz_global = 12;
  cfg.cg_iterations = 30;
  cfg.tpl = 4;
  cfg.nspmv = 2;

  std::vector<double> errors(static_cast<std::size_t>(nranks), 1.0);
  std::vector<double> final_res(static_cast<std::size_t>(nranks), 1.0);
  tdg::mpi::Universe::run(nranks, [&](tdg::mpi::Comm& comm) {
    Runtime rt({.num_threads = 2});
    tdg::mpi::RequestPoller poller(rt);
    Problem prob = build_problem(cfg, comm.rank(), comm.size());
    CgState st(prob, cfg.tpl);
    run_distributed(rt, comm, poller, prob, st, cfg, /*persistent=*/false);
    errors[static_cast<std::size_t>(comm.rank())] = solution_error(prob, st);
    final_res[static_cast<std::size_t>(comm.rank())] =
        st.residual_history.back();
  });
  for (int r = 0; r < nranks; ++r) {
    EXPECT_LT(errors[static_cast<std::size_t>(r)], 1e-6) << "rank " << r;
    // Every rank observes the same global residual via the allreduce.
    EXPECT_EQ(final_res[static_cast<std::size_t>(r)], final_res[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, HpcgDistributed,
                         ::testing::Values(1, 2, 3, 4));

TEST(Hpcg, DistributedPersistentConverges) {
  constexpr int kRanks = 2;
  Config cfg;
  cfg.nx = 6;
  cfg.ny = 6;
  cfg.nz_global = 8;
  cfg.cg_iterations = 30;
  cfg.tpl = 4;
  std::vector<double> errors(kRanks, 1.0);
  tdg::mpi::Universe::run(kRanks, [&](tdg::mpi::Comm& comm) {
    Runtime rt({.num_threads = 2});
    tdg::mpi::RequestPoller poller(rt);
    Problem prob = build_problem(cfg, comm.rank(), comm.size());
    CgState st(prob, cfg.tpl);
    run_distributed(rt, comm, poller, prob, st, cfg, /*persistent=*/true);
    errors[static_cast<std::size_t>(comm.rank())] = solution_error(prob, st);
  });
  for (double e : errors) EXPECT_LT(e, 1e-6);
}

TEST(Hpcg, EdgesPerTaskGrowWithTpl) {
  // Fig. 9 (bottom): average edges per task grows with the block count
  // while the grain shrinks.
  Config cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.nz_global = 8;
  cfg.cg_iterations = 5;
  auto edges_per_task = [&](int tpl) {
    Config c = cfg;
    c.tpl = tpl;
    c.nspmv = 4;
    Runtime rt({.num_threads = 1});
    Problem prob = build_problem(c);
    CgState st(prob, c.tpl);
    run_taskbased(rt, prob, st, c, false);
    const auto s = rt.stats();
    return static_cast<double>(s.discovery.edges_created) /
           static_cast<double>(s.tasks_created);
  };
  EXPECT_GT(edges_per_task(16), edges_per_task(2));
}

}  // namespace
