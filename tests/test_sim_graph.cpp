// SimGraphBuilder: dependency semantics on abstract addresses, checked
// against the verifier's independent shadow on randomized clause streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/verify.hpp"
#include "sim/graph.hpp"

namespace {

using tdg::AccessRecord;
using tdg::DependType;
using tdg::TraceEdge;
using tdg::VerifyReport;
using tdg::sim::SimDep;
using tdg::sim::SimGraph;
using tdg::sim::SimGraphBuilder;
using tdg::sim::SimTaskAttrs;
using tdg::sim::SimTaskKind;

TEST(SimGraph, ChainHasLinearEdges) {
  SimGraphBuilder b;
  for (int i = 0; i < 10; ++i) {
    b.task(SimTaskAttrs{}, {SimDep::inout(1)});
  }
  SimGraph g = b.take();
  EXPECT_EQ(g.tasks.size(), 10u);
  EXPECT_EQ(g.structural_edges(), 9u);
  for (std::uint32_t i = 1; i < 10; ++i) {
    ASSERT_EQ(g.tasks[i].preds.size(), 1u);
    EXPECT_EQ(g.tasks[i].preds[0], i - 1);
  }
}

TEST(SimGraph, SuccessorsInvertPreds) {
  SimGraphBuilder b;
  b.task(SimTaskAttrs{}, {SimDep::out(1)});
  b.task(SimTaskAttrs{}, {SimDep::in(1)});
  b.task(SimTaskAttrs{}, {SimDep::in(1)});
  SimGraph g = b.take();
  const auto succ = g.successors();
  ASSERT_EQ(succ.size(), 3u);
  EXPECT_EQ(succ[0], (std::vector<std::uint32_t>{1, 2}));
  EXPECT_TRUE(succ[1].empty());
  EXPECT_TRUE(succ[2].empty());
}

TEST(SimGraph, DedupSkipsRepeatedPairs) {
  SimGraphBuilder with({.dedup_edges = true});
  with.task(SimTaskAttrs{}, {SimDep::out(1), SimDep::out(2)});
  with.task(SimTaskAttrs{}, {SimDep::in(1), SimDep::in(2)});
  SimGraph g1 = with.take();
  EXPECT_EQ(g1.structural_edges(), 1u);
  EXPECT_EQ(g1.duplicate_edges_skipped, 1u);

  SimGraphBuilder without({.dedup_edges = false});
  without.task(SimTaskAttrs{}, {SimDep::out(1), SimDep::out(2)});
  without.task(SimTaskAttrs{}, {SimDep::in(1), SimDep::in(2)});
  SimGraph g2 = without.take();
  EXPECT_EQ(g2.structural_edges(), 2u);
}

TEST(SimGraph, InOutSetRedirectReducesEdges) {
  constexpr int kM = 8, kN = 8;
  for (bool redirect : {true, false}) {
    SimGraphBuilder b({.dedup_edges = true, .inoutset_redirect = redirect});
    for (int i = 0; i < kM; ++i) b.task(SimTaskAttrs{}, {SimDep::inoutset(7)});
    for (int j = 0; j < kN; ++j) b.task(SimTaskAttrs{}, {SimDep::in(7)});
    SimGraph g = b.take();
    if (redirect) {
      EXPECT_EQ(g.structural_edges(), static_cast<std::uint64_t>(kM + kN));
      EXPECT_EQ(g.redirect_nodes, 1u);
      EXPECT_EQ(g.tasks.size(), static_cast<std::size_t>(kM + kN + 1));
      // The redirect node's kind must be marked for the simulator.
      bool found = false;
      for (const auto& t : g.tasks) {
        found |= t.attrs.kind == SimTaskKind::Redirect;
      }
      EXPECT_TRUE(found);
    } else {
      EXPECT_EQ(g.structural_edges(),
                static_cast<std::uint64_t>(kM) * kN);
      EXPECT_EQ(g.redirect_nodes, 0u);
    }
  }
}

TEST(SimGraph, ClearScopeSeparatesPhases) {
  SimGraphBuilder b;
  b.task(SimTaskAttrs{}, {SimDep::out(1)});
  b.clear_scope();
  b.task(SimTaskAttrs{}, {SimDep::in(1)});
  SimGraph g = b.take();
  EXPECT_EQ(g.structural_edges(), 0u);
}

// ---------------------------------------------------------------------------
// Property test against the verifier's independent shadow of the depend
// semantics: on random clause streams, every edge set the builder produces
// under any optimization setting orders every conflicting access pair, and
// with dedup on and redirect off it is exactly the set of required pairs.
// ---------------------------------------------------------------------------

TEST(SimGraphOracle, RandomClauseStreamsSatisfyVerifier) {
  constexpr int kTasks = 400;
  constexpr int kAddrs = 12;
  constexpr DependType kTypes[] = {DependType::In, DependType::Out,
                                   DependType::InOut, DependType::InOutSet};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::uint64_t s = seed;
    auto rnd = [&s](int mod) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<int>((s >> 33) % static_cast<std::uint64_t>(mod));
    };
    std::vector<std::vector<SimDep>> clauses(kTasks);
    for (auto& c : clauses) {
      const int nitems = 1 + rnd(3);
      for (int i = 0; i < nitems; ++i) {
        c.push_back(SimDep{static_cast<std::uint64_t>(rnd(kAddrs)),
                           kTypes[rnd(4)]});
      }
      // A member of an inoutset generation that also reads the address in
      // the same clause must not be routed through its own redirect node.
      if (rnd(8) == 0) {
        const auto a = static_cast<std::uint64_t>(rnd(kAddrs));
        c.push_back(SimDep::inoutset(a));
        c.push_back(SimDep::in(a));
      }
    }

    for (const bool dedup : {true, false}) {
      for (const bool redirect : {true, false}) {
        SimGraphBuilder b(
            {.dedup_edges = dedup, .inoutset_redirect = redirect});
        std::vector<AccessRecord> accesses;
        for (const auto& c : clauses) {
          const std::uint32_t id = b.task(SimTaskAttrs{}, std::span(c));
          for (const SimDep& d : c) accesses.push_back({id, d.addr, d.type});
        }
        const SimGraph g = b.take();
        std::vector<TraceEdge> edges;
        for (std::uint32_t t = 0; t < g.tasks.size(); ++t) {
          for (std::uint32_t p : g.tasks[t].preds) edges.push_back({p, t});
        }
        const VerifyReport rep = tdg::verify_tdg(accesses, edges);
        EXPECT_TRUE(rep.ok()) << "seed " << seed << " dedup " << dedup
                              << " redirect " << redirect << "\n"
                              << rep.summary();
        if (dedup && !redirect) {
          EXPECT_EQ(g.structural_edges(), rep.pairs_checked)
              << "seed " << seed;
        }
      }
    }
  }
}

}  // namespace
