// SimGraphBuilder: dependency semantics on abstract addresses, checked
// against the verifier's independent shadow on randomized clause streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/verify.hpp"
#include "sim/graph.hpp"

namespace {

using tdg::AccessRecord;
using tdg::DependType;
using tdg::RequiredPair;
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

// ---------------------------------------------------------------------------
// The verifier's own claim, checked by brute force: the transitive closure
// of its required pairs orders every conflicting access pair. Conflicts
// are computed here from the access stream alone — W/W, W/R, and inoutset
// against any non-inoutset access; two inoutset accesses conflict unless
// no other access type on the address lies between them (one
// uninterrupted run is one concurrent generation).
// ---------------------------------------------------------------------------

TEST(SimGraphOracle, RequiredPairClosureOrdersEveryConflict) {
  constexpr int kTasks = 240;
  constexpr int kAddrs = 6;
  // Uniform types, then a mix dominated by inoutset runs broken by readers
  // (the generation-closing path).
  const std::vector<std::vector<DependType>> mixes = {
      {DependType::In, DependType::Out, DependType::InOut,
       DependType::InOutSet},
      {DependType::In, DependType::In, DependType::In, DependType::InOutSet,
       DependType::InOutSet, DependType::InOutSet, DependType::InOutSet,
       DependType::InOut}};
  for (const auto& mix : mixes) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      std::uint64_t s = seed;
      auto rnd = [&s](int mod) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<int>((s >> 33) % static_cast<std::uint64_t>(mod));
      };
      std::vector<AccessRecord> accesses;
      for (std::uint64_t t = 0; t < kTasks; ++t) {
        const int nitems = 1 + rnd(3);
        for (int i = 0; i < nitems; ++i) {
          accesses.push_back(
              {t, static_cast<std::uint64_t>(rnd(kAddrs)),
               mix[static_cast<std::size_t>(
                   rnd(static_cast<int>(mix.size())))]});
        }
      }

      // Brute-force conflicts, keyed by (pred, succ) task pair.
      std::set<std::pair<std::uint64_t, std::uint64_t>> conflicts;
      std::map<std::uint64_t, std::vector<const AccessRecord*>> by_addr;
      for (const AccessRecord& a : accesses) by_addr[a.addr].push_back(&a);
      for (const auto& [addr, seq] : by_addr) {
        for (std::size_t i = 0; i < seq.size(); ++i) {
          bool run_unbroken = true;  // only inoutset since seq[i]
          for (std::size_t j = i + 1; j < seq.size(); ++j) {
            const DependType x = seq[i]->type;
            const DependType y = seq[j]->type;
            const bool conflict =
                x == DependType::InOutSet && y == DependType::InOutSet
                    ? !run_unbroken
                    : !(x == DependType::In && y == DependType::In);
            if (conflict && seq[i]->task_id != seq[j]->task_id) {
              conflicts.insert({seq[i]->task_id, seq[j]->task_id});
            }
            if (y != DependType::InOutSet) run_unbroken = false;
          }
        }
      }

      const std::vector<RequiredPair> pairs =
          tdg::shadow_required_pairs(accesses);
      // Ids ascend with submission, so reachability fills backwards.
      std::vector<std::vector<std::uint64_t>> succ(kTasks);
      for (const RequiredPair& p : pairs) {
        ASSERT_LT(p.pred, p.succ);
        // Every required pair is itself a conflict: none is over-ordered.
        EXPECT_TRUE(conflicts.count({p.pred, p.succ}))
            << "seed " << seed << ": " << p.pred << "->" << p.succ;
        succ[p.pred].push_back(p.succ);
      }
      std::vector<std::bitset<kTasks>> reach(kTasks);
      for (std::uint64_t v = kTasks; v-- > 0;) {
        reach[v].set(v);
        for (std::uint64_t w : succ[v]) reach[v] |= reach[w];
      }
      std::size_t unordered = 0;
      for (const auto& [a, b] : conflicts) unordered += !reach[a].test(b);
      EXPECT_EQ(unordered, 0u) << "seed " << seed << ": " << conflicts.size()
                               << " conflicts, " << pairs.size()
                               << " required pairs";
    }
  }
}

TEST(SimGraphOracle, MissingReaderToNewMemberEdgeIsRejected) {
  // writer, member, reader, member, reader on one address: the reader
  // closes the first generation, so the second member's only required
  // predecessor is that reader. Drop exactly that edge from the
  // resolver's graph and the verifier must refuse the rest.
  SimGraphBuilder b({.dedup_edges = true, .inoutset_redirect = false});
  const std::vector<SimDep> stream = {SimDep::out(5), SimDep::inoutset(5),
                                      SimDep::in(5), SimDep::inoutset(5),
                                      SimDep::in(5)};
  std::vector<AccessRecord> accesses;
  for (const SimDep& d : stream) {
    const std::uint32_t id = b.task(SimTaskAttrs{}, {d});
    accesses.push_back({id, d.addr, d.type});
  }
  const SimGraph g = b.take();
  std::vector<TraceEdge> edges;
  for (std::uint32_t t = 0; t < g.tasks.size(); ++t) {
    for (std::uint32_t p : g.tasks[t].preds) edges.push_back({p, t});
  }
  const VerifyReport whole = tdg::verify_tdg(accesses, edges);
  ASSERT_TRUE(whole.ok()) << whole.summary();
  // out->m1, m1->r1, r1->m2, m2->r2: the closed generation costs no
  // writer->m2 or m1-era edges.
  EXPECT_EQ(edges.size(), 4u);

  const auto reader_edge = std::find_if(
      edges.begin(), edges.end(),
      [](const TraceEdge& e) { return e.pred == 2 && e.succ == 3; });
  ASSERT_NE(reader_edge, edges.end());
  edges.erase(reader_edge);
  const VerifyReport cut = tdg::verify_tdg(accesses, edges);
  ASSERT_EQ(cut.races_total, 1u) << cut.summary();
  EXPECT_EQ(cut.races[0].pred_id, 2u);
  EXPECT_EQ(cut.races[0].succ_id, 3u);
}

}  // namespace
