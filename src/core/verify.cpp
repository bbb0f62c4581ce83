#include "core/verify.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace tdg {
namespace {

const char* dep_type_name(DependType t) {
  switch (t) {
    case DependType::In: return "in";
    case DependType::Out: return "out";
    case DependType::InOut: return "inout";
    case DependType::InOutSet: return "inoutset";
  }
  return "?";
}

void append_hex(std::ostringstream& os, std::uint64_t v) {
  os << "0x" << std::hex << v << std::dec;
}

/// One endpoint of a shadow-discovery ordering constraint.
struct ShadowRef {
  std::uint64_t id = 0;
  DependType type = DependType::In;
};

/// Shadow of DependencyMap's per-address history: the same sequential
/// semantics, re-derived from the clause stream alone so the verifier does
/// not trust the component it is checking. No dedup, no pruning, no
/// redirect nodes — this produces the *required* ordering relation; the
/// discovered graph may realize each constraint through any path.
struct ShadowAddr {
  std::vector<ShadowRef> mods;      ///< last modification (or open inoutset
                                    ///< generation when mod_is_set)
  std::vector<ShadowRef> gen_base;  ///< accesses the open generation follows
  std::vector<ShadowRef> readers;   ///< readers since the last modification
  bool mod_is_set = false;
};

}  // namespace

std::vector<RequiredPair> shadow_required_pairs(
    std::span<const AccessRecord> accesses,
    std::span<const std::uint64_t> scope_clears) {
  std::vector<RequiredPair> pairs;
  std::unordered_map<std::uint64_t, ShadowAddr> table;
  table.reserve(256);

  // clear_dependency_scope cutoffs, ascending: when the stream crosses
  // one, the real history was dropped, so the shadow drops too.
  std::vector<std::uint64_t> cuts(scope_clears.begin(), scope_clears.end());
  std::sort(cuts.begin(), cuts.end());
  std::size_t next_cut = 0;

  for (const AccessRecord& a : accesses) {
    while (next_cut < cuts.size() && a.task_id > cuts[next_cut]) {
      table.clear();
      ++next_cut;
    }
    ShadowAddr& st = table[a.addr];
    auto require = [&](const ShadowRef& from) {
      if (from.id == a.task_id) return;  // same task, both clause items
      pairs.push_back(
          RequiredPair{from.id, a.task_id, a.addr, from.type, a.type});
    };
    switch (a.type) {
      case DependType::In:
        for (const ShadowRef& m : st.mods) require(m);
        st.readers.push_back({a.task_id, a.type});
        break;
      case DependType::Out:
      case DependType::InOut:
        for (const ShadowRef& m : st.mods) require(m);
        for (const ShadowRef& r : st.readers) require(r);
        st.mods.clear();
        st.mods.push_back({a.task_id, a.type});
        st.gen_base.clear();
        st.readers.clear();
        st.mod_is_set = false;
        break;
      case DependType::InOutSet:
        if (!st.mod_is_set) {
          // Open a new generation: it must follow everything outstanding.
          st.gen_base.clear();
          st.gen_base.insert(st.gen_base.end(), st.mods.begin(),
                             st.mods.end());
          st.gen_base.insert(st.gen_base.end(), st.readers.begin(),
                             st.readers.end());
          st.mods.clear();
          st.readers.clear();
          st.mod_is_set = true;
        } else if (!st.readers.empty()) {
          // Readers of an open generation close it (the resolver's rule):
          // they already follow every member, so they alone are the base
          // of the next generation, and the members before them reach the
          // new member through them.
          st.gen_base = std::move(st.readers);
          st.readers.clear();
          st.mods.clear();
        }
        for (const ShadowRef& g : st.gen_base) require(g);
        st.mods.push_back({a.task_id, a.type});
        break;
    }
  }
  return pairs;
}

namespace {

/// Dense-index graph with topological order, shared by both query modes.
struct Graph {
  std::vector<std::uint64_t> ids;  ///< sorted task ids; index = position
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  std::vector<std::vector<std::uint32_t>> adj;
  std::vector<std::uint32_t> topo_pos;  ///< vertex -> position in topo order
  std::vector<std::uint32_t> topo;      ///< position -> vertex
  bool cycle = false;
  std::uint64_t cycle_task = 0;
};

Graph build_graph(std::span<const AccessRecord> accesses,
                  std::span<const TraceEdge> edges) {
  Graph g;
  g.ids.reserve(accesses.size() + 2 * edges.size());
  for (const AccessRecord& a : accesses) g.ids.push_back(a.task_id);
  for (const TraceEdge& e : edges) {
    g.ids.push_back(e.pred);
    g.ids.push_back(e.succ);
  }
  std::sort(g.ids.begin(), g.ids.end());
  g.ids.erase(std::unique(g.ids.begin(), g.ids.end()), g.ids.end());

  const std::size_t n = g.ids.size();
  g.index.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.index.emplace(g.ids[i], static_cast<std::uint32_t>(i));
  }

  g.adj.resize(n);
  std::vector<std::uint32_t> indeg(n, 0);
  // The edge stream may repeat a pair (pruned-then-created across barrier
  // scopes); dedup so Kahn in-degrees stay consistent with adj.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(edges.size());
  for (const TraceEdge& e : edges) {
    const std::uint32_t u = g.index.at(e.pred);
    const std::uint32_t v = g.index.at(e.succ);
    if (u == v) {  // self-edge: malformed, surfaces as a cycle
      g.cycle = true;
      g.cycle_task = e.pred;
      continue;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(u) << 32) | v;
    if (!seen.insert(key).second) continue;
    g.adj[u].push_back(v);
    ++indeg[v];
  }

  // Kahn's algorithm; ties broken by task id so the order is deterministic.
  g.topo.reserve(n);
  std::vector<std::uint32_t> ready;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }
  // ids are sorted, so vertex index order == submission order; a plain
  // FIFO over ascending indices keeps the order stable.
  std::size_t head = 0;
  while (head < ready.size()) {
    const std::uint32_t v = ready[head++];
    g.topo.push_back(v);
    for (std::uint32_t w : g.adj[v]) {
      if (--indeg[w] == 0) ready.push_back(w);
    }
  }
  if (g.topo.size() != n) {
    g.cycle = true;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (indeg[v] != 0) {
        g.cycle_task = g.ids[v];
        break;
      }
    }
  }
  g.topo_pos.assign(n, 0);
  for (std::uint32_t p = 0; p < g.topo.size(); ++p) {
    g.topo_pos[g.topo[p]] = p;
  }
  return g;
}

/// O(1)-query reachability: one bitset row per vertex, filled in reverse
/// topological order (row[v] = bit(v) | union of successor rows). Memory is
/// n^2/8 bytes, which is why it is gated behind dense_limit.
class DenseReach {
 public:
  explicit DenseReach(const Graph& g)
      : words_((g.ids.size() + 63) / 64), rows_(g.ids.size() * words_, 0) {
    for (auto it = g.topo.rbegin(); it != g.topo.rend(); ++it) {
      const std::uint32_t v = *it;
      std::uint64_t* row = rows_.data() + std::size_t{v} * words_;
      row[v / 64] |= std::uint64_t{1} << (v % 64);
      for (std::uint32_t w : g.adj[v]) {
        const std::uint64_t* succ = rows_.data() + std::size_t{w} * words_;
        for (std::size_t i = 0; i < words_; ++i) row[i] |= succ[i];
      }
    }
  }
  bool reachable(std::uint32_t from, std::uint32_t to) const {
    const std::uint64_t* row = rows_.data() + std::size_t{from} * words_;
    return (row[to / 64] >> (to % 64)) & 1;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> rows_;
};

/// Per-pair DFS fallback for graphs above dense_limit: a direct-edge hash
/// hit answers common pairs in O(1); misses walk successors, pruned by
/// topological position (a vertex past the target's position cannot reach
/// it). Visited marks use a query stamp so no per-query clearing.
class SparseReach {
 public:
  explicit SparseReach(const Graph& g) : g_(g), stamp_(g.ids.size(), 0) {
    direct_.reserve(g.ids.size() * 2);
    for (std::uint32_t u = 0; u < g.adj.size(); ++u) {
      for (std::uint32_t v : g.adj[u]) {
        direct_.insert((static_cast<std::uint64_t>(u) << 32) | v);
      }
    }
  }
  bool reachable(std::uint32_t from, std::uint32_t to) {
    if (from == to) return true;
    if (direct_.count((static_cast<std::uint64_t>(from) << 32) | to) != 0) {
      return true;
    }
    ++query_;
    const std::uint32_t limit = g_.topo_pos[to];
    stack_.clear();
    stack_.push_back(from);
    stamp_[from] = query_;
    while (!stack_.empty()) {
      const std::uint32_t v = stack_.back();
      stack_.pop_back();
      for (std::uint32_t w : g_.adj[v]) {
        if (w == to) return true;
        if (stamp_[w] == query_ || g_.topo_pos[w] >= limit) continue;
        stamp_[w] = query_;
        stack_.push_back(w);
      }
    }
    return false;
  }

 private:
  const Graph& g_;
  std::unordered_set<std::uint64_t> direct_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t query_ = 0;
};

}  // namespace

std::string RaceFinding::to_string() const {
  std::ostringstream os;
  os << "determinacy race on ";
  append_hex(os, addr);
  os << ": task " << pred_id;
  if (!pred_label.empty()) os << " [" << pred_label << "]";
  os << " (" << dep_type_name(pred_type) << ") and task " << succ_id;
  if (!succ_label.empty()) os << " [" << succ_label << "]";
  os << " (" << dep_type_name(succ_type)
     << ") conflict but are not ordered by the discovered graph";
  return os.str();
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  if (cycle) {
    os << "CYCLE: discovered edge set is cyclic (task " << cycle_task
       << " is on a cycle); the graph is not a valid schedule\n";
  }
  for (const RaceFinding& r : races) os << r.to_string() << '\n';
  if (races_total > races.size()) {
    os << "... " << (races_total - races.size()) << " more violation(s)\n";
  }
  os << "verify: " << tasks << " tasks, " << edges << " edges, " << addresses
     << " addresses, " << pairs_checked << " ordering constraints checked, "
     << races_total << " violation(s)"
     << (ok() ? " -- TDG is sound" : "");
  return os.str();
}

VerifyReport verify_tdg(std::span<const AccessRecord> accesses,
                        std::span<const TraceEdge> edges,
                        std::span<const std::uint64_t> barriers,
                        std::span<const std::uint64_t> scope_clears,
                        const VerifyOptions& opts) {
  VerifyReport rep;
  rep.edges = edges.size();

  Graph g = build_graph(accesses, edges);
  rep.tasks = g.ids.size();
  rep.cycle = g.cycle;
  rep.cycle_task = g.cycle_task;

  std::vector<RequiredPair> pairs =
      shadow_required_pairs(accesses, scope_clears);
  {
    std::unordered_set<std::uint64_t> addrs;
    addrs.reserve(64);
    for (const AccessRecord& a : accesses) addrs.insert(a.addr);
    rep.addresses = addrs.size();
  }
  if (g.cycle) {
    // A cyclic edge set has no topological order; reachability queries
    // would be ill-defined. The cycle itself is the (fatal) finding.
    return rep;
  }

  // Labels for reporting: the first clause item of each task carries it.
  std::unordered_map<std::uint64_t, const char*> labels;
  labels.reserve(accesses.size());
  for (const AccessRecord& a : accesses) labels.emplace(a.task_id, a.label);

  // Taskwait cutoffs order pairs that span a barrier even when the edge was
  // pruned before recording ever existed (e.g. pre-trace history). Sorted
  // copy so the lookup can binary-search without trusting the producer.
  std::vector<std::uint64_t> cuts(barriers.begin(), barriers.end());
  std::sort(cuts.begin(), cuts.end());
  auto barrier_separated = [&](std::uint64_t a, std::uint64_t b) {
    auto it = std::lower_bound(cuts.begin(), cuts.end(), a);
    return it != cuts.end() && *it < b;
  };

  DenseReach* dense = nullptr;
  SparseReach* sparse = nullptr;
  // Construct lazily-by-mode: the dense table is O(n^2) bits.
  std::unique_ptr<DenseReach> dense_owner;
  std::unique_ptr<SparseReach> sparse_owner;
  if (g.ids.size() <= opts.dense_limit) {
    dense_owner = std::make_unique<DenseReach>(g);
    dense = dense_owner.get();
  } else {
    sparse_owner = std::make_unique<SparseReach>(g);
    sparse = sparse_owner.get();
  }

  std::unordered_set<std::uint64_t> checked;
  checked.reserve(pairs.size());
  for (const RequiredPair& p : pairs) {
    const std::uint32_t u = g.index.at(p.pred);
    const std::uint32_t v = g.index.at(p.succ);
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    if (!checked.insert(key).second) continue;  // same pair, another addr
    ++rep.pairs_checked;
    if (barrier_separated(p.pred, p.succ)) continue;
    const bool ordered =
        dense != nullptr ? dense->reachable(u, v) : sparse->reachable(u, v);
    if (ordered) continue;
    ++rep.races_total;
    if (rep.races.size() < opts.max_reports) {
      RaceFinding f;
      f.addr = p.addr;
      f.pred_id = p.pred;
      f.succ_id = p.succ;
      f.pred_type = p.pred_type;
      f.succ_type = p.succ_type;
      auto pl = labels.find(p.pred);
      if (pl != labels.end()) f.pred_label = pl->second;
      auto sl = labels.find(p.succ);
      if (sl != labels.end()) f.succ_label = sl->second;
      rep.races.push_back(std::move(f));
    }
  }
  return rep;
}

VerifyReport verify_window(std::span<const AccessRecord> accesses,
                           std::span<const TraceEdge> edges,
                           std::span<const std::uint64_t> barriers,
                           std::span<const std::uint64_t> scope_clears,
                           std::uint64_t window_lo,
                           const VerifyOptions& opts) {
  // Restrict every stream to ids > window_lo. This is sound for in-window
  // pair proofs: discovered edges always point from an earlier id to a
  // later one, so any ordering path between two in-window tasks ascends
  // through in-window ids only — boundary-crossing edges are never needed
  // and dropping them cannot invent a violation.
  std::vector<AccessRecord> acc;
  acc.reserve(accesses.size());
  for (const AccessRecord& a : accesses) {
    if (a.task_id > window_lo) acc.push_back(a);
  }
  std::vector<TraceEdge> edg;
  edg.reserve(edges.size());
  for (const TraceEdge& e : edges) {
    if (e.pred > window_lo && e.succ > window_lo) edg.push_back(e);
  }
  std::vector<std::uint64_t> bar;
  for (std::uint64_t b : barriers) {
    if (b > window_lo) bar.push_back(b);
  }
  std::vector<std::uint64_t> cuts;
  for (std::uint64_t c : scope_clears) {
    if (c > window_lo) cuts.push_back(c);
  }
  return verify_tdg(acc, edg, bar, cuts, opts);
}

// ---------------------------------------------------------------------------
// Depend-clause lint
// ---------------------------------------------------------------------------

const char* lint_kind_name(LintKind kind) {
  switch (kind) {
    case LintKind::RedundantInout: return "redundant-inout";
    case LintKind::DeadDependence: return "dead-dependence";
    case LintKind::SingletonInoutset: return "singleton-inoutset";
    case LintKind::OverlappingRange: return "overlapping-range";
  }
  return "?";
}

std::vector<LintFinding> lint_clauses(
    std::span<const AccessRecord> accesses) {
  std::vector<LintFinding> findings;

  // Overlapping address ranges within one task's clause: two items whose
  // declared byte ranges partially overlap but name different bases are a
  // likely aliasing mistake — discovery matches on base identity, so the
  // two items will never order against each other's conflicting partners.
  // Scans contiguous per-task runs (the stream is in submission order).
  for (std::size_t i = 0; i < accesses.size();) {
    std::size_t j = i;
    while (j < accesses.size() &&
           accesses[j].task_id == accesses[i].task_id) {
      ++j;
    }
    for (std::size_t a = i; a < j; ++a) {
      if (accesses[a].bytes == 0) continue;
      const std::uint64_t alo = accesses[a].addr;
      const std::uint64_t ahi = alo + accesses[a].bytes;
      for (std::size_t b = a + 1; b < j; ++b) {
        if (accesses[b].bytes == 0) continue;
        if (accesses[b].addr == accesses[a].addr) continue;
        const std::uint64_t blo = accesses[b].addr;
        const std::uint64_t bhi = blo + accesses[b].bytes;
        if (alo >= bhi || blo >= ahi) continue;
        std::ostringstream os;
        os << "overlapping ranges: task " << accesses[a].task_id;
        if (accesses[a].label != nullptr && accesses[a].label[0] != '\0') {
          os << " [" << accesses[a].label << "]";
        }
        os << " declares " << dep_type_name(accesses[a].type) << "(";
        append_hex(os, alo);
        os << "+" << accesses[a].bytes << ") and "
           << dep_type_name(accesses[b].type) << "(";
        append_hex(os, blo);
        os << "+" << accesses[b].bytes
           << ") whose byte ranges overlap under different bases; "
              "discovery matches base identity only, so these items never "
              "order against each other -- use one base address";
        LintFinding f;
        f.kind = LintKind::OverlappingRange;
        f.addr = alo;
        f.task_id = accesses[a].task_id;
        f.label = accesses[a].label;
        f.message = os.str();
        findings.push_back(std::move(f));
      }
    }
    i = j;
  }

  // Regroup the stream per address, keeping submission order.
  struct Item {
    std::uint64_t task_id;
    DependType type;
    const char* label;
  };
  std::unordered_map<std::uint64_t, std::vector<Item>> by_addr;
  by_addr.reserve(64);
  std::vector<std::uint64_t> addr_order;  // deterministic output order
  for (const AccessRecord& a : accesses) {
    auto [it, fresh] = by_addr.try_emplace(a.addr);
    if (fresh) addr_order.push_back(a.addr);
    it->second.push_back(Item{a.task_id, a.type, a.label});
  }

  auto emit = [&](LintKind kind, std::uint64_t addr, const Item& item,
                  const std::string& msg) {
    LintFinding f;
    f.kind = kind;
    f.addr = addr;
    f.task_id = item.task_id;
    f.label = item.label;
    f.message = msg;
    findings.push_back(std::move(f));
  };

  for (std::uint64_t addr : addr_order) {
    const std::vector<Item>& items = by_addr[addr];

    // Dead dependence: the address never matched another task's access, so
    // every clause item on it was pure discovery cost.
    bool single_task = true;
    for (const Item& it : items) {
      if (it.task_id != items.front().task_id) {
        single_task = false;
        break;
      }
    }
    if (single_task) {
      std::ostringstream os;
      os << "dead dependence: ";
      append_hex(os, addr);
      os << " is only accessed by task " << items.front().task_id;
      if (items.front().label != nullptr && items.front().label[0] != '\0') {
        os << " [" << items.front().label << "]";
      }
      os << "; the clause never matches and creates no edges -- drop it";
      emit(LintKind::DeadDependence, addr, items.front(), os.str());
      continue;  // the remaining lints assume cross-task traffic
    }

    // Redundant inout: the write-ordering half is never consumed (no later
    // task touches the address) while readers since the last modification
    // forced reader->task edges that `in` would not create.
    std::size_t readers_since_mod = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      if (it.type == DependType::InOut && readers_since_mod > 0) {
        bool consumed = false;
        for (std::size_t j = i + 1; j < items.size(); ++j) {
          if (items[j].task_id != it.task_id) {
            consumed = true;
            break;
          }
        }
        if (!consumed) {
          std::ostringstream os;
          os << "redundant inout: task " << it.task_id;
          if (it.label != nullptr && it.label[0] != '\0') {
            os << " [" << it.label << "]";
          }
          os << " takes inout(";
          append_hex(os, addr);
          os << ") after " << readers_since_mod
             << " reader(s) but nothing ever follows the write; `in` "
                "avoids the reader->task edges";
          emit(LintKind::RedundantInout, addr, it, os.str());
        }
      }
      switch (it.type) {
        case DependType::In:
          ++readers_since_mod;
          break;
        case DependType::Out:
        case DependType::InOut:
        case DependType::InOutSet:
          readers_since_mod = 0;
          break;
      }
    }

    // Singleton inoutset generation: one member gains nothing from the
    // concurrent-set semantics but still pays its bookkeeping (and, with
    // redirect enabled, risks a pointless redirect node later).
    std::size_t gen_begin = SIZE_MAX;
    auto close_gen = [&](std::size_t end) {
      if (gen_begin == SIZE_MAX) return;
      if (end - gen_begin == 1) {
        const Item& m = items[gen_begin];
        std::ostringstream os;
        os << "singleton inoutset: task " << m.task_id;
        if (m.label != nullptr && m.label[0] != '\0') {
          os << " [" << m.label << "]";
        }
        os << " is the only member of an inoutset generation on ";
        append_hex(os, addr);
        os << "; `inout` gives the same ordering without set bookkeeping";
        emit(LintKind::SingletonInoutset, addr, m, os.str());
      }
      gen_begin = SIZE_MAX;
    };
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].type == DependType::InOutSet) {
        if (gen_begin == SIZE_MAX) gen_begin = i;
      } else {
        close_gen(i);
      }
    }
    close_gen(items.size());
  }
  return findings;
}

// ---------------------------------------------------------------------------
// PTSG replay-safety check
// ---------------------------------------------------------------------------

namespace {

/// Re-discover a clause stream into an edge set over slot indices (the
/// submission index within the iteration), so two iterations are compared
/// structurally even though their runtime task ids differ.
std::unordered_set<std::uint64_t> rediscover_edges(const ClauseStream& cs) {
  std::vector<AccessRecord> accesses;
  accesses.reserve(cs.total_items());
  for (std::size_t i = 0; i < cs.tasks(); ++i) {
    for (const Depend& d : cs.clause(i)) {
      accesses.push_back(AccessRecord{
          static_cast<std::uint64_t>(i),
          reinterpret_cast<std::uint64_t>(d.addr), d.type, d.bytes, ""});
    }
  }
  std::unordered_set<std::uint64_t> set;
  for (const RequiredPair& p : shadow_required_pairs(accesses)) {
    set.insert((p.pred << 32) | p.succ);
  }
  return set;
}

}  // namespace

std::vector<ReplayDriftFinding> diff_replay_clauses(
    const ClauseStream& reference, const ClauseStream& replay,
    std::size_t max_reports) {
  std::vector<ReplayDriftFinding> findings;
  auto report = [&](std::size_t slot, std::string msg) {
    if (findings.size() >= max_reports) return false;
    findings.push_back(ReplayDriftFinding{slot, std::move(msg)});
    return findings.size() < max_reports;
  };

  if (reference.tasks() != replay.tasks()) {
    std::ostringstream os;
    os << "task count drift: discovery iteration submitted "
       << reference.tasks() << " task(s), replay submitted "
       << replay.tasks();
    report(SIZE_MAX, os.str());
  }

  const std::size_t n = std::min(reference.tasks(), replay.tasks());
  for (std::size_t i = 0; i < n; ++i) {
    std::span<const Depend> ref = reference.clause(i);
    std::span<const Depend> rep = replay.clause(i);
    if (ref.size() != rep.size()) {
      std::ostringstream os;
      os << "clause drift at slot " << i << ": " << ref.size()
         << " item(s) at discovery vs " << rep.size() << " at replay";
      if (!report(i, os.str())) return findings;
      continue;
    }
    for (std::size_t j = 0; j < ref.size(); ++j) {
      if (ref[j] == rep[j]) continue;
      std::ostringstream os;
      os << "clause drift at slot " << i << " item " << j << ": "
         << dep_type_name(ref[j].type) << "(";
      append_hex(os, reinterpret_cast<std::uint64_t>(ref[j].addr));
      os << ") at discovery vs " << dep_type_name(rep[j].type) << "(";
      append_hex(os, reinterpret_cast<std::uint64_t>(rep[j].addr));
      os << ") at replay -- firstprivate address drift invalidates the "
            "cached plan";
      if (!report(i, os.str())) return findings;
    }
  }

  // Structural diff: re-discover both graphs and compare edge sets, so a
  // clause drift is also reported as the orderings it loses or invents.
  const auto ref_edges = rediscover_edges(reference);
  const auto rep_edges = rediscover_edges(replay);
  auto describe = [](std::uint64_t key) {
    std::ostringstream os;
    os << "slot " << (key >> 32) << " -> slot "
       << (key & 0xffffffffu);
    return os.str();
  };
  for (std::uint64_t key : ref_edges) {
    if (rep_edges.count(key) != 0) continue;
    std::ostringstream os;
    os << "replay drops required ordering " << describe(key)
       << ": the cached plan enforces it but the replayed clauses do not "
          "require it";
    if (!report(SIZE_MAX, os.str())) return findings;
  }
  for (std::uint64_t key : rep_edges) {
    if (ref_edges.count(key) != 0) continue;
    std::ostringstream os;
    os << "replay requires ordering " << describe(key)
       << " that the cached plan never recorded -- a determinacy race "
          "under replay";
    if (!report(SIZE_MAX, os.str())) return findings;
  }
  return findings;
}

}  // namespace tdg
