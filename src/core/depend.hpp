// Sequential task-dependency discovery: the per-address access history that
// turns depend clauses into TDG edges, with the paper's runtime-side
// optimizations:
//   (b) O(1) duplicate-edge elimination (Section 3.1),
//   (c) inoutset redirection nodes reducing m*n edges to m+n (Fig. 4).
//
// One resolver serves both engines: the map is instantiated over Task*
// (DependencyMap, the runtime) and over std::uint32_t graph indices (the
// simulator's SimGraphBuilder); a DiscoveryHooks sink applies edge policy.
//
// Data layout (see DESIGN.md "Discovery data layout"): the access history
// is an open-addressing hash table — one flat power-of-two array of
// (address, entry*) slots probed linearly under one full-avalanche address
// hash (murmur3 fmix64, see depend.cpp) — and the AddrEntry payloads live
// in a slab arena (core/slab.hpp), so a rehash moves only 16-byte slots
// while entries (which hold node references and possibly-spilled
// small_vectors) never move. History lists use
// small_vector: the single writer / few readers of the common case stay
// inline in the arena block, wide inoutset generations spill.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/depend_types.hpp"
#include "core/metrics.hpp"
#include "core/slab.hpp"
#include "core/task.hpp"

namespace tdg {

/// Toggles for the discovery optimizations studied in Section 3.
/// Optimization (a) lives in user code (fewer depend addresses) and has no
/// runtime switch.
struct DiscoveryOptions {
  bool dedup_edges = true;        ///< (b): skip repeated (pred,succ) pairs
  bool inoutset_redirect = true;  ///< (c): aggregate inoutset generations
  /// Fault injection for the TDG soundness verifier's self-tests (in the
  /// spirit of the MPI substrate's FaultPlan): when nonzero, the Nth edge
  /// discovery of the map's lifetime (1-based, counting every would-be
  /// hooks call) is silently dropped — the runtime neither orders nor
  /// records it, exactly what a missing depend clause would cause. The
  /// drop is logged in DependencyMap::dropped_edges() with both endpoint
  /// ids and the clause address, so tests remain able to attribute it even
  /// under batch submission (where one discovery window covers the whole
  /// batch and the Nth edge call maps to no single submit index). Never
  /// set outside tests.
  std::uint64_t seed_drop_edge = 0;
};

/// One edge suppressed by DiscoveryOptions::seed_drop_edge.
struct DroppedEdge {
  std::uint64_t nth = 0;      ///< 1-based lifetime edge-call position
  std::uint64_t pred_id = 0;
  std::uint64_t succ_id = 0;
  const void* addr = nullptr; ///< clause address whose history produced it
};

/// Counters describing one discovery episode.
struct DiscoveryStats {
  std::uint64_t edges_created = 0;    ///< runtime edges materialized
  std::uint64_t edges_pruned = 0;     ///< skipped: predecessor already done
  std::uint64_t edges_duplicate = 0;  ///< skipped by optimization (b)
  std::uint64_t redirect_nodes = 0;   ///< inoutset R nodes inserted by (c)
};

/// What one discover_edge call did — reported back so the map can keep
/// per-episode statistics that reset with its history (clear()), while the
/// runtime's own cumulative counters keep running.
enum class EdgeOutcome : std::uint8_t {
  Created,    ///< edge materialized (or recorded for persistent replay)
  Duplicate,  ///< skipped by optimization (b)
  Pruned,     ///< skipped: predecessor already finished
  SelfSkip,   ///< pred == succ (same task, two clause items)
};

/// The edge sink of the resolver: creating edges (with pruning/dedup/
/// persistence policy) and inserting internal nodes.
template <class Node>
class DiscoveryHooks {
 public:
  virtual ~DiscoveryHooks() = default;
  /// Create precedence edge pred -> succ, applying dedup and pruning.
  virtual EdgeOutcome discover_edge(Node pred, Node succ) = 0;
  /// Create an empty internal node (inoutset redirect). The node is
  /// returned with its discovery guard held; the map adds the member edges
  /// and then calls seal_internal_node.
  virtual Node make_internal_node() = 0;
  /// Drop the internal node's discovery guard (it may complete inline).
  virtual void seal_internal_node(Node node) = 0;
};

/// What the resolver needs to know about a node handle: its clause item,
/// the table key of an address, and how history holds a node.
template <class Node>
struct NodeTraits;

/// Runtime tasks: history entries hold task references.
template <>
struct NodeTraits<Task*> {
  using Dep = Depend;
  static constexpr Task* kNone = nullptr;
  static const void* key(const Depend& d) { return d.addr; }
  static std::uint64_t id(Task* t) { return t->id(); }
  static void retain(Task* t) { t->retain(); }
  static void release(Task* t) { t->release(); }
};

/// Simulator graph indices: descriptors live as long as their graph, so
/// references are no-ops. Abstract addresses are integers keyed as
/// pointer-width words.
template <>
struct NodeTraits<std::uint32_t> {
  static_assert(sizeof(std::uintptr_t) >= sizeof(std::uint64_t),
                "abstract addresses are keyed as pointer-width words");
  using Dep = sim::SimDep;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static const void* key(const sim::SimDep& d) {
    return reinterpret_cast<const void*>(static_cast<std::uintptr_t>(d.addr));
  }
  static std::uint64_t id(std::uint32_t i) { return i; }
  static void retain(std::uint32_t) {}
  static void release(std::uint32_t) {}
};

/// Per-address access history with OpenMP 5.1 `in`/`out`/`inout`/`inoutset`
/// semantics. Single-writer: depend clauses are processed sequentially by
/// the producer thread (the paper's "sequential submission of dependent
/// tasks"), which is what makes duplicate detection O(1) and lets the
/// table skip all synchronization.
template <class Node>
class BasicDependencyMap {
 public:
  using Dep = typename NodeTraits<Node>::Dep;

  /// `hooks` must outlive the map and stay at the same address.
  explicit BasicDependencyMap(DiscoveryHooks<Node>& hooks)
      : hooks_(&hooks), arena_(sizeof(AddrEntry), /*nshards=*/1) {}
  ~BasicDependencyMap();
  BasicDependencyMap(const BasicDependencyMap&) = delete;
  BasicDependencyMap& operator=(const BasicDependencyMap&) = delete;

  /// Process the depend clause of `task`, creating all required edges.
  void apply(Node task, std::span<const Dep> deps,
             const DiscoveryOptions& opts);

  /// Drop the whole access history, releasing node references. Used at
  /// persistent-region discovery end and runtime shutdown. The slot array
  /// and arena chunks are retained for the next episode (capacity is
  /// sticky; chunk memory returns to the OS only at destruction).
  void clear();

  /// Observability handles (registered by the owning runtime): probe-length
  /// histogram, rehash counter, live-entry and arena-footprint gauges. The
  /// map writes them into the registry's single-writer shard: like the
  /// history itself, they are touched only by the discovering thread.
  struct MetricIds {
    MetricsRegistry::Id probe_len;     ///< histogram discovery.probe_len
    MetricsRegistry::Id rehash;        ///< counter discovery.rehash
    MetricsRegistry::Id addr_entries;  ///< gauge discovery.addr_entries
    MetricsRegistry::Id arena_bytes;   ///< gauge discovery.arena_bytes
  };
  void bind_metrics(MetricsRegistry* reg, MetricIds ids) {
    mreg_ = reg;
    mids_ = ids;
  }

  /// Discovery statistics of the current episode — since construction or
  /// the last clear(). Unlike the runtime's cumulative RuntimeStats
  /// counters, these reset with the history, so per-region / per-iteration
  /// numbers (persistent regions clear between discovery episodes) do not
  /// accumulate across scopes.
  const DiscoveryStats& episode_stats() const { return episode_stats_; }

  /// Edges suppressed by seed_drop_edge over the map's lifetime (survives
  /// clear(), like edge_calls_: the fault targets a lifetime position).
  const std::vector<DroppedEdge>& dropped_edges() const {
    return dropped_edges_;
  }

  std::size_t tracked_addresses() const { return size_; }
  std::size_t table_capacity() const { return cap_; }
  /// AddrEntry blocks currently handed out by the arena (leak checks:
  /// returns to zero after clear()).
  std::size_t live_entries() const { return arena_.live_blocks(); }
  /// Total discovery-layer footprint: arena chunks plus the slot array.
  std::size_t arena_bytes() const {
    return arena_.chunks_allocated() * TaskArena::kBlocksPerChunk *
               arena_.block_bytes() +
           cap_ * sizeof(Slot);
  }
  std::uint64_t rehash_count() const { return rehashes_; }

 private:
  using Traits = NodeTraits<Node>;
  /// History lists share one inline capacity so an opening inoutset
  /// generation can swap last_mod into gen_base without copying through
  /// the heap. 4 nodes covers the figure benches' telemetry (one writer,
  /// 1-3 readers between writes); generations of 5+ members and wide
  /// reader sets spill.
  static constexpr std::size_t kInlineHistory = 4;
  using NodeList = small_vector<Node, kInlineHistory>;

  struct AddrEntry {
    /// Last modifying access: a single out/inout writer, or the members of
    /// the currently-open inoutset generation. Holds references.
    NodeList last_mod;
    /// Predecessors every new member of the open generation must be
    /// ordered after (the writer/readers present when the generation
    /// opened). Holds references.
    NodeList gen_base;
    /// `in` tasks since last_mod changed. Holds references.
    NodeList readers;
    /// Optimization (c): redirect node summarizing last_mod when it is an
    /// inoutset generation; invalidated when the generation grows.
    Node redirect = Traits::kNone;
    bool mod_is_set = false;  ///< last_mod is an open inoutset generation
  };

  /// One open-addressing slot. Empty iff entry == nullptr (the key is an
  /// arbitrary user address, so no address value can serve as a sentinel).
  struct Slot {
    const void* key;
    AddrEntry* entry;
  };

  /// Find the entry for `addr`, inserting an empty one if absent.
  AddrEntry& lookup(const void* addr);
  /// Double the slot array and reinsert the (key, entry) pairs. Entries
  /// themselves never move — the table only stores pointers into the
  /// arena — so no node reference is touched during a rehash.
  void grow_table();

  void edges_from_mod(AddrEntry& e, Node succ, const DiscoveryOptions& opts,
                      const void* addr);
  void become_writer(AddrEntry& e, Node task);
  /// Drop the redirect node of `e`, if any.
  void drop_redirect(AddrEntry& e);
  /// All edge discovery funnels through here: applies the seeded-drop
  /// fault (verifier self-tests) and folds the outcome into episode_stats_.
  /// `addr` is the clause address whose history produced the edge — only
  /// used to attribute seeded drops.
  void edge(Node pred, Node succ, const DiscoveryOptions& opts,
            const void* addr);
  static void retain_into(NodeList& v, Node t) {
    Traits::retain(t);
    v.push_back(t);
  }
  static void release_all(NodeList& v) {
    for (Node t : v) Traits::release(t);
    v.clear();
  }

  DiscoveryHooks<Node>* hooks_;
  TaskArena arena_;  ///< AddrEntry payload slab (core/slab.hpp)
  /// One-entry lookup cache: depend clauses touch the same address in
  /// bursts (out/in/inout items of one clause, stencil neighbours across
  /// consecutive submits), so the last (addr, entry) pair short-circuits
  /// the probe. Entries never move on rehash, so only clear() — which
  /// frees them — must invalidate the cache.
  const void* last_addr_ = nullptr;
  AddrEntry* last_entry_ = nullptr;
  Slot* slots_ = nullptr;
  std::size_t cap_ = 0;   ///< power of two (0 until the first insert)
  std::size_t size_ = 0;  ///< live entries
  std::uint64_t rehashes_ = 0;
  DiscoveryStats episode_stats_;   ///< reset by clear()
  std::uint64_t edge_calls_ = 0;  ///< lifetime counter for seed_drop_edge
  std::vector<DroppedEdge> dropped_edges_;  ///< lifetime log (see accessor)
  MetricsRegistry* mreg_ = nullptr;
  MetricIds mids_{};
};

/// The runtime's resolver.
using DependencyMap = BasicDependencyMap<Task*>;

extern template class BasicDependencyMap<Task*>;
extern template class BasicDependencyMap<std::uint32_t>;

}  // namespace tdg
