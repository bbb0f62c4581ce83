// Simulator task graphs: task descriptors with cost-model attributes, and a
// builder that resolves depend clauses into edges with the core runtime's
// resolver (core/depend.hpp, index instantiation), so both engines share
// one implementation of in/out/inout/inoutset and optimizations (b), (c).
// Addresses are abstract 64-bit identities (SimDep, core/depend_types.hpp),
// so application graph generators can be shared between the real runtime
// and the simulator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/depend.hpp"

namespace tdg::sim {

enum class SimTaskKind : std::uint8_t {
  Compute,    ///< cpu_seconds + bytes through the cache model
  Send,       ///< posts a message; completes when the transfer does
  Recv,       ///< posts a receive; completes at delivery
  Allreduce,  ///< posts a collective contribution
  Redirect,   ///< runtime-internal inoutset node (optimization (c))
};

/// Cost-model attributes supplied by the application graph generator.
struct SimTaskAttrs {
  double cpu_seconds = 0;      ///< pure compute time
  std::uint64_t bytes = 0;     ///< working set (cache/DRAM model)
  SimTaskKind kind = SimTaskKind::Compute;
  int peer = -1;               ///< Send/Recv peer rank
  int tag = 0;                 ///< Send/Recv matching tag
  std::uint64_t msg_bytes = 0; ///< payload of Send/Recv/Allreduce
  std::uint32_t iteration = 0; ///< application iteration (Gantt colour)
  const char* label = "";
};

/// One task of a simulator graph, with resolved dependency edges.
struct SimTaskDesc {
  SimTaskAttrs attrs;
  int ndeps = 0;  ///< depend-clause items (discovery hashing cost)
  /// Predecessor indices; duplicates are kept when optimization (b) is
  /// off, exactly as the real runtime materializes duplicate edges.
  std::vector<std::uint32_t> preds;
};

/// An immutable task graph for the simulator (one MPI rank's TDG).
struct SimGraph {
  std::vector<SimTaskDesc> tasks;
  std::uint64_t duplicate_edges_skipped = 0;  ///< dropped by opt (b)
  std::uint64_t redirect_nodes = 0;           ///< inserted by opt (c)

  std::uint64_t structural_edges() const {
    std::uint64_t n = 0;
    for (const auto& t : tasks) n += t.preds.size();
    return n;
  }
  /// Successor adjacency, computed on demand by the simulator.
  std::vector<std::vector<std::uint32_t>> successors() const;
};

/// Sequential-discovery dependency resolution on abstract addresses: the
/// edge sink of the resolver's index instantiation, which owns the history
/// and points back at the builder (hence no copy or move).
class SimGraphBuilder final : private DiscoveryHooks<std::uint32_t> {
 public:
  SimGraphBuilder() : SimGraphBuilder(DiscoveryOptions{}) {}
  explicit SimGraphBuilder(const DiscoveryOptions& opts)
      : opts_(opts), map_(*this) {}
  SimGraphBuilder(const SimGraphBuilder&) = delete;
  SimGraphBuilder& operator=(const SimGraphBuilder&) = delete;

  /// Append a task with the given depend clause; returns its index.
  std::uint32_t task(const SimTaskAttrs& attrs, std::span<const SimDep> deps);
  std::uint32_t task(const SimTaskAttrs& attrs,
                     std::initializer_list<SimDep> deps) {
    return task(attrs, std::span<const SimDep>(deps.begin(), deps.size()));
  }

  /// Forget the access history (between independent phases).
  void clear_scope() { map_.clear(); }

  /// Number of tasks added so far.
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(graph_.tasks.size());
  }

  SimGraph take() { return std::move(graph_); }

 private:
  EdgeOutcome discover_edge(std::uint32_t pred, std::uint32_t succ) override;
  std::uint32_t make_internal_node() override;
  void seal_internal_node(std::uint32_t) override {}
  /// Append a descriptor; returns its index.
  std::uint32_t append(const SimTaskAttrs& attrs, int ndeps);

  DiscoveryOptions opts_;
  SimGraph graph_;
  std::vector<std::int64_t> last_succ_;  ///< per-task last successor (opt b)
  BasicDependencyMap<std::uint32_t> map_;
};

}  // namespace tdg::sim
