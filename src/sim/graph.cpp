#include "sim/graph.hpp"

namespace tdg::sim {

std::vector<std::vector<std::uint32_t>> SimGraph::successors() const {
  std::vector<std::vector<std::uint32_t>> succ(tasks.size());
  for (std::uint32_t t = 0; t < tasks.size(); ++t) {
    for (std::uint32_t p : tasks[t].preds) succ[p].push_back(t);
  }
  return succ;
}

std::uint32_t SimGraphBuilder::append(const SimTaskAttrs& attrs, int ndeps) {
  graph_.tasks.push_back(SimTaskDesc{attrs, ndeps, {}});
  last_succ_.push_back(-1);
  return static_cast<std::uint32_t>(graph_.tasks.size() - 1);
}

EdgeOutcome SimGraphBuilder::discover_edge(std::uint32_t pred,
                                           std::uint32_t succ) {
  if (pred == succ) return EdgeOutcome::SelfSkip;
  if (opts_.dedup_edges &&
      last_succ_[pred] == static_cast<std::int64_t>(succ)) {
    ++graph_.duplicate_edges_skipped;
    return EdgeOutcome::Duplicate;
  }
  last_succ_[pred] = static_cast<std::int64_t>(succ);
  graph_.tasks[succ].preds.push_back(pred);
  return EdgeOutcome::Created;
}

std::uint32_t SimGraphBuilder::make_internal_node() {
  ++graph_.redirect_nodes;
  return append({.kind = SimTaskKind::Redirect, .label = "tdg::redirect"}, 0);
}

std::uint32_t SimGraphBuilder::task(const SimTaskAttrs& attrs,
                                    std::span<const SimDep> deps) {
  const std::uint32_t id = append(attrs, static_cast<int>(deps.size()));
  map_.apply(id, deps, opts_);
  return id;
}

}  // namespace tdg::sim
