#include "core/depend.hpp"

namespace tdg {

namespace {

/// The address hash of both instantiations: the murmur3 fmix64 finalizer.
/// Depend addresses are rarely random. Logical addresses (the apps'
/// RuntimeEmitter) are byte-consecutive and field-strided (lulesh and hpcg
/// use field * 2^20 + block, cholesky i * nt + j), real ones 8-byte
/// aligned. A folding hash keeps such keys in neighbouring slots, and
/// under linear probing the neighbourhoods merge into clusters hundreds of
/// probes long. Full avalanche spreads any key pattern evenly at the
/// price of prefetch locality for array-ordered addresses (DESIGN.md
/// "Discovery data layout" has the measured rows).
std::size_t hash_address(const void* key) noexcept {
  std::uint64_t x = reinterpret_cast<std::uintptr_t>(key);
  x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return static_cast<std::size_t>(x ^ (x >> 33));
}

}  // namespace

template <class Node>
BasicDependencyMap<Node>::~BasicDependencyMap() {
  clear();
  delete[] slots_;
}

template <class Node>
void BasicDependencyMap<Node>::grow_table() {
  const std::size_t new_cap = cap_ == 0 ? 64 : cap_ * 2;
  Slot* fresh = new Slot[new_cap]();  // entry == nullptr marks empty
  const std::size_t mask = new_cap - 1;
  for (std::size_t i = 0; i < cap_; ++i) {
    if (slots_[i].entry == nullptr) continue;
    std::size_t j = hash_address(slots_[i].key) & mask;
    while (fresh[j].entry != nullptr) j = (j + 1) & mask;
    fresh[j] = slots_[i];
  }
  delete[] slots_;
  slots_ = fresh;
  if (mreg_ != nullptr) {
    mreg_->add_owned(mids_.rehash);
    mreg_->gauge_add_owned(mids_.arena_bytes,
                           static_cast<std::int64_t>((new_cap - cap_) *
                                                     sizeof(Slot)));
  }
  cap_ = new_cap;
  ++rehashes_;
}

template <class Node>
auto BasicDependencyMap<Node>::lookup(const void* addr) -> AddrEntry& {
  if (addr == last_addr_ && last_entry_ != nullptr) return *last_entry_;
  // Grow before probing so the insert below always finds a free slot and
  // the load factor stays under 3/4 (probe sequences stay short).
  if ((size_ + 1) * 4 > cap_ * 3) grow_table();
  const std::size_t mask = cap_ - 1;
  std::size_t i = hash_address(addr) & mask;
  std::uint64_t probes = 1;
  while (slots_[i].entry != nullptr) {
    if (slots_[i].key == addr) {
      if (mreg_ != nullptr) mreg_->observe_owned(mids_.probe_len, probes);
      last_addr_ = addr;
      last_entry_ = slots_[i].entry;
      return *last_entry_;
    }
    i = (i + 1) & mask;
    ++probes;
  }
  TaskArena::Source src{};
  AddrEntry* e = ::new (arena_.allocate(/*shard=*/0, src)) AddrEntry();
  slots_[i].key = addr;
  slots_[i].entry = e;
  ++size_;
  last_addr_ = addr;
  last_entry_ = e;
  if (mreg_ != nullptr) {
    mreg_->observe_owned(mids_.probe_len, probes);
    mreg_->gauge_add_owned(mids_.addr_entries, 1);
    if (src == TaskArena::Source::NewChunk) {
      mreg_->gauge_add_owned(
          mids_.arena_bytes,
          static_cast<std::int64_t>(TaskArena::kBlocksPerChunk *
                                    arena_.block_bytes()));
    }
  }
  return *e;
}

template <class Node>
void BasicDependencyMap<Node>::edge(Node pred, Node succ,
                                    const DiscoveryOptions& opts,
                                    const void* addr) {
  // Seeded fault (verifier self-tests): the Nth discovery silently
  // vanishes, exactly as if the clause that would have produced it were
  // missing from the program. The drop is logged with both endpoint ids
  // so it stays attributable under batch submission, where the whole
  // batch shares one discovery window and the Nth edge call corresponds
  // to no single submit index.
  if (opts.seed_drop_edge != 0 && ++edge_calls_ == opts.seed_drop_edge) {
    dropped_edges_.push_back(
        DroppedEdge{edge_calls_, Traits::id(pred), Traits::id(succ), addr});
    return;
  }
  switch (hooks_->discover_edge(pred, succ)) {
    case EdgeOutcome::Created: ++episode_stats_.edges_created; break;
    case EdgeOutcome::Duplicate: ++episode_stats_.edges_duplicate; break;
    case EdgeOutcome::Pruned: ++episode_stats_.edges_pruned; break;
    case EdgeOutcome::SelfSkip: break;
  }
}

// Order `succ` after the last modifying access of `e`. For an open inoutset
// generation this is either one edge through the redirect node (optimization
// (c)) or one edge per generation member.
template <class Node>
void BasicDependencyMap<Node>::edges_from_mod(AddrEntry& e, Node succ,
                                              const DiscoveryOptions& opts,
                                              const void* addr) {
  // If succ itself is a member of the open generation (inoutset + in on
  // the same address in one clause), routing through a redirect node would
  // create an indirect self-cycle (succ -> R -> succ); use direct edges,
  // where the self-edge is skipped.
  bool self_in_mod = false;
  if (e.mod_is_set) {
    for (Node m : e.last_mod) self_in_mod |= (m == succ);
  }
  if (e.mod_is_set && opts.inoutset_redirect && e.last_mod.size() > 1 &&
      !self_in_mod) {
    if (e.redirect == Traits::kNone) {
      const Node r = hooks_->make_internal_node();
      // Take the map's reference BEFORE sealing: if every member already
      // finished, sealing completes the node inline and drops its
      // self-reference — the descriptor must survive for the consumer
      // edge below (which will then be correctly pruned).
      Traits::retain(r);
      ++episode_stats_.redirect_nodes;
      for (Node m : e.last_mod) edge(m, r, opts, addr);
      hooks_->seal_internal_node(r);
      e.redirect = r;
    }
    edge(e.redirect, succ, opts, addr);
    return;
  }
  for (Node m : e.last_mod) edge(m, succ, opts, addr);
}

template <class Node>
void BasicDependencyMap<Node>::drop_redirect(AddrEntry& e) {
  if (e.redirect == Traits::kNone) return;
  Traits::release(e.redirect);
  e.redirect = Traits::kNone;
}

// Install `task` as the unique last writer, releasing the previous history.
template <class Node>
void BasicDependencyMap<Node>::become_writer(AddrEntry& e, Node task) {
  release_all(e.last_mod);
  release_all(e.gen_base);
  release_all(e.readers);
  drop_redirect(e);
  e.mod_is_set = false;
  retain_into(e.last_mod, task);
}

template <class Node>
void BasicDependencyMap<Node>::apply(Node task, std::span<const Dep> deps,
                                     const DiscoveryOptions& opts) {
  for (const Dep& d : deps) {
    const void* addr = Traits::key(d);
    AddrEntry& e = lookup(addr);
    switch (d.type) {
      case DependType::In:
        // Ordered after the last modifying access only; transitivity covers
        // anything earlier.
        edges_from_mod(e, task, opts, addr);
        retain_into(e.readers, task);
        break;

      case DependType::Out:
      case DependType::InOut:
        // Ordered after the last modifying access and all reads since.
        edges_from_mod(e, task, opts, addr);
        for (Node r : e.readers) edge(r, task, opts, addr);
        become_writer(e, task);
        break;

      case DependType::InOutSet:
        if (!e.mod_is_set) {
          // Open a new generation. Its base is the previous writer plus the
          // reads since: every member must be ordered after those.
          e.mod_is_set = true;
          e.gen_base.clear();
          std::swap(e.gen_base, e.last_mod);
          for (Node r : e.readers) retain_into(e.gen_base, r);
          release_all(e.readers);
        } else if (!e.readers.empty()) {
          // Close the generation at its first reader: every reader that
          // arrived while it was open is already ordered after every
          // member and the base, so the readers alone are the base of the
          // next generation. The transitive order is unchanged; without
          // this, each later member takes an edge from every reader so far
          // and each later reader one from every member so far.
          release_all(e.last_mod);
          release_all(e.gen_base);
          std::swap(e.gen_base, e.readers);
        }
        // A growing generation needs a fresh redirect for future consumers;
        // those discovered so far keep their edges to the old node (they
        // must not depend on this new member).
        drop_redirect(e);
        // A member is ordered after the generation base (OpenMP 5.1:
        // inoutset depends on prior in/out/inout accesses, not prior
        // inoutset); readers of an open generation became the base above.
        for (Node b : e.gen_base) edge(b, task, opts, addr);
        retain_into(e.last_mod, task);
        break;
    }
  }
}

template <class Node>
void BasicDependencyMap<Node>::clear() {
  for (std::size_t i = 0; i < cap_; ++i) {
    AddrEntry* e = slots_[i].entry;
    if (e == nullptr) continue;
    release_all(e->last_mod);
    release_all(e->gen_base);
    release_all(e->readers);
    drop_redirect(*e);
    e->~AddrEntry();
    arena_.deallocate(e);
    slots_[i].entry = nullptr;
    slots_[i].key = nullptr;
  }
  if (mreg_ != nullptr && size_ != 0) {
    mreg_->gauge_add_owned(mids_.addr_entries,
                     -static_cast<std::int64_t>(size_));
  }
  size_ = 0;
  last_addr_ = nullptr;
  last_entry_ = nullptr;
  // Episode boundary: per-scope statistics restart with the history so
  // persistent regions / phase clears report their own numbers instead of
  // accumulating across iterations. (edge_calls_ deliberately survives —
  // seed_drop_edge targets a lifetime position.)
  episode_stats_ = DiscoveryStats{};
}

template class BasicDependencyMap<Task*>;
template class BasicDependencyMap<std::uint32_t>;

}  // namespace tdg
