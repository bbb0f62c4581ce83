#include "core/race.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace tdg {

namespace {

const char* dep_name(DependType t) {
  switch (t) {
    case DependType::In:
      return "in";
    case DependType::Out:
      return "out";
    case DependType::InOut:
      return "inout";
    case DependType::InOutSet:
      return "inoutset";
  }
  return "?";
}

void append_hex(std::string& s, std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, v);
  s += buf;
}

RaceOptions sanitize(RaceOptions o) {
  if (o.sample_tasks == 0) o.sample_tasks = 1;
  if (o.sample_addrs == 0) o.sample_addrs = 1;
  if (o.clock_lanes == 0) o.clock_lanes = 1;
  if (o.clock_lanes > 4096) o.clock_lanes = 4096;
  if (o.max_flags == 0) o.max_flags = 1;
  return o;
}

std::uint64_t range_end(std::uint64_t addr, std::uint32_t bytes) {
  // Identity-only clauses (bytes 0) occupy one byte so exact-base matches
  // still collide in the interval scan.
  return addr + (bytes != 0 ? bytes : 1);
}

}  // namespace

std::string RaceFlag::to_string() const {
  std::string s = kind == Kind::SameBase ? "race[same-base] addr "
                                         : "race[range-overlap] addr ";
  append_hex(s, addr);
  if (bytes != 0) s += "+" + std::to_string(bytes);
  if (kind == Kind::RangeOverlap && other_addr != addr) {
    s += " overlapping ";
    append_hex(s, other_addr);
  }
  s += ": task '";
  s += pred_label;
  s += "' (id " + std::to_string(pred_id) + ", " + dep_name(pred_type) +
       ") vs task '";
  s += succ_label;
  s += "' (id " + std::to_string(succ_id) + ", " + dep_name(succ_type) +
       "): no ordering in the discovered TDG";
  if (window_lo != 0) {
    s += " (window > " + std::to_string(window_lo) + ")";
  }
  return s;
}

// ---------------------------------------------------------------------------
// RaceDetector
// ---------------------------------------------------------------------------

/// One access installed in a shadow entry. Trivially copyable so the
/// writer/reader lists ride in small_vector inline storage.
struct RaceDetector::ShadowAccess {
  std::uint64_t task_id = 0;
  DependType type = DependType::In;
  std::uint32_t bytes = 0;
  const char* label = "";
};

/// One interval shadow entry, keyed by clause base address. Mirrors the
/// shape of DependencyMap's AddrEntry (last-modification set + readers,
/// generation flag) so the check semantics track discovery semantics:
/// a conflict the shadow table derives is one discovery was obliged to
/// order. Slab-allocated from shadow_arena_ under lock_.
struct RaceDetector::ShadowEntry {
  /// Writer/reader history caps: overflow drops the oldest information,
  /// which can only hide a race (a missed check), never invent one.
  static constexpr std::size_t kMaxWriters = 16;
  static constexpr std::size_t kMaxReaders = 16;

  std::uint64_t start = 0;
  std::uint64_t end = 0;  ///< max extent installed, [start, end)
  bool mod_is_set = false;  ///< writers form an open inoutset generation
  small_vector<ShadowAccess, 2> writers;
  small_vector<ShadowAccess, 4> readers;
};

/// Per-task clock record. `lanes` is the lane-compressed vector clock
/// (lane i holds the max id of any happens-before predecessor with
/// id % W == i); the array lives in the trailing bytes of the record's
/// pool block, so record and clock share one allocation and one cache
/// locality. `has_lanes` defers the W-word fill to the first join, so
/// records that only ever carry clauses never touch the array.
struct RaceDetector::ClockRec {
  std::uint64_t id = 0;
  /// Scalar prefix clock: every id in (clock_base_ - 1, seq_lo] is a
  /// proven happens-before predecessor. A pure chain keeps its entire
  /// ordering in this one word (each link inherits `pred` when pred
  /// dominated everything before it), so the common shape never touches
  /// the W-word lane array at all; divergent graphs fall back to lanes.
  std::uint64_t seq_lo = 0;
  std::uint64_t* lanes = nullptr;  ///< trailing pool-block storage, fixed
  const char* label = "";
  bool tracked = false;
  bool has_lanes = false;
  small_vector<Depend, 4> clauses;  ///< sampled tasks only
};

RaceDetector::RaceDetector(const RaceOptions& opts, unsigned nslots)
    : opts_(sanitize(opts)),
      shadow_arena_(sizeof(ShadowEntry), 1),
      slot_cache_(nslots > 0 ? nslots : 1) {
  rec_stride_ =
      (sizeof(ClockRec) + opts_.clock_lanes * sizeof(std::uint64_t) +
       kCacheLine - 1) &
      ~(kCacheLine - 1);
}

void RaceDetector::carve_rec_slab() {
  const std::size_t bytes = rec_stride_ * kRecsPerSlab;
  void* mem = ChunkCache::take(bytes);
  if (mem == nullptr) {
    mem = ::operator new(bytes, std::align_val_t{kCacheLine});
  }
  char* base = static_cast<char*>(mem);
  rec_slabs_.push_back(base);
  rec_pool_.reserve(rec_pool_.size() + kRecsPerSlab);
  for (std::size_t i = 0; i < kRecsPerSlab; ++i) {
    ClockRec* r = new (base + i * rec_stride_) ClockRec();
    r->lanes = reinterpret_cast<std::uint64_t*>(base + i * rec_stride_ +
                                                sizeof(ClockRec));
    rec_pool_.push_back(r);
  }
}

/// Hand out the next pool record, reset for a fresh task. Records stay
/// constructed for the detector's whole lifetime (a clause list that grew
/// past its inline capacity keeps that capacity across reuse).
RaceDetector::ClockRec* RaceDetector::acquire_rec() {
  if (rec_used_ == rec_pool_.size()) carve_rec_slab();
  ClockRec* r = rec_pool_[rec_used_++];
  live_clocks_.store(rec_used_, std::memory_order_relaxed);
  r->seq_lo = clock_base_ - 1;  // covers nothing yet
  r->label = "";
  r->tracked = false;
  r->has_lanes = false;
  r->clauses.clear();
  return r;
}

/// Producer-side; callers run at quiescent points (barrier, destructor).
/// O(1): every record is retired at once by resetting the pool cursor.
void RaceDetector::reset_clocks() {
  clock_recs_.clear();
  rec_used_ = 0;
  live_clocks_.store(0, std::memory_order_relaxed);
}

RaceDetector::~RaceDetector() {
  {
    SpinGuard g(lock_);
    flush_shadow_locked();
  }
  for (ClockRec* r : rec_pool_) r->~ClockRec();
  const std::size_t bytes = rec_stride_ * kRecsPerSlab;
  for (char* slab : rec_slabs_) ChunkCache::give(slab, bytes);
}

bool RaceDetector::would_sample_task(std::uint64_t id) const {
  if (opts_.mode == RaceMode::Off) return false;
  if (opts_.sample_tasks <= 1) return true;
  // splitmix64 is bijective, so "every Nth task" is a uniform subset that
  // is a pure function of (seed, id): equal seeds sample equal sets.
  return splitmix64(opts_.seed ^ id) % opts_.sample_tasks == 0;
}

bool RaceDetector::would_sample_addr(std::uint64_t addr) const {
  if (opts_.sample_addrs <= 1) return true;
  // Mix the seed in at a different rotation than the task hash so the
  // task and address subsets are independent.
  return splitmix64((opts_.seed << 1 | 1) ^ addr) % opts_.sample_addrs == 0;
}

RaceDetector::ClockRec* RaceDetector::find_clock(std::uint64_t id) const {
  if (id < clock_base_ || id - clock_base_ >= clock_recs_.size()) {
    return nullptr;
  }
  return clock_recs_[id - clock_base_];
}

RaceDetector::ClockRec* RaceDetector::find_or_create_clock(std::uint64_t id) {
  // Pre-barrier ids are ordered by the cutoff alone — no record needed.
  if (id < clock_base_) return nullptr;
  const std::size_t idx = static_cast<std::size_t>(id - clock_base_);
  if (idx >= clock_recs_.size()) clock_recs_.resize(idx + 1, nullptr);
  ClockRec*& slot = clock_recs_[idx];
  if (slot == nullptr) {
    slot = acquire_rec();
    slot->id = id;
  }
  return slot;
}

void* RaceDetector::on_task_discovered(std::uint64_t id, const Depend* deps,
                                       std::size_t n, const char* label) {
  if (n == 0 || !would_sample_task(id)) return nullptr;
  ClockRec* rec = find_or_create_clock(id);
  if (rec == nullptr) return nullptr;
  rec->tracked = true;
  rec->label = label != nullptr ? label : "";
  rec->clauses.clear();
  for (std::size_t i = 0; i < n; ++i) rec->clauses.push_back(deps[i]);
  tracked_.fetch_add(1, std::memory_order_relaxed);
  return rec;
}

void RaceDetector::on_edge(std::uint64_t pred, std::uint64_t succ) {
  if (opts_.mode == RaceMode::Off || pred == succ) return;
  ClockRec* s = find_or_create_clock(succ);
  if (s == nullptr) return;
  // Join: every discovered edge is joined (not just sampled tasks'):
  // skipping an intermediate task would break transitivity and turn a
  // properly ordered pair into a false flag.
  ClockRec* p = find_clock(pred);
  std::uint64_t p_seq = clock_base_ - 1;
  bool p_has_lanes = false;
  if (p != nullptr) {
    p_seq = p->seq_lo;
    p_has_lanes = p->has_lanes;
  } else if (pred < clock_base_) {
    // Pre-barrier predecessor: the cutoff already orders it before
    // everything in this window — the edge carries no new information.
    return;
  }
  // Scalar-prefix join: when the predecessor dominated every id before it,
  // the successor's coverage extends through the predecessor itself; the
  // pure-chain shape rides entirely on this word and never touches lanes.
  const std::uint64_t inherit = p_seq == pred - 1 ? pred : p_seq;
  if (inherit > s->seq_lo) s->seq_lo = inherit;
  if (!p_has_lanes && inherit >= pred) return;  // fully covered by seq_lo
  if (!s->has_lanes) {
    s->has_lanes = true;
    // First lane touch: inherit the predecessor's clock wholesale instead
    // of zero-filling and re-maxing.
    if (p_has_lanes) {
      std::memcpy(s->lanes, p->lanes,
                  opts_.clock_lanes * sizeof(std::uint64_t));
    } else {
      std::memset(s->lanes, 0, opts_.clock_lanes * sizeof(std::uint64_t));
    }
  } else if (p_has_lanes) {
    for (unsigned i = 0; i < opts_.clock_lanes; ++i) {
      if (s->lanes[i] < p->lanes[i]) s->lanes[i] = p->lanes[i];
    }
  }
  std::uint64_t& lane = s->lanes[pred % opts_.clock_lanes];
  if (lane < pred) lane = pred;
}

void RaceDetector::on_barrier(std::uint64_t max_id) {
  if (opts_.mode == RaceMode::Off) return;
  // Barriers run at quiescent points (taskwait drained), so the clock side
  // can be swept without coordination; the shadow side still takes the
  // lock against a concurrently-diagnosing watchdog.
  std::uint64_t cutoff = cutoff_.load(std::memory_order_relaxed);
  if (cutoff < max_id) {
    cutoff = max_id;
    cutoff_.store(cutoff, std::memory_order_relaxed);
  }
  reset_clocks();
  clock_base_ = cutoff + 1;
  SpinGuard g(lock_);
  scope_cuts_.clear();
  flush_shadow_locked();
  flag_keys_.clear();
}

void RaceDetector::on_scope_clear(std::uint64_t max_id) {
  if (opts_.mode == RaceMode::Off) return;
  SpinGuard g(lock_);
  // Clocks survive: pre-clear tasks may still be running and their
  // conflicts *among themselves* are still real. Only cross-cut pairs are
  // exempt — the program explicitly severed discovery there, which is
  // exactly the offline verifier's scope_clears contract.
  flush_shadow_locked();
  if (scope_cuts_.empty() || scope_cuts_.back() != max_id) {
    scope_cuts_.push_back(max_id);
  }
}

void RaceDetector::flush_shadow_locked() {
  for (auto& [start, e] : shadow_) {
    e->~ShadowEntry();
    shadow_arena_.deallocate(e);
  }
  shadow_.clear();
  max_range_ = 0;
}

bool RaceDetector::cut_separated(std::uint64_t a, std::uint64_t b) const {
  const std::uint64_t lo = a < b ? a : b;
  const std::uint64_t hi = a < b ? b : a;
  auto it = std::lower_bound(scope_cuts_.begin(), scope_cuts_.end(), lo);
  return it != scope_cuts_.end() && *it < hi;
}

/// Is `pred` proven ordered before the task owning `rec`? Safe from any
/// thread: a task's clock is final once the task is discoverable (in-edges
/// only arrive during its own discovery), and `cutoff_` is atomic.
bool RaceDetector::ordered_rec(const ClockRec* rec,
                               std::uint64_t pred) const {
  if (pred <= cutoff_.load(std::memory_order_relaxed)) return true;
  if (rec == nullptr) return false;
  if (pred <= rec->seq_lo) return true;  // scalar prefix coverage
  if (!rec->has_lanes) return false;
  return rec->lanes[pred % opts_.clock_lanes] >= pred;
}

bool RaceDetector::ordered(std::uint64_t pred, std::uint64_t succ) const {
  if (pred == succ) return true;
  return ordered_rec(find_clock(succ), pred);
}

void RaceDetector::flag(RaceFlag::Kind kind, const ShadowAccess& prior,
                        std::uint64_t succ_id, const Depend& clause,
                        const char* succ_label, std::uint64_t entry_addr,
                        std::vector<std::string>& live_lines) {
  // One flag per (pred, succ, entry) triple: the same unordered pair would
  // otherwise flag once per clause item touching the address.
  const std::uint64_t key = splitmix64(prior.task_id) ^
                            splitmix64(succ_id * 0x9e3779b97f4a7c15ull) ^
                            entry_addr;
  if (std::find(flag_keys_.begin(), flag_keys_.end(), key) !=
      flag_keys_.end()) {
    return;
  }
  flag_keys_.push_back(key);
  flags_total_.fetch_add(1, std::memory_order_relaxed);
  RaceFlag f;
  f.kind = kind;
  f.addr = reinterpret_cast<std::uint64_t>(clause.addr);
  f.bytes = clause.bytes;
  f.other_addr = entry_addr;
  f.pred_id = prior.task_id;
  f.succ_id = succ_id;
  f.pred_type = prior.type;
  f.succ_type = clause.type;
  f.pred_label = prior.label;
  f.succ_label = succ_label;
  f.window_lo = cutoff_.load(std::memory_order_relaxed);
  if (opts_.live_report) live_lines.push_back(f.to_string());
  if (flags_.size() < opts_.max_flags) flags_.push_back(std::move(f));
}

void RaceDetector::on_task_start(std::uint64_t id, unsigned slot,
                                 void* rec_opaque) {
  if (opts_.mode == RaceMode::Off || rec_opaque == nullptr) return;
  // The caller hands back the record on_task_discovered returned, so no
  // lookup is needed — and the record is read-only from here (a task's
  // clock and clauses are final once it is discoverable), so only the
  // shadow table itself needs the lock.
  ClockRec* rec = static_cast<ClockRec*>(rec_opaque);
  std::vector<std::string> live;
  {
    SpinGuard g(lock_);
    {
      // Phase 1: check every sampled clause against the installed state.
      // Self-conflicts (duplicate clause addresses) are skipped by id.
      for (const Depend& d : rec->clauses) {
        const std::uint64_t a = reinterpret_cast<std::uint64_t>(d.addr);
        if (!would_sample_addr(a)) continue;
        checks_.fetch_add(1, std::memory_order_relaxed);
        const bool i_write = d.type != DependType::In;
        // Same-base conflicts: mirrors discovery's identity matching, so
        // every flag here is a pair discovery was obliged to order.
        if (auto it = shadow_.find(a); it != shadow_.end()) {
          ShadowEntry* e = it->second;
          const bool same_gen_set =
              e->mod_is_set && d.type == DependType::InOutSet;
          if (!same_gen_set) {
            for (const ShadowAccess& w : e->writers) {
              if (w.task_id == id) continue;
              if (cut_separated(w.task_id, id)) continue;
              if (ordered_rec(rec, w.task_id)) continue;
              flag(RaceFlag::Kind::SameBase, w, id, d, rec->label, a, live);
            }
          }
          if (i_write) {
            for (const ShadowAccess& r : e->readers) {
              if (r.task_id == id) continue;
              if (cut_separated(r.task_id, id)) continue;
              if (ordered_rec(rec, r.task_id)) continue;
              flag(RaceFlag::Kind::SameBase, r, id, d, rec->label, a, live);
            }
          }
        }
        // Cross-base range overlaps: discovery matches identity only, so
        // it cannot have ordered these — if both extent annotations are
        // truthful, the clauses are structurally unable to express the
        // needed dependence. Only extent-annotated clauses participate.
        if (d.bytes != 0 && max_range_ != 0) {
          const std::uint64_t lo = a;
          const std::uint64_t hi = range_end(a, d.bytes);
          const std::uint64_t scan_from =
              lo > max_range_ ? lo - max_range_ : 0;
          for (auto jt = shadow_.lower_bound(scan_from);
               jt != shadow_.end() && jt->first < hi; ++jt) {
            if (jt->first == a) continue;  // same base handled above
            ShadowEntry* e = jt->second;
            if (e->end <= lo) continue;
            auto overlap = [&](const ShadowAccess& o) {
              if (o.bytes == 0) return false;
              const std::uint64_t olo = e->start;
              const std::uint64_t ohi = range_end(e->start, o.bytes);
              return olo < hi && lo < ohi;
            };
            for (const ShadowAccess& w : e->writers) {
              if (w.task_id == id || !overlap(w)) continue;
              if (cut_separated(w.task_id, id)) continue;
              if (ordered_rec(rec, w.task_id)) continue;
              flag(RaceFlag::Kind::RangeOverlap, w, id, d, rec->label,
                   e->start, live);
            }
            if (i_write) {
              for (const ShadowAccess& r : e->readers) {
                if (r.task_id == id || !overlap(r)) continue;
                if (cut_separated(r.task_id, id)) continue;
                if (ordered_rec(rec, r.task_id)) continue;
                flag(RaceFlag::Kind::RangeOverlap, r, id, d, rec->label,
                     e->start, live);
              }
            }
          }
        }
      }
      // Phase 2: install. Same lock hold as the checks, so of any
      // unordered pair the later-starting task always sees the earlier
      // one's entry — detection does not depend on timing.
      for (const Depend& d : rec->clauses) {
        const std::uint64_t a = reinterpret_cast<std::uint64_t>(d.addr);
        if (!would_sample_addr(a)) continue;
        auto [it, inserted] = shadow_.try_emplace(a, nullptr);
        ShadowEntry* e;
        if (inserted) {
          TaskArena::Source src;
          e = new (shadow_arena_.allocate(0, src)) ShadowEntry();
          e->start = a;
          e->end = range_end(a, d.bytes);
          it->second = e;
        } else {
          e = it->second;
          const std::uint64_t hi = range_end(a, d.bytes);
          if (e->end < hi) e->end = hi;
        }
        if (e->end - e->start > max_range_) max_range_ = e->end - e->start;
        const ShadowAccess acc{id, d.type, d.bytes, rec->label};
        switch (d.type) {
          case DependType::In:
            if (e->readers.size() < ShadowEntry::kMaxReaders) {
              e->readers.push_back(acc);
            }
            break;
          case DependType::Out:
          case DependType::InOut:
            e->writers.clear();
            e->writers.push_back(acc);
            e->mod_is_set = false;
            e->readers.clear();
            break;
          case DependType::InOutSet:
            if (!e->mod_is_set) {
              // New generation: previous modification set and readers are
              // all ordered before this set's members (discovery gave the
              // members edges from both), so they stop being checkable —
              // exactly discovery's fold-into-gen_base step.
              e->writers.clear();
              e->readers.clear();
              e->mod_is_set = true;
            }
            if (e->writers.size() < ShadowEntry::kMaxWriters) {
              e->writers.push_back(acc);
            }
            break;
        }
      }
    }
  }
  SlotCache& c = slot_cache_[slot < slot_cache_.size() ? slot : 0];
  c.id = id;
  c.rec = rec;
  for (const std::string& line : live) {
    std::fprintf(stderr, "tdg %s\n", line.c_str());
  }
}

void RaceDetector::on_task_finish(std::uint64_t id, unsigned slot) {
  if (opts_.mode == RaceMode::Off) return;
  // Lock-free completion path: the slot cache carries the start-time
  // lookup across, so finishing a tracked task never re-takes lock_.
  SlotCache& c = slot_cache_[slot < slot_cache_.size() ? slot : 0];
  if (c.id == id && c.rec != nullptr) {
    finished_tracked_.fetch_add(1, std::memory_order_relaxed);
  }
  c.id = 0;
  c.rec = nullptr;
}

std::vector<RaceFlag> RaceDetector::take_flags() {
  SpinGuard g(lock_);
  std::vector<RaceFlag> out;
  out.swap(flags_);
  flag_keys_.clear();
  return out;
}

std::size_t RaceDetector::live_shadow_entries() const {
  SpinGuard g(lock_);
  return shadow_.size();
}

std::size_t RaceDetector::live_clock_records() const {
  return live_clocks_.load(std::memory_order_relaxed);
}

void RaceDetector::diagnostic(std::string& out) const {
  std::size_t shadow;
  {
    SpinGuard g(lock_);
    shadow = shadow_.size();
  }
  const std::size_t clocks = live_clocks_.load(std::memory_order_relaxed);
  const std::uint64_t cutoff = cutoff_.load(std::memory_order_relaxed);
  out += "race: mode=";
  out += race_mode_name(opts_.mode);
  out += " sample=1/" + std::to_string(opts_.sample_tasks);
  out += " tracked=" + std::to_string(tracked_count());
  out += " checks=" + std::to_string(check_count());
  out += " flags=" + std::to_string(flag_total());
  out += " shadow=" + std::to_string(shadow);
  out += " clocks=" + std::to_string(clocks);
  out += " cutoff=" + std::to_string(cutoff);
}

// ---------------------------------------------------------------------------
// Offline replay (tdg-trace race)
// ---------------------------------------------------------------------------

RaceScanResult race_scan(std::span<const AccessRecord> accesses,
                         std::span<const TraceEdge> edges,
                         std::span<const std::uint64_t> barriers,
                         std::span<const std::uint64_t> scope_clears,
                         const RaceOptions& opts) {
  RaceOptions o = sanitize(opts);
  if (o.mode == RaceMode::Off) o.mode = RaceMode::Strict;
  o.live_report = false;
  RaceDetector det(o, 1);
  RaceScanResult res;

  // Group the access stream into per-task clause runs (submission order:
  // ids are non-decreasing run to run).
  struct Run {
    std::uint64_t id;
    std::size_t begin;
    std::size_t n;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < accesses.size();) {
    std::size_t j = i;
    while (j < accesses.size() &&
           accesses[j].task_id == accesses[i].task_id) {
      ++j;
    }
    runs.push_back(Run{accesses[i].task_id, i, j - i});
    i = j;
  }

  // Edges applied in succ order: preds always carry smaller ids (they
  // were discovered earlier), so by the time an edge joins into succ the
  // pred's clock is transitively complete.
  std::vector<std::size_t> eidx(edges.size());
  std::iota(eidx.begin(), eidx.end(), std::size_t{0});
  std::stable_sort(eidx.begin(), eidx.end(),
                   [&](std::size_t a, std::size_t b) {
                     return edges[a].succ < edges[b].succ;
                   });

  std::vector<std::uint64_t> bar(barriers.begin(), barriers.end());
  std::sort(bar.begin(), bar.end());
  std::vector<std::uint64_t> cuts(scope_clears.begin(), scope_clears.end());
  std::sort(cuts.begin(), cuts.end());

  std::vector<Depend> deps;
  std::size_t bi = 0, si = 0, ei = 0;
  for (const Run& run : runs) {
    // A barrier cutoff c < run.id fired before this task was submitted.
    while (bi < bar.size() && bar[bi] < run.id) det.on_barrier(bar[bi++]);
    while (si < cuts.size() && cuts[si] < run.id) {
      det.on_scope_clear(cuts[si++]);
    }
    while (ei < eidx.size() && edges[eidx[ei]].succ <= run.id) {
      det.on_edge(edges[eidx[ei]].pred, edges[eidx[ei]].succ);
      ++ei;
    }
    deps.clear();
    for (std::size_t k = 0; k < run.n; ++k) {
      const AccessRecord& rec = accesses[run.begin + k];
      deps.push_back(Depend{reinterpret_cast<const void*>(rec.addr),
                            rec.type, rec.bytes});
    }
    void* rec = det.on_task_discovered(run.id, deps.data(), deps.size(),
                                       accesses[run.begin].label);
    // Sequential replay: "start" right after discovery. Timing cannot
    // change the flagged set — a flag depends only on graph ordering and
    // cut separation, both of which are replay-invariant.
    det.on_task_start(run.id, 0, rec);
    det.on_task_finish(run.id, 0);
  }

  res.flags = det.take_flags();
  res.flags_total = det.flag_total();

  // Escalation: replay the offline verifier over the flagged windows
  // (ids > the smallest window_lo among same-base flags) for the precise
  // report, exactly as the strict runtime does at a taskwait.
  bool any_same_base = false;
  std::uint64_t window_lo = ~std::uint64_t{0};
  for (const RaceFlag& f : res.flags) {
    if (f.kind == RaceFlag::Kind::SameBase) {
      any_same_base = true;
      if (f.window_lo < window_lo) window_lo = f.window_lo;
    } else {
      ++res.confirmed;  // offline is identity-based; confirmed as flagged
    }
  }
  if (any_same_base) {
    res.offline =
        verify_window(accesses, edges, barriers, scope_clears, window_lo);
    if (!res.offline.ok()) {
      for (const RaceFlag& f : res.flags) {
        if (f.kind == RaceFlag::Kind::SameBase) ++res.confirmed;
      }
    }
  }

  for (const RaceFlag& f : res.flags) {
    res.report += f.to_string();
    res.report += "\n";
  }
  if (any_same_base) {
    res.report += res.offline.summary();
  } else if (res.flags.empty()) {
    res.report += "race scan: no flags\n";
  }
  return res;
}

}  // namespace tdg
