// Online sampling determinacy-race detection, checked at discovery time.
//
// The offline verifier (core/verify.hpp) is post-mortem and O(V*E/64) — a
// correctness oracle for CI, not something to run under production traffic.
// This module is the always-on complement: discovery is the one place every
// task's depend clauses flow through (the paper's central observation is
// that this path is cheap enough to live on the critical path), so the
// detector rides it.
//
//   * Per-task vector clocks are maintained at discovery time: every
//     discovered TDG edge joins the predecessor's clock into the successor
//     (lane-compressed: lane = id % W, value = max predecessor id on that
//     lane), and taskwait drains advance a global epoch cutoff. The clock
//     query `ordered(a, b)` is sound-for-flagging: it answers "ordered"
//     only with proof (a joined lane, a barrier cutoff), so a flag is
//     never the product of lane aliasing — collisions can only hide races,
//     never invent them.
//   * An address-range shadow table (interval entries storing the last
//     writer set + reader set, slab-allocated like DependencyMap's
//     AddrEntrys) is checked at task start/finish: check-then-install runs
//     atomically under one lock, so of any unordered conflicting pair the
//     later-starting task is guaranteed to see the earlier one's entry.
//   * Sampling (`TDG_RACE=off|sample|strict`, `TDG_RACE_SAMPLE_TASKS=N`,
//     `TDG_RACE_SAMPLE_ADDRS=M`) bounds the shadow-check cost: clocks are
//     joined for every task (cheap, and required for transitive soundness),
//     but only every Nth task / Mth address pays the shadow-table work.
//   * `strict` escalates: at the next taskwait, flagged windows are
//     replayed through the offline verifier (verify_window) for a precise
//     report, and confirmed violations raise tdg::RaceError.
//
// Threading: on_task_discovered / on_edge / cutoffs are producer-only
// (discovery is sequential per tenant), so the whole clock side — records,
// lane arrays, arenas — is producer-owned and entirely lock-free: the hot
// per-edge join takes no lock and performs no atomics. Workers reach a
// task's clock through the record pointer the producer stashed in the Task
// at discovery (published by the npredecessors acq_rel chain), and a
// task's own clock is final once it is discoverable, so reading it from
// the start hook needs no synchronization either. Only the shadow table,
// the flag buffer and the scope-cut list are shared, guarded by one spin
// lock that sampled task starts take — held for a few map operations,
// never across user code. Per-slot clock caches let the completion path
// skip even that.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "core/depend_types.hpp"
#include "core/env.hpp"
#include "core/profiler.hpp"
#include "core/slab.hpp"
#include "core/verify.hpp"

namespace tdg {

struct RaceOptions {
  RaceMode mode = RaceMode::Off;
  /// Shadow-check every Nth task (1 = all). Clock joins are unaffected.
  std::uint64_t sample_tasks = 1;
  /// Of a checked task's clauses, shadow-check every Mth address (1 = all).
  std::uint64_t sample_addrs = 1;
  /// Sampling hash seed: the sampled task set is a pure function of
  /// (seed, id), so two runs with the same seed sample identically.
  std::uint64_t seed = 0;
  /// Vector-clock width W (lane = task id % W). More lanes = fewer
  /// collisions = fewer missed races; never affects flag soundness.
  unsigned clock_lanes = 64;
  /// Flags materialized per window (totals keep counting past it).
  std::size_t max_flags = 64;
  /// Report flags to stderr the moment they are raised.
  bool live_report = true;
};

/// One happens-before violation flagged by the shadow table.
struct RaceFlag {
  enum class Kind : std::uint8_t {
    /// Conflicting accesses to the same clause base address, unordered by
    /// the discovered graph — a determinacy race the offline verifier can
    /// confirm (discovery matches on base identity).
    SameBase,
    /// Conflicting accesses whose declared byte ranges overlap but whose
    /// base addresses differ: discovery *cannot* order these (it matches
    /// identity only), so if the extent annotations are truthful this is
    /// a race the depend clauses are structurally unable to express.
    RangeOverlap,
  };
  Kind kind = Kind::SameBase;
  std::uint64_t addr = 0;       ///< checking task's clause base
  std::uint32_t bytes = 0;      ///< checking task's clause extent (0 = id)
  std::uint64_t other_addr = 0; ///< conflicting entry's base
  std::uint64_t pred_id = 0;    ///< earlier-installed endpoint
  std::uint64_t succ_id = 0;    ///< checking task
  DependType pred_type = DependType::In;
  DependType succ_type = DependType::In;
  const char* pred_label = "";
  const char* succ_label = "";
  /// Barrier cutoff in force when the flag was raised: the offline
  /// escalation replays the access stream restricted to ids > window_lo.
  std::uint64_t window_lo = 0;

  std::string to_string() const;
};

class RaceDetector {
 public:
  /// `nslots` sizes the per-slot clock caches: 1 + worker count, matching
  /// Runtime::current_slot() (0 = producer, 1+i = pool worker i).
  RaceDetector(const RaceOptions& opts, unsigned nslots);
  ~RaceDetector();
  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  const RaceOptions& options() const { return opts_; }

  // --- discovery side (producer thread only) -----------------------------
  /// Register a submitted task's clause list. Returns the task's opaque
  /// clock record when the task is sampled for shadow checking (null
  /// otherwise) — the caller stamps it into Task::race_clock so unsampled
  /// tasks pay nothing on the execution path and sampled ones hand their
  /// record straight back to on_task_start. The pointer stays valid until
  /// the next barrier. `label` must outlive the current window.
  void* on_task_discovered(std::uint64_t id, const Depend* deps,
                           std::size_t n, const char* label);
  /// Join pred's vector clock into succ's (one discovered TDG edge).
  void on_edge(std::uint64_t pred, std::uint64_t succ);
  /// Taskwait drain: every task <= max_id completed before anything later
  /// is submitted. Flushes the shadow table and all clock records and
  /// advances the epoch cutoff.
  void on_barrier(std::uint64_t max_id);
  /// Dependency-scope clear: no ordering is *required* across the clear,
  /// so the shadow table is flushed and pairs straddling the cut are
  /// exempt — but clocks survive (pre-clear tasks may still be running).
  void on_scope_clear(std::uint64_t max_id);

  // --- execution side (any thread) ---------------------------------------
  /// Shadow-check `id`'s sampled clauses against the table, then install
  /// them — one atomic check+install per task. `rec` is the opaque record
  /// on_task_discovered returned for this id (Task::race_clock); passing
  /// null makes this a no-op, so unsampled tasks never take the lock.
  void on_task_start(std::uint64_t id, unsigned slot, void* rec);
  /// Completion bookkeeping; uses the slot's clock cache, lock-free.
  void on_task_finish(std::uint64_t id, unsigned slot);

  // --- reporting ----------------------------------------------------------
  /// Drain the flag buffer (runtime escalation path; clears it).
  std::vector<RaceFlag> take_flags();
  std::uint64_t flag_total() const {
    return flags_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t check_count() const {
    return checks_.load(std::memory_order_relaxed);
  }
  std::uint64_t tracked_count() const {
    return tracked_.load(std::memory_order_relaxed);
  }
  std::uint64_t finished_tracked_count() const {
    return finished_tracked_.load(std::memory_order_relaxed);
  }

  // --- introspection (tests, watchdog) ------------------------------------
  /// Sampling decision for a task id — pure, so tests can predict the
  /// sampled set and assert determinism.
  bool would_sample_task(std::uint64_t id) const;
  bool would_sample_addr(std::uint64_t addr) const;
  /// Clock query: true only when ordering is *proven* (lane join or
  /// barrier cutoff). Producer-thread / quiescent use only (tests,
  /// offline replay) — it walks the producer-owned record table.
  bool ordered(std::uint64_t pred, std::uint64_t succ) const;
  /// Live shadow-table entries (leak check: zero after a taskwait).
  std::size_t live_shadow_entries() const;
  /// Live clock records (leak check: zero after a taskwait).
  std::size_t live_clock_records() const;
  /// One-line state summary appended to watchdog reports.
  void diagnostic(std::string& out) const;

 private:
  struct ClockRec;
  struct ShadowAccess;
  struct ShadowEntry;
  struct alignas(kCacheLine) SlotCache {
    std::uint64_t id = 0;
    ClockRec* rec = nullptr;
  };

  ClockRec* find_or_create_clock(std::uint64_t id);
  ClockRec* find_clock(std::uint64_t id) const;
  ClockRec* acquire_rec();
  void carve_rec_slab();
  bool ordered_rec(const ClockRec* rec, std::uint64_t pred) const;
  bool cut_separated(std::uint64_t a, std::uint64_t b) const;
  void flush_shadow_locked();
  void reset_clocks();
  void flag(RaceFlag::Kind kind, const ShadowAccess& prior,
            std::uint64_t succ_id, const Depend& clause,
            const char* succ_label, std::uint64_t entry_addr,
            std::vector<std::string>& live_lines);

  const RaceOptions opts_;

  // --- producer-owned clock side (no lock; see the header comment) -------
  /// Clock records come from a producer-private pool of combined
  /// ClockRec + lane-array blocks (one cache-line-aligned slab carve per
  /// kRecsPerSlab records). Barriers retire *every* record at once, so the
  /// pool needs no freelist: "free" is resetting rec_used_ to zero and the
  /// same constructed records are re-issued next window — the hot path
  /// performs no allocation, no deallocation and no atomics.
  static constexpr std::size_t kRecsPerSlab = 256;
  std::size_t rec_stride_ = 0;      ///< sizeof(ClockRec) + W lanes, aligned
  std::vector<char*> rec_slabs_;    ///< slab allocations (ChunkCache-backed)
  std::vector<ClockRec*> rec_pool_; ///< every constructed record, in order
  std::size_t rec_used_ = 0;        ///< pool prefix handed out this window
  /// Clock records, dense by id: clock_recs_[id - clock_base_]. Task ids
  /// ascend within a window, so the hot join path's lookup is one bounds
  /// check + index instead of a hash probe. Barriers clear the table and
  /// rebase past the cutoff. Workers never touch it — they receive their
  /// record pointer through Task::race_clock.
  std::vector<ClockRec*> clock_recs_;
  std::uint64_t clock_base_ = 1;
  /// Barrier epoch: ids <= cutoff_ are proven complete. Written by the
  /// producer at quiescent points, read by workers in ordering queries.
  std::atomic<std::uint64_t> cutoff_{0};
  std::atomic<std::size_t> live_clocks_{0};

  // --- shared shadow side, guarded by lock_ ------------------------------
  /// Guards shadow_, shadow_arena_, flags_, flag_keys_, scope_cuts_ and
  /// max_range_. Cache-line-aligned so worker acquisitions don't bounce
  /// the producer's hot clock fields above.
  alignas(kCacheLine) mutable SpinLock lock_;
  TaskArena shadow_arena_;  ///< ShadowEntry blocks
  std::map<std::uint64_t, ShadowEntry*> shadow_;  ///< keyed by range start
  std::vector<RaceFlag> flags_;
  /// (pred, succ, addr) triples already flagged — dedupes the same pair
  /// flagging once per clause item.
  std::vector<std::uint64_t> flag_keys_;
  std::vector<std::uint64_t> scope_cuts_;  ///< active scope-clear cutoffs
  /// Largest installed extent: bounds the backward scan of the interval
  /// overlap query (entries are keyed by start, so an overlapping entry
  /// can start at most max_range_ bytes before the queried range).
  std::uint64_t max_range_ = 0;

  std::vector<SlotCache> slot_cache_;

  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> flags_total_{0};
  std::atomic<std::uint64_t> tracked_{0};
  std::atomic<std::uint64_t> finished_tracked_{0};
};

// ---------------------------------------------------------------------------
// Offline replay (the `tdg-trace race` subcommand)
// ---------------------------------------------------------------------------

/// Result of replaying an exported trace through the detector.
struct RaceScanResult {
  std::vector<RaceFlag> flags;      ///< online-style flags, replay order
  std::size_t confirmed = 0;        ///< flags the offline verifier confirmed
  std::size_t flags_total = 0;      ///< including past the flag cap
  VerifyReport offline;             ///< escalation report over the windows
  std::string report;               ///< rendered flagged windows
  bool any_confirmed() const {
    // RangeOverlap flags count as confirmed: the offline verifier is
    // identity-based and structurally cannot re-derive them.
    return confirmed > 0;
  }
};

/// Replay an access/edge stream through the online detector in submission
/// order (each task "starts" immediately after discovery — timing cannot
/// change the flagged set, which depends only on graph ordering), then
/// escalate flagged windows through verify_window exactly as the strict
/// runtime would.
RaceScanResult race_scan(std::span<const AccessRecord> accesses,
                         std::span<const TraceEdge> edges,
                         std::span<const std::uint64_t> barriers = {},
                         std::span<const std::uint64_t> scope_clears = {},
                         const RaceOptions& opts = RaceOptions{
                             RaceMode::Strict, 1, 1, 0, 64, 64, false});

}  // namespace tdg
