// Unified metrics registry for the tdg runtime (counters, gauges, log2
// histograms), replacing the scattered ad-hoc counters with one namespace
// that discovery, scheduling, persistent replay and the MPI layer all
// write into.
//
// Design: writes are lock-free relaxed atomic adds into per-thread shards
// (cache-line aligned, one slot array per shard), so the hot path costs a
// branch on the enabled flag plus one uncontended fetch_add. One extra
// shard has a single writer (the runtime's producer thread, which makes
// most of the writes during discovery): its writes are a relaxed load and
// a relaxed store, with no lock-prefixed RMW at all. Slots are
// pre-allocated at construction (kMaxSlots per shard) and never
// reallocated, so metrics may be registered while workers are running —
// registration only bumps a cursor under a spin lock. Reads (snapshot)
// sum across shards; they are racy-by-design against concurrent writers,
// which is fine for monitoring.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/common.hpp"

namespace tdg {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// Point-in-time copy of every registered metric, summed across shards.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t value = 0;  ///< counter total / histogram sample count
    std::int64_t level = 0;   ///< gauge level (delta: change between snaps)
    std::uint64_t sum = 0;    ///< histogram: sum of observed values
    /// Histogram: buckets[i] counts samples whose bit width is i, i.e.
    /// bucket 0 holds zeros and bucket i>=1 holds values in [2^(i-1), 2^i).
    /// The last bucket absorbs everything wider.
    std::vector<std::uint64_t> buckets;

    double mean() const {
      return value > 0 ? static_cast<double>(sum) / static_cast<double>(value)
                       : 0.0;
    }

    /// Approximate percentile (p in (0, 1]) from the log2 buckets: walk
    /// the cumulative counts to the target rank and interpolate linearly
    /// inside the bucket's [2^(i-1), 2^i) value range. Exact for zeros
    /// (bucket 0); within a factor of 2 otherwise, which is what a
    /// log-scale latency histogram can promise.
    double percentile(double p) const;
  };

  std::uint64_t taken_ns = 0;
  std::vector<Entry> entries;

  const Entry* find(std::string_view name) const;
  /// Counter/histogram total by name; 0 when absent.
  std::uint64_t value(std::string_view name) const;

  /// Per-metric difference `newer - older`, matched by name. Metrics
  /// absent from `older` keep their `newer` values; gauges report the
  /// level change.
  static MetricsSnapshot delta(const MetricsSnapshot& newer,
                               const MetricsSnapshot& older);

  /// Element-wise sum of two snapshots, matched by name (union of both
  /// entry sets). Used by a shared WorkerPool to fold detaching tenants'
  /// final counters into the aggregate its teardown dump prints, keeping
  /// untagged totals available next to the per-tenant tagged sections.
  static MetricsSnapshot merge(const MetricsSnapshot& a,
                               const MetricsSnapshot& b);

  /// Human-readable table. With `nonzero_only`, rows whose value, level
  /// and histogram count are all zero are skipped (watchdog reports).
  /// A non-negative `tenant` appends a `{tenant=<id>}` dimension to every
  /// metric name (shared-pool per-tenant dumps); -1 keeps the plain names.
  void write_text(std::ostream& os, bool nonzero_only = false,
                  int tenant = -1) const;
  /// JSON object: {"taken_ns": ..., "metrics": {"name": {...}, ...}}.
  /// A non-negative `tenant` adds a top-level "tenant" field.
  void write_json(std::ostream& os, int tenant = -1) const;
};

class MetricsRegistry {
 public:
  /// log2 buckets per histogram (bit widths 0..kHistBuckets-1, clamped).
  static constexpr std::uint32_t kHistBuckets = 32;
  /// Slot budget per shard; a histogram consumes kHistBuckets + 1 slots.
  static constexpr std::uint32_t kMaxSlots = 256;

  /// Opaque handle to a registered metric. Value-type, cheap to copy; a
  /// default-constructed id is invalid and all operations on it no-op.
  struct Id {
    std::uint32_t slot = UINT32_MAX;
    bool valid() const { return slot != UINT32_MAX; }
  };

  explicit MetricsRegistry(unsigned nshards, bool enabled = true);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up) a metric. Re-registering an existing name with
  /// the same kind returns the same id, so independently-constructed
  /// components (e.g. successive RequestPollers) share one counter.
  Id counter(std::string_view name);
  Id gauge(std::string_view name);
  Id histogram(std::string_view name);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Increment a counter. `shard` is a routing hint (the caller's thread
  /// slot); out-of-range hints are folded into the shared shards.
  void add(Id id, std::uint64_t v = 1, unsigned shard = 0) {
    if (!enabled() || !id.valid()) return;
    slot(shard, id.slot).fetch_add(v, std::memory_order_relaxed);
  }

  /// Move a gauge up or down (levels are summed across shards, so
  /// matched +1/-1 pairs from different threads still cancel).
  void gauge_add(Id id, std::int64_t v, unsigned shard = 0) {
    if (!enabled() || !id.valid()) return;
    slot(shard, id.slot)
        .fetch_add(static_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }

  /// Record one histogram sample.
  void observe(Id id, std::uint64_t value, unsigned shard = 0) {
    if (!enabled() || !id.valid()) return;
    slot(shard, id.slot + bucket_of(value))
        .fetch_add(1, std::memory_order_relaxed);
    slot(shard, id.slot + kHistBuckets)
        .fetch_add(value, std::memory_order_relaxed);
  }

  /// add / gauge_add / observe into the single-writer shard. The caller
  /// guarantees that no two threads write the same metric here without a
  /// happens-before between them (the runtime routes only its producer
  /// thread here); concurrent readers see each slot's last stored value.
  void add_owned(Id id, std::uint64_t v = 1) {
    if (!enabled() || !id.valid()) return;
    bump_owned(id.slot, v);
  }
  void gauge_add_owned(Id id, std::int64_t v) {
    if (!enabled() || !id.valid()) return;
    bump_owned(id.slot, static_cast<std::uint64_t>(v));
  }
  void observe_owned(Id id, std::uint64_t value) {
    if (!enabled() || !id.valid()) return;
    bump_owned(id.slot + bucket_of(value), 1);
    bump_owned(id.slot + kHistBuckets, value);
  }

  /// Bucket index for a sample: its bit width, clamped to the last bucket
  /// (bucket 0 = zeros, bucket i = [2^(i-1), 2^i)).
  static std::uint32_t bucket_of(std::uint64_t value) {
    const auto w = static_cast<std::uint32_t>(std::bit_width(value));
    return w < kHistBuckets ? w : kHistBuckets - 1;
  }

  /// Sum one registered counter/gauge slot across shards — the telemetry
  /// sampler's cheap single-metric read (no snapshot allocation).
  std::uint64_t read(Id id) const {
    return id.valid() ? sum_slot(id.slot) : 0;
  }

  MetricsSnapshot snapshot() const;

  /// Shared shards (routing-hint targets); the owned shard comes on top.
  unsigned num_shards() const { return nshared_; }
  std::size_t num_metrics() const;
  std::size_t slots_used() const;

 private:
  friend struct MetricsRegistryTestPeer;  // tests read the owned shard alone

  struct alignas(kCacheLine) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  };
  struct Info {
    std::string name;
    MetricKind kind;
    std::uint32_t slot;
    std::uint32_t nslots;
  };

  Id register_metric(std::string_view name, MetricKind kind,
                     std::uint32_t nslots);

  std::atomic<std::uint64_t>& slot(unsigned shard, std::uint32_t s) {
    return shards_[shard < nshared_ ? shard : shard % nshared_].slots[s];
  }
  void bump_owned(std::uint32_t s, std::uint64_t v) {
    std::atomic<std::uint64_t>& a = shards_[nshared_].slots[s];
    a.store(a.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  }
  /// One slot summed over every shard, the owned one included.
  std::uint64_t sum_slot(std::uint32_t s) const {
    std::uint64_t total = 0;
    for (const Shard& sh : shards_) {
      total += sh.slots[s].load(std::memory_order_relaxed);
    }
    return total;
  }

  std::atomic<bool> enabled_;
  unsigned nshared_;  ///< shared shards; shards_[nshared_] is the owned one
  std::vector<Shard> shards_;
  mutable SpinLock reg_lock_;  // guards infos_ / next_slot_
  std::vector<Info> infos_;
  std::uint32_t next_slot_ = 0;
};

}  // namespace tdg
