// Trace export/import for the profiler's TaskRecord stream.
//
// The primary format is the Chrome/Perfetto trace-event JSON format
// (https://ui.perfetto.dev loads it directly): one track per thread, one
// "X" (complete) slice per executed task with id/iteration/latency args,
// flow arrows ("s"/"f" pairs) along discovered dependence edges, and a
// counter track of the number of concurrently-running tasks. A lossless
// extended TSV is also provided for spreadsheet-style consumers, superset
// of the Fig. 8 Gantt TSV.
//
// Both formats can be parsed back (tests round-trip them; the tdg-trace
// CLI and the post-mortem analysis in core/analysis.hpp consume the
// result), so every emitted trace is also an analysis input.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/profiler.hpp"

namespace tdg {

struct PerfettoOptions {
  /// Base process-id track. Each task slice lands on pid + record.rank and
  /// each comm slice on its recording rank, so a single-rank runtime sets
  /// pid to its rank (records carry rank 0) while the merged multi-rank
  /// timeline keeps pid 0 and per-record ranks.
  int pid = 0;
  const char* process_name = "tdg";
  bool flows = true;          ///< emit flow arrows along dependence edges
  bool counter_track = true;  ///< emit the running-task counter track
};

/// Write records (+ optional dependence edges) as trace-event JSON.
/// Timestamps are normalized to the earliest record and expressed in
/// microseconds, as the format requires.
///
/// The verification streams ride along when provided: each task's depend
/// clause is encoded as an `"accesses"` arg on its first slice
/// ("in:<hex>;out:<hex>;..."), and taskwait barriers / dependency-scope
/// clears become instant events carrying the cutoff task id. A trace
/// written with them can be re-verified offline (`tdg-trace verify`).
///
/// Comm records become "X" slices (cat "comm") on a dedicated per-rank
/// track; matched send/recv pairs — same (src, dst, tag, seq) — add
/// "s"/"f" flow pairs (cat "msg"), the arrows between rank tracks in the
/// Perfetto UI.
void write_perfetto(std::ostream& os, std::span<const TaskRecord> records,
                    std::span<const TraceEdge> edges = {},
                    std::span<const AccessRecord> accesses = {},
                    std::span<const std::uint64_t> barriers = {},
                    std::span<const std::uint64_t> scope_clears = {},
                    std::span<const CommRecord> comms = {},
                    const PerfettoOptions& opts = {});

/// Write the extended TSV: one header line, one row per record with
/// task_id/thread/iteration/label, all four absolute ns timestamps, the
/// task's encoded depend clause in an `accesses` column, and the record's
/// rank. Barrier / scope-clear cutoffs are `#barrier <id>` / `#scope <id>`
/// comment lines (tab-separated) after the header, discovered edges are
/// `#edge <pred> <succ>` lines, and comm records are `#comm` lines with all
/// fields in absolute ns (lossless round-trip).
void write_trace_tsv(std::ostream& os, std::span<const TaskRecord> records,
                     std::span<const TraceEdge> edges = {},
                     std::span<const AccessRecord> accesses = {},
                     std::span<const std::uint64_t> barriers = {},
                     std::span<const std::uint64_t> scope_clears = {},
                     std::span<const CommRecord> comms = {});

/// A parsed trace. Owns the label storage the records point into (the
/// pool is a deque so grown entries never relocate).
struct ParsedTrace {
  std::vector<TaskRecord> records;  ///< sorted by t_start
  std::vector<TraceEdge> edges;
  /// Depend-clause stream in submission order (task_id ascending, clause
  /// order preserved within a task); labels point into label_pool.
  std::vector<AccessRecord> accesses;
  std::vector<std::uint64_t> barriers;      ///< taskwait cutoffs, sorted
  std::vector<std::uint64_t> scope_clears;  ///< scope-clear cutoffs, sorted
  std::vector<CommRecord> comms;            ///< sorted by t_post
  std::deque<std::string> label_pool;
};

/// Parse trace-event JSON produced by write_perfetto (accepts both the
/// {"traceEvents": [...]} object form and a bare event array). Throws
/// tdg::UsageError on malformed input — the round-trip tests use this as
/// the well-formedness check.
ParsedTrace parse_perfetto(std::istream& is);

/// Parse the extended TSV of write_trace_tsv.
ParsedTrace parse_trace_tsv(std::istream& is);

/// Parse either format, sniffing the first non-whitespace byte ('{' or
/// '[' selects JSON).
ParsedTrace parse_trace(std::istream& is);

}  // namespace tdg
