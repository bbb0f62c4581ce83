// The TDG_* environment surface. read_env() parses every variable with one
// grammar: unset or empty = unset, `off`/`0`/`false` = off, the words below
// select a mode, numbers are whole unsigned decimals, and anything else
// prints `tdg: ignoring TDG_X='v' (expected …)` and counts as unset. It runs
// at construction, never per task, and caches nothing. Standard headers
// only, so slab.hpp can include it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace tdg {

/// `TDG_TRACE` teardown export format.
enum class TraceMode : std::uint8_t { Off, Tsv, Perfetto };

/// `TDG_VERIFY` modes (see Runtime::Config::verify).
enum class VerifyMode : std::uint8_t { Off, Post, Strict };

/// `TDG_RACE` modes (see Runtime::Config::race), spelled by race_mode_name.
enum class RaceMode : std::uint8_t { Off, Sample, Strict };
std::string race_mode_name(RaceMode mode);

/// `TDG_METRICS` / `TDG_TELEMETRY`: off, on, or on plus a teardown dump.
enum class EnvSwitch : std::uint8_t { Off, On, Dump };

/// Every TDG_* value; empty when its variable is unset, empty or rejected.
struct EnvConfig {
  std::optional<EnvSwitch> metrics;  ///< TDG_METRICS off|on|1|true|dump
  std::optional<TraceMode> trace;    ///< TDG_TRACE off|perfetto|json|tsv
  std::string trace_file;            ///< TDG_TRACE_FILE
  std::optional<VerifyMode> verify;  ///< TDG_VERIFY off|post|strict
  std::optional<RaceMode> race;      ///< TDG_RACE off|sample|strict
  std::optional<std::uint64_t> race_sample_tasks;  ///< TDG_RACE_SAMPLE_TASKS
  std::optional<std::uint64_t> race_sample_addrs;  ///< TDG_RACE_SAMPLE_ADDRS
  std::optional<std::uint64_t> race_seed;          ///< TDG_RACE_SEED
  std::optional<std::uint64_t> race_lanes;         ///< TDG_RACE_LANES
  std::optional<EnvSwitch> telemetry;  ///< TDG_TELEMETRY off|on|1|true|dump
  std::string telemetry_file;          ///< TDG_TELEMETRY_FILE
  std::optional<std::uint64_t> telemetry_period_ms;  ///< in ms
  std::optional<std::uint64_t> chunk_cache_mb;       ///< TDG_CHUNK_CACHE_MB
  std::string faults;  ///< TDG_FAULTS, raw (see mpi::parse_fault_spec)

  bool metrics_dump() const { return metrics == EnvSwitch::Dump; }
  bool tracing() const { return trace && *trace != TraceMode::Off; }
  /// `TDG_METRICS=dump TDG_TRACE=unset …`: each variable's parsed value.
  std::string describe() const;
};

EnvConfig read_env();
/// TDG_CHUNK_CACHE_MB in bytes, or `fallback` when unset (out of line, so
/// the header-only chunk cache stays small).
std::size_t chunk_cache_cap_bytes(std::size_t fallback);

}  // namespace tdg
