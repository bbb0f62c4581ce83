#include "core/env.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string_view>
#include <utility>

namespace tdg {

namespace {

template <class E>
using Words = std::span<const std::pair<std::string_view, E>>;

// Words besides off/0/false (the enums' Off = 0); the first word naming a
// value is its spelling in describe().
constexpr std::pair<std::string_view, EnvSwitch> kSwitch[] = {
    {"on", EnvSwitch::On}, {"1", EnvSwitch::On},
    {"true", EnvSwitch::On}, {"dump", EnvSwitch::Dump}};
constexpr std::pair<std::string_view, TraceMode> kTrace[] = {
    {"perfetto", TraceMode::Perfetto}, {"json", TraceMode::Perfetto},
    {"tsv", TraceMode::Tsv}};
constexpr std::pair<std::string_view, VerifyMode> kVerify[] = {
    {"post", VerifyMode::Post}, {"strict", VerifyMode::Strict}};
constexpr std::pair<std::string_view, RaceMode> kRace[] = {
    {"sample", RaceMode::Sample}, {"strict", RaceMode::Strict}};

void reject(const char* name, std::string_view v, const std::string& hint) {
  std::fprintf(stderr, "tdg: ignoring %s='%.*s' (expected %s)\n", name,
               static_cast<int>(v.size()), v.data(), hint.c_str());
}

/// The value of `name`; empty when it is unset.
std::string_view raw(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

template <class E>
std::optional<E> mode(const char* name, Words<E> words) {
  const std::string_view v = raw(name);
  if (v.empty()) return std::nullopt;
  if (v == "off" || v == "0" || v == "false") return E{};
  std::string hint = "off";
  for (const auto& [word, value] : words) {
    if (v == word) return value;
    hint.append("|").append(word);
  }
  reject(name, v, hint);
  return std::nullopt;
}

std::optional<std::uint64_t> number(const char* name, std::uint64_t min = 0,
                                    std::uint64_t max = UINT64_MAX) {
  const std::string_view v = raw(name);
  if (v.empty()) return std::nullopt;
  const char* last = v.data() + v.size();
  std::uint64_t n = 0;
  const auto [end, ec] = std::from_chars(v.data(), last, n);
  if (ec == std::errc{} && end == last && n >= min && n <= max) return n;
  reject(name, v, "a whole number in [" + std::to_string(min) + ", " +
                      std::to_string(max) + "]");
  return std::nullopt;
}

template <class E>
std::string word(std::optional<E> v, Words<E> words) {
  if (!v) return "unset";
  for (const auto& [w, value] : words) {
    if (value == *v) return std::string(w);
  }
  return "off";
}
std::string word(std::optional<std::uint64_t> v) {
  return v ? std::to_string(*v) : "unset";
}
std::string word(const std::string& v) { return v.empty() ? "unset" : v; }

}  // namespace

std::string race_mode_name(RaceMode m) { return word<RaceMode>(m, kRace); }

EnvConfig read_env() {
  EnvConfig e;
  e.metrics = mode<EnvSwitch>("TDG_METRICS", kSwitch);
  e.trace = mode<TraceMode>("TDG_TRACE", kTrace);
  e.trace_file = raw("TDG_TRACE_FILE");
  e.verify = mode<VerifyMode>("TDG_VERIFY", kVerify);
  e.race = mode<RaceMode>("TDG_RACE", kRace);
  e.race_sample_tasks = number("TDG_RACE_SAMPLE_TASKS");
  e.race_sample_addrs = number("TDG_RACE_SAMPLE_ADDRS");
  e.race_seed = number("TDG_RACE_SEED");
  e.race_lanes = number("TDG_RACE_LANES", 0, UINT32_MAX);
  e.telemetry = mode<EnvSwitch>("TDG_TELEMETRY", kSwitch);
  e.telemetry_file = raw("TDG_TELEMETRY_FILE");
  e.telemetry_period_ms =  // ms -> ns must not overflow
      number("TDG_TELEMETRY_PERIOD_MS", 1, UINT64_MAX / 1'000'000);
  e.chunk_cache_mb = number("TDG_CHUNK_CACHE_MB", 0, SIZE_MAX >> 20);
  e.faults = raw("TDG_FAULTS");
  return e;
}

std::size_t chunk_cache_cap_bytes(std::size_t fallback) {
  const std::optional<std::uint64_t> mb = read_env().chunk_cache_mb;
  return mb ? static_cast<std::size_t>(*mb) << 20 : fallback;
}

std::string EnvConfig::describe() const {
  return "TDG_METRICS=" + word<EnvSwitch>(metrics, kSwitch) +
         " TDG_TRACE=" + word<TraceMode>(trace, kTrace) +
         " TDG_TRACE_FILE=" + word(trace_file) +
         " TDG_VERIFY=" + word<VerifyMode>(verify, kVerify) +
         " TDG_RACE=" + word<RaceMode>(race, kRace) +
         " TDG_RACE_SAMPLE_TASKS=" + word(race_sample_tasks) +
         " TDG_RACE_SAMPLE_ADDRS=" + word(race_sample_addrs) +
         " TDG_RACE_SEED=" + word(race_seed) +
         " TDG_RACE_LANES=" + word(race_lanes) +
         " TDG_TELEMETRY=" + word<EnvSwitch>(telemetry, kSwitch) +
         " TDG_TELEMETRY_FILE=" + word(telemetry_file) +
         " TDG_TELEMETRY_PERIOD_MS=" + word(telemetry_period_ms) +
         " TDG_CHUNK_CACHE_MB=" + word(chunk_cache_mb) +
         " TDG_FAULTS=" + word(faults);
}

}  // namespace tdg
