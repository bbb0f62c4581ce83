// The TDG_* environment surface (core/env.hpp): one table drives every
// variable through its accepted words, the empty value, unknown words and
// malformed numbers; the Runtime-level tests check that valid values
// override Runtime::Config, rejected ones leave it in charge, and that
// TDG_METRICS=dump heads the dump with the effective-config line.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/tdg.hpp"

namespace tdg {
namespace {

constexpr const char* kVars[] = {
    "TDG_METRICS",           "TDG_TRACE",          "TDG_TRACE_FILE",
    "TDG_VERIFY",            "TDG_RACE",           "TDG_RACE_SAMPLE_TASKS",
    "TDG_RACE_SAMPLE_ADDRS", "TDG_RACE_SEED",      "TDG_RACE_LANES",
    "TDG_TELEMETRY",         "TDG_TELEMETRY_FILE", "TDG_TELEMETRY_PERIOD_MS",
    "TDG_CHUNK_CACHE_MB",    "TDG_FAULTS"};

/// Starts every test from an empty TDG_* environment (the ctest
/// TDG_VERIFY/TDG_RACE variants set some) and restores it afterwards.
class Env : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* v : kVars) {
      const char* s = std::getenv(v);
      saved_.emplace_back(s != nullptr ? std::optional<std::string>(s)
                                       : std::nullopt);
      unsetenv(v);
    }
  }
  void TearDown() override {
    for (std::size_t i = 0; i < saved_.size(); ++i) {
      if (saved_[i]) {
        setenv(kVars[i], saved_[i]->c_str(), 1);
      } else {
        unsetenv(kVars[i]);
      }
    }
  }

 private:
  std::vector<std::optional<std::string>> saved_;
};

struct Row {
  const char* var;
  const char* value;
  const char* parsed;    ///< the variable's value in EnvConfig::describe()
  const char* expected;  ///< rejection hint; nullptr = accepted silently
};

constexpr const char* kSwitch = "off|on|1|true|dump";
constexpr const char* kNumber = "a whole number in [0, 18446744073709551615]";
constexpr const char* kLanes = "a whole number in [0, 4294967295]";
constexpr const char* kPeriod = "a whole number in [1, 18446744073709]";
// The cap in bytes (MB << 20) must fit a size_t.
constexpr const char* kCacheMb = "a whole number in [0, 17592186044415]";

const Row kTable[] = {
    {"TDG_METRICS", "", "unset", nullptr},
    {"TDG_METRICS", "off", "off", nullptr},
    {"TDG_METRICS", "0", "off", nullptr},
    {"TDG_METRICS", "false", "off", nullptr},
    {"TDG_METRICS", "on", "on", nullptr},
    {"TDG_METRICS", "1", "on", nullptr},
    {"TDG_METRICS", "true", "on", nullptr},
    {"TDG_METRICS", "dump", "dump", nullptr},
    {"TDG_METRICS", "bogus", "unset", kSwitch},
    {"TDG_METRICS", "ON", "unset", kSwitch},
    {"TDG_TRACE", "", "unset", nullptr},
    {"TDG_TRACE", "off", "off", nullptr},
    {"TDG_TRACE", "0", "off", nullptr},
    {"TDG_TRACE", "false", "off", nullptr},
    {"TDG_TRACE", "perfetto", "perfetto", nullptr},
    {"TDG_TRACE", "json", "perfetto", nullptr},  // json aliases perfetto
    {"TDG_TRACE", "tsv", "tsv", nullptr},
    {"TDG_TRACE", "chrome", "unset", "off|perfetto|json|tsv"},
    {"TDG_TRACE_FILE", "", "unset", nullptr},
    {"TDG_TRACE_FILE", "/tmp/custom.json", "/tmp/custom.json", nullptr},
    {"TDG_VERIFY", "", "unset", nullptr},
    {"TDG_VERIFY", "off", "off", nullptr},
    {"TDG_VERIFY", "0", "off", nullptr},
    {"TDG_VERIFY", "false", "off", nullptr},
    {"TDG_VERIFY", "post", "post", nullptr},
    {"TDG_VERIFY", "strict", "strict", nullptr},
    {"TDG_VERIFY", "bogus", "unset", "off|post|strict"},
    {"TDG_RACE", "", "unset", nullptr},
    {"TDG_RACE", "off", "off", nullptr},
    {"TDG_RACE", "0", "off", nullptr},
    {"TDG_RACE", "false", "off", nullptr},
    {"TDG_RACE", "sample", "sample", nullptr},
    {"TDG_RACE", "strict", "strict", nullptr},
    {"TDG_RACE", "garbage", "unset", "off|sample|strict"},
    {"TDG_RACE_SAMPLE_TASKS", "", "unset", nullptr},
    {"TDG_RACE_SAMPLE_TASKS", "8", "8", nullptr},
    {"TDG_RACE_SAMPLE_TASKS", "0", "0", nullptr},
    {"TDG_RACE_SAMPLE_TASKS", "-1", "unset", kNumber},
    {"TDG_RACE_SAMPLE_TASKS", "12x", "unset", kNumber},
    {"TDG_RACE_SAMPLE_TASKS", "18446744073709551616", "unset", kNumber},
    {"TDG_RACE_SAMPLE_ADDRS", "", "unset", nullptr},
    {"TDG_RACE_SAMPLE_ADDRS", "4", "4", nullptr},
    {"TDG_RACE_SAMPLE_ADDRS", "-1", "unset", kNumber},
    {"TDG_RACE_SAMPLE_ADDRS", "12x", "unset", kNumber},
    {"TDG_RACE_SEED", "", "unset", nullptr},
    {"TDG_RACE_SEED", "7", "7", nullptr},
    {"TDG_RACE_SEED", "18446744073709551615", "18446744073709551615",
     nullptr},
    {"TDG_RACE_SEED", "-1", "unset", kNumber},
    {"TDG_RACE_SEED", "12x", "unset", kNumber},
    {"TDG_RACE_LANES", "", "unset", nullptr},
    {"TDG_RACE_LANES", "32", "32", nullptr},
    {"TDG_RACE_LANES", "-1", "unset", kLanes},
    {"TDG_RACE_LANES", "12x", "unset", kLanes},
    {"TDG_RACE_LANES", "4294967296", "unset", kLanes},
    {"TDG_TELEMETRY", "", "unset", nullptr},
    {"TDG_TELEMETRY", "off", "off", nullptr},
    {"TDG_TELEMETRY", "0", "off", nullptr},
    {"TDG_TELEMETRY", "false", "off", nullptr},
    {"TDG_TELEMETRY", "on", "on", nullptr},
    {"TDG_TELEMETRY", "1", "on", nullptr},
    {"TDG_TELEMETRY", "true", "on", nullptr},
    {"TDG_TELEMETRY", "dump", "dump", nullptr},
    {"TDG_TELEMETRY", "bogus", "unset", kSwitch},
    {"TDG_TELEMETRY_FILE", "", "unset", nullptr},
    {"TDG_TELEMETRY_FILE", "t.json", "t.json", nullptr},
    {"TDG_TELEMETRY_PERIOD_MS", "", "unset", nullptr},
    {"TDG_TELEMETRY_PERIOD_MS", "1", "1", nullptr},
    {"TDG_TELEMETRY_PERIOD_MS", "18446744073709", "18446744073709", nullptr},
    {"TDG_TELEMETRY_PERIOD_MS", "0", "unset", kPeriod},
    {"TDG_TELEMETRY_PERIOD_MS", "-1", "unset", kPeriod},
    {"TDG_TELEMETRY_PERIOD_MS", "12x", "unset", kPeriod},
    {"TDG_TELEMETRY_PERIOD_MS", "18446744073710", "unset", kPeriod},
    {"TDG_CHUNK_CACHE_MB", "", "unset", nullptr},
    {"TDG_CHUNK_CACHE_MB", "0", "0", nullptr},  // 0 disables the cache
    {"TDG_CHUNK_CACHE_MB", "16", "16", nullptr},
    {"TDG_CHUNK_CACHE_MB", "-1", "unset", kCacheMb},
    {"TDG_CHUNK_CACHE_MB", "12x", "unset", kCacheMb},
    {"TDG_CHUNK_CACHE_MB", "17592186044416", "unset", kCacheMb},
    {"TDG_FAULTS", "", "unset", nullptr},
    // Kept raw: Universe::run parses (and reports) the fault spec itself.
    {"TDG_FAULTS", "seed=7,loss=0.2", "seed=7,loss=0.2", nullptr},
};

TEST_F(Env, EveryVariableEveryValue) {
  for (const Row& row : kTable) {
    SCOPED_TRACE(std::string(row.var) + "='" + row.value + "'");
    setenv(row.var, row.value, 1);
    testing::internal::CaptureStderr();
    const std::string line = " " + read_env().describe() + " ";
    const std::string err = testing::internal::GetCapturedStderr();
    unsetenv(row.var);
    EXPECT_NE(line.find(std::string(" ") + row.var + "=" + row.parsed + " "),
              std::string::npos)
        << line;
    if (row.expected == nullptr) {
      EXPECT_EQ(err, "");
    } else {
      EXPECT_EQ(err, std::string("tdg: ignoring ") + row.var + "='" +
                         row.value + "' (expected " + row.expected + ")\n");
    }
  }
  // Every other variable stayed unset, in the documented order.
  EXPECT_EQ(read_env().describe(),
            "TDG_METRICS=unset TDG_TRACE=unset TDG_TRACE_FILE=unset "
            "TDG_VERIFY=unset TDG_RACE=unset TDG_RACE_SAMPLE_TASKS=unset "
            "TDG_RACE_SAMPLE_ADDRS=unset TDG_RACE_SEED=unset "
            "TDG_RACE_LANES=unset TDG_TELEMETRY=unset "
            "TDG_TELEMETRY_FILE=unset TDG_TELEMETRY_PERIOD_MS=unset "
            "TDG_CHUNK_CACHE_MB=unset TDG_FAULTS=unset");
}

TEST_F(Env, TypedFieldsFollowTheWords) {
  EnvConfig env = read_env();
  EXPECT_FALSE(env.metrics.has_value());
  EXPECT_FALSE(env.trace.has_value());
  EXPECT_FALSE(env.tracing());
  EXPECT_FALSE(env.verify.has_value());
  EXPECT_FALSE(env.race.has_value());

  setenv("TDG_METRICS", "dump", 1);
  setenv("TDG_TRACE", "json", 1);
  setenv("TDG_TRACE_FILE", "/tmp/custom.json", 1);
  setenv("TDG_VERIFY", "strict", 1);
  setenv("TDG_RACE", "sample", 1);
  setenv("TDG_TELEMETRY", "on", 1);
  setenv("TDG_CHUNK_CACHE_MB", "16", 1);
  setenv("TDG_FAULTS", "kill=1@6", 1);
  env = read_env();
  EXPECT_EQ(env.metrics, EnvSwitch::Dump);
  EXPECT_TRUE(env.metrics_dump());
  EXPECT_EQ(env.trace, TraceMode::Perfetto);
  EXPECT_TRUE(env.tracing());
  EXPECT_EQ(env.trace_file, "/tmp/custom.json");
  EXPECT_EQ(env.verify, VerifyMode::Strict);
  EXPECT_EQ(env.race, RaceMode::Sample);
  EXPECT_EQ(env.telemetry, EnvSwitch::On);
  EXPECT_EQ(env.chunk_cache_mb, 16u);
  EXPECT_EQ(env.faults, "kill=1@6");

  setenv("TDG_TRACE", "tsv", 1);
  setenv("TDG_TRACE_FILE", "", 1);  // empty = auto-named file
  env = read_env();
  EXPECT_EQ(env.trace, TraceMode::Tsv);
  EXPECT_EQ(env.trace_file, "");

  setenv("TDG_TRACE", "off", 1);
  env = read_env();
  EXPECT_EQ(env.trace, TraceMode::Off);
  EXPECT_FALSE(env.tracing());

  EXPECT_EQ(race_mode_name(RaceMode::Off), "off");
  EXPECT_EQ(race_mode_name(RaceMode::Sample), "sample");
  EXPECT_EQ(race_mode_name(RaceMode::Strict), "strict");
}

Runtime::Config one_thread() {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  return cfg;
}

TEST_F(Env, RaceModeDefaultsAndOverridesReplaceConfig) {
  {
    Runtime rt(one_thread());  // unset: the Config default (off) holds
    EXPECT_EQ(rt.config().race.mode, RaceMode::Off);
    EXPECT_EQ(rt.race_detector(), nullptr);
  }
  setenv("TDG_RACE", "off", 1);
  {
    Runtime::Config cfg = one_thread();
    cfg.race.mode = RaceMode::Sample;
    Runtime rt(cfg);  // a valid `off` overrides a programmatic mode
    EXPECT_EQ(rt.config().race.mode, RaceMode::Off);
  }
  setenv("TDG_RACE", "garbage", 1);
  {
    Runtime rt(one_thread());  // rejected: the Config default (off) holds
    EXPECT_EQ(rt.config().race.mode, RaceMode::Off);
  }
  setenv("TDG_RACE", "sample", 1);
  {
    Runtime rt(one_thread());
    EXPECT_EQ(rt.config().race.mode, RaceMode::Sample);
    EXPECT_EQ(rt.config().race.sample_tasks, 16u);  // every 16th task
  }
  setenv("TDG_RACE", "strict", 1);
  {
    Runtime rt(one_thread());
    EXPECT_EQ(rt.config().race.mode, RaceMode::Strict);
    EXPECT_EQ(rt.config().race.sample_tasks, 1u);  // check everything
    EXPECT_EQ(rt.config().race.sample_addrs, 1u);
    EXPECT_TRUE(rt.config().trace);  // strict escalation needs capture
  }
  setenv("TDG_RACE_SAMPLE_TASKS", "8", 1);
  setenv("TDG_RACE_SAMPLE_ADDRS", "4", 1);
  setenv("TDG_RACE_SEED", "7", 1);
  setenv("TDG_RACE_LANES", "32", 1);
  {
    Runtime rt(one_thread());
    EXPECT_EQ(rt.config().race.sample_tasks, 8u);
    EXPECT_EQ(rt.config().race.sample_addrs, 4u);
    EXPECT_EQ(rt.config().race.seed, 7u);
    EXPECT_EQ(rt.config().race.clock_lanes, 32u);
  }
}

TEST_F(Env, VerifyAndTraceOverrideConfig) {
  setenv("TDG_VERIFY", "post", 1);
  {
    Runtime rt(one_thread());
    EXPECT_EQ(rt.config().verify, VerifyMode::Post);
    EXPECT_TRUE(rt.config().trace);  // verification needs the capture
  }
  setenv("TDG_VERIFY", "off", 1);
  {
    Runtime::Config cfg = one_thread();
    cfg.verify = VerifyMode::Strict;
    Runtime rt(cfg);
    EXPECT_EQ(rt.config().verify, VerifyMode::Off);
  }
  setenv("TDG_VERIFY", "bogus", 1);
  {
    Runtime::Config cfg = one_thread();
    cfg.verify = VerifyMode::Strict;
    Runtime rt(cfg);
    EXPECT_EQ(rt.config().verify, VerifyMode::Strict);
  }
  unsetenv("TDG_VERIFY");
  setenv("TDG_TRACE", "tsv", 1);
  {
    Runtime rt(one_thread());
    EXPECT_TRUE(rt.config().trace);
  }
  setenv("TDG_TRACE", "off", 1);  // off never disables a Config trace
  {
    Runtime::Config cfg = one_thread();
    cfg.trace = true;
    Runtime rt(cfg);
    EXPECT_TRUE(rt.config().trace);
  }
}

// The environment is read per construction, not cached per process.
TEST_F(Env, ReadAgainForEachRuntime) {
  setenv("TDG_METRICS", "off", 1);
  {
    Runtime rt(one_thread());
    EXPECT_FALSE(rt.metrics().enabled());
  }
  unsetenv("TDG_METRICS");
  {
    Runtime rt(one_thread());
    EXPECT_TRUE(rt.metrics().enabled());
  }
}

// --- parser faults the shared grammar removes --------------------------------

TEST_F(Env, UnknownMetricsWordLeavesConfigInCharge) {
  setenv("TDG_METRICS", "dupm", 1);
  Runtime::Config cfg = one_thread();
  cfg.metrics = false;
  Runtime rt(cfg);
  EXPECT_FALSE(rt.metrics().enabled());
}

TEST_F(Env, UnknownRaceWordKeepsConfiguredRaceOptions) {
  setenv("TDG_RACE", "sampel", 1);
  Runtime::Config cfg = one_thread();
  cfg.race.mode = RaceMode::Sample;
  cfg.race.sample_tasks = 3;
  Runtime rt(cfg);
  EXPECT_EQ(rt.config().race.mode, RaceMode::Sample);
  EXPECT_EQ(rt.config().race.sample_tasks, 3u);
  EXPECT_NE(rt.race_detector(), nullptr);
}

TEST_F(Env, NegativeSampleRateKeepsTheModeDefault) {
  setenv("TDG_RACE", "sample", 1);
  setenv("TDG_RACE_SAMPLE_TASKS", "-1", 1);  // not 2^64-1: that samples none
  Runtime rt(one_thread());
  EXPECT_EQ(rt.config().race.mode, RaceMode::Sample);
  EXPECT_EQ(rt.config().race.sample_tasks, 16u);
}

// --- effective-config line ---------------------------------------------------

TEST_F(Env, MetricsDumpStartsWithTheEffectiveConfig) {
  setenv("TDG_METRICS", "dump", 1);
  setenv("TDG_TRACE", "off", 1);
  testing::internal::CaptureStderr();
  {
    Runtime rt(one_thread());
    int x = 0;
    rt.submit([&x] { x = 1; }, {Depend::out(&x)});
    rt.taskwait();
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("tdg: env TDG_METRICS=dump TDG_TRACE=off "
                      "TDG_TRACE_FILE=unset TDG_VERIFY=unset ",
                      0),
            0u)
      << err;
  const std::size_t eol = err.find('\n');
  ASSERT_NE(eol, std::string::npos);
  EXPECT_EQ(err.compare(eol + 1, 26, "tdg: metrics at teardown:\n"), 0)
      << err;

  unsetenv("TDG_METRICS");
  testing::internal::CaptureStderr();
  {
    Runtime rt(one_thread());
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace tdg
