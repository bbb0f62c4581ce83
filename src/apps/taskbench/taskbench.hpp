// taskbench: a Task-Bench-style parameterized workload matrix (Slaughter et
// al.'s METG methodology, cited by bench_metg). The paper evaluates
// discovery cost on three fixed applications; this generator spans a
// *matrix* of dependence patterns x kernels x grains so the discovery-vs-
// execution crossover can be located per graph shape, not per app.
//
// A workload is a width x steps grid of tasks: every point emits one task
// per step, depending on a pattern-defined subset of the previous step's
// points. Dependences are expressed as OpenMP depend clauses over
// double-buffered per-point slots (step s writes parity s%2, reads parity
// (s-1)%2), so the generator drives BOTH engines through the shared
// Emitter: the real runtime (kernels execute, verifier applies) and the
// SimGraphBuilder/ClusterSim (cost-model attributes only, 8..4096 ranks).
//
// Patterns (our deterministic definitions; shapes follow Task Bench's
// core.cc, not byte-for-byte):
//   trivial         no dependences at all (embarrassingly parallel)
//   no_comm         each point depends on itself only (width chains)
//   stencil_1d      {i-1, i, i+1} clipped to the edge
//   nearest         window [i-radix/2, i+radix/2] clipped
//   spread          radix points strided width/radix apart, shifting by
//                   one point per step (wraps around)
//   random_nearest  seeded random subset of the nearest window + self
//   fft             butterfly: {i, i ^ 2^((s-1) mod ceil_log2 w)}
//   tree            binomial fan-in: points aligned to 2^(d+1) absorb
//                   their 2^d sibling, d = (s-1) mod ceil_log2 w
//   dom             wavefront: {i-1, i} (diagonal dominance sweep)
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "apps/common/emitter.hpp"
#include "core/runtime.hpp"
#include "sim/graph.hpp"

namespace tdg::apps::taskbench {

enum class Pattern : std::uint8_t {
  Trivial,
  NoComm,
  Stencil1D,
  Nearest,
  Spread,
  RandomNearest,
  Fft,
  Tree,
  Dom,
};

/// Kernel families exercising different machine bottlenecks at equal grain.
enum class Kernel : std::uint8_t {
  Compute,     ///< pure busy work, cache-resident
  Memory,      ///< streams `kernel_bytes` per task (cache churn)
  Imbalanced,  ///< per-task grain spread over [1, imbalance] x grain_us
};

struct Config {
  Pattern pattern = Pattern::Stencil1D;
  Kernel kernel = Kernel::Compute;
  int width = 16;      ///< points (tasks per step)
  int steps = 8;       ///< steps per iteration
  int iterations = 1;  ///< outer iterations (persistent replays these)
  int radix = 3;       ///< fan-in of nearest / spread / random_nearest
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;  ///< random_nearest draw
  double grain_us = 0.0;     ///< nominal kernel grain (0 = dataflow only)
  double imbalance = 4.0;    ///< Imbalanced: max/min grain ratio
  std::uint64_t kernel_bytes = 1 << 15;  ///< Memory: per-task working set
  /// Every `collective_period` steps an allreduce gates the next step
  /// (rank-coupling for multi-rank simulation; 0 = none). Real-runtime
  /// emission requires 0 unless the emitter has a communicator.
  int collective_period = 0;
  double sim_scale = 1.0;  ///< multiplies cost hints fed to the simulator
};

const char* pattern_name(Pattern p);
std::optional<Pattern> pattern_from_name(std::string_view name);
/// All nine patterns, in enum order.
std::span<const Pattern> all_patterns();

/// Dependences of task (step, point): the previous-step points it reads.
/// Empty for step 0. Sorted, unique, within [0, cfg.width).
void dependencies(const Config& cfg, int step, int point,
                  std::vector<int>& out);

/// Nominal kernel seconds of task (step, point); the Imbalanced kernel
/// spreads grains deterministically, all others are uniform at grain_us.
double task_seconds(const Config& cfg, int step, int point);

/// Sum of task_seconds over the whole run (all iterations): the ideal-work
/// numerator of the METG efficiency metric.
double total_task_seconds(const Config& cfg);

/// User tasks one iteration emits (collective fan-in included).
std::uint64_t tasks_per_iteration(const Config& cfg);

/// Concrete state for real-runtime runs: double-buffered per-point slots
/// the kernels read/write exactly as the depend clauses declare, plus an
/// execution counter. The checksum is scheduling-independent iff the
/// discovered TDG orders every conflicting access pair — which is what
/// makes taskbench a good TDG_VERIFY=strict subject.
struct Workspace {
  explicit Workspace(const Config& cfg);
  std::vector<double> state;  ///< width * 2 slots (double buffer)
  double coll_in = 0, coll_out = 0;  ///< allreduce staging (distributed)
  std::atomic<std::uint64_t> executed{0};
  double checksum() const;
};

/// Emit the full workload (all iterations, bracketed through the emitter's
/// begin/end_iteration so persistent capture works on both engines). `ws`
/// backs concrete kernels and may be null for model-only emitters.
void emit(Emitter& em, const Config& cfg, Workspace* ws);

/// Model-only convenience: the pattern's SimGraph (persistent = capture
/// one iteration for the simulator to replay).
sim::SimGraph build_sim_graph(const Config& cfg,
                              DiscoveryOptions builder_opts,
                              bool persistent);

struct RunResult {
  std::uint64_t tasks_executed = 0;  ///< concrete kernel executions
  double checksum = 0;               ///< order-independent state digest
};

/// Run the workload concretely on the real runtime (persistent = wrap the
/// iterations in a PersistentRegion). Blocks until drained.
RunResult run_taskbased(Runtime& rt, const Config& cfg, bool persistent);

}  // namespace tdg::apps::taskbench
