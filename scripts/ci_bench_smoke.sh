#!/usr/bin/env bash
# Scheduler and discovery throughput smoke test.
#
# Two single-thread gates, each compared against the baseline recorded in
# scripts/bench_baseline.txt and failing below MIN_FRACTION (default 0.80):
#   * bench_micro_runtime's BM_SpawnExecuteThroughput/1 — the pure
#     spawn+execute path (deque + slab allocator), no steal noise.
#   * bench_micro_discovery's BM_DiscoveryMixed/10000/1 — the dependency-
#     discovery path (address table + history lists) at the 10k-address mix.
# Each application benchmark workload (appbench/run.py --trace 1) must also
# keep its address-table probe chains short: depend.probe_len_p95 <= 16.
# The traced lulesh run must keep depend.edges_per_task <= 6 (a count, not
# a timing: an inoutset generation left open makes it grow with run length).
#
# Baseline file format: line 1 is the bare spawn items/s (kept first for
# compatibility), subsequent lines are "<name> <items/s>". A missing line
# is recorded from the current measurement and the check passes — commit
# the file to pin it. Re-record deliberately after a known perf change:
#   rm scripts/bench_baseline.txt && scripts/ci_bench_smoke.sh
#
# Besides the gate, each run appends one record per benchmark to the
# trajectory files BENCH_runtime.json and BENCH_discovery.json (JSON
# arrays of {name, median_items_per_second, threads, git_sha, date}),
# and runs the strict-verified taskbench METG smoke sweep, bulk-recording
# its pattern x engine x config frontier into BENCH_metg.json
# ({name, value, unit, threads, git_sha, date}), so successive CI runs
# accumulate a perf history alongside pass/fail. The online race
# detector's sampled-vs-off overhead pairs are gated (RACE_MIN_RATIO
# default 0.95 for spawn+execute, RACE_CHAIN_MIN_RATIO default 0.80 for
# the pure-discovery chain) and recorded into BENCH_race.json the same
# way.
# Appending goes through scripts/record_trajectory.py (validation,
# dedupe, cap).
# BENCH_OUT_DIR (default: repo root) selects where they are written.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${BENCH_BUILD_DIR:-build}
baseline_file=scripts/bench_baseline.txt
min_fraction=${MIN_FRACTION:-0.80}
out_dir=${BENCH_OUT_DIR:-.}

# measure <binary> <filter>: print the median items_per_second over the
# benchmark's repetitions (the aggregate google-benchmark reports).
measure() {
  "$build_dir"/bench/"$1" \
      --benchmark_filter="$2" \
      --benchmark_min_time=0.2 \
      --benchmark_repetitions=3 \
      --benchmark_format=json 2>/dev/null | python3 -c '
import json, sys
doc = json.load(sys.stdin)
med = [b for b in doc["benchmarks"]
       if b.get("run_type") == "aggregate" and b.get("aggregate_name") == "median"]
if med:
    print(med[0]["items_per_second"])
else:
    bms = [b for b in doc["benchmarks"]
           if b.get("run_type", "iteration") == "iteration"]
    assert bms, "benchmark produced no measurements"
    vals = sorted(b["items_per_second"] for b in bms)
    print(vals[len(vals) // 2])
'
}

# record_trajectory <file> <bench-name> <threads> <median>: append one
# validated record to the JSON-array trajectory file (created on first
# use). See scripts/record_trajectory.py for the validation, dedupe and
# cap semantics.
record_trajectory() {
  python3 scripts/record_trajectory.py "$out_dir/$1" "$2" "$3" "$4"
}

# gate <name> <current>: compare against the named baseline line (the
# unnamed first line for "spawn"), recording it if absent.
gate() {
  local name=$1 current=$2 baseline
  if [ "$name" = spawn ]; then
    baseline=$(head -n1 "$baseline_file" 2>/dev/null || true)
  else
    baseline=$(awk -v n="$name" '$1 == n { print $2 }' "$baseline_file" \
                 2>/dev/null || true)
  fi
  if [ -z "$baseline" ]; then
    if [ "$name" = spawn ]; then
      printf '%s\n' "$current" >> "$baseline_file"
    else
      printf '%s %s\n' "$name" "$current" >> "$baseline_file"
    fi
    echo "=== [bench-smoke] no $name baseline; recorded $current items/s ==="
    return 0
  fi
  python3 - "$name" "$current" "$baseline" "$min_fraction" <<'EOF'
import sys
name = sys.argv[1]
current, baseline, min_fraction = map(float, sys.argv[2:5])
ratio = current / baseline
print(f"=== [bench-smoke] {name} throughput {current:.3e} items/s "
      f"(baseline {baseline:.3e}, ratio {ratio:.2f}, floor {min_fraction}) ===")
if ratio < min_fraction:
    sys.exit(f"bench-smoke FAILED: {name} throughput regressed to "
             f"{ratio:.0%} of baseline (floor {min_fraction:.0%})")
EOF
}

for target in bench_micro_runtime bench_micro_discovery bench_metg \
              bench_multitenant; do
  if [ ! -x "$build_dir"/bench/"$target" ]; then
    echo "=== [bench-smoke] building $build_dir/$target ==="
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 2)" \
          --target "$target"
  fi
done

echo "=== [bench-smoke] running BM_SpawnExecuteThroughput/1 ==="
spawn=$(measure bench_micro_runtime 'BM_SpawnExecuteThroughput/1$')
echo "=== [bench-smoke] running BM_DiscoveryMixed/10000/1 ==="
discovery=$(measure bench_micro_discovery 'BM_DiscoveryMixed/10000/1$')

record_trajectory BENCH_runtime.json BM_SpawnExecuteThroughput/1 1 "$spawn"
record_trajectory BENCH_discovery.json BM_DiscoveryMixed/10000/1 1 \
                  "$discovery"

gate spawn "$spawn"
gate discovery "$discovery"

# Address-table clustering gate: each application benchmark workload, run
# traced, must keep depend.probe_len_p95 (the p95 of the
# discovery.probe_len histogram) at or under 16 probes. The apps' logical
# addresses are byte-consecutive and field-strided; a hash that keeps such
# keys together lets linear probing merge them into clusters hundreds of
# probes long, which this catches. The lulesh run also gates its edge
# calls per task: an exact count of the discovered graph, so a ceiling of
# 6 (4.97 with inoutset generations closed at their first reader, 17.5
# with generations left open) is free of timing noise.
for workload in lulesh_rediscover hpcg_persistent cholesky_tiles; do
  echo "=== [bench-smoke] appbench $workload --trace 1 (probe gate) ==="
  python3 appbench/run.py --workload "$workload" --seed 1 --seconds 2 \
          --trace 1 | tail -n 1 | python3 -c '
import json, sys
workload = sys.argv[1]
doc = json.load(sys.stdin)
if not doc["correct"]:
    sys.exit(f"bench-smoke FAILED: appbench {workload} was not correct")
p95 = doc["metrics"]["depend.probe_len_p95"]["value"]
print(f"=== [bench-smoke] {workload} depend.probe_len_p95 {p95:.1f} "
      f"(ceiling 16) ===")
if p95 > 16:
    sys.exit(f"bench-smoke FAILED: {workload} probe_len_p95 {p95:.1f} > 16")
if workload == "lulesh_rediscover":
    epr = doc["metrics"]["depend.edges_per_task"]["value"]
    print(f"=== [bench-smoke] {workload} depend.edges_per_task {epr:.2f} "
          f"(ceiling 6) ===")
    if epr > 6:
        sys.exit(f"bench-smoke FAILED: {workload} edges_per_task "
                 f"{epr:.2f} > 6")
' "$workload"
done

# taskbench METG smoke: the full pattern matrix at smoke scale on both
# engines, every real-runtime leg strict-verified, frontier records
# bulk-appended to BENCH_metg.json. The coverage check keeps the leg
# honest: losing a pattern or an engine from the sweep fails CI.
echo "=== [bench-smoke] running bench_metg --smoke (TDG_VERIFY=strict) ==="
metg_json=$(mktemp)
trap 'rm -f "$metg_json"' EXIT
TDG_VERIFY=strict "$build_dir"/bench/bench_metg --smoke --json "$metg_json"
python3 - "$metg_json" <<'EOF'
import json, sys
records = json.load(open(sys.argv[1]))
engines = {}
for r in records:
    parts = r["name"].split("/")  # taskbench/<pattern>/<engine>/<config>
    if parts[0] == "taskbench" and len(parts) == 4:
        engines.setdefault((parts[2], parts[3]), set()).add(parts[1])
for engine in ("real", "sim"):
    for config in ("opt", "unopt"):
        n = len(engines.get((engine, config), set()))
        print(f"=== [bench-smoke] taskbench coverage: {n} patterns "
              f"on {engine}/{config} ===")
        if n < 6:
            sys.exit(f"bench-smoke FAILED: only {n} patterns swept on "
                     f"{engine}/{config} (need >= 6)")
EOF
python3 scripts/record_trajectory.py --bulk "$metg_json" \
        "$out_dir/BENCH_metg.json"

# Multi-tenant smoke: batched submission must beat per-task submission on
# discovery throughput (the deferred per-submit publication costs), and
# the tenant-scaling sweep is recorded so the trajectory catches shared-
# pool contention regressions. BATCH_MIN_RATIO (default 1.15) is the gate.
batch_min_ratio=${BATCH_MIN_RATIO:-1.15}
echo "=== [bench-smoke] running bench_multitenant submission pair ==="
per_task=$(measure bench_multitenant 'BM_SubmitPerTask$')
batch=$(measure bench_multitenant 'BM_SubmitBatch$')
echo "=== [bench-smoke] running BM_MultitenantThroughput sweep ==="
mt2=$(measure bench_multitenant 'BM_MultitenantThroughput/2/real_time$')
mt8=$(measure bench_multitenant 'BM_MultitenantThroughput/8/real_time$')

mt_json=$(mktemp)
trap 'rm -f "$metg_json" "$mt_json"' EXIT
python3 - "$per_task" "$batch" "$mt2" "$mt8" > "$mt_json" <<'EOF'
import json, sys
per_task, batch, mt2, mt8 = map(float, sys.argv[1:5])
print(json.dumps([
    {"name": "multitenant/submit_per_task", "value": per_task,
     "unit": "tasks_per_second", "threads": 1},
    {"name": "multitenant/submit_batch", "value": batch,
     "unit": "tasks_per_second", "threads": 1},
    {"name": "multitenant/throughput_2_tenants", "value": mt2,
     "unit": "tasks_per_second", "threads": 2},
    {"name": "multitenant/throughput_8_tenants", "value": mt8,
     "unit": "tasks_per_second", "threads": 8},
]))
EOF
python3 scripts/record_trajectory.py --bulk "$mt_json" \
        "$out_dir/BENCH_multitenant.json"

python3 - "$per_task" "$batch" "$batch_min_ratio" <<'EOF'
import sys
per_task, batch, floor = map(float, sys.argv[1:4])
ratio = batch / per_task
print(f"=== [bench-smoke] batch submission {batch:.3e} tasks/s vs "
      f"per-task {per_task:.3e} (ratio {ratio:.2f}, floor {floor}) ===")
if ratio < floor:
    sys.exit(f"bench-smoke FAILED: batch submission only {ratio:.2f}x "
             f"per-task submit (floor {floor}x)")
EOF

# measure_best <binary> <filter>: best items_per_second over the
# repetitions. Used for the race-overhead ratio legs: a ratio gate wants
# the least-noisy estimate of each side's attainable throughput, and the
# max over repetitions converges on that much faster than the median.
measure_best() {
  "$build_dir"/bench/"$1" \
      --benchmark_filter="$2" \
      --benchmark_min_time=0.2 \
      --benchmark_repetitions=5 \
      --benchmark_format=json 2>/dev/null | python3 -c '
import json, sys
doc = json.load(sys.stdin)
bms = [b for b in doc["benchmarks"]
       if b.get("run_type", "iteration") == "iteration"]
assert bms, "benchmark produced no measurements"
print(max(b["items_per_second"] for b in bms))
'
}

# Online race-detector overhead gate, two legs, both with TDG_RACE=sample
# (every 16th task shadow-checked, clocks joined for all):
#   * spawn — BM_SpawnExecuteThroughput/1, the end-to-end spawn+execute
#     path. Floor RACE_MIN_RATIO (default 0.95): the "<5% overhead" claim.
#   * chain — BM_SubmitChain/1000, pure depend-discovery on zero-width
#     tasks, the detector's worst case (every submit is one clock join
#     with nothing to amortize against — no task body exists to hide it).
#     Floor RACE_CHAIN_MIN_RATIO (default 0.80, measured ~0.85 on the
#     scalar-prefix + pooled-record join path); the ratio is recorded so
#     the trajectory catches join-path regressions that the spawn leg
#     would hide.
# All four measurements land in BENCH_race.json.
race_min_ratio=${RACE_MIN_RATIO:-0.95}
race_chain_min_ratio=${RACE_CHAIN_MIN_RATIO:-0.80}
max2() { python3 -c 'import sys; print(max(map(float, sys.argv[1:])))' "$@"; }
# Two alternating off/sample rounds per leg: machine-speed drift between
# process invocations (frequency scaling, cache state) then lands on both
# modes instead of sinking whichever leg ran during the slow phase.
echo "=== [bench-smoke] running BM_SpawnExecuteThroughput/1 (race off/sample) ==="
so1=$(TDG_RACE=off measure_best bench_micro_runtime \
          'BM_SpawnExecuteThroughput/1$')
ss1=$(TDG_RACE=sample measure_best bench_micro_runtime \
          'BM_SpawnExecuteThroughput/1$')
so2=$(TDG_RACE=off measure_best bench_micro_runtime \
          'BM_SpawnExecuteThroughput/1$')
ss2=$(TDG_RACE=sample measure_best bench_micro_runtime \
          'BM_SpawnExecuteThroughput/1$')
race_spawn_off=$(max2 "$so1" "$so2")
race_spawn_sample=$(max2 "$ss1" "$ss2")
echo "=== [bench-smoke] running BM_SubmitChain/1000 (race off/sample) ==="
co1=$(TDG_RACE=off measure_best bench_micro_runtime 'BM_SubmitChain/1000$')
cs1=$(TDG_RACE=sample measure_best bench_micro_runtime \
          'BM_SubmitChain/1000$')
co2=$(TDG_RACE=off measure_best bench_micro_runtime 'BM_SubmitChain/1000$')
cs2=$(TDG_RACE=sample measure_best bench_micro_runtime \
          'BM_SubmitChain/1000$')
race_chain_off=$(max2 "$co1" "$co2")
race_chain_sample=$(max2 "$cs1" "$cs2")

race_json=$(mktemp)
trap 'rm -f "$metg_json" "$mt_json" "$race_json"' EXIT
python3 - "$race_spawn_off" "$race_spawn_sample" \
          "$race_chain_off" "$race_chain_sample" > "$race_json" <<'EOF'
import json, sys
spawn_off, spawn_sample, chain_off, chain_sample = map(float, sys.argv[1:5])
print(json.dumps([
    {"name": "race/spawn_off", "value": spawn_off,
     "unit": "tasks_per_second", "threads": 1},
    {"name": "race/spawn_sample", "value": spawn_sample,
     "unit": "tasks_per_second", "threads": 1},
    {"name": "race/chain_off", "value": chain_off,
     "unit": "tasks_per_second", "threads": 1},
    {"name": "race/chain_sample", "value": chain_sample,
     "unit": "tasks_per_second", "threads": 1},
]))
EOF
python3 scripts/record_trajectory.py --bulk "$race_json" \
        "$out_dir/BENCH_race.json"

python3 - "$race_spawn_off" "$race_spawn_sample" "$race_min_ratio" \
          "$race_chain_off" "$race_chain_sample" \
          "$race_chain_min_ratio" <<'EOF'
import sys
vals = list(map(float, sys.argv[1:7]))
for name, off, sample, floor in (("spawn", *vals[0:3]),
                                 ("chain", *vals[3:6])):
    ratio = sample / off
    print(f"=== [bench-smoke] race {name}: sample {sample:.3e} tasks/s vs "
          f"off {off:.3e} (ratio {ratio:.2f}, floor {floor}) ===")
    if ratio < floor:
        sys.exit(f"bench-smoke FAILED: race sampling costs {(1 - ratio):.0%}"
                 f" of {name} throughput (floor {floor})")
EOF
