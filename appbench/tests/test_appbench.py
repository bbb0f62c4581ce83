"""Self-tests of the application benchmark.

    python3 -m unittest discover -s appbench/tests -v

Run from the repository root. Each workload is run once untraced and twice
traced for one second through appbench/run.py (the first run builds the
benchmark), and the results are checked against BENCHMARK.json and against
each other.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
RUN = os.path.join(ROOT, "appbench", "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "appbench", "appbench")
COUNTS = re.compile(r"^appbench: counts leg=(\w+) (.*)$")


def run(workload, trace, seed=1, env=None):
    """Run the benchmark; return (result, {leg: counts}, stderr)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    counts = {m.group(1): m.group(2)
              for m in map(COUNTS.match, lines) if m is not None}
    return json.loads(lines[-1]), counts, proc.stderr


class AppbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]
        cls.runs = {}
        for w in cls.workloads:
            cls.runs[w] = [run(w, 0, seed=3), run(w, 1, seed=3),
                           run(w, 1, seed=3)]

    def test_metric_names_and_units_match_benchmark_json(self):
        for w, runs in self.runs.items():
            for (res, _, _), group in zip(
                    runs, ("end_to_end", "per_layer", "per_layer")):
                want = {m["name"]: m["unit"] for m in self.spec[group]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, f"{w} {group}")

    def test_every_solve_passes_its_oracle(self):
        for w, runs in self.runs.items():
            for res, _, _ in runs:
                self.assertIs(res["correct"], True, w)
                self.assertEqual(res["failed"], 0, w)
                self.assertGreaterEqual(res["attempted"], 1, w)

    def test_end_to_end_metrics_are_positive(self):
        for w, runs in self.runs.items():
            for name, m in runs[0][0]["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")

    def test_exact_counts_repeat_across_runs_and_legs(self):
        for w, runs in self.runs.items():
            seen = set()
            for _, counts, _ in runs:
                self.assertTrue(counts, w)
                for leg, c in counts.items():
                    self.assertNotEqual(c, "varies", f"{w} leg {leg}")
                    seen.add(c)
            # untraced, traced and metrics-off solves of both traced runs
            self.assertEqual(len(seen), 1, f"{w}: {seen}")
            traced = [r[0]["metrics"] for r in runs[1:]]
            for name in ("depend.edges_per_task", "depend.redirect_nodes",
                         "depend.duplicate_per_task"):
                self.assertEqual(traced[0][name]["value"],
                                 traced[1][name]["value"], f"{w} {name}")

    def test_benchmark_refuses_tdg_environment(self):
        env = dict(os.environ, TDG_METRICS="dump")
        proc = subprocess.run(
            [BINARY, "--workload", self.workloads[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, env=env, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertNotIn("correct", proc.stdout)

    def test_run_script_unsets_tdg_environment(self):
        env = dict(os.environ, TDG_VERIFY="strict", TDG_RACE="strict")
        res, _, err = run("hpcg_persistent", 0, env=env)
        self.assertIs(res["correct"], True)
        self.assertIn("unset TDG_RACE", err)
        self.assertIn("unset TDG_VERIFY", err)


if __name__ == "__main__":
    unittest.main()
