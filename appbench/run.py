#!/usr/bin/env python3
"""Build and run the application benchmark.

    python3 appbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (appbench/CMakeLists.txt, compiling the runtime from src/) into
.bench_build/appbench; later runs only re-check the build. Every TDG_*
environment variable is removed before the benchmark starts, so none can
change the measured program. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. See appbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "appbench")
BINARY = os.path.join(BUILD_DIR, "appbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("lulesh_rediscover", "hpcg_persistent", "cholesky_tiles")
# A run must end within 180 s; the solve loop itself stops after --seconds.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"appbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "appbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def source_id():
    """Git commit when run in a git checkout, plus a digest of the sources
    the benchmark compiles, which identifies the code in any checkout."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "appbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(d, f)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return sha, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    env = {k: v for k, v in os.environ.items() if not k.startswith("TDG_")}
    for k in sorted(set(os.environ) - set(env)):
        log(f"unset {k}")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    sha, digest = source_id()
    print(f"appbench: git={sha} sources={digest}", flush=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(BUILD_DIR, f"spans-{args.workload}.tsv")]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
