#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale F]

Run from the root of a checkout. The benchmark binary is built from the
checkout's own sources into the build directory ($CARGO_TARGET_DIR, default
.bench_build, under the checkout root), then run once. Its report goes to
stdout; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics, where metrics holds exactly the metrics
BENCHMARK.json lists for the mode: end_to_end with --trace 0, per_layer with
--trace 1. Exits non-zero without that line when anything fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and (re)builds the benchmark; output goes to stderr."""
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def expected_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="1",
                        help="shrink the pairs (the self-test); results are not comparable")
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not build(build_dir):
        return 1

    # The library puts its SRA files in a fresh directory under TMPDIR, so
    # TMPDIR keeps every file the run writes inside the checkout.
    tmp = build_dir / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    trace_file = build_dir / f"trace-{args.workload}-seed{args.seed}.json"
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-file", str(trace_file),
               "--reference-cache", str(build_dir / "reference"), "--scale", args.scale]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout, end="")
        log(f"benchmark exited with code {done.returncode}")
        return done.returncode or 1
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    metrics = {}
    for name, unit in expected_metrics(args.trace):
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            log(f"metric {name} [{unit}] missing from the benchmark output (got {got})")
            return 1
        metrics[name] = got
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
