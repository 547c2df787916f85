#!/usr/bin/env python3
"""Self-test of the benchmark at small sizes (about a minute, most of it the build).

    python3 perfbench/test_perfbench.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
checks that:
  * a --trace 0 run prints every end_to_end metric with its unit, and a
    --trace 1 run every per_layer metric, with correct = true and no failure;
  * every count metric repeats exactly across two traced runs of one seed;
  * the traced run writes its Chrome-trace file, and the stage self times
    plus the unattributed remainder add up to the traced pipeline span;
and that the benchmark refuses to run with CUDALIGN_SIMD set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"
SEED = "11"


def run(workload, trace, env=None):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", SEED,
               "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, check=False)


def result_of(done):
    assert done.returncode == 0, f"exit {done.returncode}:\n{done.stdout}\n{done.stderr}"
    return json.loads(done.stdout.splitlines()[-1])


def check_result(result, listed):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(result_of(run(workload, 0)), spec["end_to_end"])

        first = result_of(run(workload, 1))
        second = result_of(run(workload, 1))
        for result in (first, second):
            check_result(result, spec["per_layer"])
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: count {name} differs across runs of one seed: {a} != {b}"

        m = first["metrics"]
        stages = sum(m[f"core.stage{k}.s"]["value"] for k in range(1, 7))
        total = stages + m["trace.unattributed_s"]["value"]
        assert abs(total - m["trace.pipeline_s"]["value"]) < 1e-9, (total, m["trace.pipeline_s"])

        trace = json.loads((build_dir / f"trace-{workload}-seed{SEED}.json").read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"pipeline", "core.stage1", "probe.sra", "check.reference"} <= names, names
        print(f"ok  {workload}")

    refused = run(spec["workloads"][0]["name"], 0, env=dict(os.environ, CUDALIGN_SIMD="generic"))
    assert refused.returncode != 0, "the benchmark ran with CUDALIGN_SIMD set"
    assert '"metrics"' not in refused.stdout, "a refused run printed a result"
    print("ok  refuses CUDALIGN_SIMD")
    return 0


if __name__ == "__main__":
    sys.exit(main())
