#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into .bench_build/perfbench (incremental after the first
run). The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. A per-layer metric a
workload does not exercise reads 0.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RESULT_PREFIX = "PERFBENCH_RESULT "
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the ghum sources (src/) are not in this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return proc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    build()

    if a.selftest:
        proc = run_binary(["--selftest"])
        print(proc.stdout, end="")
        sys.exit(proc.returncode)

    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload!r}")
    if a.seed < 0:
        fail("--seed must be a non-negative integer")
    trace_out = BUILD / f"trace-{a.workload}.json"
    proc = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", repr(a.seconds), "--trace", str(a.trace),
                       "--trace-out", str(trace_out)])
    lines = proc.stdout.splitlines()
    result_lines = [ln for ln in lines if ln.startswith(RESULT_PREFIX)]
    for ln in lines:
        if not ln.startswith(RESULT_PREFIX):
            print(ln)
    if proc.returncode != 0 or len(result_lines) != 1:
        fail(f"benchmark exited with code {proc.returncode}")
    raw = json.loads(result_lines[0][len(RESULT_PREFIX):])

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(raw["metrics"]) - names)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not a.trace:
                fail(f"end-to-end metric {m['name']} not reported")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
