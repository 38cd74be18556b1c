#!/usr/bin/env python3
"""Absolute host-throughput floor of the simulator.

    python3 tools/perf_floor.py

Runs `python3 perfbench/run.py --trace 0 --seconds 5` on the paper-grid,
fullscale-sweep and fleet-chaos workloads of this checkout and exits 1 if
any one's throughput_per_s falls below 80% of its floor, if fullscale-sweep's
setup_s rises above its ceiling divided by 0.8, or if a run fails. Each floor
is about a third of a measured median and the ceiling about three times one,
so that only a real algorithmic regression trips them on a slow or shared
machine (an O(pages) scan back in the residency path, a per-element path
back in the kernels, a walk of the page table per first touch), not noise.

Needs only the Python standard library. perfbench/run.py builds the
benchmark into .bench_build/ on its first run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# throughput_per_s floors. Medians measured on shared 4-vCPU Xeon
# containers: paper-grid 9.0-17.9 Fig. 3 cells/s, fullscale-sweep 28-30 M
# page visits/s (quartiles 27.5-31.4 M), fleet-chaos 460 requests/s
# (quartiles 428-479).
FLOORS = {
    "paper-grid": 3.0,
    "fullscale-sweep": 10.0e6,
    "fleet-chaos": 150.0,
}
# setup_s ceilings, about three times a measured median. fullscale-sweep's
# set-up first-touches 2.1 M pages, each growing one page-table run in
# place: median 0.140 s on the same containers.
CEILINGS = {
    "fullscale-sweep": 0.4,
}
TOLERANCE = 0.8


def metrics(workload):
    """End-to-end metrics of one 5 s run, or None if the run failed."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--trace", "0", "--seconds", "5"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: perfbench exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if result["failed"] > 0:
        print(f"{workload}: {result['failed']} of {result['attempted']} operations failed",
              file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ok = True
    for workload, floor in FLOORS.items():
        values = metrics(workload)
        if values is None:
            ok = False
            continue
        value = values["throughput_per_s"]
        verdict = "ok" if value >= TOLERANCE * floor else "BELOW FLOOR"
        print(f"{workload}: throughput_per_s {value:.4g} (floor {floor:.4g}, "
              f"gate {TOLERANCE * floor:.4g}) {verdict}")
        ok = ok and value >= TOLERANCE * floor
        if workload in CEILINGS:
            ceiling = CEILINGS[workload]
            value = values["setup_s"]
            verdict = "ok" if value <= ceiling / TOLERANCE else "ABOVE CEILING"
            print(f"{workload}: setup_s {value:.4g} (ceiling {ceiling:.4g}, "
                  f"gate {ceiling / TOLERANCE:.4g}) {verdict}")
            ok = ok and value <= ceiling / TOLERANCE
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
