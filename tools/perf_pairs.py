#!/usr/bin/env python3
"""Alternating before/after pairs of the repository benchmark.

    python3 tools/perf_pairs.py <parent-checkout> <change-checkout> \\
        --workload fleet-chaos --seeds 5 6 7 8 --seconds 15

For every seed, runs `python3 <checkout>/perfbench/run.py --trace 0` once in
each checkout, one after the other; the checkout that goes first flips from
pair to pair, so drift on the machine falls on both sides alike. Each
checkout builds its own benchmark binary on its first run.

Prints, for every end-to-end metric of BENCHMARK.json, each side's median
and quartiles and the number of pairs the change won (its value better than
the parent's in the direction the metric counts as better). Exits 1 if any
run fails or reports failed operations.

Needs only the Python standard library; it reads the benchmark and never
writes to either checkout beyond what perfbench/run.py builds there.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    """Runs one benchmark and returns its result object, or None on failure."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {checkout}: seed {seed} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values):
    """(q1, median, q3) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one pair of runs per seed")
    ap.add_argument("--seconds", type=float, default=10)
    a = ap.parse_args()

    checkouts = {"parent": a.parent.resolve(), "change": a.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in checkouts}
    wins = {m["name"]: 0 for m in metrics}
    bad_runs = 0

    for i, seed in enumerate(a.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            result = run_once(checkouts[side], a.workload, seed, a.seconds)
            if result is None or result["failed"] > 0:
                bad_runs += 1
                if result is not None:
                    print(f"  {side}: seed {seed} failed {result['failed']} of "
                          f"{result['attempted']} operations", file=sys.stderr)
                continue
            pair[side] = {name: result["metrics"][name]["value"] for name in values[side]}
            for name, v in pair[side].items():
                values[side][name].append(v)
        cells = []
        for m in metrics:
            name = m["name"]
            if len(pair) == 2:
                p, c = pair["parent"][name], pair["change"][name]
                if (c > p) if m["better"] == "higher" else (c < p):
                    wins[name] += 1
            cells.append(name + " " + " ".join(f"{side}={pair[side][name]:.4g}"
                                               for side in order if side in pair))
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + "; ".join(cells))

    pairs = len(a.seeds)
    print(f"\n{a.workload}: {pairs} pairs of {a.seconds:g} s runs")
    print(f"{'metric':<18}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}")
    for m in metrics:
        name = m["name"]
        for side in checkouts:
            if values[side][name]:
                q1, med, q3 = spread(values[side][name])
                print(f"{name:<18}{side:<8}{q1:>12.4g}{med:>12.4g}{q3:>12.4g}")
        print(f"{'':<18}change better ({m['better']}) in {wins[name]} of {pairs} pairs")
    if bad_runs:
        print(f"{bad_runs} run(s) failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
