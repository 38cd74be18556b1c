#!/usr/bin/env python3
"""Byte-for-byte comparison of the smoke benches of two builds.

    python3 tools/smoke_diff.py <parent-build> <change-build>

Runs each of the seven smoke benches (tenancy, observability, recovery,
fleet, netscope, fleetscope, chaosnet) as `<build>/bench/<bench> --smoke
--out BENCH.json`, plus `--trace trace.json` for the two benches that take
a trace path, the two machine-trace figure benches (fig04, fig05) as
`<bench> --trace trace.json` (they take no --smoke or --out), two
benches that read the event log through profile::Tracer summaries
without flags: bench_robustness_chaos (every injected fault-event type,
6 apps x 3 modes, ~15 s) and bench_fig10_srad_migration (access-counter
notifications and migrations), and three page-table benches without
flags, each under 1 s: bench_fig06_alloc_dealloc (first touch and frees),
bench_ablation_firsttouch (first-touch placement) and
bench_ablation_autonuma (the AutoNUMA scan's run split and remerge), and
two qvsim benches without flags, about 1 s each, that drive its in-memory
gate kernel at 4 KiB and 64 KiB pages in every memory mode:
bench_fig08_qv_pagesize and bench_fig09_qv_breakdown.
Each runs once per build, in a fresh temporary directory so the
`wrote ...` lines match.
It compares the exit code, stdout and every file the run wrote, byte for
byte, prints one line per bench, and exits 1 on any difference. The
simulator is deterministic, so a change that claims to leave simulated
results alone must pass this unchanged.

Needs only the Python standard library. Build both trees first, e.g.
`cmake --build <build> --target bench_fleet ...`.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

SMOKE = ["--smoke", "--out", "BENCH.json"]
TRACE = ["--trace", "trace.json"]
BENCHES = {
    "bench_tenancy": SMOKE,
    "bench_observability": SMOKE + TRACE,
    "bench_recovery": SMOKE,
    "bench_fleet": SMOKE,
    "bench_netscope": SMOKE,
    "bench_fleetscope": SMOKE + TRACE,
    "bench_chaosnet": SMOKE,
    "bench_fig04_hotspot_profile": TRACE,
    "bench_fig05_qiskit_profile": TRACE,
    "bench_robustness_chaos": [],
    "bench_fig10_srad_migration": [],
    "bench_fig06_alloc_dealloc": [],
    "bench_ablation_firsttouch": [],
    "bench_ablation_autonuma": [],
    "bench_fig08_qv_pagesize": [],
    "bench_fig09_qv_breakdown": [],
}


def run(build, bench):
    """(exit code, stdout bytes, {file name: bytes}) of one bench run."""
    cmd = [str(Path(build).resolve() / "bench" / bench)] + BENCHES[bench]
    with tempfile.TemporaryDirectory(prefix="smoke_diff_") as tmp:
        proc = subprocess.run(cmd, cwd=tmp, stdout=subprocess.PIPE)
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir()) if p.is_file()}
    return proc.returncode, proc.stdout, files


def first_diff_line(a, b):
    """1-based number of the first line where a and b differ."""
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return i + 1
    return min(len(la), len(lb)) + 1


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = sys.argv[1], sys.argv[2]
    same_all = True
    for bench in BENCHES:
        code_a, out_a, files_a = run(parent, bench)
        code_b, out_b, files_b = run(change, bench)
        diffs = []
        if code_a != code_b:
            diffs.append(f"exit {code_a} vs {code_b}")
        if out_a != out_b:
            diffs.append(f"stdout from line {first_diff_line(out_a, out_b)}")
        for name in sorted(files_a.keys() | files_b.keys()):
            if name not in files_a or name not in files_b:
                diffs.append(f"{name} written by one side only")
            elif files_a[name] != files_b[name]:
                diffs.append(f"{name} from line {first_diff_line(files_a[name], files_b[name])}")
        if diffs:
            same_all = False
            print(f"DIFF {bench}: " + "; ".join(diffs))
        else:
            print(f"same {bench}: exit {code_a}, stdout and {len(files_a)} file(s)")
    return 0 if same_all else 1


if __name__ == "__main__":
    sys.exit(main())
