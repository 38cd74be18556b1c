#!/usr/bin/env sh
# Reproduces everything: build, full test suite, every paper table/figure
# bench, and the examples. Results land in test_output.txt /
# bench_output.txt (see EXPERIMENTS.md for the paper-vs-measured reading).
set -eu

cmake -B build -S . -G Ninja
cmake --build build

ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

# Sanitized pass (ASan + UBSan): the whole test suite again, instrumented.
# Benches and examples are skipped here — they rerun the same simulator
# paths the tests cover, just for longer.
cmake -B build-asan -S . -G Ninja -DGHUM_SANITIZE=ON \
  -DGHUM_BUILD_BENCH=OFF -DGHUM_BUILD_EXAMPLES=OFF
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure 2>&1 | tee test_output_asan.txt

{
  for b in build/bench/bench_*; do
    echo "===== $b ====="
    "$b"
    echo
  done
} 2>&1 | tee bench_output.txt

# Self-checking benches (run in the loop above) exit nonzero on failure:
# bench_tenancy if a co-run row is non-reproducible or the designated
# interference row shows no cross-tenant eviction, bench_observability if
# any registry counter disagrees with the Tracer or a snapshot fails to
# reproduce, bench_recovery if an interrupted run diverges from its
# uninterrupted twin or a crash scenario ends in the wrong state,
# bench_fleet if the node-kill storm is non-reproducible, a surviving
# job's checksum diverges from its solo run, or the top SLO class takes
# any violation, bench_netscope if fewer than three network protocol
# regimes appear, protocol selection is non-monotone in message size, or
# any 2/4/8-node halo cell fails bit-for-bit reproduction,
# bench_fleetscope if alert firings are not bit-for-bit identical across
# two observed storms, the federated registry disagrees with the
# per-node sums, or no root span crosses a node boundary,
# bench_chaosnet if the storm on a lossy fabric is non-reproducible, no
# retransmission recovered a send, a silent node death goes undetected
# (or a live node is declared dead), the corrupted evacuation blob is
# not recovered, or the top SLO class takes a violation. Every bench
# that declares a JSON artifact must have produced it.
for artifact in BENCH_tenancy.json \
                BENCH_observability.json BENCH_recovery.json \
                BENCH_fleet.json BENCH_netscope.json \
                BENCH_fleetscope.json BENCH_chaosnet.json; do
  test -f "$artifact" || { echo "missing artifact: $artifact" >&2; exit 1; }
done

# Absolute simulator-throughput gate: fails if the repository benchmark's
# paper-grid cells/s, fullscale-sweep page visits/s or fleet-chaos
# requests/s drop more than 20% below the floors held in the script, or fullscale-sweep's set-up time
# rises more than 25% above its ceiling. (The full-scale structure checks,
# extent count and sub-linear RSS, run in the test suite above.)
python3 tools/perf_floor.py

# Sample enriched Chrome trace (README "Observability"): Figure 4's
# managed run with event log, causal spans and the C2C utilization track.
./build/bench/bench_fig04_hotspot_profile --trace trace_hotspot_managed.json \
  > /dev/null
test -s trace_hotspot_managed.json || {
  echo "missing artifact: trace_hotspot_managed.json" >&2; exit 1;
}

# Fleet trace (README "Fleet-wide observability"): written by the
# bench_fleetscope run in the loop above — node process lanes, flow
# arrows crossing machines, link-flap duration events.
test -s trace_fleetscope.json || {
  echo "missing artifact: trace_fleetscope.json" >&2; exit 1;
}

for e in quickstart all_apps quantum_volume oversubscription_survival \
         migration_explorer; do
  echo "===== examples/$e ====="
  "./build/examples/$e"
  echo
done
