#!/usr/bin/env bash
# Build Release and run the self-benchmarks (parallel runner + event
# queue + partitioned sim + multi-tenant churn + per-layer ns/op);
# writes one schema-versioned
# BENCH_<family>.json per bench family at the repo root. Used to track
# the perf trajectory PR over PR (tools/perf_diff refuses to compare
# files whose schema_version differs).
#
#   tools/run_benches.sh                 # all cores
#   BARRE_JOBS=8 tools/run_benches.sh    # fixed worker count
#   BARRE_SCALE=0.5 tools/run_benches.sh # bigger workload
#
# Env:
#   BUILD_DIR  - build tree to use (default: <repo>/build-release)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${BUILD_DIR:-"$root/build-release"}

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j "$(nproc)" --target bench_runner_speedup \
    bench_event_queue bench_pdes_speedup bench_tenants bench_layers

# One file per bench family; each carries its own schema_version so a
# stale baseline from an older schema is rejected rather than
# mis-compared. bench_pdes_speedup writes its family file
# (BENCH_pdes.json) to the working directory and additionally splices a
# summary member into the runner trajectory file passed as its
# argument, so run from the repo root.
cd "$root"
"$build/bench/bench_runner_speedup" "$root/BENCH_runner.json"
"$build/bench/bench_event_queue" "$root/BENCH_event_queue.json"
"$build/bench/bench_pdes_speedup" "$root/BENCH_runner.json"
"$build/bench/bench_tenants" "$root/BENCH_tenants.json"
"$build/bench/bench_layers" "$root/BENCH_layers.json"
for family in runner event_queue pdes tenants layers; do
    echo "--- BENCH_$family.json"
    cat "$root/BENCH_$family.json"
done
