#!/usr/bin/env bash
# Build Release and run the self-benchmarks (parallel runner + event
# queue + partitioned sim + multi-tenant churn + per-layer ns/op);
# writes one schema-versioned
# BENCH_<family>.json per bench family at the repo root (gitignored;
# tools/perf_diff refuses to compare files whose schema_version
# differs) and appends one line to the checked-in perf history
# bench/trajectory.jsonl: commit, host_cores, build type and each
# family's headline numbers (per-layer rows with their pass spread).
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

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
dirty=false
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no \
        2>/dev/null)" ]; then
    dirty=true
fi
python3 - "$root" "$commit" "$dirty" >>"$root/bench/trajectory.jsonl" <<'PY'
import datetime, json, os, sys

root, commit, dirty = sys.argv[1], sys.argv[2], sys.argv[3] == "true"

def load(family):
    with open(os.path.join(root, f"BENCH_{family}.json")) as f:
        return json.load(f)

runner = load("runner")
eq = load("event_queue")["event_queue"]
pdes = load("pdes")
tenants = load("tenants")
layers = load("layers")
wall = sum(c["wall_s"] for c in tenants["cells"])
line = {
    "commit": commit,
    "dirty": dirty,
    "date": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host_cores": runner["host_cores"],
    "build_type": "Release",
    "families": {
        "runner": {k: runner[k] for k in (
            "serial_wall_s", "parallel_wall_s", "speedup",
            "serial_events_per_s", "eventqueue_events_per_s")},
        "event_queue": {k: v for k, v in eq.items()
                        if k.endswith(("_eps", "_speedup"))},
        "pdes": {f"{c['name']}.{k}": c[k] for c in pdes["configs"]
                 for k in ("legacy_events_per_s",
                           "tagged_serial_events_per_s")},
        "tenants": {
            "wall_s": round(wall, 6),
            "events_per_s": round(sum(c["sim_events"]
                                      for c in tenants["cells"]) / wall)
                            if wall > 0 else 0,
        },
        "layers": {l["name"]: l["ns_per_op"] for l in layers["layers"]},
        # Each layers row is the median of `passes` timed passes; the
        # fastest and slowest pass bound the noise of this one run.
        "layers_spread": {
            "passes": layers["passes"],
            "min_max": {l["name"]: [l["ns_min"], l["ns_max"]]
                        for l in layers["layers"]},
        },
    },
}
print(json.dumps(line, sort_keys=True))
PY
echo "--- appended to bench/trajectory.jsonl"
tail -n 1 "$root/bench/trajectory.jsonl"
