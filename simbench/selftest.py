#!/usr/bin/env python3
"""Self-test of the simulator benchmark, at a tiny scale.

    python3 simbench/selftest.py

Run from the repository root; builds through simbench/run.py. Checks:
  * every workload prints, with --trace 0, exactly BENCHMARK.json's
    end-to-end metrics and, with --trace 1, exactly its per-layer
    metrics, each with the unit listed there, and all cells pass;
  * a deliberately wrong reference makes failed_cells non-zero;
  * the host-speed reference computation ran and its time is printed;
  * one seed repeats its sim_digest and events_per_access exactly, and
    another seed gives a different sim_digest (the seed reaches the
    inputs).
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = "0.05"


def bench(workload, seed=1, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--scale-mult", TINY, *extra]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if res.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {res.returncode}\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = failed_cells = reference_s = None
    for line in lines:
        if m := re.match(r"host speed: reference computation (\S+) cpu s", line):
            reference_s = float(m.group(1))
        if m := re.match(r"sim_digest ([0-9a-f]+)$", line):
            digest = m.group(1)
        if m := re.match(r"failed_cells (\S+) ", line):
            failed_cells = float(m.group(1))
    if not reference_s or reference_s <= 0:
        sys.exit(f"FAIL: {' '.join(cmd)}: no reference computation time")
    return result, digest, failed_cells


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            res, digest, failed_cells = bench(w, trace=trace)
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace={trace}: result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want[trace],
                  f"{w} trace={trace}: every metric, each with its unit")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1 and failed_cells == 0,
                  f"{w} trace={trace}: all cells pass")
            check(digest is not None, f"{w} trace={trace}: sim_digest printed")

        res, _, failed_cells = bench(w, extra=("--wrong-reference",))
        check(not res["correct"] and res["failed"] > 0 and failed_cells > 0,
              f"{w}: a wrong reference makes failed_cells non-zero")

    a, da, _ = bench("thrash", seed=1)
    b, db, _ = bench("thrash", seed=1)
    c, dc, _ = bench("thrash", seed=2)
    epa = "events_per_access"
    check(da == db and a["metrics"][epa] == b["metrics"][epa],
          "same seed: sim_digest and events_per_access repeat exactly")
    check(da != dc, "another seed: different sim_digest")
    print("selftest passed")


if __name__ == "__main__":
    main()
