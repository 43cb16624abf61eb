#!/usr/bin/env python3
"""Build and run the simulator benchmark (see simbench/NOTES.md).

    python3 simbench/run.py --workload thrash --seed 1 --seconds 20 --trace 0

Run from the repository root. Configures and builds simbench/ (which
compiles the simulator library from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. The last line
of stdout is the JSON result; spans of a traced run are written next to
the build as spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("thrash", "friendly", "churn", "partitioned")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd to completion; the child is killed and reaped on timeout."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    build_dir = os.path.join(build_root, "simbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "simbench", "-j", jobs],
    ):
        res = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "simbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale-mult", type=float, default=1.0,
                    help="multiply every cell's scale (self-test only)")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="shift every reference (self-test only)")
    args = ap.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    exe = build(build_root)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale-mult", str(args.scale_mult)]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_root, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    res = run(cmd, RUN_TIMEOUT_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
