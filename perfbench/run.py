#!/usr/bin/env python3
"""Builds and runs the herbgrind-cpp benchmark for one workload.

    python3 perfbench/run.py --workload expr|loops|native --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and perfbench_driver (Release) under $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only check the build is current. All
build output goes to stderr. Standard output carries perfbench_driver's report
and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace next to the build). See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("expr", "loops", "native")
# The default seed, and a held-out seed kept for confirming claims: a
# change is tuned on other seeds and must also hold on this one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(bdir):
    """Configures (once) and builds perfbench_driver; returns its path."""
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(REPO, "src")):
        sys.exit("perfbench: no herbgrind-cpp sources next to perfbench/; "
                 "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_driver",
                    "-j", "4"], stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the self-test")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt one compared report (self-test)")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        driver = build(bdir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            FileNotFoundError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(bdir, "runs")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: driver failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
