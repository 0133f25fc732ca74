#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout (the first run builds, as run.py does).
For every workload it asserts that:
  * the untraced run prints every end-to-end metric of BENCHMARK.json,
    with its unit, and no check fails (failed_frac is 0);
  * an injected report mismatch makes the failed count non-zero;
  * the traced run prints every per-layer metric with its unit, prints its
    per-layer table, and writes a Chrome trace holding the replay's spans.
Exits 0 when every assertion holds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}")
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def expect(cond, what, failures):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def metrics_match(result, specs):
    got = result["metrics"]
    return set(got) == {m["name"] for m in specs} and all(
        got[m["name"]]["unit"] == m["unit"] and
        isinstance(got[m["name"]]["value"], (int, float)) for m in specs)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in (wl["name"] for wl in spec["workloads"]):
        _, r = run(w, 0)
        expect(metrics_match(r, spec["end_to_end"]),
               f"{w}: every end-to-end metric printed with its unit", failures)
        expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
               f"{w}: failed_frac is 0 ({r['attempted']} checks)", failures)

        _, r = run(w, 0, "--inject-mismatch")
        expect(r["failed"] > 0 and not r["correct"],
               f"{w}: an injected mismatch is counted as failed", failures)

        out, r = run(w, 1)
        expect(metrics_match(r, spec["per_layer"]) and r["correct"],
               f"{w}: every per-layer metric printed with its unit", failures)
        expect("per-layer metrics" in out,
               f"{w}: the per-layer table is printed", failures)
        m = re.search(r"Chrome trace written to (\S+)", out)
        names = set()
        if m and os.path.isfile(m.group(1)):
            with open(m.group(1)) as f:
                names = {e["name"] for e in json.load(f)["traceEvents"]}
        expect("bench.replay" in names and "engine.run" in names,
               f"{w}: the span file holds benchmark and engine spans",
               failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
