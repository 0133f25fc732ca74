#!/usr/bin/env python3
"""Measures the benchmark's seed-to-seed spread and records it.

    python3 perfbench/steadiness.py --seeds 101-110 --out steady.json \
        [--workloads expr loops native] [--against earlier.json]

--seeds takes ranges and single seeds separated by commas; a seed named
twice runs twice (--seeds 1,1,1,7919,7919,7919 repeats two input sets).
Runs perfbench/run.py (--trace 0) once per workload and seed, then reports
for every end-to-end metric the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. A spread
below a third of the bound is steady; above the bound the metric cannot
judge a change. With --against, it also compares each median with the
median of an earlier file: a rise by more than the bound fails.
Run from the root of a checkout; the raw values and the summary are
written to --out as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load_bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", required=True)
    ap.add_argument("--against")
    args = ap.parse_args()

    spec, bounds = load_bounds()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    raw, summary, ok = {}, {}, True
    for w in workloads:
        raw[w] = []
        for seed in seeds:
            result = run_once(w, seed, seconds)
            if not result["correct"]:
                print(f"{w} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} checks failed")
                ok = False
            raw[w].append({"seed": seed, "metrics": {
                k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{w} seed {seed} done", file=sys.stderr)
        summary[w] = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name] for r in raw[w]])
            s["bound"] = bound
            summary[w][name] = s

    previous = None
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)["summary"]
    print(f"| workload | metric | median | q1 | q3 | spread | bound |"
          f"{' vs earlier |' if previous else ''}")
    print(f"|---|---|---|---|---|---|---|{'---|' if previous else ''}")
    for w in workloads:
        for name, s in summary[w].items():
            flag = ""
            if s["spread"] > s["bound"]:
                flag, ok = " UNSTEADY", False
            elif s["spread"] > s["bound"] / 3:
                flag = " (above bound/3)"
            cmp = ""
            if previous and w in previous:
                ratio = s["median"] / previous[w][name]["median"] - 1
                cmp = f" {ratio:+.1%} |"
                if ratio > s["bound"]:
                    cmp, ok = f" {ratio:+.1%} WORSE |", False
            print(f"| {w} | {name} | {s['median']:.6g} | {s['q1']:.6g} | "
                  f"{s['q3']:.6g} | {s['spread']:.3f}{flag} | "
                  f"{s['bound']} |{cmp}")
    with open(args.out, "w") as f:
        json.dump({"seconds": seconds, "seeds": seeds, "summary": summary,
                   "runs": raw}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
