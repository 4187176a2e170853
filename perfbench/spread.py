#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads serve_small --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10          # every workload

For each workload and end-to-end metric it prints the median of the runs,
the quartiles (statistics.quantiles, n=4), and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json.  A
spread above a third of its bound is flagged: the run-to-run noise would
eat too much of what a regression check can resolve.  All values are kept
in .bench_out/spread-<workloads>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    runs = {}
    flagged = 0
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                sys.exit(1)
            runs[w].append(json.loads(lines[-1])["metrics"])
        print(f"== {w} ({len(seeds)} seeds)")
        for name, bound in bounds.items():
            vals = [r[name]["value"] for r in runs[w]]
            med, q1, q3, s = spread(vals)
            flag = "" if s <= bound / 3 else "  <-- above bound/3"
            flagged += bool(flag)
            print(f"  {name:16s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {s:.4f} (bound {bound}){flag}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out",
                        "spread-" + args.workloads.replace(",", "+") + ".json")
    with open(path, "w") as fh:
        json.dump({"seeds": seeds, "runs": runs}, fh, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
