#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each workload and
prints, per metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to a third of the metric's bound. Run from the repository
root:

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --workload ocean16 --seeds 5 --first-seed 100

Exits non-zero if any run fails or any spread other than setup_s exceeds
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", help="default: all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in names:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", a.trace,
            ]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               text=True, timeout=900)
            out = json.loads(p.stdout.strip().splitlines()[-1])
            if p.returncode != 0 or not out["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {p.returncode})")
                ok = False
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(out["metrics"].items())),
                flush=True)
        for name, xs in sorted(values.items()):
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = f" (bound {bound}, a third {bound / 3:.4f})"
                if name != "setup_s" and spread > bound:
                    note += " OVER BOUND"
                    ok = False
            print(f"  {w} {name}: median {med:.6g} spread {spread:.4f}{note}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
