#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload walk-dp --seeds 1-10 [--trace 0]
        [--seconds N] [--out summary.json]

Runs are sequential, one process at a time.  For every metric it prints the
median and the quartile spread (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``, and checks the spread against the
metric's bound in BENCHMARK.json.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        argv = spec["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        result = json.loads(done.stdout.splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in
                  result["metrics"].items() if k in bounds}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median,
                         "spread": spread, "runs": len(values)}
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})")
        print(f"{name}: median {median:.6g} {first['unit']}, "
              f"spread {spread:.4f}{verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "python": platform.python_version(),
                       "all_correct": all(r["correct"] for r in runs),
                       "metrics": summary}, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
