"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads term_bignum,term_small,verify_suite \\
        --seeds 1-10 --seconds 25 [--trace] [--out result.json]

For every workload it runs ``run.py`` once per seed, each in a fresh process,
and prints per metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median.  With ``--trace`` it adds one
traced run per workload, on the first seed.  ``--out`` writes the runs and
the summary as JSON, with the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    # "  <name> <value> <unit>" lines: the gated metrics and the breakdown behind them
    printed = {}
    for line in lines:
        fields = line.split()
        if line.startswith("  ") and len(fields) == 3:
            printed[fields[0]] = {"value": float(fields[1]), "unit": fields[2]}
    return {"seed": seed, "trace": trace, "wall_s": time.perf_counter() - start,
            "env": env, "printed": printed, "result": json.loads(lines[-1])}


def summarise(metrics_per_run: list[dict]) -> dict:
    """Median, quartiles and spread (q3 - q1) / median of each metric over the runs."""
    summary = {}
    for name, first in metrics_per_run[0].items():
        values = [metrics[name]["value"] for metrics in metrics_per_run]
        q1, mid, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        summary[name] = {
            "unit": first["unit"], "median": median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0,
        }
    return summary


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="term_bignum,term_small,verify_suite")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            result = runs[-1]["result"]
            print(f"{workload} seed={seed} wall={runs[-1]['wall_s']:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  flush=True)
        entry = {
            "runs": runs,
            "summary": summarise([run["result"]["metrics"] for run in runs]),
            "printed_summary": summarise([run["printed"] for run in runs]),
        }
        for name, stats in entry["summary"].items():
            print(f"  {name:<20} median={stats['median']:.6g} {stats['unit']} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} spread={stats['spread']:.4f}",
                  flush=True)
        if args.trace:
            entry["traced"] = run_once(workload, args.seeds[0], args.seconds, 1)
        report["workloads"][workload] = entry
        report.setdefault("env", runs[0]["env"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
