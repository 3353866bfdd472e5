"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the repository root:

    python3 perfbench/collect.py --runs 10 --seconds 25 [--workload NAME ...]
                                 [--trace 0|1] [--first-seed 1] [--out FILE]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
workload and metric the summary gives the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. The summary is printed, and
written as JSON to --out when given.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = list(json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
                 ["workloads"])


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(line.split(" = ", 1)[1] for line in lines if ": env = " in line)
    return {"seed": seed, "env": env, **result}


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(median) if median else 0.0,
                     "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    doc = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace,
           "workloads": {}}
    for workload in args.workload or WORKLOADS:
        runs = [run_once(workload, args.first_seed + i, args.seconds, args.trace)
                for i in range(args.runs)]
        summary = summarise(runs)
        doc["env"] = runs[-1]["env"]
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": summary,
        }
        for name, s in summary.items():
            print(f"{workload}: {name} median={s['median']:.6g} {s['unit']} "
                  f"spread={s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
