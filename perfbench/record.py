#!/usr/bin/env python3
"""Record one trajectory point: ten seeds per workload, then one traced run.

    python3 perfbench/record.py --first-seed 101 --out perfbench/trajectory/NAME.json

Each end-to-end metric gets its median and the distance between its first
and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

RUNS = 10


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median}


def conditions(lines: list) -> dict:
    prefix = "conditions "
    return json.loads(next(line for line in lines
                           if line.startswith(prefix))[len(prefix):])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    point = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in run.WORKLOADS:
        results = []
        for seed in seeds:
            lines, result = run.child(
                ["--workload", name, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"], run.RUN_TIMEOUT_S)
            results.append(result)
            print(name, seed, json.dumps(result), flush=True)
        lines, traced = run.child(
            ["--workload", name, "--seed", str(seeds[0]), "--seconds",
             str(args.seconds), "--trace", "1"], run.RUN_TIMEOUT_S)
        metrics = results[0]["metrics"]
        point["workloads"][name] = {
            "conditions": conditions(lines),
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "spread": {key: {"unit": metrics[key]["unit"], **spread(
                [r["metrics"][key]["value"] for r in results])}
                for key in metrics},
            "runs": results,
            "traced": traced,
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(point, handle, indent=1)
        handle.write("\n")
    for name, entry in point["workloads"].items():
        for key, s in entry["spread"].items():
            print(f"{name:15s} {key:12s} median {s['median']:.4f} {s['unit']:4s}"
                  f" spread {s['iqr_over_median']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
