#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/steadiness.py --seconds 40 --seeds 401-410 \
        --seeds 501-510 --out perfbench/steadiness.json

Each --seeds gives one pass. A pass runs perfbench/run.py once per
(workload, seed) for every workload run.py knows, untraced, one run at a
time, from the repository root. For each workload and metric it records
the values, their median and quartiles (statistics.quantiles(values, n=4))
and the spread: (q3 - q1) / median. These spreads set the bounds in
BENCHMARK.json: a bound must exceed the spread, with room to spare. With
two or more passes it also records how far each later pass's median moved
from the first pass's, in the metric's worse direction, against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # importing run.py leaves no cache files
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def run_pass(seeds, seconds, bounds, report):
    """Runs every workload once per seed; returns the pass's summary."""
    summary = {"seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        runs = []
        for seed in seeds:
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            wall = time.time() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit("%s seed %d failed (exit %d):\n%s" %
                         (workload, seed, proc.returncode, proc.stderr[-2000:]))
            host = json.loads(lines[0])
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "wall_s": round(wall, 1),
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"]})
            report["host"] = host["host"]
            report["budget"] = host["budget"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %.1f s, correct=%s" %
                  (workload, seed, wall, result["correct"]), flush=True)
        metrics = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median if median else float("inf")
            metrics[name] = {"values": series, "median": median, "q1": q1,
                             "q3": q3, "spread": spread,
                             "bound": bounds[name]["bound"]}
            print("  %-20s median %12.6g spread %6.1f%% bound %s" %
                  (name, median, 100 * spread, bounds[name]["bound"]),
                  flush=True)
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
    return summary


def median_drift(first, later, bounds):
    """How far `later`'s medians moved from `first`'s, worse direction up."""
    drift = {}
    for workload, data in later["workloads"].items():
        for name, metric in data["metrics"].items():
            base = first["workloads"][workload]["metrics"][name]["median"]
            change = metric["median"] / base - 1.0
            worse = change if bounds[name]["better"] == "lower" else -change
            drift.setdefault(workload, {})[name] = {
                "first_median": base, "median": metric["median"],
                "worse_by": worse, "bound": bounds[name]["bound"],
                "within_bound": worse <= bounds[name]["bound"]}
            print("%s %-20s median %+6.1f%% (worse by %+6.1f%%, bound %s)" %
                  (workload, name, 100 * change, 100 * worse,
                   bounds[name]["bound"]), flush=True)
    return drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", required=True, action="append",
                        help="one pass per occurrence, e.g. 401-410")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}

    report = {"seconds": args.seconds, "passes": []}
    for text in args.seeds:
        report["passes"].append(
            run_pass(parse_seeds(text), args.seconds, bounds, report))
    report["median_drift"] = [
        median_drift(report["passes"][0], later, bounds)
        for later in report["passes"][1:]]

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
