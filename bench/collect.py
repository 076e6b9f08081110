#!/usr/bin/env python3
"""Run the benchmark on several seeds and write one point of the trajectory.

    python3 bench/collect.py --out bench/BENCH_<n>.json [--runs 10] [--first-seed 1]
                             [--workloads scan interactive batch]

Each workload runs --runs times untraced, each time with the next seed, and
once traced.  For every end-to-end metric the file holds the ten values,
their median and the spread: the distance between the first and third
quartile as a share of the median.  Spreads above a third of the bound in
BENCHMARK.json are flagged.  The machine is recorded with the results.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def one_run(workload, seed, seconds, trace):
    """The result object, the extra summary values and the process's seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    extra = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("failed_frac", "raw_wall_s", "scan_units_per_s"):
            extra[parts[0]] = float(parts[1])
    return json.loads(lines[-1]), extra, time.perf_counter() - start


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    report = {"machine": {**run.machine(), "cpu_model": cpu_model()},
              "run_seconds": seconds, "runs": args.runs,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    for workload in args.workloads:
        runs = [one_run(workload, seed, seconds, 0) for seed in report["seeds"]]
        entry = {"correct": all(r["correct"] for r, _, _ in runs),
                 "attempted": [r["attempted"] for r, _, _ in runs],
                 "failed": [r["failed"] for r, _, _ in runs],
                 "process_s": [secs for _, _, secs in runs],
                 "end_to_end": {}, "extra": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r, _, _ in runs]
            s = spread(values)
            entry["end_to_end"][name] = {
                "unit": runs[0][0]["metrics"][name]["unit"], "median": statistics.median(values),
                "spread": s, "values": values,
            }
            flag = "" if s < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:12s} {name:14s} median {statistics.median(values):12.4f} "
                  f"spread {s:.4f} bound {bounds[name]}{flag}", flush=True)
        for name in runs[0][1]:
            values = [extra[name] for _, extra, _ in runs]
            entry["extra"][name] = {"median": statistics.median(values), "values": values}
        traced, _, _ = one_run(workload, report["seeds"][0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
