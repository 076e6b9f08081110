#!/usr/bin/env python3
"""Benchmark of the gtsys commands, run in-process on the sources under src/.

    python3 bench/run.py --workload scan|interactive|batch --seed N --seconds S --trace 0|1

One client calls `gtsystems.cli.main(argv)` in a closed loop for S seconds
(whole passes; the pass running at the deadline completes), captures stdout
and checks every answer against the answers recorded in bench/expected.
With --trace 0 it prints the end-to-end metrics; with --trace 1 every call
runs twice, untraced and traced, and it prints the per-layer metrics of the
traced calls and the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Set-up
time is measured in fresh processes that import gtsystems.cli and run one
warm-up call.  Untraced times are scaled to nominal host speed by the
reference code in hostspeed.py, timed between the calls.  The exit code is
0 when the run completed, whatever the answers; it is nonzero when the
sources or the recorded answers are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import answers
import workloads
from hostspeed import HostSpeed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 9
# reference samples taken before the first timed call and after the last
BURST = 5
# the first call that reaches rank_mod_p pays its lazy numpy import
WARMUP = ["minimal", "--d", "7", "--action", "0,1,3", "--subset-oracle"]
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from gtsystems import cli; sys.exit(cli.main(sys.argv[2:]))")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "req_per_s": "1/s",
}

# (name, unit); `X.calls` and `X.self_s` read the span of function X
PER_LAYER = [
    ("polymat.rank_mod_p.calls", "count"),
    ("polymat.rank_mod_p.self_s", "s"),
    ("polymat.bareiss_rank.calls", "count"),
    ("polymat.bareiss_rank.self_s", "s"),
    ("polymat.rank_cells", "count"),
    ("polymat.modular_certified_frac", "frac"),
    ("wlp.multiplication_matrix.calls", "count"),
    ("wlp.multiplication_matrix.self_s", "s"),
    ("wlp.minimality_subset_oracle.calls", "count"),
    ("wlp.minimality_subset_oracle.self_s", "s"),
    ("wlp.gt_verdict.calls", "count"),
    ("wlp.gt_verdict.self_s", "s"),
    ("wlp.kernel_certificate.calls", "count"),
    ("wlp.kernel_certificate.self_s", "s"),
    ("circulant.expand_linear_product.calls", "count"),
    ("circulant.expand_linear_product.self_s", "s"),
    ("circulant.expand_linear_product.factors", "count"),
    ("circulant.expand_linear_product.terms_out", "count"),
    ("circulant.expand_linear_product.tail_frac", "frac"),
    ("cyclotomic.CyclotomicInt.__mul__.calls", "count"),
    ("cyclotomic.CyclotomicInt.__add__.calls", "count"),
    ("cyclotomic.CyclotomicInt.reduced.calls", "count"),
    ("arrangements.projective_key.calls", "count"),
    ("arrangements.projective_key.self_s", "s"),
    ("arrangements.singular_census.self_s", "s"),
    ("arrangements.ceva_configuration.self_s", "s"),
    ("arrangements.key_hit_ratio", "frac"),
    ("arrangements.incidence_tests", "count"),
    ("classification.classify_moves.calls", "count"),
    ("classification.classify_moves.self_s", "s"),
    ("classification.orbit.calls", "count"),
    ("classification.class_count_formulas.self_s", "s"),
    ("actions.invariant_monomials.calls", "count"),
    ("actions.invariant_monomials.self_s", "s"),
    ("surface.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "B"),
] + [(f"{m}.self_frac", "frac") for m in (
    "actions", "arrangements", "circulant", "classification", "cli",
    "cyclotomic", "polymat", "surface", "wlp",
)] + [("trace_overhead", "frac")]


def import_cli():
    if not (SRC / "gtsystems" / "cli.py").is_file():
        raise SystemExit(f"bench: no gtsystems sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from gtsystems import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: imported gtsystems from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv, speed=None):
    """(exit code, seconds, stdout) of one in-process gtsys call; the
    seconds leave out the reference samples speed took during the call."""
    out = io.StringIO()
    gc.collect()  # every call starts from a collected heap
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # escapes main(): a gtsys process exits 1 with a traceback
            code = 1
    end = time.perf_counter()
    paused = speed.paused(start, end) if speed else 0.0
    return code, end - start - paused, out.getvalue()


def setup_times(n, speed):
    """Seconds for a fresh interpreter to import gtsystems.cli and answer
    WARMUP, scaled to nominal host speed.  This process and the fresh ones
    are held on one processor, so that the samples measure the processor
    the fresh process runs on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    spans = []
    try:
        for _ in range(n):
            speed.sample(2)
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", PROBE, str(SRC), *WARMUP],
                           cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
            spans.append((start, time.perf_counter()))
        speed.sample(2)
    finally:
        os.sched_setaffinity(0, allowed)
    return [(end - start) * speed.scale(start, end) for start, end in spans]


def machine():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def layer_metrics(totals, stats, counts, n_pass, tail_frac, overhead):
    calls, self_s, module_s = totals["calls"], totals["self_s"], totals["module_s"]
    root = totals["root_s"] or 1.0
    rank_calls = calls["polymat.rank_mod_p"]
    special = {
        "polymat.rank_cells": stats["polymat.rank_cells"] / n_pass,
        "polymat.modular_certified_frac":
            stats["polymat.rank_mod_p.full_rank"] / rank_calls if rank_calls else 0.0,
        "circulant.expand_linear_product.factors":
            stats["circulant.expand_linear_product.factors"] / n_pass,
        "circulant.expand_linear_product.terms_out":
            stats["circulant.expand_linear_product.terms_out"] / n_pass,
        "circulant.expand_linear_product.tail_frac": tail_frac,
        "arrangements.key_hit_ratio":
            stats["arrangements.census_points"] / calls["arrangements.projective_key"]
            if calls["arrangements.projective_key"] else 0.0,
        "arrangements.incidence_tests": stats["arrangements.incidence_tests"] / n_pass,
        "surface.self_s": module_s["surface"] / n_pass,
        "cli.self_s": self_s["cli.main"] / n_pass,
        "cli.output_bytes": stats["cli.output_bytes"] / n_pass,
        "trace_overhead": overhead,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".self_frac"):
            value = module_s[name[: -len(".self_frac")]] / root
        elif name.endswith(".calls") and name.startswith("cyclotomic."):
            value = counts[name] / n_pass
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]] / n_pass
        else:
            value = self_s[name[: -len(".self_s")]] / n_pass
        out[name] = {"value": value, "unit": unit}
    return out


def traced_call(cli, tracer, argv, calls, totals, traced_ops):
    tracer.install()
    try:
        code, _, out = call(cli, argv)
    finally:
        tracer.remove()
    calls.append((argv, code, out, True))
    tracer.stats["cli.output_bytes"] += len(out)
    agg = tracer.take()
    for k in ("calls", "self_s", "module_s"):
        totals[k].update(agg[k])
    totals["root_s"] += agg["root_s"]
    traced_ops.append((agg["root_s"], agg["inclusive"]["circulant.expand_linear_product"]))


def run(name, seed, seconds, trace, toy=False, expected=None):
    """One benchmark run; returns the result object and the summary lines."""
    cli = import_cli()
    call(cli, WARMUP)
    tracer = Tracer() if trace else None
    speed = None if trace else HostSpeed()
    totals = {"calls": Counter(), "self_s": Counter(), "module_s": Counter(), "root_s": 0.0}
    calls = []  # (argv, exit code, stdout, traced)
    timed = []  # per pass, the untraced calls as (start, end, seconds, exit code)
    traced_ops = []  # (seconds, expansion seconds)
    n_ops = 0
    if speed:
        speed.sample(BURST)
    with speed.ticking() if speed else contextlib.nullcontext():
        deadline = time.perf_counter() + seconds
        for batch in workloads.passes(name, seed, toy):
            if timed and time.perf_counter() >= deadline:
                break
            timed.append([])
            for argv in batch:
                # traced runs alternate which copy goes first, so that caches
                # the first call fills favour neither side of the overhead
                traced_first = bool(tracer) and n_ops % 2 == 1
                n_ops += 1
                if traced_first:
                    traced_call(cli, tracer, argv, calls, totals, traced_ops)
                start = time.perf_counter()
                code, secs, out = call(cli, argv, speed)
                calls.append((argv, code, out, False))
                timed[-1].append((start, time.perf_counter(), secs, code))
                if tracer and not traced_first:
                    traced_call(cli, tracer, argv, calls, totals, traced_ops)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_wall_s = statistics.median(sum(secs for _, _, secs, _ in p) for p in timed)
    if speed:
        speed.sample(BURST)
        timed = [[(secs * speed.scale(start, end), code) for start, end, secs, code in p]
                 for p in timed]
    else:
        timed = [[(secs, code) for _, _, secs, code in p] for p in timed]
    latencies = [op for p in timed for op in p]

    if expected is None:
        expected = answers.load(name)
    status, wrong_traced = Counter(), 0
    for argv, code, out, traced in calls:
        verdict = answers.check(argv, expected[answers.key(argv)], code, out)
        if traced:
            wrong_traced += verdict == answers.WRONG
        else:
            status[verdict] += 1
    attempted = len(latencies)
    failed = attempted - status[answers.OK]

    lines = [f"machine {json.dumps(machine(), sort_keys=True)}",
             f"workload {name} seed {seed} passes {len(timed)} calls {attempted} "
             f"failed {failed} known_failures {status[answers.KNOWN_FAILURE]} "
             f"wrong {status[answers.WRONG]}"]
    if trace:
        untraced = sum(secs for secs, _ in latencies)
        overhead = totals["root_s"] / untraced - 1 if untraced else 0.0
        ranked = sorted(traced_ops)
        tail = ranked[int(0.9 * len(ranked)):] or ranked
        tail_s = sum(s for s, _ in tail)
        tail_frac = sum(e for _, e in tail) / tail_s if tail_s else 0.0
        n_pass = len(traced_ops) / workloads.ops_per_pass(name)
        metrics = layer_metrics(totals, tracer.stats, tracer.counts, n_pass, tail_frac, overhead)
    else:
        setup = setup_times(1 if toy else SETUP_RUNS, speed)
        if name in workloads.JOBS:
            requests = [(sum(secs for secs, _ in p), int(any(code for _, code in p)))
                        for p in timed]
        else:
            requests = latencies
        done = [secs for secs, code in requests if code == 0] or [secs for secs, _ in requests]
        metrics = {
            "wall_s": statistics.median(sum(secs for secs, _ in p) for p in timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": peak_rss_mib,
            "req_p50_ms": statistics.median(done) * 1000,
            "req_p90_ms": p90(done) * 1000,
            "req_per_s": len(done) / sum(secs for secs, _ in requests),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        lines.append(f"failed_frac {failed / attempted!r} frac")
        lines.append(f"raw_wall_s {raw_wall_s!r} s")
        if name == "scan":
            units = sum(workloads.SCAN_UNITS[argv[2]] for argv in next(workloads.passes(name, seed, toy)))
            lines.append(f"scan_units_per_s {units / metrics['wall_s']['value']!r} 1/s")
    lines += [f"{k} {v['value']!r} {v['unit']}" for k, v in metrics.items()]
    result = {"correct": status[answers.WRONG] + wrong_traced == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not answers.path(args.workload).is_file():
        raise SystemExit(f"bench: no recorded answers at {answers.path(args.workload)}")
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
