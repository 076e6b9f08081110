#!/usr/bin/env python3
"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at toy size (conjecture-scan --dmax 5, five interactive
requests, one batch call), untraced and traced, and checks that every
metric is printed with its name and unit, that the recorded answers are
met, that a corrupted expected answer counts as a failed call, and that
seeded requests meet their recorded answers under another seed.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import answers
import workloads
from run import END_TO_END, PER_LAYER, call, import_cli, run

ROOT = Path(__file__).resolve().parent.parent


def corrupt(expected, argv):
    """A copy of expected with one recorded field of argv's answer changed."""
    bad = copy.deepcopy(expected)
    rec = bad[answers.key(argv)]
    if rec["exit"] != 0:
        rec["exit"] += 1
    else:
        rec["output"]["tool_version"] += "-corrupted"
    return bad


def check_run(workload, trace, units):
    result, lines = run(workload, seed=7, seconds=0, trace=trace, toy=True)
    printed = {line.split()[0]: line.split()[-1] for line in lines}
    assert result["attempted"] >= 1, result
    assert result["correct"], (workload, trace, lines)
    assert set(result["metrics"]) == set(units), (workload, sorted(result["metrics"]))
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit, name
        assert printed.get(name) == unit, (name, lines)
        assert isinstance(result["metrics"][name]["value"], float), name
    return result


def check_seed_rewrite(seed=12345):
    """Seeded requests answer as recorded under another seed."""
    cli = import_cli()
    expected = answers.load("interactive")
    seeded = [a for a in workloads.load_pool()
              if expected[answers.key(a)]["exit"] == 0
              and ((a[0] == "report" and int(a[2]) <= 9)
                   or (a[0] == "gt-verdict" and int(a[2]) <= 12))]
    assert {a[0] for a in seeded} == {"report", "gt-verdict"}, seeded
    for argv in seeded:
        argv = workloads.with_seed(argv, seed)
        code, _, out = call(cli, argv)
        assert answers.check(argv, expected[answers.key(argv)], code, out) == answers.OK, argv
    print(f"seed rewrite: ok ({len(seeded)} calls)")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == END_TO_END, "BENCHMARK.json end_to_end differs from run.py"
    assert declared_layers == dict(PER_LAYER), "BENCHMARK.json per_layer differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    for workload in workloads.WORKLOADS:
        check_run(workload, 0, END_TO_END)
        check_run(workload, 1, dict(PER_LAYER))

        expected = answers.load(workload)
        first = next(workloads.passes(workload, 7, toy=True))[0]
        result, _ = run(workload, seed=7, seconds=0, trace=0, toy=True,
                        expected=corrupt(expected, first))
        assert not result["correct"] and result["failed"] >= 1, (workload, result)
        print(f"{workload}: ok ({result['attempted']} calls)")
    check_seed_rewrite()
    return 0


if __name__ == "__main__":
    sys.exit(main())
