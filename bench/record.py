#!/usr/bin/env python3
"""Record the expected answers of every benchmark call from the current
sources, into bench/expected.

    python3 bench/record.py [scan|interactive|batch ...]

The interactive pool is drawn once from a fixed seed and stored with its
answers; its seeded commands run with --seed POOL_SEED here and are
rewritten to the run's seed when checked.  Run this only on a commit whose
answers are trusted: the benchmark checks later commits against them.
"""

from __future__ import annotations

import json
import sys

import answers
import workloads
from run import call, import_cli


def record_calls(cli, argvs):
    records = {}
    for argv in argvs:
        code, _, out = call(cli, argv)
        records[answers.key(argv)] = answers.record(code, out)
    return records


def main(argv=None):
    names = (argv if argv is not None else sys.argv[1:]) or workloads.WORKLOADS
    cli = import_cli()
    workloads.EXPECTED.mkdir(exist_ok=True)
    for name in names:
        if name == "interactive":
            pool = workloads.make_pool()
            workloads.POOL_FILE.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
            argvs = [workloads.with_seed(a, workloads.POOL_SEED) for a in pool]
        elif name == "scan":
            argvs = workloads.SCAN + workloads.SCAN_TOY
        else:
            argvs = workloads.BATCH
        records = record_calls(cli, argvs)
        answers.save(name, records)
        failed = sum(1 for r in records.values() if r["exit"] != 0)
        print(f"{name}: {len(records)} answers, {failed} nonzero exits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
