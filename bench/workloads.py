"""The gtsys calls each benchmark workload makes.

A workload is a sequence of passes; a pass is a list of argv lists for
`gtsystems.cli.main`.  Every workload runs as a closed loop with one client:
the next call starts only after the previous one has returned.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"
POOL_FILE = EXPECTED / "interactive_pool.json"

SCAN = [["conjecture-scan", "--dmax", "12"]]
SCAN_TOY = [["conjecture-scan", "--dmax", "5"]]
SCAN_UNITS = {"12": 285, "5": 15}

BATCH = [
    ["classify", "--d", "15015"],
    ["arrangement", "--type", "ceva", "--d", "8"],
    ["arrangement", "--type", "hd", "--d", "7"],
    ["arrangement", "--type", "fermat", "--d", "12"],
    ["circulant", "--d", "8"],
    ["circulant", "--d", "64", "--a", "1", "--b", "3"],
    ["surface", "--d", "12"],
]
BATCH_TOY = [["surface", "--d", "12"]]

# interactive: every d in [5, 40] gets three report requests, one gt-verdict
# and one minimal (odd d) or invariants (even d) request: 60/20/10/10 percent
D_RANGE = range(5, 41)
SEEDED_KINDS = ("report", "gt-verdict")
POOL_SEED = 20261017
TOY_REQUESTS = 5

WORKLOADS = ("scan", "interactive", "batch")
# a pass of these is one job, whose latency is its time to solution; an
# interactive request is one call
JOBS = ("scan", "batch")


def request_argv(kind, d, weights):
    """argv of one interactive request, without the seed."""
    argv = [kind, "--d", str(d), "--action", ",".join(map(str, weights))]
    if kind == "gt-verdict" and d <= 12:
        argv += ["--general-l", "2"]
    if kind == "minimal" and d <= 13:
        argv.append("--subset-oracle")
    return argv


def make_pool(seed=POOL_SEED):
    """The interactive requests, each with a uniformly drawn faithful
    (a, b, c) mod d; their answers are recorded."""
    rng = random.Random(seed)
    pool = []
    for d in D_RANGE:
        for kind in ("report",) * 3 + ("gt-verdict", "minimal" if d % 2 else "invariants"):
            while True:
                w = [rng.randrange(d) for _ in range(3)]
                if math.gcd(*w, d) == 1:
                    break
            pool.append(request_argv(kind, d, w))
    return pool


def load_pool():
    return json.loads(POOL_FILE.read_text())


def with_seed(argv, seed):
    """Seeded commands receive the benchmark seed."""
    return argv + ["--seed", str(seed)] if argv[0] in SEEDED_KINDS else argv


def interactive_passes(pool, seed):
    """Endless passes, each the whole pool in a new seeded order, so that
    every run measures the same requests whatever the seed."""
    rng = random.Random(seed)
    while True:
        order = list(range(len(pool)))
        rng.shuffle(order)
        yield [with_seed(pool[i], seed) for i in order]


def passes(name, seed, toy=False):
    """The workload's passes, in order; endless for a timed run."""
    if name == "interactive":
        stream = interactive_passes(load_pool(), seed)
        if toy:
            yield next(stream)[:TOY_REQUESTS]
            return
        yield from stream
        return
    ops = {"scan": SCAN_TOY if toy else SCAN, "batch": BATCH_TOY if toy else BATCH}[name]
    while True:
        yield [list(argv) for argv in ops]
        if toy:
            return


def ops_per_pass(name):
    if name == "interactive":
        return len(load_pool())
    return {"scan": len(SCAN), "batch": len(BATCH)}[name]
