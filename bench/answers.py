"""Expected answers, recorded once from the code under test, and the check
of each call against them.

A record is {"exit": code, "output": parsed JSON report} for a clean run and
{"exit": code} for a run that exited nonzero.  A call is checked field by
field: every field present and non-null in the recorded output must be equal
in the new output.  `method` is ignored, as are fields that are null in the
record or that the record does not have, so that a later commit may fill in
an exact rank or add a section without failing the check.
"""

from __future__ import annotations

import gzip
import json
import random

from workloads import EXPECTED

IGNORED = frozenset({"method"})

OK, KNOWN_FAILURE, WRONG = "ok", "known_failure", "wrong"


def key(argv):
    """Record key of a call: its argv without the seed."""
    if "--seed" in argv:
        i = argv.index("--seed")
        argv = argv[:i] + argv[i + 2:]
    return " ".join(argv)


def path(workload):
    return EXPECTED / f"{workload}.json.gz"


def load(workload):
    with gzip.open(path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(workload, records):
    data = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    # mtime=0 keeps the file byte-identical when the answers do not change
    with open(path(workload), "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)


def record(exit_code, stdout):
    if exit_code != 0:
        return {"exit": exit_code}
    return {"exit": 0, "output": json.loads(stdout)}


def _draws(seed, n):
    """The seeded coefficient triples the CLI draws for --seed."""
    rng = random.Random(seed)
    return [[rng.randint(1, 9) * rng.choice((-1, 1)) for _ in range(3)] for _ in range(n)]


def for_seed(argv, output):
    """The recorded output rewritten to the seed in argv.

    Only echoed inputs depend on the seed.  The membership scales and the
    general-form coefficients are the seeded draws; the support size and the
    sampled ranks do not depend on them, because scaling each variable by a
    nonzero integer maps a monomial ideal to itself.
    """
    if "--seed" not in argv:
        return output
    seed = int(argv[argv.index("--seed") + 1])
    out = json.loads(json.dumps(output))
    results = out["results"]
    if argv[0] == "report":
        out["inputs"]["seed"] = seed
        forms = results.get("membership", {}).get("forms", [])
        for form, scales in zip(forms, _draws(seed, len(forms))):
            form["scales"] = scales
    samples = results.get("general_form_samples", [])
    for sample, coeffs in zip(samples, _draws(seed, len(samples))):
        sample["coeffs"] = coeffs
    return out


def matches(expected, got):
    if expected is None:
        return True
    if isinstance(expected, dict):
        return isinstance(got, dict) and all(
            k in got and matches(v, got[k])
            for k, v in expected.items()
            if k not in IGNORED and v is not None
        )
    if isinstance(expected, list):
        return (
            isinstance(got, list)
            and len(got) == len(expected)
            and all(matches(e, g) for e, g in zip(expected, got))
        )
    return type(expected) is type(got) and expected == got


def check(argv, expected, exit_code, stdout):
    """OK, KNOWN_FAILURE (nonzero exit, as recorded) or WRONG."""
    if exit_code != 0:
        return KNOWN_FAILURE if expected["exit"] == exit_code else WRONG
    if expected["exit"] != 0:
        return OK  # failed when recorded, fixed since: nothing to compare
    try:
        got = json.loads(stdout)
    except ValueError:
        return WRONG
    return OK if matches(for_seed(argv, expected["output"]), got) else WRONG
