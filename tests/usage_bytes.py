"""The help and usage bytes of gtsys, pinned: exit code, stdout and stderr of
`gtsys -h`, of each command's -h, of no arguments, of the usage errors of
tests/test_cli.py::TestOneArgparseRoute and of REFUSED, a malformed value
that the parser takes and the command refuses, each through cli.main
in-process at a help width of 80 columns.

argparse words and wraps some lines differently from one Python version to
the next, so usage_bytes.json holds the records of each X.Y it was made with.
To record the running interpreter's bytes (from the repository root):

    PYTHONPATH=src python tests/usage_bytes.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().with_suffix(".json")
COLUMNS = "80"

# a negative --general-l: an int to the parser, invalid input to the command
REFUSED = ("gt-verdict", "--d", "7", "--a", "3", "--general-l", "-1")

COMMANDS = ("invariants", "gt-verdict", "minimal", "classify", "circulant",
            "conjecture-scan", "surface", "arrangement", "report")

CALLS = [
    ("-h",), (), ("rep",), ("rep", "--d", "7"),
    ("--format", "json", "report", "--d", "7", "--a", "3"),
    *[(name, "-h") for name in COMMANDS],
    *[(name,) for name in COMMANDS],  # a missing --d or --dmax
    *[(name, "--d", "x") for name in COMMANDS],
    *[(name, "--format", "xml", "--d", "7") for name in COMMANDS],
    *[(name, "--d", "7", "extra") for name in COMMANDS],
    ("report", "--d", "7", "--action", "0,1,3", "--a", "4"),
    ("invariants", "--d", "7", "--action", "0,1,3", "--a", "4"),
    REFUSED,
    ("report", "--d", "7", "--a", "3", "--general-l", "x"),
    ("report", "--d", "7", "--a", "3", "extra", "more"),
    ("minimal", "--d", "7", "--action", "0,1,3", "--subset-oracle", "--bogus"),
    ("arrangement", "--type", "square", "--d", "3"),
    ("conjecture-scan", "--dmax", "5", "--stream", "--dmin", "3"),
]


def version():
    return "%d.%d" % sys.version_info[:2]


def record(argv):
    """[argv, exit code, stdout, stderr] of cli.main(argv); the exit code is
    main's return value or that of the SystemExit it raised.  COLUMNS must
    be set to COLUMNS."""
    from gtsystems import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return [list(argv), code, out.getvalue(), err.getvalue()]


def load():
    """{X.Y: [record, ...]} as recorded."""
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    recorded = load() if FIXTURE.exists() else {}
    recorded[version()] = [record(argv) for argv in CALLS]
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
