"""A fresh gtsys process imports only the modules its command runs.

Each case runs in its own interpreter, so the modules it finds loaded are
exactly those the package and the command imported.  The children inherit
this interpreter's -O, so the checks also hold under python -O.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the modules that only the census, surface and classification commands use
HEAVY = ("arrangements", "classification", "cyclotomic", "surface")

SUBMODULES = ("actions", "arrangements", "circulant", "classification", "cli",
              "cyclotomic", "errors", "polymat", "primes", "surface", "wlp")

# the frozen-record base, which every module with a record imports
RECORD = "_record"

# argparse and the modules it loads, only for a call that is not plain
ARGPARSE = ("argparse", "gettext", "locale")

# standard library modules that no plain gtsys call loads: the records are
# not dataclasses, and cli's own writer writes every JSON text, --stream lines
# and csv cells included
UNUSED_STDLIB = ("dataclasses", "inspect", "json", *ARGPARSE)


def fresh(code, *args):
    """Run code in a new interpreter with src on the path; its stdout."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    flags = ["-O"] * sys.flags.optimize
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(argv):
    """(exit code, loaded gtsystems submodules, loaded top-level modules) of
    one command in a new process; the command's own output is dropped, and
    the modules are listed before json is imported to print them."""
    code = (
        "import contextlib, io, sys\n"
        "from gtsystems import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "names = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, names]))\n"
    )
    exit_code, names = json.loads(fresh(code, *argv))
    return (exit_code, {n.partition(".")[2] for n in names if n.startswith("gtsystems.")},
            {n for n in names if "." not in n})


@pytest.mark.parametrize("argv", [
    ("invariants", "--d", "7", "--a", "3"),
    ("gt-verdict", "--d", "7", "--a", "3", "--general-l", "2"),
    ("minimal", "--d", "7", "--action", "0,1,3", "--subset-oracle"),
    ("report", "--d", "7", "--action", "0,1,3"),
    ("classify", "--d", "12"),
    ("circulant", "--d", "6"),
    ("conjecture-scan", "--dmax", "5"),
    ("surface", "--d", "6"),
    ("arrangement", "--type", "fermat", "--d", "3"),
    ("conjecture-scan", "--dmax", "5", "--stream"),
    ("report", "--d", "7", "--action", "0,1,3", "--format", "csv"),
    ("classify", "--d", "12", "--format", "md"),
], ids=lambda argv: "-".join([argv[0], *(a.lstrip("-") for a in argv[1:]
                                            if a in ("--stream", "csv", "md"))]))
def test_no_command_loads_dataclasses_inspect_or_json(argv):
    code, loaded, top = loaded_after(argv)
    assert code == 0
    assert RECORD in loaded
    assert not top & set(UNUSED_STDLIB), sorted(top & set(UNUSED_STDLIB))


@pytest.mark.parametrize("argv,expands", [
    (("minimal", "--d", "7", "--action", "0,1,3", "--subset-oracle"), False),
    (("gt-verdict", "--d", "7", "--a", "3", "--general-l", "2"), False),
    (("invariants", "--d", "7", "--a", "3"), False),
    (("conjecture-scan", "--dmax", "5"), True),
    (("circulant", "--d", "6"), True),
])
def test_per_ideal_commands_load_no_heavy_module(argv, expands):
    # minimal cross-checks its product mod p (primes), and only the commands
    # that print or record a Newton expansion load circulant
    code, loaded, _ = loaded_after(argv)
    assert code == 0
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))
    assert {"cli", "actions", "wlp", "primes", "polymat", "errors", RECORD} <= loaded
    assert ("circulant" in loaded) == expands


def test_report_loads_no_census_module():
    # the membership forms read the restriction's product: no arrangements,
    # and with them no cyclotomic, and no Newton expansion, so no circulant
    code, loaded, _ = loaded_after(("report", "--d", "7", "--action", "0,1,3"))
    assert code == 0
    assert loaded == set(SUBMODULES) - {"arrangements", "cyclotomic", "circulant"} | {RECORD}


def test_bare_import_loads_no_submodule_and_resolves_every_name():
    code = (
        "import json, sys\n"
        "import gtsystems\n"
        "before = sorted(n for n in sys.modules if n.startswith('gtsystems.'))\n"
        "names = {}\n"
        "for name in gtsystems.__all__:\n"
        "    value = getattr(gtsystems, name)\n"
        "    names[name] = getattr(value, '__module__', None)\n"
        "subs = {n: getattr(gtsystems, n).__name__ for n in sys.argv[1:]}\n"
        "try:\n"
        "    gtsystems.projective_key\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "unused = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "print(json.dumps([before, names, subs, missing, sorted(dir(gtsystems)), unused]))\n"
    )
    before, names, subs, missing, listed, unused = json.loads(fresh(code, *SUBMODULES))
    assert before == []
    assert unused == []
    for name, module in names.items():
        if name != "__version__":
            assert module.startswith("gtsystems."), (name, module)
    assert subs == {n: f"gtsystems.{n}" for n in SUBMODULES}
    assert missing == "module 'gtsystems' has no attribute 'projective_key'"
    assert set(names) | set(SUBMODULES) <= set(listed)


@pytest.mark.parametrize("argv,plain", [
    (("minimal", "--d", "7", "--action", "0,1,3"), True),
    (("report", "--d", "7", "--action", "0,1,3"), True),
    (("minimal", "--d", "7", "--act", "0,1,3"), False),
    (("report", "--d=7", "--action", "0,1,3"), False),
])
def test_a_plain_call_builds_no_parser(argv, plain):
    # and any other call builds the full parser: one parser for gtsys and
    # one per command
    code = (
        "import contextlib, io, json, sys\n"
        "from gtsystems import cli\n"
        "built = []\n"
        "init = cli._parser_class().__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "cli._parser_class().__init__ = counted\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, built, list(cli._COMMANDS)]))\n"
    )
    code, built, commands = json.loads(fresh(code, *argv))
    assert (code, built) == (0, [] if plain else ["gtsys", *(f"gtsys {c}" for c in commands)])


def imported_by(*argv):
    """(exit code, the modules that python -X importtime -m gtsystems.cli
    argv imports, interpreter start-up included)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    flags = ["-O"] * sys.flags.optimize
    proc = subprocess.run([sys.executable, *flags, "-X", "importtime", "-m", "gtsystems.cli",
                           *argv], capture_output=True, text=True, env=env)
    names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


@pytest.mark.parametrize("argv,code,loads_argparse", [
    (("gt-verdict", "--d", "7", "--a", "3"), 0, False),
    (("report", "-h"), 0, True),
    (("gt-verdict", "--d", "7", "--a", "3", "--general-l", "-1"), 1, True),
    (("gt-verdict", "--d", "7", "--act", "0,1,3"), 0, True),
])
def test_argparse_loads_only_for_calls_that_are_not_plain(argv, code, loads_argparse):
    got, names = imported_by(*argv)
    assert "gtsystems.wlp" in names  # imported by the cli module that -m runs
    assert got == code
    assert {n: n in names for n in ARGPARSE} == dict.fromkeys(ARGPARSE, loads_argparse)
