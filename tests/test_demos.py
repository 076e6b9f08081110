"""Smoke test: every demo script and every python block of the README runs
to completion, and every `gtsys` example of the README gives what its
comment says."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gtsystems
from gtsystems.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
README_GTSYS = [line for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
                for line in block.splitlines() if line.startswith("gtsys ")]


def _run(argv):
    src = str(Path(gtsystems.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_all_three_readme_blocks_found():
    assert len(README_BLOCKS) == 3


# the value that the comment on each print of a README block states whole,
# by block and in print order, or None where the comment only describes it
README_PRINTED = [
    ["['x^7', 'x^4yz^2', 'x^2y^4z', 'xy^2z^4', 'y^7', 'z^7']", None, "True 27 28", "1 True True",
     None],
    ["[(2, 7, 12), (3, 5, 6, 8, 9, 11), (4, 10)]",
     "ClassCounts(N21=6, N22=0, N23=80, N3=1, N4=129, N6=22)", None],
    ["9", "((0,0,1), (1,2,1), (1,3,2), (2,4,2))", "((3, 16), (4, 3))"],
]


def _print_comments(block):
    """The comment on each print of block, in order: on the print's own line,
    or on the next line when the print has none there."""
    lines = block.splitlines() + [""]
    comments = []
    for line, after in zip(lines, lines[1:]):
        if line.startswith("print("):
            _, sep, comment = line.partition("  # ")
            comments.append(comment if sep else after.removeprefix("# "))
    return comments


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda b: b.split("\n")[0][:40])
def test_readme_block_runs(block):
    proc = _run(["-c", block])
    assert proc.returncode == 0, proc.stderr
    # one line per print, each equal, but for spaces, to the value its
    # comment states
    printed, comments = proc.stdout.splitlines(), _print_comments(block)
    stated = README_PRINTED[README_BLOCKS.index(block)]
    assert len(printed) == len(comments) == len(stated)
    for line, comment, value in zip(printed, comments, stated):
        if value is not None:
            assert comment.startswith(value), comment
            assert line.replace(" ", "") == value.replace(" ", ""), (line, value)


def test_all_thirteen_readme_gtsys_examples_found():
    assert len(README_GTSYS) == 13


def _readme_claim(argv, out, cwd):
    """The fact that the README's comment on the example states."""
    command = argv[0]
    if command == "invariants":  # 6 generators, artinian: true
        results = json.loads(out)["results"]
        assert (results["mu"], results["artinian"]) == (6, True)
    elif "--general-l" in argv:  # a random form: rank 1125749, as at x+y+z
        results = json.loads(out)["results"]
        assert results["base_rank"] == 1125749
        assert [s["rank"] for s in results["general_form_samples"]] == [1125749]
    elif command == "gt-verdict" and "1000000000000000003" in argv:  # d prime: mu 3+(d-1)/2
        d = 10**18 + 3
        verdict = json.loads(out)["results"]["verdict"]
        assert (verdict["mu"], verdict["fails_injectivity"], verdict["is_togliatti"]) == (
            3 + (d - 1) // 2, True, True)
    elif command == "gt-verdict" and "100000" in argv:  # mu 50005: a count, no elimination
        verdict = json.loads(out)["results"]["verdict"]
        assert (verdict["mu"], verdict["fails_injectivity"], verdict["method"]) == (
            50005, True, "conjugate_forms")
    elif command == "gt-verdict":  # rank 27 of 28: injectivity fails
        verdict = json.loads(out)["results"]["verdict"]
        assert (verdict["rank"], verdict["dim_source"], verdict["fails_injectivity"]) == (
            27, 28, True)
    elif command == "minimal":  # minimal: true, cross_check evaluation_mod_p
        results = json.loads(out)["results"]
        assert (results["minimal_circulant"], results["cross_check"]) == (True, "evaluation_mod_p")
    elif command == "classify":  # class table: (2,7,12) (3,5,6,8,9,11) (4,10)
        table = out.split("#### classes\n", 1)[1].split("\n### ", 1)[0]
        members = [row.split(" | ")[0].lstrip("| ") for row in table.splitlines()[2:]]
        assert members == ["2, 7, 12", "3, 5, 6, 8, 9, 11", "4, 10"]
    elif command == "circulant":  # value 0, exactly
        assert json.loads(out)["results"]["value"] == 0
    elif command == "conjecture-scan":  # one JSON object per (d,a,b) unit
        units = [json.loads(line) for line in out.splitlines()]
        assert len(units) == sum(d * (d - 1) // 2 for d in range(3, 14)) == 363
    elif command == "surface":  # degree 9, smooth, Betti rows
        results = json.loads(out)["results"]
        assert results["degree_model"]["degree"] == 9
        assert results["smoothness"]["smooth"] is True
        assert results["betti"]["rows"]
    elif command == "arrangement":  # census {2:12, 4:9}, exponents (4,7)
        results = json.loads(out)["results"]
        assert {c["mult"]: c["count"] for c in results["census"]} == {2: 12, 4: 9}
        assert results["exponents"] == [4, 7]
    elif command == "report":  # written to report.json
        assert out == ""
        assert json.loads((cwd / "report.json").read_text())["command"] == "report"
    else:
        raise AssertionError(f"no claim checked for {command}")


def _example_id(line):
    return (line.split()[1] + ("-general-l" if "--general-l" in line else "")
            + ("-d100000" if "--d 100000 " in line else "")
            + ("-d1000" if "--d 1000 " in line else "")
            + ("-d1000000000000000003" if "--d 1000000000000000003 " in line else ""))


@pytest.mark.parametrize("line", README_GTSYS, ids=_example_id)
def test_readme_gtsys_example(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    _readme_claim(argv, out, tmp_path)
