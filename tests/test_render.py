"""The one JSON writer of gtsys writes exactly what json.dumps(value,
indent=2, sort_keys=True) writes for --format json, and on one line what
json.dumps(value, sort_keys=True) writes for --stream lines and csv cells:
for a dict, list or tuple of str, int, bool and None.  Any other value, a
float, a subclass of those types or a top-level scalar, raises TypeError."""

import csv
import enum
import gzip
import io
import json
import random
from pathlib import Path

import pytest

from gtsystems import cli

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected"


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def one_line(value):
    return json.dumps(value, sort_keys=True)


def recorded_reports():
    """Every report recorded for the benchmark (read only)."""
    for path in sorted(EXPECTED.glob("*.json.gz")):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            for key, record in sorted(json.load(fh).items()):
                if "output" in record:
                    yield f"{path.name}: {key}", record["output"]


def test_every_recorded_answer():
    seen = 0
    for name, report in recorded_reports():
        assert cli._render(report, "json") == reference(report), name
        seen += 1
    assert seen >= 150


def csv_cells(value, prefix, cells):
    """The csv key of each list and scalar in value, as the csv rendering
    keys it, with its cell: a str as it is, and any other value as its
    one-line JSON text, so null, true and false as JSON spells them."""
    if isinstance(value, dict):
        for k, v in value.items():
            csv_cells(v, f"{prefix}.{k}" if prefix else k, cells)
    else:
        cells[prefix] = value if isinstance(value, str) else one_line(value)


def test_a_fresh_report_of_every_command(capsys):
    # every command's own report holds no float and no subclass, which the
    # writer refuses, in json and in csv; an empty csv cell is an empty str
    for argv in (["invariants", "--d", "7", "--a", "3"],
                 ["gt-verdict", "--d", "7", "--a", "3", "--general-l", "2"],
                 ["report", "--d", "7", "--a", "3", "--general-l", "2"],
                 ["surface", "--d", "5"], ["arrangement", "--type", "ceva", "--d", "3"],
                 ["classify", "--d", "12"], ["circulant", "--d", "4"],
                 ["conjecture-scan", "--dmax", "6"], ["minimal", "--d", "9", "--a", "2"],
                 ["gt-verdict", "--d", "40", "--action", "0,1,3"]):  # rank null past d = 16
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert out == reference(report), argv
        assert cli.main(argv + ["--format", "csv"]) == 0
        rows = csv.reader(io.StringIO(capsys.readouterr().out))
        got = {key: value for section, key, value, _ in rows if section in ("inputs", "results")}
        cells = {}
        for section in ("inputs", "results"):
            csv_cells(report[section], "", cells)
        assert got == cells, argv


def test_every_stream_line_is_one_line_json(capsys):
    assert cli.main(["conjecture-scan", "--dmax", "6", "--stream"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 1
    for line in lines:
        assert line == one_line(json.loads(line))


STRINGS = ["", "plain", 'quote " and \\ backslash', "tab\t new\nline\r", "\x00\x01\x1f\x7f",
           "café", "✓ ζ_d", "\U0001d53d surrogate pair", "\ud800 lone", "/"]
INTS = [0, 1, -1, 2**63, -(2**64) - 1, 10**40, -7]


def random_value(rng, depth=0):
    """A str, int, bool or None, or a list, tuple or dict of such values;
    at depth 0 always a list, tuple or dict."""
    kind = rng.randrange(3 if depth == 0 else 0, 8 if depth < 4 else 4)
    if kind == 0:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if kind == 1:
        return rng.choice(INTS + [rng.randint(-10**6, 10**6)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([[], {}, ()])
    if kind in (4, 5):
        items = [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
        return tuple(items) if kind == 5 else items
    return {rng.choice(STRINGS) + str(i): random_value(rng, depth + 1)
            for i in range(rng.randrange(6))}


def test_random_nested_values():
    rng = random.Random(1968)
    for _ in range(2000):
        value = random_value(rng)
        assert cli._render(value, "json") == reference(value), value
        assert cli._json_text(value, None) == one_line(value), value


@pytest.mark.parametrize("value", [
    [], {}, (), [True, 1, False, 0, None, ""], [[[]], [{}], ()],
    {"b": [1, {"a": ()}], "a": {"z": None, "y": [[], {}]}},
    {"true": True, "1": 1, "one": "1", "none": None},
])
def test_edge_values(value):
    assert cli._render(value, "json") == reference(value)
    assert cli._json_text(value, None) == one_line(value)


class Level(enum.IntEnum):
    HIGH = 3


class Name(str):
    pass


@pytest.mark.parametrize("value", [
    [1.5], {"x": float("nan")}, [float("inf")], {"x": [float("-inf")]}, [Level.HIGH],
    {"name": Name("v")}, "top", 7, True, None,
], ids=["float", "nan", "infinity", "negative_infinity", "int_enum", "str_subclass",
        "top_str", "top_int", "top_bool", "top_none"])
def test_floats_subclasses_and_top_level_scalars_raise_type_error(value):
    with pytest.raises(TypeError):
        cli._render(value, "json")
    with pytest.raises(TypeError):
        cli._json_text(value, None)


@pytest.mark.parametrize("value", [
    {1: "int key"}, {None: 0}, {("a",): 0}, {"a": 1, 2: "mixed"},
    {"a": object()}, [{1, 2}], b"bytes", 1j,
])
def test_no_str_key_or_no_json_type_raises_type_error(value):
    with pytest.raises(TypeError):
        cli._render(value, "json")
    with pytest.raises(TypeError):
        cli._json_text(value, None)
