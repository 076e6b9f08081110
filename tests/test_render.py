"""The JSON emitter of `gtsys --format json` writes exactly what
json.dumps(value, indent=2, sort_keys=True) writes."""

import enum
import gzip
import json
import math
import random
from pathlib import Path

import pytest

from gtsystems import cli

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected"


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


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


def test_a_fresh_report_of_every_command(capsys):
    for argv in (["report", "--d", "7", "--a", "3", "--general-l", "2"],
                 ["surface", "--d", "5"], ["arrangement", "--type", "ceva", "--d", "3"],
                 ["classify", "--d", "12"], ["circulant", "--d", "4"],
                 ["conjecture-scan", "--dmax", "6"], ["minimal", "--d", "9", "--a", "2"]):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out == reference(json.loads(out)), argv


STRINGS = ["", "plain", 'quote " and \\ backslash', "tab\t new\nline\r", "\x00\x01\x1f\x7f",
           "café", "✓ ζ_d", "\U0001d53d surrogate pair", "\ud800 lone", "/"]
FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, -1e-300, 0.1, 1 / 3, float("nan"), float("inf"),
          float("-inf"), 5e-324]
INTS = [0, 1, -1, 2**63, -(2**64) - 1, 10**40, -7]


def random_value(rng, depth=0):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if kind == 1:
        return rng.choice(INTS + [rng.randint(-10**6, 10**6)])
    if kind == 2:
        return rng.choice(FLOATS)
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return rng.choice([[], {}, ()])
    if kind in (5, 6):
        items = [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
        return tuple(items) if kind == 6 else items
    return {rng.choice(STRINGS) + str(i): random_value(rng, depth + 1)
            for i in range(rng.randrange(6))}


def test_random_nested_values():
    rng = random.Random(1968)
    for _ in range(2000):
        value = random_value(rng)
        assert cli._render(value, "json") == reference(value), value


@pytest.mark.parametrize("value", [
    True, False, None, 0, -0.0, float("nan"), "", [], {}, (), [True, 1, 1.0, False, 0],
    {"b": [1, {"a": ()}], "a": {"z": None, "y": [[], {}]}},
    {"true": True, "1": 1, "one": 1.0},
])
def test_edge_values(value):
    assert cli._render(value, "json") == reference(value)


def test_int_float_and_str_subclasses_follow_json():
    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    class Ratio(float):
        pass

    class Loud(int):
        def __str__(self):
            return "loud"

        __repr__ = __str__

    value = {Name("k"): [Level.HIGH, Ratio(0.5), Name("v"), Loud(5)], "n": math.inf}
    assert cli._render(value, "json") == reference(value)


@pytest.mark.parametrize("value", [
    {1: "int key"}, {None: 0}, {("a",): 0}, {"a": 1, 2: "mixed"},
    {"a": object()}, [{1, 2}], b"bytes", 1j,
])
def test_no_str_key_or_no_json_type_raises_type_error(value):
    with pytest.raises(TypeError):
        cli._render(value, "json")
