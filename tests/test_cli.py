"""Command-line interface: exit codes, report schema, formats, determinism."""

import argparse
import ast
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import usage_bytes
from polyring import add
from test_wlp import oracle_rank

import gtsystems
from gtsystems import (
    __version__, actions, arrangements, circulant, classification, cli, polymat, surface, wlp,
)
from gtsystems.cli import DEFAULT_SEED, build_parser, main


def _doubled(product):
    """product (circulant_product) with every coefficient doubled: a wrong
    Newton product."""
    return lambda d, w: polymat.SparsePoly(3, add({}, product(d, w).terms, 2))


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse error paths
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestReportSchema:
    def test_json_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--d", "3", "--a", "2")
        assert code == 0
        report = json.loads(out)
        assert report["tool_version"] == __version__
        assert report["command"] == "invariants"
        assert report["inputs"]["d"] == 3
        assert isinstance(report["results"], dict)
        for check in report["checks"]:
            assert check["status"] in {"pass", "fail", "finding"}

    def test_explicit_action_triple(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--d", "42", "--action", "0,3,7")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["mu"] == 28

    def test_gt_verdict_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "gt-verdict", "--d", "7", "--a", "3")
        assert code == 0
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["artinian"] == "pass"
        assert statuses["injectivity_fails"] == "pass"
        assert statuses["generator_bound"] == "pass"

    def test_general_form_sampling_ranks_agree(self, capsys):
        code, out, _ = run_cli(capsys, "gt-verdict", "--d", "5", "--a", "2", "--general-l", "3")
        assert code == 0
        report = json.loads(out)
        samples = report["results"]["general_form_samples"]
        assert len(samples) == 3
        base = report["results"]["base_rank"]
        assert all(s["rank"] == base for s in samples)

    def test_classify_reports_finding_not_failure(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--d", "7")
        assert code == 0
        report = json.loads(out)
        statuses = {c["status"] for c in report["checks"]}
        assert "finding" in statuses  # published-vs-oracle count mismatch
        assert "fail" not in statuses


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_invalid_d(self, capsys):
        code, _, _ = run_cli(capsys, "invariants", "--d", "0", "--a", "2")
        assert code == 1

    def test_invalid_action_weights(self, capsys):
        code, _, _ = run_cli(capsys, "invariants", "--d", "6", "--action", "0,2,4")
        assert code == 1

    def test_missing_required_argument(self, capsys):
        code, _, _ = run_cli(capsys, "invariants")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("gt-verdict", "--d", "7", "--a", "3", "--general-l", "-2"),
        ("report", "--d", "7", "--a", "3", "--general-l", "-1"),
    ])
    def test_negative_general_l_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "argument --general-l: the number of samples must be >= 0" in err

    @pytest.mark.parametrize("n", [cli.GENERAL_L_LIMIT + 1, 10**9])
    @pytest.mark.parametrize("command", ["gt-verdict", "report"])
    def test_general_l_past_its_limit_is_refused(self, capsys, monkeypatch, command, n):
        def no_sample(rng):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(cli, "random_scales", no_sample)
        code, out, err = run_cli(capsys, command, "--d", "7", "--a", "3", "--general-l", str(n))
        assert code == 1 and out == ""
        assert err.endswith(f"gtsys {command}: error: argument --general-l: the number of "
                            f"samples has a size limit of 100000 (GENERAL_L_LIMIT), got {n}\n")

    def test_general_l_at_its_limit(self, capsys):
        assert cli.GENERAL_L_LIMIT == 100000
        code, out, _ = run_cli(capsys, "gt-verdict", "--d", "7", "--a", "3", "--general-l",
                               str(cli.GENERAL_L_LIMIT))
        assert code == 0
        assert out.count('"coeffs"') == cli.GENERAL_L_LIMIT

    @pytest.mark.parametrize("weights", ["1,2,x", "1,2,", "1,,2", "a,b,c"])
    def test_action_that_is_no_integer_triple(self, capsys, weights):
        code, out, err = run_cli(capsys, "invariants", "--d", "5", "--action", weights)
        assert (code, out) == (1, "")
        assert err == ("gtsys: error: --action expects three comma-separated integer weights, "
                       f"got '{weights}'\n")

    @pytest.mark.parametrize("option", [("--a", "3"), ("--action", "0,1,3")])
    def test_classify_takes_no_action(self, capsys, option):
        # the classes depend on d alone
        code, out, err = run_cli(capsys, "classify", "--d", "13", *option)
        assert code == 1 and out == ""
        assert err.endswith(f"gtsys: error: unrecognized arguments: {' '.join(option)}\n")

    @pytest.mark.parametrize("command", ["invariants", "gt-verdict", "minimal", "report"])
    def test_action_and_a_conflict(self, capsys, command):
        # both name the action, so neither may be dropped in silence
        code, out, err = run_cli(capsys, command, "--d", "7", "--action", "0,1,3", "--a", "5")
        assert code == 1 and out == ""
        assert "[--action ACTION | --a A]" in err
        assert err.endswith("error: argument --a: not allowed with argument --action\n")

    @pytest.mark.parametrize("section", [("--a", "1", "--b", "3"), ("--a", "1"), ("--b", "3")])
    def test_circulant_coeff_conflicts_with_the_section(self, capsys, section):
        # a coefficient of the general form and a ternary section are two answers
        code, out, err = run_cli(capsys, "circulant", "--d", "7", "--coeff", "0,0,0,0,0,0,0",
                                 *section)
        assert code == 1 and out == ""
        assert err == "gtsys: error: --coeff queries the general form; it takes no --a or --b\n"

    @pytest.mark.parametrize("coeff", ["", "1,x,2"])
    def test_coeff_that_is_no_integer_list_is_refused(self, capsys, coeff):
        # an empty query names no coefficient; it is not the general form
        code, out, err = run_cli(capsys, "circulant", "--d", "5", "--coeff", coeff)
        assert code == 1 and out == ""
        assert err == ("gtsys: error: --coeff expects comma-separated integer row indices, "
                       f"got {coeff!r}\n")

    def test_oversized_request_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "circulant", "--d", "25")
        assert code == 1

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gtsystems.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "subcommand" in proc.stdout or "usage" in proc.stdout


def _spy_invariant_monomials(monkeypatch):
    """Count the invariant scans in every gtsystems module that holds the
    function; the returned list grows by one action per scan."""
    calls = []
    real = actions.invariant_monomials

    def spy(action):
        calls.append(action)
        return real(action)

    for module in (gtsystems, actions, arrangements, circulant, classification, cli, surface, wlp):
        if getattr(module, "invariant_monomials", None) is real:
            monkeypatch.setattr(module, "invariant_monomials", spy)
    return calls


# faithful actions whose shifted weights share a factor with d
UNFAITHFUL_SHIFTS = [
    ("report", "5", "4,4,4"), ("report", "6", "5,1,1"), ("report", "9", "4,4,4"),
    ("report", "12", "1,3,1"), ("invariants", "12", "5,7,5"), ("report", "16", "15,3,11"),
    ("invariants", "16", "15,15,15"), ("report", "18", "9,11,11"), ("report", "20", "13,5,13"),
    ("report", "24", "7,13,21"), ("report", "24", "20,5,17"), ("report", "26", "11,13,7"),
    ("report", "34", "5,21,7"), ("report", "36", "29,25,1"),
]


class TestFaithfulActions:
    @pytest.mark.parametrize("command,d,weights", UNFAITHFUL_SHIFTS)
    def test_every_faithful_action_is_accepted(self, capsys, command, d, weights):
        code, out, err = run_cli(capsys, command, "--d", d, "--action", weights)
        assert code == 0, err
        results = json.loads(out)["results"]
        w = [int(v) for v in weights.split(",")]
        shifted = sorted((v - w[0]) % int(d) for v in w)
        assert math.gcd(*shifted, int(d)) > 1
        invariants = results if command == "invariants" else results["invariants"]
        assert invariants["normalized"] == {"d": int(d), "weights": shifted}
        if command == "report":
            assert ("minimal" in results) == (len(set(w)) == 3)

    @pytest.mark.parametrize("d,weights", [c[1:] for c in UNFAITHFUL_SHIFTS if c[0] == "report"])
    def test_report_agrees_with_an_equivalent_action(self, capsys, d, weights):
        # a unit multiple of the weights, with x and z swapped, has the same
        # ideal up to the swap, so every section but the echoed action agrees
        n = int(d)
        w = [int(v) for v in weights.split(",")]
        unit = next(u for u in range(n - 1, 0, -1) if math.gcd(u, n) == 1)
        other = ",".join(str(unit * v % n) for v in reversed(w))
        reports = []
        for action in (weights, other):
            code, out, _ = run_cli(capsys, "report", "--d", d, "--action", action)
            assert code == 0
            reports.append(json.loads(out)["results"])
        first, second = reports
        for key in ("mu", "rank", "fails_injectivity", "is_togliatti"):
            assert first["verdict"]["verdict"][key] == second["verdict"]["verdict"][key], key
        assert first["invariants"]["mu"] == second["invariants"]["mu"]
        assert first.get("minimal", {}).get("minimal_circulant") == \
            second.get("minimal", {}).get("minimal_circulant")
        sizes = [[f["support_size"] for f in r.get("membership", {}).get("forms", [])]
                 for r in reports]
        assert sizes[0] == sizes[1]

    def test_minimal_on_unfaithful_shifted_weights(self, capsys):
        # (1, 3, 5) mod 6 shifts to (0, 2, 4): three distinct weights, but the
        # ideal is no Togliatti system, so minimality is not defined for it
        for extra in ((), ("--subset-oracle",)):
            code, out, err = run_cli(capsys, "minimal", "--d", "6", "--action", "1,3,5", *extra)
            assert code == 1 and out == ""
            assert err == ("gtsys: error: not a Togliatti system: "
                           "minimality is defined only for a Togliatti system\n")

    @pytest.mark.parametrize("argv", [
        ("--d", "9", "--action", "7,7,5"),
        ("--d", "9", "--action", "4,8,8"),
        ("--d", "9", "--action", "0,0,1", "--subset-oracle"),
        ("--d", "3", "--a", "3"),
        ("--d", "129", "--action", "0,0,1"),
        ("--d", "200", "--action", "0,1,1"),
        ("--d", "6", "--action", "5,1,1"),
    ])
    def test_repeated_weight_has_one_message(self, capsys, monkeypatch, argv):
        scans = _spy_invariant_monomials(monkeypatch)
        code, out, err = run_cli(capsys, "minimal", *argv)
        assert code == 1 and out == ""
        assert err == "gtsys: error: repeated weights do not give a Togliatti system\n"
        assert scans == []

    def test_non_faithful_input_is_still_rejected(self, capsys):
        for command in ("invariants", "gt-verdict", "minimal", "report"):
            code, out, err = run_cli(capsys, command, "--d", "6", "--action", "0,2,4")
            assert code == 1 and out == ""
            assert "the action is not faithful" in err


class TestOneIdealPerCommand:
    @pytest.mark.parametrize("argv", [
        ("report", "--d", "7", "--action", "0,1,3"),
        ("report", "--d", "9", "--action", "1,1,4", "--general-l", "2"),
        ("gt-verdict", "--d", "7", "--a", "3"),
        ("gt-verdict", "--d", "12", "--a", "5", "--general-l", "2"),
        ("minimal", "--d", "13", "--a", "4", "--subset-oracle"),
        ("invariants", "--d", "7", "--a", "3"),
    ])
    def test_one_invariant_scan_per_command(self, capsys, monkeypatch, argv):
        scans = _spy_invariant_monomials(monkeypatch)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(scans) == 1

    def test_report_builds_no_namespace(self, monkeypatch):
        args = build_parser().parse_args(["report", "--d", "7", "--action", "0,1,3"])

        def no_namespace(*args, **kwargs):
            raise AssertionError("report built a Namespace for its sections")

        monkeypatch.setattr(argparse, "Namespace", no_namespace)
        report = cli.cmd_report(args)
        assert list(report["results"]) == [
            "invariants", "verdict", "minimal", "classification", "class_counts",
            "surface", "membership",
        ]


def _spy_circulant_products(monkeypatch):
    """Count the Newton expansions in every module that holds the function."""
    calls = []
    real = circulant.circulant_product

    def spy(d, positions):
        calls.append((d, tuple(positions)))
        return real(d, positions)

    for module in (circulant, wlp):
        monkeypatch.setattr(module, "circulant_product", spy)
    return calls


# the pool's report requests whose ideal has three distinct weights but is no
# Togliatti system (mu > d + 1)
NOT_TOGLIATTI_REPORTS = [
    ("16", "15,3,11"), ("24", "7,13,21"), ("24", "20,5,17"),
    ("26", "11,13,7"), ("34", "5,21,7"), ("36", "29,25,1"),
]


class TestTogliattiFirst:
    @pytest.mark.parametrize("d,weights", NOT_TOGLIATTI_REPORTS)
    def test_report_minimal_section_does_not_apply(self, capsys, d, weights):
        code, out, err = run_cli(capsys, "report", "--d", d, "--action", weights)
        assert code == 0, err
        report = json.loads(out)
        minimal = report["results"]["minimal"]
        assert minimal["applies"] is False
        assert minimal["reason"].startswith("not a Togliatti system")
        assert "minimal_circulant" not in minimal
        assert report["results"]["verdict"]["verdict"]["is_togliatti"] is False
        assert not [c for c in report["checks"] if c["name"].startswith("minimal.")]

    def test_minimal_refuses_an_ideal_that_is_no_togliatti_system(self, capsys):
        code, out, err = run_cli(capsys, "minimal", "--d", "6", "--action", "1,3,5")
        assert code == 1 and out == ""
        assert err == f"gtsys: error: {wlp.NOT_TOGLIATTI}\n"

    @pytest.mark.parametrize("argv,cross_check", [
        (("minimal", "--d", "7", "--action", "0,1,3"), "newton_product"),
        (("minimal", "--d", "13", "--a", "4", "--subset-oracle"), "newton_product"),
        (("minimal", "--d", "200", "--a", "3"), None),
    ])
    def test_minimal_names_its_route(self, capsys, argv, cross_check):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        results = json.loads(out)["results"]
        assert results["route"] == "kernel_vector"
        assert results["cross_check"] == cross_check
        assert results["minimal_circulant"] is True

    def test_report_names_its_route(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--d", "7", "--action", "0,1,3")
        assert code == 0
        minimal = json.loads(out)["results"]["minimal"]
        assert minimal["route"] == "kernel_vector"
        assert minimal["cross_check"] is None

    @pytest.mark.parametrize("argv,printed", [
        (("minimal", "--d", "13", "--a", "4", "--subset-oracle"), True),
        (("minimal", "--d", str(circulant._TERNARY_LIMIT), "--a", "3", "--subset-oracle"), True),
        (("minimal", "--d", str(circulant._TERNARY_LIMIT + 1), "--a", "3", "--subset-oracle"),
         False),
        (("minimal", "--d", "13", "--a", "4"), False),
    ])
    def test_routes_agree_only_after_the_newton_cross_check(self, capsys, argv, printed):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        report = json.loads(out)
        names = [c["name"] for c in report["checks"]]
        assert ("routes_agree" in names) == printed
        assert (report["results"]["cross_check"] == "newton_product") == (
            int(argv[2]) <= circulant._TERNARY_LIMIT)

    def test_newton_disagreement_exits_2(self, capsys, monkeypatch):
        real = circulant.circulant_product
        monkeypatch.setattr(wlp, "circulant_product", _doubled(real))
        code, out, err = run_cli(capsys, "minimal", "--d", "7", "--action", "0,1,3")
        assert code == 2 and out == ""
        assert "the Newton product disagrees with the kernel vector" in err

    def test_scan_newton_disagreement_exits_2(self, capsys, monkeypatch):
        # the same products' supports agree; the scan compares every term
        real = circulant.circulant_product
        monkeypatch.setattr(wlp, "circulant_product", _doubled(real))
        code, out, err = run_cli(capsys, "conjecture-scan", "--dmax", "5")
        assert code == 2 and out == ""
        assert err == "gtsys: consistency failure: the Newton product disagrees with the kernel vector\n"

    def test_nullity_two_is_not_minimal_and_not_cross_checked(self, capsys, monkeypatch):
        # a Togliatti system with nullity 2 is not minimal, whatever the
        # Newton product's support; nothing is compared with v
        real = wlp.restriction

        def nullity_two(ideal):
            return real(ideal).replace(nullity=2)

        monkeypatch.setattr(cli, "restriction", nullity_two)
        for extra in ((), ("--subset-oracle",)):
            code, out, err = run_cli(capsys, "minimal", "--d", "7", "--action", "0,1,3", *extra)
            assert code == 0, err
            report = json.loads(out)
            assert report["results"]["minimal_circulant"] is False
            assert report["results"]["cross_check"] is None
            assert "routes_agree" not in [c["name"] for c in report["checks"]]


class TestOneRestrictionPerCommand:
    # (0, 2, 5) mod 30 has no weight difference that is a unit mod 30: seven
    # rows of E are left over, and the sweep takes fraction-free steps at its
    # free columns.  In the paper's family one row is left over and it takes
    # none, nor where the unit pivots alone reach the rank: (1, 1, 4) mod 9,
    # and (15, 3, 11) mod 16, whose 25 leftover rows are zero at its one free
    # column.  gt-verdict reads the count of conjugate forms and sweeps
    # nothing, with or without --general-l
    @pytest.mark.parametrize("argv,stepped,restrictions,products", [
        (("report", "--d", "7", "--action", "0,1,3"), False, 1, 0),
        (("report", "--d", "7", "--action", "0,1,3", "--general-l", "2"), False, 1, 0),
        # repeated weight, nullity 12: the 10 columns all have a unit pivot
        (("report", "--d", "9", "--action", "1,1,4"), False, 1, 1),
        (("report", "--d", "16", "--action", "15,3,11"), False, 1, 0),
        (("report", "--d", "30", "--action", "0,2,5"), True, 1, 0),
        (("report", "--d", "30", "--action", "0,2,5", "--general-l", "1"), True, 1, 0),
        (("gt-verdict", "--d", "7", "--a", "3"), False, 0, 0),
        (("gt-verdict", "--d", "7", "--a", "3", "--general-l", "2"), False, 0, 0),
        (("gt-verdict", "--d", "30", "--action", "0,2,5"), True, 0, 0),
        (("gt-verdict", "--d", "30", "--action", "0,2,5", "--general-l", "3"), True, 0, 0),
        (("minimal", "--d", "7", "--action", "0,1,3"), False, 1, 1),
        (("minimal", "--d", "13", "--a", "4", "--subset-oracle"), False, 1, 1),
        (("minimal", "--d", "200", "--a", "3"), False, 1, 0),
        (("minimal", "--d", "30", "--action", "0,2,5"), True, 1, 1),
    ])
    def test_counts(self, capsys, monkeypatch, sweeps, argv, stepped, restrictions, products):
        expansions = _spy_circulant_products(monkeypatch)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(sweeps) == restrictions
        assert len({ideal for ideal, _ in sweeps}) == min(restrictions, 1)
        assert all(bool(widths) == stepped for _, widths in sweeps)
        assert len(expansions) == products

    @pytest.mark.parametrize("argv,candidate", [
        # no Togliatti candidate (mu > d + 1): the leftover rows of E alone
        (("report", "--d", "16", "--action", "15,3,11"), False),
        (("report", "--d", "200", "--action", "0,0,1"), False),
        # a candidate: each leftover row carries its combination of the
        # generators, and v is checked, whichever command asks
        (("report", "--d", "7", "--action", "0,1,3"), True),
        (("minimal", "--d", "13", "--a", "4", "--subset-oracle"), True),
        (("report", "--d", "30", "--action", "0,2,5"), True),
        (("minimal", "--d", "30", "--action", "0,2,5"), True),
    ])
    def test_kernel_vector_only_for_togliatti_candidates(self, capsys, monkeypatch, sweeps, argv,
                                                         candidate):
        checked = []
        real = wlp._check_kernel_vector
        monkeypatch.setattr(wlp, "_check_kernel_vector",
                            lambda ideal, v, binomials: checked.append(v) or real(ideal, v, binomials))
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        (ideal, widths), = sweeps
        assert set(widths) <= {ideal.d + 1 + (ideal.mu if candidate else 0)}
        assert len(checked) == candidate

    def test_gt_verdict_sweeps_nothing_whatever_the_general_forms(self, capsys, sweeps):
        code, out, err = run_cli(capsys, "gt-verdict", "--d", "7", "--a", "3", "--general-l", "3")
        assert code == 0, err
        assert sweeps == []
        ideal = actions.invariant_monomials(actions.Action(7, (0, 1, 3)))
        results = json.loads(out)["results"]
        assert results["verdict"]["is_togliatti"] is True
        # each sample's rank is the rank of the multiplication map at its own
        # form, by classical Bareiss: no sweep of the library is involved
        samples = results["general_form_samples"]
        assert [s["rank"] for s in samples] == [
            oracle_rank(ideal, tuple(s["coeffs"]))[0] for s in samples] == [
            results["base_rank"]] * 3

    def test_library_verdict_sweeps_nothing(self, sweeps):
        ideal = actions.invariant_monomials(actions.Action(13, (0, 1, 4)))
        verdict = wlp.WlpVerdict.from_nullity(ideal, wlp.conjugate_nullity(ideal.action))
        assert verdict.is_togliatti and verdict.method == "conjugate_forms" and sweeps == []

    def test_gt_verdict_at_d_3000_needs_no_elimination(self, capsys, sweeps):
        # (0, 0, 1): the count of conjugate forms is 1, and nothing is swept
        code, out, err = run_cli(capsys, "gt-verdict", "--d", "3000", "--action", "0,0,1")
        assert code == 0, err
        assert sweeps == []
        verdict = json.loads(out)["results"]["verdict"]
        assert (verdict["mu"], verdict["fails_injectivity"], verdict["is_togliatti"]) == (
            3002, True, False)

    def test_general_forms_at_d_3000_need_no_elimination(self, capsys, sweeps):
        # each general form takes the nullity of x + y + z, the count of
        # conjugate forms, not an elimination or a sweep of its own
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gt-verdict", "--d", "3000", "--action", "0,0,1",
                                 "--general-l", "2")
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert sweeps == []
        results = json.loads(out)["results"]
        assert [s["rank"] for s in results["general_form_samples"]] == [results["base_rank"]] * 2
        assert elapsed < 1.0, elapsed

    def test_minimal_at_the_minimality_limit_is_fast(self, capsys):
        d = wlp.MINIMALITY_LIMIT
        assert d >= 256
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "minimal", "--d", "256", "--a", "3")
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert json.loads(out)["results"]["minimal_circulant"] is True
        assert elapsed < 1.0, elapsed


class TestBenchContract:
    """The interactive pool of the benchmark, replayed through main and
    checked against its recorded answers; only reads bench/."""

    def test_interactive_pool(self, capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        answers = importlib.import_module("answers")
        workloads = importlib.import_module("workloads")
        expected = answers.load("interactive")
        verdicts = {}
        for argv in workloads.load_pool():
            argv = workloads.with_seed(argv, 1)
            code, out, _ = run_cli(capsys, *argv)
            verdict = answers.check(argv, expected[answers.key(argv)], code, out)
            verdicts.setdefault(verdict, []).append(" ".join(argv))
        assert answers.WRONG not in verdicts, verdicts[answers.WRONG]
        assert len(verdicts[answers.KNOWN_FAILURE]) == 5, verdicts[answers.KNOWN_FAILURE]
        assert all(a.startswith("minimal") for a in verdicts[answers.KNOWN_FAILURE])

    def test_every_call_is_plain(self, monkeypatch):
        # the benchmark times the route of plain calls, the option table: a
        # call that argparse parses would time the other route
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        workloads = importlib.import_module("workloads")
        run = importlib.import_module("run")
        pool = workloads.load_pool()
        calls = [argv for seed in (1, DEFAULT_SEED)
                 for argv in next(workloads.interactive_passes(pool, seed))]
        calls += [*workloads.SCAN, *workloads.SCAN_TOY, *workloads.BATCH, *workloads.BATCH_TOY,
                  run.WARMUP]
        assert len(calls) == 2 * len(pool) + 11
        assert [argv for argv in calls if cli._read_plain(argv[0], argv[1:]) is None] == []


class TestConjectureScanLimit:
    @pytest.mark.parametrize("dmax", [circulant._TERNARY_LIMIT + 1, 10**12])
    def test_dmax_past_the_ternary_limit_fails_before_any_unit(self, capsys, monkeypatch, dmax):
        def no_scan(action):
            raise AssertionError(f"scanned {action}")

        monkeypatch.setattr(wlp, "invariant_monomials", no_scan)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "conjecture-scan", "--dmax", str(dmax))
        assert time.perf_counter() - start < 1.0  # no walk over every d up to dmax
        assert code == 1 and out == ""
        limit = circulant._TERNARY_LIMIT
        assert err == (f"gtsys: error: the conjecture scan has a size limit: its largest d "
                       f"(--dmax) must be at most {limit}\n")


class TestVerdictAtLargeD:
    def test_repeated_weight_above_rank_report_limit(self, capsys):
        code, out, _ = run_cli(capsys, "gt-verdict", "--d", "40", "--action", "0,1,1")
        assert code == 0
        verdict = json.loads(out)["results"]["verdict"]
        assert verdict["mu"] == 42
        assert verdict["fails_injectivity"] is True
        assert verdict["fails_wlp_at_d_minus_1"] is False
        assert verdict["is_togliatti"] is False  # mu 42 > d + 1

    def test_beyond_product_limit(self, capsys):
        code, out, _ = run_cli(capsys, "gt-verdict", "--d", "200", "--action", "0,1,3")
        assert code == 0
        verdict = json.loads(out)["results"]["verdict"]
        assert verdict["fails_injectivity"] is True
        assert verdict["is_togliatti"] is True

    @pytest.mark.parametrize("argv,n", [
        (("--d", "13", "--a", "4"), 1),
        (("--d", "40", "--action", "0,1,3"), 2),
    ])
    def test_general_form_sampling_at_any_d(self, capsys, argv, n):
        code, out, _ = run_cli(capsys, "gt-verdict", *argv, "--general-l", str(n))
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results["general_form_samples"]) == n
        assert all(s["rank"] == results["base_rank"] for s in results["general_form_samples"])


class TestCirculantSection:
    def test_section_above_former_limit(self, capsys):
        code, out, _ = run_cli(capsys, "circulant", "--d", "100", "--a", "1", "--b", "3")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["support_complete"] is True
        assert results["n_terms"] == 53

    def test_section_beyond_limit_is_invalid_input(self, capsys):
        code, _, err = run_cli(capsys, "circulant", "--d", "129", "--a", "1", "--b", "3")
        assert code == 1
        assert "128" in err


class TestCirculantLimits:
    def test_non_faithful_section_rejected_before_expansion(self, capsys, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("the section was expanded before validation")

        monkeypatch.setattr(wlp, "circulant_product", no_expansion)
        code, _, err = run_cli(capsys, "circulant", "--d", "128", "--a", "32", "--b", "64")
        assert code == 1
        assert "gcd(0, 32, 64, 128) != 1: the action is not faithful" in err

    @pytest.mark.parametrize("change,message", [
        (lambda p: polymat.SparsePoly(3, add({}, p.terms, 2)),
         "the Newton product disagrees with the kernel vector"),
        (lambda p: polymat.SparsePoly(3, add(p.terms, {(6, 1, 0): 1})),
         "product escapes the invariant monomial span"),
    ], ids=["doubled", "outside_the_ideal"])
    def test_section_goes_through_the_newton_cross_check(self, capsys, monkeypatch, change,
                                                         message):
        # a wrong Newton product is a failed cross-check, not a finding
        real = circulant.circulant_product
        for module in (circulant, wlp):
            monkeypatch.setattr(module, "circulant_product", lambda d, w: change(real(d, w)))
        code, out, err = run_cli(capsys, "circulant", "--d", "7", "--a", "1", "--b", "3")
        assert code == 2 and out == ""
        assert err == f"gtsys: consistency failure: {message}\n"

    def test_general_form_at_d9(self, capsys):
        code, out, _ = run_cli(capsys, "circulant", "--d", "9")
        assert code == 0
        assert json.loads(out)["results"]["n_terms"] == 2704

    def test_coefficient_query_at_d9(self, capsys):
        code, out, _ = run_cli(capsys, "circulant", "--d", "9", "--coeff", "0,0,0,0,0,0,0,0,0")
        assert code == 0
        assert json.loads(out)["results"]["value"] == 1  # v_0^9: the diagonal

    @pytest.mark.parametrize("extra", [(), ("--coeff", ",".join(["0"] * 13))])
    def test_general_form_limit_is_the_library_limit(self, capsys, extra):
        code, _, err = run_cli(capsys, "circulant", "--d", "13", *extra)
        assert code == 1
        assert "d <= 12" in err

    @pytest.mark.parametrize("a,b", [(3, 2), (3, 3), (0, 2), (2, 7)])
    def test_section_positions_rule(self, capsys, a, b):
        code, _, err = run_cli(capsys, "circulant", "--d", "7", "--a", str(a), "--b", str(b))
        assert code == 1
        assert "need 1 <= a < b <= d-1" in err


class TestLibraryLimits:
    @pytest.mark.parametrize("kind,limit", [("ceva", 8), ("hd", 8), ("fermat", 12)])
    def test_arrangement_limit(self, capsys, kind, limit):
        # build_arrangement checks the limit; the CLI prints its message as before
        assert arrangements._ARRANGEMENT_LIMITS[kind] == limit
        code, out, err = run_cli(capsys, "arrangement", "--type", kind, "--d", str(limit + 1))
        assert (code, out, err) == (
            1, "", f"gtsys: error: arrangement {kind} is supported for d <= {limit}\n")

    def test_surface_range(self, capsys):
        lo, hi = surface._SURFACE_RANGE[0], surface._SURFACE_RANGE[-1]
        for d in (lo - 1, hi + 1):
            code, _, err = run_cli(capsys, "surface", "--d", str(d))
            assert code == 1
            assert err == f"gtsys: error: the surface suite is supported for {lo} <= d <= {hi}\n"

    def test_report_gates_surface_by_the_same_range(self, capsys):
        hi = surface._SURFACE_RANGE[-1]
        for d, present in ((hi, True), (hi + 1, False)):
            code, out, _ = run_cli(capsys, "report", "--d", str(d), "--a", "2")
            assert code == 0
            assert ("surface" in json.loads(out)["results"]) is present


class TestSurfaceSuiteMemo:
    """report keeps its surface section per d, in cli._d_sections; surface
    computes the suite on every call."""

    @pytest.mark.parametrize("d", surface._SURFACE_RANGE)
    def test_cold_and_warm_calls_print_the_same(self, d, capsys, fresh_memos):
        calls = [("surface", "--d", str(d), "--format", fmt) for fmt in ("json", "md", "csv")]
        calls += [("report", "--d", str(d), "--action", "0,1,2", "--format", fmt)
                  for fmt in ("json", "md", "csv")]
        for argv in calls:
            fresh_memos()
            cold = run_cli(capsys, *argv)
            warm = run_cli(capsys, *argv)
            assert cold[0] == 0 and cold == warm, argv

    def test_report_runs_each_suite_function_once_per_d(self, capsys, monkeypatch, fresh_memos):
        names = ("exponent_polytope_degree", "polytope_smoothness", "determinantal_generators",
                 "betti_table")
        runs = []

        def spy(name, real):
            def counted(arg):
                runs.append((name, getattr(arg, "d", arg)))
                return real(arg)
            return counted

        for name in names:
            monkeypatch.setattr(surface, name, spy(name, getattr(surface, name)))
        for d in surface._SURFACE_RANGE:
            for argv in (("report", "--d", str(d), "--a", "1"),
                         ("surface", "--d", str(d)),
                         ("report", "--d", str(d), "--a", "2"),
                         ("report", "--d", str(d), "--action", "0,1,2", "--format", "md")):
                assert run_cli(capsys, *argv)[0] == 0, argv
        # once for the first report of each d, once for its surface call
        assert sorted(runs) == sorted((name, d) for name in names
                                      for d in surface._SURFACE_RANGE for _ in range(2))

    def test_a_failed_computation_is_not_kept(self, capsys, monkeypatch):
        params = actions._classical_exponents(9)
        params[2], params[3] = params[3], params[2]
        monkeypatch.setattr(surface, "_classical_exponents", lambda _: params)
        code, out, err = run_cli(capsys, "surface", "--d", "9")
        assert (code, out) == (2, "")
        assert err == "gtsys: consistency failure: pullback of a presentation generator is nonzero at d=9\n"
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "surface", "--d", "9")
        assert code == 0 and json.loads(out)["results"]["presentation"]["pullbacks_vanish"]


class TestReportMemo:
    """report builds its d-only sections (classification, class_counts and
    surface) and their JSON text once per d, in cli._d_sections."""

    @pytest.mark.parametrize("d", [4, 5, 7, 12, 13, 40])
    def test_cold_warm_and_fresh_process_print_the_same(self, d, capsys, fresh_memos):
        for fmt in ("json", "md", "csv"):
            argv = ("report", "--d", str(d), "--action", "1,2,4", "--format", fmt)
            fresh_memos()
            cold = run_cli(capsys, *argv)
            warm = run_cli(capsys, *argv)
            proc = _python("-m", "gtsystems.cli", *argv)
            assert cold[0] == 0 and cold == warm == (proc.returncode, proc.stdout, proc.stderr)

    def test_a_changed_report_changes_no_later_report(self, capsys, fresh_memos):
        argv = ["report", "--d", "7", "--action", "0,1,3"]
        cold = {fmt: run_cli(capsys, *argv, "--format", fmt) for fmt in ("json", "md", "csv")}
        results = cli.cmd_report(cli._parse(argv))["results"]
        results["classification"]["classes"][0]["members"].append(99)
        results["classification"]["classes"].pop()
        results["class_counts"]["formula"]["N21"] = -1
        results["surface"]["betti"].clear()
        del results["surface"]["ideal"]
        for fmt in ("json", "md", "csv"):
            assert run_cli(capsys, *argv, "--format", fmt) == cold[fmt], fmt

    def test_a_section_renders_as_a_dict_elsewhere_or_once_changed(self, fresh_memos):
        report = cli.cmd_report(cli._parse(["report", "--d", "7", "--a", "3"]))
        built = cli._render(report, "json")
        assert built == json.dumps(report, indent=2, sort_keys=True) + "\n"
        for value in (report["results"], report["results"]["surface"]):
            # at another depth the stored text does not fit: rendered anew
            assert cli._render(value, "json") == json.dumps(value, indent=2, sort_keys=True) + "\n"
        report["results"]["classification"]["d"] = 8
        assert cli._render(report, "json") == built  # the text of the section as built
        report["results"]["classification"] = dict(report["results"]["classification"])
        assert cli._render(report, "json") == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_a_failed_partition_is_not_kept(self, capsys, monkeypatch, fresh_memos):
        argv = ("report", "--d", "13", "--a", "2")
        monkeypatch.setattr(classification, "orbit", lambda d, a: (a,))
        assert run_cli(capsys, *argv) == (
            2, "", "gtsys: consistency failure: unexpected class size 1 at d=13\n")
        assert cli._d_sections.cache_info().currsize == 0
        monkeypatch.undo()
        calls = _spy_partitions(monkeypatch)
        cold = run_cli(capsys, *argv)
        assert cold[0] == 0 and calls == [13]
        assert run_cli(capsys, *argv) == cold and calls == [13]

    def test_a_failed_surface_suite_is_not_kept(self, capsys, monkeypatch, fresh_memos):
        params = actions._classical_exponents(9)
        params[2], params[3] = params[3], params[2]
        monkeypatch.setattr(surface, "_classical_exponents", lambda _: params)
        assert run_cli(capsys, "report", "--d", "9", "--a", "2") == (
            2, "", "gtsys: consistency failure: pullback of a presentation generator is "
                   "nonzero at d=9\n")
        assert cli._d_sections.cache_info().currsize == 0
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "report", "--d", "9", "--a", "2")
        assert code == 0 and json.loads(out)["results"]["surface"]["presentation"]["pullbacks_vanish"]
        assert cli._d_sections.cache_info().currsize == 1

    def test_the_bound_holds_past_it(self, capsys, monkeypatch, fresh_memos):
        bound = cli._d_sections.cache_info().maxsize
        assert bound == 64
        d_values = range(5, 5 + bound + 6)
        for d in d_values:
            assert run_cli(capsys, "report", "--d", str(d), "--a", "2")[0] == 0, d
        assert cli._d_sections.cache_info().currsize == bound
        calls = _spy_partitions(monkeypatch)
        for d in (d_values[-1], d_values[0]):  # kept, then evicted
            assert run_cli(capsys, "report", "--d", str(d), "--a", "2")[0] == 0, d
        assert calls == [d_values[0]]
        assert cli._d_sections.cache_info().currsize == bound


class TestInvariantLimit:
    @pytest.mark.parametrize("argv", [
        ("invariants", "--d", "100000000", "--a", "3"),
        ("gt-verdict", "--d", "100000000", "--a", "3"),
        ("invariants", "--d", "5000", "--action", "1,1,1"),
    ])
    def test_refused_at_once_with_the_limit_named(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith(f"gtsys: error: the invariant enumeration has a size limit of "
                              f"{actions.INVARIANT_LIMIT} monomials (INVARIANT_LIMIT)")

    def test_report_checks_it_before_the_partition(self, capsys, monkeypatch):
        def no_partition(d):
            raise AssertionError("report partitioned above the invariant limit")

        monkeypatch.setattr(classification, "classify_moves", no_partition)
        code, out, err = run_cli(capsys, "report", "--d", "5000", "--action", "1,1,1")
        assert code == 1 and out == ""
        assert "(INVARIANT_LIMIT)" in err


class TestEliminationLimit:
    def test_refused_at_once_with_the_limit_named(self, capsys):
        # mu = d + 2 passes the invariant limit; E would have 10^10 cells
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "report", "--d", "100000", "--action", "0,0,1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith(f"gtsys: error: the elimination has a size limit of "
                              f"{wlp.ELIMINATION_LIMIT} matrix cells (ELIMINATION_LIMIT)")

    def test_gt_verdict_is_answered_past_it(self, capsys, sweeps):
        # the verdict counts conjugate forms and builds no E
        code, out, err = run_cli(capsys, "gt-verdict", "--d", "100000", "--action", "0,0,1")
        assert code == 0, err
        verdict = json.loads(out)["results"]["verdict"]
        assert (verdict["mu"], verdict["fails_injectivity"], verdict["is_togliatti"]) == (
            100002, True, False)
        assert verdict["mu"] * 100001 > wlp.ELIMINATION_LIMIT and sweeps == []

    def test_gt_verdict_past_it_in_a_fresh_process(self):
        # (0, 2, 5): 50005 generators, 5 * 10^9 cells of E
        start = time.perf_counter()
        proc = _python("-m", "gtsystems.cli", "gt-verdict", "--d", "100000", "--action", "0,2,5")
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        verdict = json.loads(proc.stdout)["results"]["verdict"]
        assert (verdict["mu"], verdict["rank"], verdict["fails_injectivity"],
                verdict["is_togliatti"], verdict["method"]) == (
            50005, None, True, True, "conjugate_forms")
        assert elapsed < 2.0, elapsed

    def test_report_is_refused_before_the_partition(self, capsys, monkeypatch):
        def no_partition(d):
            raise AssertionError("report partitioned past the elimination limit")

        monkeypatch.setattr(classification, "classify_moves", no_partition)
        code, out, err = run_cli(capsys, "report", "--d", "100000", "--action", "0,0,1")
        assert code == 1 and out == ""
        assert "(ELIMINATION_LIMIT)" in err


def _spy_partitions(monkeypatch):
    """The d of every classification.classify_moves call."""
    calls = []
    real = classification.classify_moves

    def counting_classify_moves(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(classification, "classify_moves", counting_classify_moves)
    return calls


class TestClassifyPartition:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--d", "15015"),
            ("classify", "--d", "13"),
            ("report", "--d", "7", "--action", "0,1,3"),
        ],
    )
    def test_one_partition_per_command(self, capsys, monkeypatch, argv, fresh_memos):
        calls = _spy_partitions(monkeypatch)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == [int(argv[2])]

    def test_a_warm_report_makes_no_partition(self, capsys, monkeypatch, fresh_memos):
        argv = ("report", "--d", "7", "--action", "0,1,3")
        cold = run_cli(capsys, *argv)
        calls = _spy_partitions(monkeypatch)
        for action in ("0,1,3", "1,2,4", "0,0,1"):
            code, _, err = run_cli(capsys, "report", "--d", "7", "--action", action)
            assert code == 0, err
        assert calls == []
        assert run_cli(capsys, *argv) == cold

    def test_limit_checked_before_partition(self, capsys, monkeypatch):
        def no_orbit(d, a):
            raise AssertionError("the partition ran above the classification limit")

        monkeypatch.setattr(classification, "orbit", no_orbit)
        code, out, err = run_cli(capsys, "classify", "--d", str(classification._CLASSIFY_LIMIT + 1))
        assert code == 1
        assert out == ""
        assert f"d <= {classification._CLASSIFY_LIMIT}" in err

    def test_report_checks_the_limit_before_any_section(self, capsys, monkeypatch):
        def no_scan(action):
            raise AssertionError("report scanned invariants above the classification limit")

        monkeypatch.setattr(cli, "invariant_monomials", no_scan)
        monkeypatch.setattr(wlp, "invariant_monomials", no_scan)
        limit = classification._CLASSIFY_LIMIT
        code, out, err = run_cli(capsys, "report", "--d", str(limit + 1), "--a", "3")
        assert code == 1
        assert out == ""
        assert f"d <= {limit}" in err

    @pytest.mark.parametrize("command", ["report", "minimal"])
    def test_minimality_limit_checked_before_the_scan(self, capsys, monkeypatch, command):
        def no_scan(action):
            raise AssertionError(f"{command} scanned invariants above the minimality limit")

        monkeypatch.setattr(cli, "invariant_monomials", no_scan)
        monkeypatch.setattr(wlp, "invariant_monomials", no_scan)
        limit = wlp.MINIMALITY_LIMIT
        code, out, err = run_cli(capsys, command, "--d", str(limit + 1), "--a", "3")
        assert code == 1
        assert out == ""
        assert err == ("gtsys: error: minimality has a size limit: "
                       f"it is decided for d <= {limit}\n")

    def test_overlapping_classes_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(classification, "orbit", lambda d, a: (a, d - 1))
        code, out, err = run_cli(capsys, "classify", "--d", "13")
        assert code == 2
        assert out == ""
        assert "moves did not produce a partition" in err


def _python(*args):
    """A fresh interpreter on these sources, run with args."""
    src = str(Path(gtsystems.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_under_optimize(script):
    return _python("-O", "-c", script)


class TestExitCodeContract:
    def test_failed_cross_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(classification, "orbit", lambda d, a: (a,))
        code, out, err = run_cli(capsys, "classify", "--d", "13")
        assert code == 2
        assert out == ""
        assert "consistency failure: unexpected class size 1" in err

    def test_exit_codes_hold_under_optimize(self):
        script = (
            "import sys\n"
            "from gtsystems import classification\n"
            "from gtsystems.cli import main\n"
            "codes = [main(['invariants', '--d', '7', '--action', '0,1,3']),\n"
            "         main(['invariants', '--d', '6', '--action', '0,2,4'])]\n"
            "classification.orbit = lambda d, a: (a,)\n"
            "codes.append(main(['classify', '--d', '13']))\n"
            "print(codes, file=sys.stderr)\n"
            "sys.exit(0 if codes == [0, 1, 2] else 3)\n"
        )
        proc = _run_under_optimize(script)
        assert proc.returncode == 0, proc.stderr
        assert "assert" not in proc.stderr.lower()

    def test_no_assert_in_the_library(self):
        # python -O drops assert statements, so a check made by one would
        # vanish; every check raises instead
        package = Path(gtsystems.__file__).resolve().parent
        sources = sorted(package.glob("*.py"))
        assert len(sources) >= 11
        found = [f"{path.name}:{node.lineno}"
                 for path in sources
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Assert)]
        assert found == []


# the parsers that build_parser() builds, by prog: gtsys and one per command
FULL_PARSER = ["gtsys", *(f"gtsys {name}" for name in cli._COMMANDS)]


@pytest.fixture
def built_parsers(monkeypatch):
    """The prog of every argparse parser built from here on, subparsers
    included."""
    built = []
    cls = cli._parser_class()
    init = cls.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


class TestInProcessReuse:
    """main reads a plain call from the option table and builds no parser;
    any other call builds the full parser for itself.  Repeated calls in one
    process give the answers of the first."""

    EXAMPLES = [
        ("invariants", "--d", "7", "--action", "0,1,3"),
        ("gt-verdict", "--d", "7", "--a", "3", "--format", "json"),
        ("classify", "--d", "13", "--format", "md"),
        ("circulant", "--d", "6", "--coeff", "0,0,1,3,3,5"),
        ("conjecture-scan", "--dmax", "13", "--stream"),
        ("surface", "--d", "9"),
        ("arrangement", "--type", "hd", "--d", "3"),
        ("report", "--d", "7", "--action", "0,1,3", "--out", "{out}"),
        ("invariants", "--d", "7"),  # invalid input: no action
        ("invariants", "--format", "yaml", "--d", "7", "--a", "3"),  # bad usage: argparse
        ("gt-verdict", "--d", "5", "--a", "2", "--general-l", "2", "--format", "csv"),
        ("report", "--d", "6", "--a", "5", "--format", "md"),
        ("minimal", "--d=13", "--a", "4"),  # --d=13 is argparse's to read
    ]
    # the examples that are no plain call
    NOT_PLAIN = [EXAMPLES[9], EXAMPLES[12]]

    @staticmethod
    def _call(capsys, argv, out_path):
        argv = [a.format(out=out_path) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        written = None
        if out_path.exists():
            written = out_path.read_text()
            out_path.unlink()
        return code, out, err, written

    def test_repeated_calls_give_the_first_answers(self, capsys, tmp_path, built_parsers):
        out_path = tmp_path / "report.json"
        first = []
        for argv in self.EXAMPLES:
            built_parsers.clear()
            first.append(self._call(capsys, argv, out_path))
            assert built_parsers == (FULL_PARSER if argv in self.NOT_PLAIN else []), argv
        assert [r[0] for r in first] == [0] * 8 + [1, 1, 0, 0, 0]
        for _ in range(2):
            for argv, expected in zip(self.EXAMPLES, first):
                assert self._call(capsys, argv, out_path) == expected, argv

    def test_repeated_parses_match_fresh_parsers(self, tmp_path):
        for argv in self.EXAMPLES[:9] + self.EXAMPLES[10:]:
            argv = [a.format(out=tmp_path) for a in argv]
            for _ in range(2):
                assert vars(cli._parse(argv)) == vars(build_parser().parse_args(argv)), argv

    def test_build_parser_is_fresh_and_holds_no_functions(self):
        assert build_parser() is not build_parser()
        args = build_parser().parse_args(["surface", "--d", "5"])
        assert not any(callable(v) for v in vars(args).values())

    def test_replaced_command_takes_effect_after_first_call(self, capsys, monkeypatch,
                                                            built_parsers):
        code, out, _ = run_cli(capsys, "surface", "--d", "5")
        assert code == 0 and built_parsers == []  # a plain call builds no parser

        def stub(args):
            return cli._report("surface", {"d": args.d}, {"stub": True}, [])

        monkeypatch.setattr(cli, "cmd_surface", stub)
        code, out, _ = run_cli(capsys, "surface", "--d", "5")
        assert code == 0
        assert json.loads(out)["results"] == {"stub": True}


class TestOneArgparseRoute:
    """main reads a plain call from the option table, and parses any other
    call by build_parser(); every exit, message and parsed value is
    build_parser()'s."""

    COMMANDS = list(cli._COMMANDS)
    FAILURES = [
        ("-h",), (), ("rep",), ("rep", "--d", "7"),
        ("--format", "json", "report", "--d", "7", "--a", "3"),
        *[(name, "-h") for name in COMMANDS],
        *[(name,) for name in COMMANDS],  # a missing --d or --dmax
        *[(name, "--d", "x") for name in COMMANDS],
        *[(name, "--format", "xml", "--d", "7") for name in COMMANDS],
        *[(name, "--d", "7", "extra") for name in COMMANDS],
        ("report", "--d", "7", "--action", "0,1,3", "--a", "4"),
        ("invariants", "--d", "7", "--action", "0,1,3", "--a", "4"),
        ("gt-verdict", "--d", "7", "--a", "3", "--general-l", "-1"),
        ("report", "--d", "7", "--a", "3", "--general-l", "x"),
        ("report", "--d", "7", "--a", "3", "extra", "more"),
        ("minimal", "--d", "7", "--action", "0,1,3", "--subset-oracle", "--bogus"),
        ("arrangement", "--type", "square", "--d", "3"),
        ("conjecture-scan", "--dmax", "5", "--stream", "--dmin", "3"),
    ]
    PLAIN = [
        ("gt-verdict", "--d", "7", "--a", "3", "--general-l", "2", "--seed", "4"),
        ("minimal", "--d", "7", "--action", "0,1,3", "--subset-oracle"),
        ("classify", "--out", "x.json", "--d", "12"),
        ("circulant", "--d", "6", "--coeff", "0,0,1,3,3,5"),
        ("circulant", "--d", "12", "--a", "1", "--b", "5", "--format", "csv"),
        ("conjecture-scan", "--dmax", "5", "--stream"),
        ("surface", "--d", "5"),
        ("arrangement", "--type", "hd", "--d", "3"),
        ("report", "--d", "7", "--action", "0,1,3", "--general-l", "0"),
    ]
    VALID = PLAIN + [
        ("invariants", "--d", "7", "--action=0,1,3"),
        ("invariants", "--d", "7", "--a", "-1"),
        ("invariants", "--d=7", "--a=-1", "--format", "md"),
        ("gt-verdict", "--d", "7", "--act", "0,1,3"),  # an abbreviation
        ("conjecture-scan", "--dm", "5"),  # an abbreviation
        ("conjecture-scan", "--dmax", "5", "--d", "7"),  # --d abbreviates --dmax here
    ]

    @staticmethod
    def _outcome(capsys, call):
        """(exit code of a SystemExit, stdout, stderr, return value) of call()."""
        try:
            result, code = call(), None
        except SystemExit as exc:
            result, code = None, exc.code
        out, err = capsys.readouterr()
        return code, out, err, result

    @pytest.mark.parametrize("argv", FAILURES + VALID, ids=lambda argv: " ".join(argv) or "none")
    def test_main_parses_as_the_full_parser(self, capsys, monkeypatch, tmp_path, argv,
                                            built_parsers):
        monkeypatch.chdir(tmp_path)  # --out x.json writes the stub's empty report here
        code, out, err, reference = self._outcome(
            capsys, lambda: build_parser().parse_args(list(argv)))
        parsed = []
        for name in self.COMMANDS:
            monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"),
                                lambda args: parsed.append(args) or "")
        built_parsers.clear()
        got = self._outcome(capsys, lambda: main(list(argv)))
        built = list(built_parsers)
        if reference is None:  # a usage error, or help
            assert (argv in self.FAILURES, got, parsed) == (True, (code, out, err, None), [])
            assert built == FULL_PARSER
        elif reference.command is None:
            usage = build_parser().format_usage()
            assert got == (None, "", usage + "gtsys: error: a command is required\n", 1)
            assert parsed == []
            assert built == FULL_PARSER * 2  # one parses, and one prints the usage
        else:
            assert argv in self.VALID
            assert got == (None, "", "", 0)
            assert [vars(args) for args in parsed] == [vars(reference)]
            assert parsed[0].command == argv[0]
            # a plain call builds no parser; any other, the full parser
            assert built == ([] if argv in self.PLAIN else FULL_PARSER)

    def test_report_and_gt_verdict_share_the_general_l_option(self, capsys):
        assert cli._COMMANDS["report"][1] is cli._COMMANDS["gt-verdict"][1]
        for name in ("report", "gt-verdict"):
            code, out, _ = run_cli(capsys, name, "-h")
            assert code == 0 and "also sample N random linear forms and compare ranks" in out


class TestHelpAndUsageBytes:
    """Help and usage errors print exactly the bytes recorded in
    tests/usage_bytes.json for this Python version (see tests/usage_bytes.py),
    so a change to how the parsers are built cannot move them."""

    @pytest.fixture(scope="class")
    def recorded(self):
        recorded = usage_bytes.load().get(usage_bytes.version())
        if recorded is None:
            pytest.skip(f"no help bytes recorded for Python {usage_bytes.version()}")
        return {tuple(r[0]): r for r in recorded}

    def test_every_help_and_usage_failure_is_recorded(self, recorded):
        assert usage_bytes.COMMANDS == tuple(cli._COMMANDS)
        helps = [("-h",), ()] + [(name, "-h") for name in cli._COMMANDS]
        failures = TestOneArgparseRoute.FAILURES
        assert set(recorded) == set(usage_bytes.CALLS) == set(helps + failures)

    @pytest.mark.parametrize("argv", usage_bytes.CALLS, ids=lambda argv: " ".join(argv) or "none")
    def test_bytes_as_recorded(self, recorded, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", usage_bytes.COLUMNS)
        assert usage_bytes.record(argv) == recorded[argv]


class TestDependencies:
    def test_runs_without_numpy(self):
        # numpy is no dependency: with its import blocked, the subset oracle
        # and a large verdict still run
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from gtsystems.cli import main\n"
            "codes = [main(['minimal', '--d', '7', '--action', '0,1,3', '--subset-oracle']),\n"
            "         main(['gt-verdict', '--d', '64', '--action', '0,1,3'])]\n"
            "sys.exit(1 if any(codes) else 0)\n"
        )
        src = str(Path(gtsystems.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert '"minimal_subset_oracle": true' in proc.stdout
        assert '"command": "gt-verdict"' in proc.stdout


class TestFormats:
    def test_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--d", "7", "--format", "md")
        assert code == 0
        assert out.startswith("# gtsys classify")
        assert "| members | size | type |" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--d", "3", "--a", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "section,key,value,detail"
        assert any(line.startswith("meta,tool_version,") for line in lines)

    def test_stream_mode_emits_one_json_per_unit(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture-scan", "--dmax", "4", "--stream")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        units = [json.loads(ln) for ln in lines]
        assert len(units) == 9  # (d=3: 3 pairs) + (d=4: 6 pairs)
        assert all("status" in u for u in units)

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_stream_mode_rejects_other_formats(self, capsys, fmt):
        code, out, err = run_cli(capsys, "conjecture-scan", "--dmax", "4", "--stream",
                                 "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == f"gtsys: error: --stream prints JSON lines; it takes no --format {fmt}\n"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "minimal", "--d", "5", "--a", "2", "--out", str(target))
        assert code == 0
        report = json.loads(target.read_text())
        assert report["command"] == "minimal"

    def test_out_file_in_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "invariants", "--d", "3", "--a", "2", "--out", str(target))
        assert code == 1 and out == ""
        assert err == f"gtsys: error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()


class TestDeterminism:
    def test_reports_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "report", "--d", "7", "--a", "3")
        _, out2, _ = run_cli(capsys, "report", "--d", "7", "--a", "3")
        assert out1 == out2

    def test_seed_changes_sampled_coefficients(self, capsys):
        base = ("gt-verdict", "--d", "5", "--a", "2", "--general-l", "2")
        _, out1, _ = run_cli(capsys, *base, "--seed", "1")
        _, out2, _ = run_cli(capsys, *base, "--seed", "2")
        _, out3, _ = run_cli(capsys, *base, "--seed", "1")
        assert out1 == out3
        assert out1 != out2

    def test_default_seed_constant(self):
        assert isinstance(DEFAULT_SEED, int)


class TestCompositeReport:
    def test_report_aggregates_sections(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--d", "7", "--a", "3")
        assert code == 0
        report = json.loads(out)
        names = {c["name"] for c in report["checks"]}
        # the composite report prefixes each check with its originating section
        assert "verdict.artinian" in names
        assert "minimal.minimal_circulant" in names
        assert "membership.random_forms" in names
        assert all(c["status"] != "fail" for c in report["checks"])

    def test_surface_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--d", "5")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["degree_model"]["degree"] == 5

    def test_arrangement_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "arrangement", "--type", "fermat", "--d", "4")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["lines"] == 12

    def test_conjecture_scan_no_findings(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture-scan", "--dmax", "5")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["findings"] == []
