"""Command-line interface: exit codes, report schema, formats, determinism."""

import argparse
import ast
import importlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
import usage_bytes
from polyring import add
from test_surface import misordered_listing
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


def _mutant(monkeypatch, old, new):
    """Replace Restriction.evaluation_check by its own source with the one
    occurrence of old changed to new: a source mutant of the check."""
    source = textwrap.dedent(inspect.getsource(wlp.Restriction.evaluation_check))
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), wlp.__file__, "exec"), vars(wlp), namespace)
    monkeypatch.setattr(wlp.Restriction, "evaluation_check", namespace["evaluation_check"])


EVALUATION_FAILURE = ("gtsys: consistency failure: the eigenvalue product mod p disagrees "
                      "with the kernel vector\n")


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
        # invalid input, refused by the command with no usage line
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"gtsys: error: --general-l expects a number of samples >= 0, got {argv[-1]}\n"

    @pytest.mark.parametrize("n", [cli.GENERAL_L_LIMIT + 1, 10**9])
    @pytest.mark.parametrize("command", ["gt-verdict", "report"])
    def test_general_l_past_its_limit_is_refused(self, capsys, monkeypatch, command, n):
        def no_sample(rng):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(cli, "random_scales", no_sample)
        monkeypatch.setattr(cli, "invariant_monomials", no_sample)  # nor anything counted
        monkeypatch.setattr(wlp, "invariant_count", no_sample)
        code, out, err = run_cli(capsys, command, "--d", "7", "--a", "3", "--general-l", str(n))
        assert code == 1 and out == ""
        assert err == (f"gtsys: size limit: the number of --general-l samples is {n}, "
                       f"past GENERAL_L_LIMIT = 100000\n")

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
    """Count the invariant scans: each one, also by wlp.Restriction.of or
    actions.generalized_classical, lists the ideal by invariant_monomials,
    which is spied in every gtsystems module that holds it; the returned
    list grows by one action per scan."""
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
        if command == "report":  # g > 1, so no Togliatti system
            assert results["minimal"]["applies"] is False

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
        assert err == f"gtsys: error: {wlp.NOT_TOGLIATTI}\n"
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
    def test_one_invariant_scan_per_command(self, capsys, monkeypatch, fresh_memos, argv):
        # gt-verdict counts and scans nothing; report also lists the classical
        # ideal of its surface section, once per d, as the d-only sections are kept
        scans = _spy_invariant_monomials(monkeypatch)
        for _ in range(2):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
        own = scans[:1] if argv[0] != "gt-verdict" else []
        classical = [actions.Action(int(argv[2]), (0, 2, 1))] if argv[0] == "report" else []
        assert scans == own + classical + own

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
    """Count the Newton expansions: every caller reads the function from
    circulant when it runs."""
    calls = []
    real = circulant.circulant_product

    def spy(d, positions):
        calls.append((d, tuple(positions)))
        return real(d, positions)

    monkeypatch.setattr(circulant, "circulant_product", spy)
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

    def test_minimal_refuses_from_the_count_alone(self, capsys, monkeypatch):
        # a repeated weight or g = gcd(b - a, c - a, d) > 1 gives no Togliatti
        # system; minimal says so from the verdict's counts, with no listing
        def no_listing(*args):
            raise AssertionError("minimal listed a monomial of a non-Togliatti action")

        monkeypatch.setattr(actions, "invariant_exponents", no_listing)
        refused = set()
        for d in range(3, 31):
            for a, b, c in itertools.combinations_with_replacement(range(d), 3):
                if math.gcd(a, b, c, d) != 1:
                    continue
                repeated, g = len({a, b, c}) < 3, math.gcd(b - a, c - a, d)
                if not repeated and g == 1:
                    continue
                argv = ("minimal", "--d", str(d), "--action", f"{a},{b},{c}")
                assert run_cli(capsys, *argv) == (
                    1, "", f"gtsys: error: {wlp.NOT_TOGLIATTI}\n"), argv
                refused.add((repeated, g > 1))
        # both kinds occur, g > 1 with distinct weights e.g. at --d 9 --action 1,4,7
        assert refused == {(True, False), (True, True), (False, True)}

    def test_minimal_refuses_past_every_size_limit(self, capsys, monkeypatch):
        # mu = 13504501 passes INVARIANT_LIMIT, but the verdict answers first
        scans = _spy_invariant_monomials(monkeypatch)
        assert run_cli(capsys, "minimal", "--d", "9000", "--action", "1,3001,6001") == (
            1, "", f"gtsys: error: {wlp.NOT_TOGLIATTI}\n")
        assert scans == []

    def test_every_repeated_weight_report_says_minimality_does_not_apply(self, capsys):
        reports = 0
        for d in range(3, 13):
            for a, b, c in itertools.combinations_with_replacement(range(d), 3):
                if math.gcd(a, b, c, d) != 1 or len({a, b, c}) == 3:
                    continue
                code, out, err = run_cli(capsys, "report", "--d", str(d), "--action",
                                         f"{a},{b},{c}")
                assert code == 0, err
                minimal = json.loads(out)["results"]["minimal"]
                assert minimal["applies"] is False, (d, a, b, c)
                assert minimal["reason"].startswith("not a Togliatti system: mu="), (d, a, b, c)
                reports += 1
        assert reports > 0

    @pytest.mark.parametrize("argv", [
        ("minimal", "--d", "7", "--action", "0,1,3"),
        ("minimal", "--d", "13", "--a", "4", "--subset-oracle"),
        ("minimal", "--d", "200", "--a", "3"),
        ("minimal", "--d", "256", "--action", "0,5,17"),
        # past d = 256, where minimal answered nothing before: the sweep
        # decides wherever E fits ELIMINATION_LIMIT, in the paper's family
        # and, for (0, 6, 55), outside it (no weight difference is a unit)
        ("minimal", "--d", "420", "--action", "0,3,7"),
        ("minimal", "--d", "1000", "--action", "0,1,3"),
        ("minimal", "--d", "1050", "--action", "0,6,55"),
        ("minimal", "--d", "2310", "--action", "0,6,55"),
    ])
    def test_minimal_names_its_route(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        results = json.loads(out)["results"]
        assert results["route"] == "kernel_vector"
        assert results["cross_check"] == "evaluation_mod_p"
        assert results["minimal_circulant"] is True

    def test_report_names_its_route(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--d", "7", "--action", "0,1,3")
        assert code == 0
        minimal = json.loads(out)["results"]["minimal"]
        assert minimal["route"] == "kernel_vector"
        assert minimal["cross_check"] is None

    @pytest.mark.parametrize("argv,printed", [
        (("minimal", "--d", "13", "--a", "4", "--subset-oracle"), True),
        (("minimal", "--d", str(circulant.TERNARY_LIMIT), "--a", "3", "--subset-oracle"), True),
        (("minimal", "--d", str(circulant.TERNARY_LIMIT + 1), "--a", "3", "--subset-oracle"),
         True),
        (("minimal", "--d", "1000", "--action", "0,5,17", "--subset-oracle"), True),
        (("minimal", "--d", "13", "--a", "4"), False),
    ])
    def test_routes_agree_only_after_the_evaluation_cross_check(self, capsys, monkeypatch, argv,
                                                                printed):
        expansions = _spy_circulant_products(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        report = json.loads(out)
        names = [c["name"] for c in report["checks"]]
        assert ("routes_agree" in names) == printed
        assert report["results"]["cross_check"] == "evaluation_mod_p"
        assert expansions == []  # minimal expands no product at any d

    def test_evaluation_disagreement_exits_2(self, capsys, monkeypatch):
        # the product read off v, doubled: the check at the first point fails
        real = wlp.Restriction.product.func
        monkeypatch.setattr(wlp.Restriction, "product", property(
            lambda r: polymat.SparsePoly(3, add({}, real(r).terms, 2))))
        code, out, err = run_cli(capsys, "minimal", "--d", "7", "--action", "0,1,3")
        assert (code, out, err) == (2, "", EVALUATION_FAILURE)

    @pytest.mark.parametrize("argv", [
        ("minimal", "--d", "7", "--action", "0,1,2"),
        ("minimal", "--d", "128", "--action", "0,1,2", "--subset-oracle"),
        ("minimal", "--d", "256", "--action", "0,5,10"),
    ])
    def test_a_swap_of_equal_weight_coefficients_exits_2(self, capsys, monkeypatch, argv):
        # a + c = 2b (mod d): the coefficients of m*xz and m*y^2, both
        # invariant and of equal weight, swapped at the first pair that differs
        real = wlp.Restriction.product.func

        def swapped(r):
            terms = dict(real(r).terms)
            (i, j, k), other = next(
                (g, (g[0] - 1, g[1] + 2, g[2] - 1)) for g in terms
                if g[0] and g[2] and terms.get((g[0] - 1, g[1] + 2, g[2] - 1), terms[g]) != terms[g])
            terms[(i, j, k)], terms[other] = terms[other], terms[(i, j, k)]
            return polymat.SparsePoly(3, terms)

        monkeypatch.setattr(wlp.Restriction, "product", property(swapped))
        assert run_cli(capsys, *argv) == (2, "", EVALUATION_FAILURE)

    @pytest.mark.parametrize("argv", [
        ("minimal", "--d", "7", "--action", "0,1,3"),
        ("minimal", "--d", "30", "--action", "0,2,5", "--subset-oracle"),
        ("minimal", "--d", "200", "--action", "4,1,7"),
    ])
    def test_a_changed_v_entry_exits_2(self, capsys, monkeypatch, argv):
        # one entry of v moved by v_(x^d): the product stays integral, with
        # the same support, so only the evaluation can tell
        real = wlp.restriction

        def changed(ideal):
            r = real(ideal)
            v = list(r.v)
            i = next(i for i in range(1, len(v)) if v[i] not in (0, -v[0]))
            v[i] += v[0]
            return r.replace(v=tuple(v))

        monkeypatch.setattr(wlp, "restriction", changed)
        assert run_cli(capsys, *argv) == (2, "", EVALUATION_FAILURE)

    @pytest.mark.parametrize("old,new", [
        # the linear factor of P at j = 1 dropped (w^b has order d here)
        ("lhs = lhs * (ra * x + rb * y + rc * z) % p",
         "lhs = lhs * (ra * x + rb * y + rc * z) % p if rb != wb else lhs"),
        # a root of order d / q, q the least prime factor of d
        ("p, w = _prime_field(d)",
         "p, w = _prime_field(d); w = pow(w, min(q for q in range(2, d + 1) if d % q == 0), p)"),
        # every factor stepped by w^a: the weights b and c read as a
        ("wa, wb, wc = (pow(w, e, p) for e in weights)",
         "wa, wb, wc = (pow(w, weights[0], p) for e in weights)"),
    ], ids=["dropped_factor", "root_of_wrong_order", "wrong_weight"])
    @pytest.mark.parametrize("argv", [
        ("minimal", "--d", "7", "--action", "0,1,3"),
        ("minimal", "--d", "15", "--action", "0,1,4", "--subset-oracle"),
        ("minimal", "--d", "256", "--action", "0,5,17"),
    ])
    def test_source_mutants_of_the_check_exit_2(self, capsys, monkeypatch, old, new, argv):
        _mutant(monkeypatch, old, new)
        assert run_cli(capsys, *argv) == (2, "", EVALUATION_FAILURE)

    def test_scan_newton_disagreement_exits_2(self, capsys, monkeypatch):
        # the same products' supports agree; the scan compares every term
        real = circulant.circulant_product
        monkeypatch.setattr(circulant, "circulant_product", _doubled(real))
        code, out, err = run_cli(capsys, "conjecture-scan", "--dmax", "5")
        assert code == 2 and out == ""
        assert err == "gtsys: consistency failure: the Newton product disagrees with the kernel vector\n"

    def test_nullity_two_is_not_minimal_and_not_cross_checked(self, capsys, monkeypatch):
        # a Togliatti system with nullity 2 is not minimal, whatever the
        # Newton product's support; nothing is compared with v.  Set after
        # Restriction.of, which would refuse it against the count
        real = wlp.Restriction.of

        def nullity_two(cls, action):
            return real(action).replace(nullity=2)

        monkeypatch.setattr(wlp.Restriction, "of", classmethod(nullity_two))
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
        (("minimal", "--d", "7", "--action", "0,1,3"), False, 1, 0),
        (("minimal", "--d", "13", "--a", "4", "--subset-oracle"), False, 1, 0),
        (("minimal", "--d", "200", "--a", "3"), False, 1, 0),
        (("minimal", "--d", "30", "--action", "0,2,5"), True, 1, 0),
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
        verdict = wlp.WlpVerdict.of(ideal.action)
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

    def test_minimal_past_d_256_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "minimal", "--d", "1000", "--a", "3")
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

    @pytest.mark.parametrize("workload", ["scan", "batch"])
    def test_scan_and_batch_calls(self, capsys, monkeypatch, workload):
        # every recorded call, the full ones and the toy ones, answers as
        # recorded and exits 0
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        answers = importlib.import_module("answers")
        workloads = importlib.import_module("workloads")
        expected = answers.load(workload)
        calls = {"scan": workloads.SCAN + workloads.SCAN_TOY,
                 "batch": workloads.BATCH + workloads.BATCH_TOY}[workload]
        assert {answers.key(argv) for argv in calls} == set(expected)
        for argv in calls:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
            assert answers.check(argv, expected[answers.key(argv)], code, out) == answers.OK, argv

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
    @pytest.mark.parametrize("dmax", [circulant.TERNARY_LIMIT + 1, 10**12])
    def test_dmax_past_the_ternary_limit_fails_before_any_unit(self, capsys, monkeypatch, dmax):
        def no_scan(cls, action):
            raise AssertionError(f"scanned {action}")

        monkeypatch.setattr(wlp.Restriction, "of", classmethod(no_scan))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "conjecture-scan", "--dmax", str(dmax))
        assert time.perf_counter() - start < 1.0  # no walk over every d up to dmax
        assert code == 1 and out == ""
        limit = circulant.TERNARY_LIMIT
        # the first d past the limit, which the scan would need first
        assert err == (f"gtsys: size limit: the d of a ternary product is {limit + 1}, "
                       f"past TERNARY_LIMIT = {limit}\n")


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


def _mutant_count(monkeypatch, old, new):
    """Replace actions.invariant_count, in every module that holds it, by a
    copy of its source with the one line old replaced by new."""
    source = textwrap.dedent(inspect.getsource(actions.invariant_count))
    assert source.count(old) == 1, old
    namespace = dict(vars(actions))
    exec(compile(source.replace(old, new), actions.__file__, "exec"), namespace)
    for module in (actions, wlp):
        monkeypatch.setattr(module, "invariant_count", namespace["invariant_count"])


class TestCountedVerdict:
    """gt-verdict from the counts mu and nullity in O(log d); the commands
    that enumerate hold the enumeration against the count."""

    def test_prime_d_past_10_to_the_18(self, capsys):
        # d = 10^18 + 3 is prime: mu = 3 + (d - 1)/2, as for every prime d
        # and three distinct weights, and g = 1 gives nullity 1, so the rank
        # of each --general-l form is dim_source - 1
        d = 10**18 + 3
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gt-verdict", "--d", str(d), "--action", "0,2,5",
                                 "--general-l", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        results = json.loads(out)["results"]
        verdict = results["verdict"]
        assert verdict["mu"] == 3 + (d - 1) // 2 == 500000000000000004
        assert verdict["dim_source"] == d * (d + 1) // 2
        assert results["base_rank"] == verdict["dim_source"] - 1
        assert (verdict["fails_injectivity"], verdict["is_togliatti"], verdict["rank"]) == (
            True, True, None)

    def test_every_monomial_invariant_at_10_to_the_18(self, capsys):
        # (1, 1, 1): every monomial of degree d is invariant, mu = C(d + 2, 2),
        # and the nullity is every form of degree d - 1, C(d + 1, 2), the whole
        # source: base rank 0
        d = 10**18
        code, out, err = run_cli(capsys, "gt-verdict", "--d", str(d), "--action", "1,1,1",
                                 "--general-l", "1")
        assert code == 0, err
        results = json.loads(out)["results"]
        assert results["verdict"]["mu"] == (d + 2) * (d + 1) // 2
        assert wlp.conjugate_nullity(actions.Action(d, (1, 1, 1))) == (d + 1) * d // 2
        assert results["base_rank"] == results["verdict"]["dim_source"] - (d + 1) * d // 2 == 0

    @pytest.mark.parametrize("argv", [
        ("--d", "7", "--a", "3"),
        ("--d", "9", "--action", "1,1,4", "--general-l", "2"),
        ("--d", "1000000000000000003", "--action", "0,2,5"),
    ])
    def test_gt_verdict_builds_no_ideal(self, capsys, monkeypatch, argv):
        code, want, err = run_cli(capsys, "gt-verdict", *argv)
        assert code == 0, err

        def no_ideal(*args, **kwargs):
            raise AssertionError("gt-verdict built an ideal")

        monkeypatch.setattr(actions.GTIdeal, "__init__", no_ideal)
        assert run_cli(capsys, "gt-verdict", *argv) == (0, want, "")

    @pytest.mark.parametrize("argv", [
        ("report", "--d", "7", "--action", "0,1,3"),
        ("minimal", "--d", "13", "--a", "4"),
        ("invariants", "--d", "12", "--action", "5,7,5"),
        ("conjecture-scan", "--dmax", "7"),
        ("circulant", "--d", "7", "--a", "1", "--b", "3"),
    ])
    def test_a_count_off_by_one_in_t_exits_2(self, capsys, monkeypatch, argv):
        assert run_cli(capsys, *argv)[0] == 0
        # T one short drops k = d, the monomial z^d (one T too many adds a k
        # past n, whose term floor((n - k - rho) / M) + 1 is 0); every command
        # that enumerates holds its list to the count in invariant_monomials,
        # but minimal, which reads the verdict first: the nullity count of
        # degree 0 drops the constant x^0 too, and is held to at least 1
        _mutant_count(monkeypatch, "big_t = (n - k0) // s + 1", "big_t = (n - k0) // s")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        if argv[0] == "minimal":
            assert err == ("gtsys: consistency failure: 0 conjugate forms counted, "
                           "where x^(d - d') is one\n")
        else:
            match = re.fullmatch(r"gtsys: consistency failure: (\d+) invariant monomials "
                                 r"enumerated where the count gives (\d+)\n", err)
            assert match and match[1] != match[2], err


def _verdict_of(report):
    """The verdict section of a report, all of gt-verdict's results, and its
    three verdict checks, unprefixed."""
    results = report["results"]
    if report["command"] == "report":
        results = results["verdict"]
    checks = [{**c, "name": c["name"].removeprefix("verdict.")} for c in report["checks"]
              if c["name"].startswith("verdict.") or report["command"] == "gt-verdict"]
    return results, checks


class TestOneVerdict:
    """report and gt-verdict give one verdict, WlpVerdict.of(action), whatever
    report's restriction says."""

    def test_report_verdict_of_the_interactive_pool(self, capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        workloads = importlib.import_module("workloads")
        reports = [argv for argv in workloads.load_pool() if argv[0] == "report"]
        assert len(reports) == 108
        for argv in reports:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
            verdict, checks = _verdict_of(json.loads(out))
            code, out, err = run_cli(capsys, "gt-verdict", *argv[1:])
            assert code == 0, (argv, err)
            assert (verdict, checks) == _verdict_of(json.loads(out)), argv
            assert [c["name"] for c in checks] == [
                "artinian", "injectivity_fails", "generator_bound"], argv
            action = actions.Action(int(argv[2]), tuple(map(int, argv[4].split(","))))
            want = json.loads(json.dumps(wlp.WlpVerdict.of(action).to_json()))
            assert verdict == {"verdict": want}, argv

    @pytest.mark.parametrize("argv", [
        ("--d", "7", "--action", "0,1,3"),
        ("--d", "9", "--action", "1,1,4"),
        ("--d", "30", "--action", "0,2,5"),
        ("--d", "40", "--action", "0,1,1"),
    ])
    def test_report_verdict_reads_no_restriction(self, capsys, monkeypatch, argv):
        code, want, err = run_cli(capsys, "report", *argv)
        assert code == 0, err
        real, calls = wlp.Restriction.of, []

        def one_more(cls, action):
            r = real(action)
            calls.append(r)
            return r.replace(nullity=r.nullity + 1)

        monkeypatch.setattr(wlp.Restriction, "of", classmethod(one_more))
        code, out, err = run_cli(capsys, "report", *argv)
        assert code == 0, err
        assert len(calls) == 1
        assert _verdict_of(json.loads(out)) == _verdict_of(json.loads(want))


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

        monkeypatch.setattr(circulant, "circulant_product", no_expansion)
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
        monkeypatch.setattr(circulant, "circulant_product", lambda d, w: change(real(d, w)))
        code, out, err = run_cli(capsys, "circulant", "--d", "7", "--a", "1", "--b", "3")
        assert code == 2 and out == ""
        assert err == f"gtsys: consistency failure: {message}\n"

    @pytest.mark.parametrize("extra", [(), ("--coeff", "0,0,0,0,0"), ("--coeff", "0,0,0,0,1")],
                             ids=["full", "coeff_sum_0", "coeff_sum_1"])
    def test_a_term_off_the_index_sum_rule_exits_2(self, capsys, monkeypatch, extra):
        # v_0^4 v_1 has index sum 1 mod 5: the determinant raises on its
        # whole support, whichever coefficient is queried
        real = circulant.circulant_product
        monkeypatch.setattr(circulant, "circulant_product", lambda d, w: polymat.SparsePoly(
            d, add(real(d, w).terms, {(d - 1, 1) + (0,) * (d - 2): 1})))
        code, out, err = run_cli(capsys, "circulant", "--d", "5", *extra)
        assert (code, out) == (2, "")
        assert err == "gtsys: consistency failure: determinant support violates the index-sum rule\n"

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
        assert err == "gtsys: size limit: the d of the general form is 13, past GENERAL_LIMIT = 12\n"

    @pytest.mark.parametrize("d", ["-3", "1", "13", "100"])
    @pytest.mark.parametrize("coeff", ["1", "0", "0,0,5"])
    def test_coeff_refuses_d_as_the_general_form(self, capsys, d, coeff):
        # d is checked before any index: --d -3 said "need exactly -3 indices"
        general = run_cli(capsys, "circulant", "--d", d)
        assert general[:2] == (1, "")
        assert run_cli(capsys, "circulant", "--d", d, "--coeff", coeff) == general

    @pytest.mark.parametrize("a,b", [(3, 2), (3, 3), (0, 2), (2, 7)])
    def test_section_positions_rule(self, capsys, a, b):
        code, _, err = run_cli(capsys, "circulant", "--d", "7", "--a", str(a), "--b", str(b))
        assert code == 1
        assert "need 1 <= a < b <= d-1" in err


# every size limit: the module, constant and key it is read from, and one
# call just past it with the size that call asks for
SIZE_LIMITS = [
    (actions, "INVARIANT_LIMIT", None,
     ("invariants", "--d", "999999", "--action", "0,0,1"), 1000001),  # mu = d + 2
    (wlp, "ELIMINATION_LIMIT", None,  # mu * (d + 1) = 3163 * 3162; 3162 * 3161 passes
     ("report", "--d", "3161", "--action", "0,0,1"), 10001406),
    (circulant, "TERNARY_LIMIT", None, ("circulant", "--d", "129", "--a", "1", "--b", "3"), 129),
    (circulant, "GENERAL_LIMIT", None, ("circulant", "--d", "13"), 13),
    (classification, "CLASSIFY_LIMIT", None, ("classify", "--d", "1000001"), 1000001),
    (surface, "SURFACE_LIMIT", None, ("surface", "--d", "13"), 13),
    (arrangements, "ARRANGEMENT_LIMITS", "ceva", ("arrangement", "--type", "ceva", "--d", "9"), 9),
    (arrangements, "ARRANGEMENT_LIMITS", "hd", ("arrangement", "--type", "hd", "--d", "9"), 9),
    (arrangements, "ARRANGEMENT_LIMITS", "fermat",
     ("arrangement", "--type", "fermat", "--d", "13"), 13),
    (cli, "GENERAL_L_LIMIT", None, ("gt-verdict", "--d", "7", "--a", "3", "--general-l", "100001"),
     100001),
]


def _limit_id(case):
    return case[1] if case[2] is None else f"{case[1]}[{case[2]}]"


class TestSizeLimitRefusals:
    """A request past a size limit exits 1 as a size limit that names the
    constant, its value and the size asked for; malformed input keeps the
    error prefix."""

    @pytest.mark.parametrize("case", SIZE_LIMITS, ids=_limit_id)
    def test_every_limit_refuses_as_a_size_limit(self, capsys, case):
        module, name, key, argv, size = case
        limit = getattr(module, name) if key is None else getattr(module, name)[key]
        label = name if key is None else f"{name}[{key!r}]"
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), err
        assert err.startswith("gtsys: size limit: ")
        assert err.endswith(f" is {size}, past {label} = {limit}\n"), err

    @pytest.mark.parametrize("argv,message", [
        (("invariants", "--d", "5", "--action", "1,2"),
         "--action expects three comma-separated weights"),
        (("invariants", "--d", "4", "--action", "0,2,2"),
         "gcd(0, 2, 2, 4) != 1: the action is not faithful"),
        (("minimal", "--d", "7", "--action", "0,1,1"), wlp.NOT_TOGLIATTI),
        (("circulant", "--d", "1"), "need d >= 2"),
        (("surface", "--d", "2"), "need d >= 3"),
        (("gt-verdict", "--d", "7", "--a", "3", "--general-l", "-1"),
         "--general-l expects a number of samples >= 0, got -1"),
    ], ids=["bad_action", "non_faithful", "repeated_weights", "circulant_d1", "surface_d2",
            "negative_general_l"])
    def test_malformed_input_keeps_the_error_prefix(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"gtsys: error: {message}\n")

    def test_the_readme_table_states_each_constant(self):
        # the constant column names module.CONSTANT, and the limit column
        # states its value after "<=", per kind for ARRANGEMENT_LIMITS
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| request | limit | constant |\n|---|---|---|\n", 1)[1]
        stated = {}
        for row in table.split("\n\n", 1)[0].splitlines():
            _, limit, constant = row.strip("| ").split(" | ")
            module, name = re.search(r"`(\w+)\.([A-Z_]+)`", constant).groups()
            value = getattr(importlib.import_module(f"gtsystems.{module}"), name)
            if isinstance(value, dict):
                assert dict((k, int(n)) for k, n in re.findall(r"`(\w+)`: `d <= (\d+)`", limit)
                            ) == value, row
            else:
                assert re.findall(r"<= (\d+)", limit) == [str(value)], row
            stated[name] = module
        assert stated == {name: module.__name__.rpartition(".")[2]
                          for module, name, _, _, _ in SIZE_LIMITS}


# the d of the surface suite, 3 <= d <= SURFACE_LIMIT
SURFACE_DS = range(3, surface.SURFACE_LIMIT + 1)


class TestLibraryLimits:
    @pytest.mark.parametrize("kind,limit", [("ceva", 8), ("hd", 8), ("fermat", 12)])
    def test_arrangement_limit(self, capsys, kind, limit):
        # build_arrangement checks the limit; the CLI prints it as a size limit
        assert arrangements.ARRANGEMENT_LIMITS[kind] == limit
        code, out, err = run_cli(capsys, "arrangement", "--type", kind, "--d", str(limit + 1))
        assert (code, out, err) == (
            1, "", f"gtsys: size limit: the d of the {kind} arrangement is {limit + 1}, "
                   f"past ARRANGEMENT_LIMITS[{kind!r}] = {limit}\n")

    def test_surface_range(self, capsys):
        hi = surface.SURFACE_LIMIT
        assert run_cli(capsys, "surface", "--d", "2") == (1, "", "gtsys: error: need d >= 3\n")
        assert run_cli(capsys, "surface", "--d", str(hi + 1)) == (
            1, "", f"gtsys: size limit: the d of the surface suite is {hi + 1}, "
                   f"past SURFACE_LIMIT = {hi}\n")

    def test_report_gates_surface_by_the_same_range(self, capsys):
        hi = surface.SURFACE_LIMIT
        for d, present in ((hi, True), (hi + 1, False)):
            code, out, _ = run_cli(capsys, "report", "--d", str(d), "--a", "2")
            assert code == 0
            assert ("surface" in json.loads(out)["results"]) is present


class TestSurfaceSuiteMemo:
    """report keeps its surface section per d, in cli._d_sections; surface
    computes the suite on every call."""

    @pytest.mark.parametrize("d", SURFACE_DS)
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
        names = ("exponent_polytope_degree", "polytope_smoothness", "_presentation",
                 "betti_table")
        runs = []

        def spy(name, real):
            def counted(arg):
                runs.append((name, getattr(arg, "d", arg)))
                return real(arg)
            return counted

        for name in names:
            monkeypatch.setattr(surface, name, spy(name, getattr(surface, name)))
        for d in SURFACE_DS:
            for argv in (("report", "--d", str(d), "--a", "1"),
                         ("surface", "--d", str(d)),
                         ("report", "--d", str(d), "--a", "2"),
                         ("report", "--d", str(d), "--action", "0,1,2", "--format", "md")):
                assert run_cli(capsys, *argv)[0] == 0, argv
        # once for the first report of each d, once for its surface call
        assert sorted(runs) == sorted((name, d) for name in names
                                      for d in SURFACE_DS for _ in range(2))

    def test_the_classical_ideal_is_held_to_the_count(self, capsys, monkeypatch):
        # the ideal of the suite comes from the one enumerator, checked by mu
        real = actions.invariant_exponents
        monkeypatch.setattr(actions, "invariant_exponents", lambda *args: real(*args)[1:])
        assert run_cli(capsys, "surface", "--d", "9") == (
            2, "", "gtsys: consistency failure: 6 invariant monomials enumerated "
                   "where the count gives 7\n")

    def test_a_failed_computation_is_not_kept(self, capsys, monkeypatch):
        misordered_listing(monkeypatch)
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
        misordered_listing(monkeypatch)
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
    # each refused call and its exact mu: (0, 1, 0) moves y alone, so its
    # invariant monomials are those with d | j, d + 2 of them, and (1, 1, 1)
    # keeps every monomial, C(d + 2, 2)
    REFUSED = {
        ("invariants", "--d", "100000000", "--a", "3"): 50000003,
        ("invariants", "--d", "2000000", "--action", "0,1,0"): 2000002,
        ("invariants", "--d", "5000", "--action", "1,1,1"): 5001 * 5002 // 2,
    }

    @pytest.mark.parametrize("argv", list(REFUSED))
    def test_refused_at_once_with_the_limit_named(self, capsys, argv):
        mu = self.REFUSED[argv]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        action = actions.Action(int(argv[2]), (0, 1, 3) if argv[3] == "--a" else
                                tuple(map(int, argv[4].split(","))))
        assert err == (f"gtsys: size limit: the number of invariant monomials of the action "
                       f"{action} is {mu}, past INVARIANT_LIMIT = {actions.INVARIANT_LIMIT}\n")

    def test_gt_verdict_is_not_limited(self, capsys):
        # the verdict counts: the action refused above answers with its mu
        code, out, err = run_cli(capsys, "gt-verdict", "--d", "100000000", "--a", "3")
        assert code == 0, err
        assert json.loads(out)["results"]["verdict"]["mu"] == 50000003

    def test_report_checks_it_before_the_partition(self, capsys, monkeypatch):
        def no_partition(d):
            raise AssertionError("report partitioned above the invariant limit")

        monkeypatch.setattr(classification, "classify_moves", no_partition)
        code, out, err = run_cli(capsys, "report", "--d", "5000", "--action", "1,1,1")
        assert code == 1 and out == ""
        assert err.startswith("gtsys: size limit: ") and "INVARIANT_LIMIT" in err


class TestEliminationLimit:
    def test_refused_at_once_with_the_limit_named(self, capsys):
        # mu = d + 2 passes the invariant limit; E would have 10^10 cells
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "report", "--d", "100000", "--action", "0,0,1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == ("gtsys: size limit: the cell count mu * (d + 1) of E for 100002 "
                       "generators at d = 100000 is 10000300002, past ELIMINATION_LIMIT = "
                       f"{wlp.ELIMINATION_LIMIT}\n")

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
        assert err.startswith("gtsys: size limit: ") and "ELIMINATION_LIMIT" in err


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
        code, out, err = run_cli(capsys, "classify", "--d", str(classification.CLASSIFY_LIMIT + 1))
        assert code == 1
        assert out == ""
        assert err == ("gtsys: size limit: the d of a classification is 1000001, "
                       f"past CLASSIFY_LIMIT = {classification.CLASSIFY_LIMIT}\n")

    @pytest.mark.parametrize("option,value,message", [
        ("--a", "3", "the cell count mu * (d + 1) of E for 500003 generators at d = 1000001 is "
                     f"500004000006, past ELIMINATION_LIMIT = {wlp.ELIMINATION_LIMIT}"),
        ("--action", "0,0,1", "the number of invariant monomials of the action (0,0,1) mod "
                              "1000001 is 1000003, past INVARIANT_LIMIT = 1000000"),
    ], ids=["distinct_weights", "repeated_weight"])
    def test_report_checks_the_limit_before_any_section(self, capsys, monkeypatch, option,
                                                         value, message):
        # the limits before the partition leave no report at d > 10^6: a
        # repeated weight gives mu >= d + 2 > INVARIANT_LIMIT, and any action
        # mu >= d/2 + 5/2, so E passes ELIMINATION_LIMIT from d = 4470
        def no_scan(*args):
            raise AssertionError("report enumerated invariants past the classify limit")

        monkeypatch.setattr(actions, "invariant_exponents", no_scan)
        d = classification.CLASSIFY_LIMIT + 1
        assert d == 10**6 + 1
        code, out, err = run_cli(capsys, "report", "--d", str(d), option, value)
        assert (code, out, err) == (1, "", f"gtsys: size limit: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (("report", "--d", "999998", "--action", "0,0,1"),
         "the cell count mu * (d + 1) of E for 1000000 generators at d = 999998 is "
         "999999000000, past ELIMINATION_LIMIT = 10000000"),
        # (0, 6, 55) outside the paper's family: 2345 generators
        (("minimal", "--d", "4620", "--action", "0,6,55"),
         "the cell count mu * (d + 1) of E for 2345 generators at d = 4620 is "
         "10836245, past ELIMINATION_LIMIT = 10000000"),
        (("invariants", "--d", "1000003", "--action", "0,0,1"),
         "the number of invariant monomials of the action (0,0,1) mod 1000003 is "
         "1000005, past INVARIANT_LIMIT = 1000000"),
    ], ids=["report_elimination", "minimal_elimination", "invariants"])
    def test_every_per_action_refusal_comes_before_the_listing(self, capsys, monkeypatch, argv,
                                                              message):
        # each limit refuses from the count: no monomial is listed
        def no_scan(*args):
            raise AssertionError(f"{argv[0]} listed invariants past a limit")

        monkeypatch.setattr(actions, "invariant_exponents", no_scan)
        assert run_cli(capsys, *argv) == (1, "", f"gtsys: size limit: {message}\n")

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
        ("gt-verdict", "--d", "7", "--a", "3", "--general-l", "-1"),  # the command refuses it
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
        assert usage_bytes.REFUSED in TestOneArgparseRoute.VALID
        assert set(recorded) == set(usage_bytes.CALLS) == set(helps + failures
                                                              + [usage_bytes.REFUSED])

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

    def test_markdown_table_of_rows_with_different_keys(self, capsys):
        # the units of a scan differ in their keys: one table holds them all,
        # a column for every key, blank where a unit has none
        code, out, _ = run_cli(capsys, "conjecture-scan", "--dmax", "4", "--format", "md")
        assert code == 0
        assert "{'" not in out
        lines = out.splitlines()
        table = lines[lines.index("### units") + 1:]
        assert table[0] == ("| d | a | b | status | mu | minimal_circulant | togliatti "
                            "| minimal_oracle |")
        assert table[2] == "| 3 | 1 | 1 | degenerate_wlp |  |  |  |  |"
        assert table[3] == "| 3 | 1 | 2 | ok | 4 | true | true | true |"

    def test_markdown_spells_bool_and_none_as_json(self, capsys):
        # in a line, in a table cell and inside a list cell, as the JSON and
        # csv renderings spell them
        code, out, _ = run_cli(capsys, "minimal", "--d", "7", "--action", "0,1,3", "--format",
                               "md")
        assert code == 0
        assert "- minimal_circulant: true\n- minimal_subset_oracle: null\n" in out
        assert not re.search(r"\b(True|False|None)\b", out)
        code, out, _ = run_cli(capsys, "classify", "--d", "13", "--format", "md")
        assert "- N21: true\n" in out and "- N22: false\n" in out
        assert cli._md_cell([True, False, None, 3, "x^2y", [0, "y"]]) == (
            'true, false, null, 3, x^2y, [0, "y"]')
        assert cli._md_cell([[7, 0, 0], [0, 7, 0]]) == "[7, 0, 0], [0, 7, 0]"  # as before

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
