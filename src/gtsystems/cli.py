"""Command line front end.

Every subcommand assembles the same report shape: tool_version, command,
inputs, results and a list of checks {name, status, detail} with status one
of pass, fail or finding.  Output is byte-deterministic for fixed inputs:
JSON is the canonical format, markdown and csv are renderings of the same
report.  Exit codes: 0 for clean runs (findings included), 1 for invalid
input, 2 when an internal cross-check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from . import __version__
from .actions import Action, GTIdeal, generalized_classical, invariant_monomials
from .arrangements import (
    build_arrangement,
    certificate_product_membership,
    ceva_configuration,
    freeness_diagnostic,
    random_scales,
    singular_census,
)
from .circulant import CirculantSpec, circulant_det_symbolic, coefficient_query, ternary_product
from .classification import class_count_formulas, classify_moves, is_prime, prime_and_primepower_counts
from .errors import ConsistencyError
from .surface import (
    betti_table,
    determinantal_generators,
    exponent_polytope_degree,
    polytope_smoothness,
)
from .wlp import (
    conjecture_scan,
    gt_verdict,
    is_artinian,
    kernel_dimension,
    minimality_circulant,
    minimality_subset_oracle,
)

DEFAULT_SEED = 20260814
_CLI_GENERAL_LIMIT = 8


class CliParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _check(name, status, detail=""):
    return {"name": name, "status": status, "detail": str(detail)}


def _parse_action(args) -> Action:
    if getattr(args, "action", None):
        parts = [int(p) for p in args.action.split(",")]
        if len(parts) != 3:
            raise ValueError("--action expects three comma-separated weights")
        return Action(args.d, tuple(parts))
    if getattr(args, "a", None) is not None:
        return Action(args.d, (0, 1, args.a))
    raise ValueError("an action is required: pass --action a,b,c or --a")


def _report(command, inputs, results, checks):
    return {
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
    }


# ---------------------------------------------------------------- commands


def cmd_invariants(args):
    action = _parse_action(args)
    ideal = invariant_monomials(action)
    checks = [
        _check(
            "generator_bound",
            "pass" if ideal.mu <= args.d + 1 else "finding",
            f"mu={ideal.mu}, d+1={args.d + 1}",
        )
    ]
    results = {
        "action": action.to_json(),
        "normalized": action.normalized().to_json(),
        "mu": ideal.mu,
        "generators": ideal.generator_strings(),
        "exponents": [list(g) for g in ideal.generators],
        "artinian": ideal.has_pure_powers(),
    }
    return _report("invariants", {"d": args.d, "action": str(action)}, results, checks)


def cmd_gt_verdict(args):
    action = _parse_action(args)
    ideal = invariant_monomials(action)
    verdict = gt_verdict(action)
    checks = [
        _check("artinian", "pass" if is_artinian(ideal) else "finding",
               "contains all three pure powers" if is_artinian(ideal) else "missing a pure power"),
        _check(
            "injectivity_fails",
            "pass" if verdict.fails_injectivity else "finding",
            f"rank={verdict.rank}, dim_source={verdict.dim_source}",
        ),
        _check(
            "generator_bound",
            "pass" if verdict.generator_bound_ok else "finding",
            f"mu={verdict.mu}",
        ),
    ]
    results = {"verdict": verdict.to_json()}
    if args.general_l:
        if args.d > 12:
            raise ValueError("--general-l sampling is supported for d <= 12")
        rng = random.Random(args.seed)
        base_rank = verdict.dim_source - kernel_dimension(ideal)
        samples = []
        for _ in range(args.general_l):
            coeffs = tuple(rng.randint(1, 9) * rng.choice((-1, 1)) for _ in range(3))
            rank = verdict.dim_source - kernel_dimension(ideal, coeffs)
            samples.append({"coeffs": list(coeffs), "rank": rank})
        agree = all(s["rank"] == base_rank for s in samples)
        results["general_form_samples"] = samples
        results["base_rank"] = base_rank
        checks.append(
            _check("general_form_ranks_agree", "pass" if agree else "finding",
                   f"base rank {base_rank}")
        )
    return _report("gt-verdict", {"d": args.d, "action": str(action)}, results, checks)


def cmd_minimal(args):
    action = _parse_action(args)
    minimal_circ = minimality_circulant(action)
    results = {
        "action": action.normalized().to_json(),
        "minimal_circulant": minimal_circ,
        "minimal_subset_oracle": None,
    }
    checks = [
        _check("minimal_circulant", "pass" if minimal_circ else "finding",
               "ternary product support equals the invariant set" if minimal_circ
               else "support misses part of the invariant set"),
    ]
    if getattr(args, "subset_oracle", False):
        ideal = invariant_monomials(action)
        oracle = minimality_subset_oracle(ideal)
        results["minimal_subset_oracle"] = oracle
        checks.append(_check("minimal_subset_oracle", "pass" if oracle else "finding"))
        if oracle != minimal_circ:
            raise ConsistencyError("the two minimality routes disagree")
        checks.append(_check("routes_agree", "pass"))
    return _report("minimal", {"d": args.d, "action": str(action)}, results, checks)


def cmd_classify(args):
    d = args.d
    if getattr(args, "action", None) or getattr(args, "a", None) is not None:
        action = _parse_action(args)
        w = action.normalized().weights
        if w[0] != 0 or w[1] != 1 or not 2 <= w[2] <= d - 1:
            raise ValueError("classification requires an action of the shape (0,1,a) with 2 <= a <= d-1")
    partition = classify_moves(d)
    results = {"partition": partition.to_json()}
    checks = [
        _check("partition_sizes", "pass", f"{len(partition.classes)} classes"),
    ]
    if d >= 5:
        report = class_count_formulas(d)
        results["counts"] = report.to_json()
        checks.append(
            _check(
                "formula_oracle_agreement",
                "pass" if not report.findings else "finding",
                "all fields agree" if not report.findings
                else "formula/oracle mismatch at " + ", ".join(report.findings),
            )
        )
    try:
        results["closed_form_count"] = prime_and_primepower_counts(d)
    except ValueError:
        pass
    return _report("classify", {"d": d}, results, checks)


def cmd_circulant(args):
    d = args.d
    inputs = {"d": d}
    checks = []
    if args.coeff:
        indices = [int(p) for p in args.coeff.split(",")]
        if d > _CLI_GENERAL_LIMIT:
            raise ValueError(f"coefficient queries are supported for d <= {_CLI_GENERAL_LIMIT}")
        value = coefficient_query(d, indices)
        s = sum(indices) % d
        inputs["coeff"] = indices
        if s != 0 and value != 0:
            raise ConsistencyError(
                f"coefficient {value} nonzero although the index sum is {s} mod {d}"
            )
        checks.append(
            _check("index_sum_vanishing", "pass",
                   f"index sum {s} mod {d}, value {value}")
        )
        results = {"indices": indices, "index_sum_mod_d": s, "value": value}
    elif args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise ValueError("the ternary section needs both --a and --b")
        CirculantSpec.ternary(d, args.a, args.b)
        poly = ternary_product(d, args.a, args.b)
        ideal = invariant_monomials(Action(d, (0, args.a, args.b)))
        complete = poly.support() == set(ideal.generators)
        inputs.update({"a": args.a, "b": args.b})
        checks.append(
            _check("support_equals_invariant_set",
                   "pass" if complete else "finding",
                   f"{len(poly.terms)} terms vs mu={ideal.mu}")
        )
        results = {
            "n_terms": len(poly.terms),
            "support_complete": complete,
            "polynomial": poly.to_json(),
        }
    else:
        if d > _CLI_GENERAL_LIMIT:
            raise ValueError(
                f"the full symbolic determinant is supported for d <= {_CLI_GENERAL_LIMIT}; "
                "pass --a/--b for a ternary section or --coeff for one coefficient"
            )
        det = circulant_det_symbolic(CirculantSpec.general(d))
        bad = [e for e in det.terms if sum(i * m for i, m in enumerate(e)) % d]
        if bad:
            raise ConsistencyError("determinant support violates the index-sum rule")
        checks.append(_check("index_sum_rule", "pass", f"{len(det.terms)} terms"))
        results = {"n_terms": len(det.terms)}
        if d <= 6:
            results["polynomial"] = det.to_json()
    return _report("circulant", inputs, results, checks)


def cmd_conjecture_scan(args):
    if args.dmax < 3:
        raise ValueError("--dmax must be at least 3")
    scan = conjecture_scan(range(3, args.dmax + 1))
    findings = scan["findings"]
    checks = [
        _check("no_counterexamples", "pass" if not findings else "finding",
               f"{len(findings)} counterexample candidate(s)")
    ]
    results = {
        "n_units": len(scan["units"]),
        "findings": findings,
    }
    if not args.stream:
        results["units"] = scan["units"]
    report = _report("conjecture-scan", {"dmax": args.dmax}, results, checks)
    if args.stream:
        report["_stream_units"] = scan["units"]
    return report


def cmd_surface(args):
    d = args.d
    if not 3 <= d <= 12:
        raise ValueError("the surface suite is supported for 3 <= d <= 12")
    ideal = generalized_classical(d)
    model = exponent_polytope_degree(ideal)
    smooth = polytope_smoothness(ideal)
    pres = determinantal_generators(d)
    betti = betti_table(d)
    checks = [
        _check("degree_equals_d", "pass" if model.degree == d else "finding",
               f"degree {model.degree}"),
        _check("pullbacks_vanish", "pass", f"{len(pres.generators)} generators"),
        _check("betti_alternating_sum", "pass", "0"),
        _check("h_polynomial_at_1", "pass", f"{sum(betti.h_polynomial())}"),
        _check("smooth", "pass" if smooth.smooth else "finding",
               "smooth" if smooth.smooth else "singular boundary configuration"),
    ]
    results = {
        "ideal": ideal.to_json(),
        "degree_model": model.to_json(),
        "smoothness": smooth.to_json(),
        "presentation": pres.to_json(),
        "betti": betti.to_json(),
    }
    return _report("surface", {"d": d}, results, checks)


def cmd_arrangement(args):
    d = args.d
    kind = args.type
    limits = {"ceva": 8, "hd": 8, "fermat": 12}
    if d > limits[kind]:
        raise ValueError(f"arrangement {kind} is supported for d <= {limits[kind]}")
    arr = build_arrangement(kind, d)
    census = singular_census(arr)
    free = freeness_diagnostic(census)
    results = {
        "lines": arr.n_lines,
        "census": census.to_json()["census"],
        "c1": free.c1,
        "c2": free.c2,
        "exponents": list(free.exponents) if free.exponents else "necessary condition fails",
    }
    checks = [
        _check("pair_identity", "pass", f"{census.pair_identity()} line pairs"),
        _check("freeness_necessary_condition",
               "pass" if free.exponents else "finding", free.status),
    ]
    if kind == "ceva":
        cert = ceva_configuration(d)
        results["incidence"] = cert.to_json()
        checks.append(_check("incidence_certificate", "pass",
                             f"{cert.n_points} points x {cert.n_lines} lines"))
    return _report("arrangement", {"d": d, "type": kind}, results, checks)


def cmd_report(args):
    action = _parse_action(args)
    d = args.d
    child = argparse.Namespace(
        d=d, action=getattr(args, "action", None), a=getattr(args, "a", None),
        seed=args.seed, general_l=getattr(args, "general_l", 0), subset_oracle=False,
    )
    sections = {}
    checks = []

    def absorb(prefix, sub):
        sections[prefix] = sub["results"]
        checks.extend(
            _check(f"{prefix}.{c['name']}", c["status"], c["detail"]) for c in sub["checks"]
        )

    absorb("invariants", cmd_invariants(child))
    absorb("verdict", cmd_gt_verdict(child))

    norm = action.normalized()
    if 0 < norm.weights[1] < norm.weights[2]:
        absorb("minimal", cmd_minimal(child))

    if d >= 4:
        partition = classify_moves(d)
        sections["classification"] = partition.to_json()
        if d >= 5:
            counts = class_count_formulas(d)
            sections["class_counts"] = counts.to_json()
            checks.append(
                _check("classify.formula_oracle_agreement",
                       "pass" if not counts.findings else "finding",
                       ", ".join(counts.findings) or "all fields agree")
            )

    if 3 <= d <= 12:
        absorb("surface", cmd_surface(argparse.Namespace(d=d)))

    if d <= 9:
        rng = random.Random(args.seed)
        forms = []
        for _ in range(5):
            scales = random_scales(rng)
            cert = certificate_product_membership(norm, scales)
            forms.append({"scales": list(scales), "support_size": cert.support_size})
        sections["membership"] = {"forms": forms}
        checks.append(_check("membership.random_forms", "pass", "5 forms in the ideal"))

    return _report("report", {"d": d, "action": str(action), "seed": args.seed}, sections, checks)


# ---------------------------------------------------------------- rendering


def _md_cell(v):
    if isinstance(v, (list, tuple)):
        return ", ".join(str(x) for x in v)
    return str(v)


def _md_table(rows):
    keys = list(rows[0].keys())
    lines = ["| " + " | ".join(keys) + " |", "|" + " --- |" * len(keys)]
    for r in rows:
        lines.append("| " + " | ".join(_md_cell(r.get(k, "")) for k in keys) + " |")
    return lines


def _is_table(v):
    return (
        isinstance(v, list)
        and v
        and all(isinstance(r, dict) for r in v)
        and all(set(r) == set(v[0]) for r in v)
        and all(not isinstance(x, dict) for r in v for x in r.values())
    )


def _md_value(key, value, depth):
    lines = []
    head = "#" * min(depth, 6)
    if isinstance(value, dict):
        lines.append(f"{head} {key}")
        for k in value:
            lines += _md_value(k, value[k], depth + 1)
    elif _is_table(value):
        lines.append(f"{head} {key}")
        lines += _md_table(value)
    else:
        lines.append(f"- {key}: {_md_cell(value)}")
    return lines


def _render_md(report):
    lines = [f"# gtsys {report['command']}", f"- tool_version: {report['tool_version']}"]
    lines += _md_value("inputs", report["inputs"], 2)
    lines += _md_value("results", report["results"], 2)
    lines.append("## checks")
    lines += _md_table(report["checks"])
    return "\n".join(lines) + "\n"


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for k in value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        rows.append((prefix, json.dumps(value, sort_keys=True)))
    else:
        rows.append((prefix, value))


def _render_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "key", "value", "detail"])
    writer.writerow(["meta", "tool_version", report["tool_version"], ""])
    writer.writerow(["meta", "command", report["command"], ""])
    for section in ("inputs", "results"):
        rows = []
        _flatten("", report[section], rows)
        for key, value in rows:
            writer.writerow([section, key, value, ""])
    for c in report["checks"]:
        writer.writerow(["check", c["name"], c["status"], c["detail"]])
    return buf.getvalue()


def _render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "md":
        return _render_md(report)
    if fmt == "csv":
        return _render_csv(report)
    raise ValueError(f"unknown format {fmt!r}")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- wiring


def _add_common(p, *, d=True, action=False, seed=False):
    p.add_argument("--format", choices=("json", "md", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report to a file")
    if d:
        p.add_argument("--d", type=int, required=True)
    if action:
        p.add_argument("--action", default=None, help="three weights a,b,c")
        p.add_argument("--a", type=int, default=None, help="shortcut for --action 0,1,a")
    if seed:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> CliParser:
    parser = CliParser(prog="gtsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("invariants", help="invariant monomials of an action")
    _add_common(p, action=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("gt-verdict", help="weak Lefschetz failure verdict")
    _add_common(p, action=True, seed=True)
    p.add_argument("--general-l", type=int, default=0, dest="general_l",
                   help="also sample N random linear forms and compare ranks")
    p.set_defaults(func=cmd_gt_verdict)

    p = sub.add_parser("minimal", help="minimality of the Togliatti system")
    _add_common(p, action=True)
    p.add_argument("--subset-oracle", action="store_true", dest="subset_oracle")
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("classify", help="equivalence classes of actions for one d")
    _add_common(p, action=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("circulant", help="exact circulant determinant data")
    _add_common(p)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--coeff", default=None, help="comma-separated row indices")
    p.set_defaults(func=cmd_circulant)

    p = sub.add_parser("conjecture-scan", help="scan (d,a,b) for minimality failures")
    _add_common(p, d=False)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--stream", action="store_true")
    p.set_defaults(func=cmd_conjecture_scan)

    p = sub.add_parser("surface", help="toric surface invariants of the classical system")
    _add_common(p)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("arrangement", help="line arrangement census and freeness")
    _add_common(p)
    p.add_argument("--type", choices=("ceva", "hd", "fermat"), required=True)
    p.set_defaults(func=cmd_arrangement)

    p = sub.add_parser("report", help="bundle all analyses for one (d, action)")
    _add_common(p, action=True, seed=True)
    p.add_argument("--general-l", type=int, default=0, dest="general_l")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        print("gtsys: error: a command is required", file=sys.stderr)
        return 1
    try:
        report = args.func(args)
    except ConsistencyError as exc:
        print(f"gtsys: consistency failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"gtsys: error: {exc}", file=sys.stderr)
        return 1
    stream_units = report.pop("_stream_units", None)
    if stream_units is not None:
        text = "".join(json.dumps(u, sort_keys=True) + "\n" for u in stream_units)
    else:
        text = _render(report, args.format)
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
