"""Command line front end.

Every subcommand assembles the same report shape: tool_version, command,
inputs, results and a list of checks {name, status, detail} with status one
of pass, fail or finding.  Output is byte-deterministic for fixed inputs:
JSON is the canonical format, markdown and csv are renderings of the same
report.  Exit codes: 0 for clean runs (findings included), 1 for invalid
input or a request past a size limit, 2 when an internal cross-check fails.
"""

from __future__ import annotations

import functools
import io
import marshal
import sys
from _json import encode_basestring_ascii as _json_str
from types import SimpleNamespace

from . import __version__
from .actions import Action, invariant_monomials
from .errors import ConsistencyError, SizeLimitError
from .wlp import (
    NOT_TOGLIATTI,
    Restriction,
    WlpVerdict,
    conjecture_scan,
    conjugate_nullity,
    random_scales,
)

# circulant, classification, surface and arrangements (with cyclotomic), csv
# and random are imported by the commands that use them, on their first call:
# the per-ideal commands never load classification, surface or arrangements,
# minimal, gt-verdict and invariants never load circulant (only a Newton
# expansion does), and report loads no arrangements.  No gtsys
# process imports json (_json_write writes every JSON text, --stream lines and
# csv cells too), nor dataclasses with inspect (the records are _record
# classes).  A plain call (full option names, each once, values that do not
# start with -) is read from _COMMANDS and loads no argparse, gettext or
# locale; any other call is parsed by the argparse parser, built for it (_parse)

DEFAULT_SEED = 20260814


def _check(name, status, detail=""):
    return {"name": name, "status": status, "detail": str(detail)}


def _integers(option, text, what):
    """The integers in text, the comma-separated value of option; any other
    value raises a ValueError that names the option and what it expects."""
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} expects {what}, got {text!r}") from None


def _parse_action(args) -> Action:
    if args.action:
        parts = _integers("--action", args.action, "three comma-separated integer weights")
        if len(parts) != 3:
            raise ValueError("--action expects three comma-separated weights")
        return Action(args.d, tuple(parts))
    if args.a is not None:
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


def _invariants_section(ideal, prefix=""):
    """The results of invariants and its checks, each named prefix + its
    name: report takes them as they are, with no second copy."""
    d, action = ideal.d, ideal.action
    checks = [
        _check(
            prefix + "generator_bound",
            "pass" if ideal.mu <= d + 1 else "finding",
            f"mu={ideal.mu}, d+1={d + 1}",
        )
    ]
    results = {
        "action": action.to_json(),
        "normalized": {"d": d, "weights": list(action.normalized())},
        "mu": ideal.mu,
        "generators": ideal.generator_strings(),
        "exponents": [list(g) for g in ideal.generators],
        "artinian": ideal.has_pure_powers(),
    }
    return results, checks


def cmd_invariants(args):
    action = _parse_action(args)
    return _report("invariants", {"d": action.d, "action": str(action)},
                   *_invariants_section(invariant_monomials(action)))


def _verdict_section(verdict, general_l, seed, prefix=""):
    """The results of gt-verdict and its checks, named as in
    _invariants_section: verdict is WlpVerdict.of(action), from two counts."""
    checks = [
        # the ideal of an action holds all three pure powers, as a*d = 0 mod d
        _check(prefix + "artinian", "pass", "contains all three pure powers"),
        _check(
            prefix + "injectivity_fails",
            "pass" if verdict.fails_injectivity else "finding",
            f"rank={verdict.rank}, dim_source={verdict.dim_source}",
        ),
        _check(
            prefix + "generator_bound",
            "pass" if verdict.generator_bound_ok else "finding",
            f"mu={verdict.mu}",
        ),
    ]
    results = {"verdict": verdict.to_json()}
    if general_l:
        import random

        rng = random.Random(seed)
        base_rank = verdict.dim_source - conjugate_nullity(verdict.action)  # .rank: None past 16
        # every sampled form has nonzero coefficients, so its nullity is that
        # of x + y + z, the count of conjugate forms (wlp docstring): nothing
        # is swept
        results["general_form_samples"] = [
            {"coeffs": list(random_scales(rng)), "rank": base_rank} for _ in range(general_l)
        ]
        results["base_rank"] = base_rank
        checks.append(_check(prefix + "general_form_ranks_agree", "pass",
                             f"base rank {base_rank}"))
    return results, checks


def _general_l(args):
    """The number of --general-l samples, refused before any is drawn: a
    negative one is invalid, and one past GENERAL_L_LIMIT a size limit."""
    n = args.general_l
    if n < 0:
        raise ValueError(f"--general-l expects a number of samples >= 0, got {n}")
    if n > GENERAL_L_LIMIT:
        raise SizeLimitError("the number of --general-l samples", n, "GENERAL_L_LIMIT",
                             GENERAL_L_LIMIT)
    return n


def cmd_gt_verdict(args):
    """The verdict from two counts, in O(log d): no ideal is built, and the
    pure powers are invariant, as a*d = 0."""
    general_l = _general_l(args)
    action = _parse_action(args)
    return _report("gt-verdict", {"d": action.d, "action": str(action)},
                   *_verdict_section(WlpVerdict.of(action), general_l, args.seed))


def _minimal_section(r, cross_check=False, subset_oracle=False, prefix=""):
    """The results of minimal and its checks, named as in
    _invariants_section: minimality of a Togliatti system, read off its
    restriction r.  With cross_check, r.evaluation_check() compares r.product
    with the eigenvalue product at two points mod a prime p = 1 (mod d), and
    a mismatch raises ConsistencyError; cross_check and routes_agree say that
    it did, that is with nullity 1, at every d."""
    ideal, minimal = r.ideal, r.minimal
    compared = cross_check and r.evaluation_check()
    results = {
        "action": {"d": ideal.d, "weights": list(ideal.action.normalized())},
        "minimal_circulant": minimal,
        "minimal_subset_oracle": None,
        "route": "kernel_vector",
        "cross_check": "evaluation_mod_p" if compared else None,
    }
    checks = [
        _check(prefix + "minimal_circulant", "pass" if minimal else "finding",
               "ternary product support equals the invariant set" if minimal
               else "support misses part of the invariant set"),
    ]
    if subset_oracle:
        results["minimal_subset_oracle"] = minimal
        checks.append(_check(prefix + "minimal_subset_oracle",
                             "pass" if minimal else "finding"))
        if compared:
            checks.append(_check(prefix + "routes_agree", "pass"))
    return results, checks


def cmd_minimal(args):
    action = _parse_action(args)
    # minimality applies to Togliatti systems alone: two counts, before any limit
    if not WlpVerdict.of(action).is_togliatti:
        raise ValueError(NOT_TOGLIATTI)
    r = Restriction.of(action)
    return _report("minimal", {"d": action.d, "action": str(action)},
                   *_minimal_section(r, cross_check=True, subset_oracle=args.subset_oracle))


def cmd_classify(args):
    from . import classification

    d = args.d
    results, more = _classify_section(d)
    checks = [_check("partition_sizes", "pass", f"{len(results['partition']['classes'])} classes"),
              *more]
    try:
        results["closed_form_count"] = classification.prime_and_primepower_counts(d)
    except ValueError:
        pass
    return _report("classify", {"d": d}, results, checks)


def cmd_circulant(args):
    from .circulant import check_ternary_limit, circulant_det_symbolic, coefficient_query

    d = args.d
    inputs = {"d": d}
    checks = []
    if args.coeff is not None and (args.a is not None or args.b is not None):
        raise ValueError("--coeff queries the general form; it takes no --a or --b")
    if args.coeff is not None:
        indices = _integers("--coeff", args.coeff, "comma-separated integer row indices")
        value = coefficient_query(d, indices)
        s = sum(indices) % d
        inputs["coeff"] = indices
        checks.append(
            _check("index_sum_vanishing", "pass",
                   f"index sum {s} mod {d}, value {value}")
        )
        results = {"indices": indices, "index_sum_mod_d": s, "value": value}
    elif args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise ValueError("the ternary section needs both --a and --b")
        if not 1 <= args.a < args.b <= d - 1:
            raise ValueError("need 1 <= a < b <= d-1")
        action = Action(d, (0, args.a, args.b))  # rejects a non-faithful section
        check_ternary_limit(d)
        r = Restriction.of(action)
        # the Newton product, cross-checked against the ideal and against v
        poly = r.newton_product()
        complete = poly.support() == set(r.ideal.generators)
        inputs.update({"a": args.a, "b": args.b})
        checks.append(
            _check("support_equals_invariant_set",
                   "pass" if complete else "finding",
                   f"{len(poly.terms)} terms vs mu={r.ideal.mu}")
        )
        results = {
            "n_terms": len(poly.terms),
            "support_complete": complete,
            "polynomial": poly.to_json(),
        }
    else:
        det = circulant_det_symbolic(d)  # which checks the index-sum rule
        checks.append(_check("index_sum_rule", "pass", f"{len(det.terms)} terms"))
        results = {"n_terms": len(det.terms)}
        if d <= 6:
            results["polynomial"] = det.to_json()
    return _report("circulant", inputs, results, checks)


def cmd_conjecture_scan(args):
    if args.dmax < 3:
        raise ValueError("--dmax must be at least 3")
    if args.stream and args.format != "json":
        raise ValueError("--stream prints JSON lines; it takes no --format " + args.format)
    scan = conjecture_scan(range(3, args.dmax + 1))
    if args.stream:
        # JSON lines, one per unit, in place of a report; printed when the
        # scan has ended
        return "".join(_json_text(u, None) + "\n" for u in scan["units"])
    findings = scan["findings"]
    checks = [
        _check("no_counterexamples", "pass" if not findings else "finding",
               f"{len(findings)} counterexample candidate(s)")
    ]
    results = {"n_units": len(scan["units"]), "findings": findings, "units": scan["units"]}
    return _report("conjecture-scan", {"dmax": args.dmax}, results, checks)


def _surface_section(d, prefix=""):
    """The results of surface and its checks, named as in
    _invariants_section: the classical system of degree d, computed anew
    from surface.classical_suite(d), which checks the range of d."""
    from . import surface

    suite = surface.classical_suite(d)
    model, smooth = suite.degree_model, suite.smoothness
    pres, betti = suite.presentation, suite.betti
    checks = [
        _check(prefix + "degree_equals_d", "pass" if model.degree == d else "finding",
               f"degree {model.degree}"),
        _check(prefix + "pullbacks_vanish", "pass", f"{len(pres.generators)} generators"),
        _check(prefix + "betti_alternating_sum", "pass", "0"),
        _check(prefix + "h_polynomial_at_1", "pass", f"{sum(betti.h_polynomial())}"),
        _check(prefix + "smooth", "pass" if smooth.smooth else "finding",
               "smooth" if smooth.smooth else "singular boundary configuration"),
    ]
    results = {
        "ideal": suite.ideal.to_json(),
        "degree_model": model.to_json(),
        "smoothness": smooth.to_json(),
        "presentation": pres.to_json(),
        "betti": betti.to_json(),
    }
    return results, checks


def _classify_section(d, prefix=""):
    """The results of classify but its closed form, and their check, named
    as in _invariants_section: the partition, and from d = 5 the counts."""
    from . import classification

    partition = classification.classify_moves(d)
    results, checks = {"partition": partition.to_json()}, []
    if d >= 5:
        counts = classification.class_count_formulas(d, partition)
        results["counts"] = counts.to_json()
        checks.append(_check(prefix + "formula_oracle_agreement",
                             "pass" if not counts.findings else "finding",
                             ", ".join(counts.findings) or "all fields agree"))
    return results, checks


def cmd_surface(args):
    return _report("surface", {"d": args.d}, *_surface_section(args.d))


def cmd_arrangement(args):
    from . import arrangements

    d = args.d
    kind = args.type
    arr = arrangements.build_arrangement(kind, d)
    census = arrangements.singular_census(arr)
    free = arrangements.freeness_diagnostic(census)
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
        cert = arrangements.ceva_configuration(d)
        results["incidence"] = cert.to_json()
        checks.append(_check("incidence_certificate", "pass",
                             f"{cert.n_points} points x {cert.n_lines} lines"))
    return _report("arrangement", {"d": d, "type": kind}, results, checks)


# the line prefix of a section of report's results in the report's JSON
_SECTION_NL = "\n    "


class _Section(dict):
    """A d-only section of report: a new dict on every call, which md and csv
    read, and in .json the JSON text of that dict as built, which _json_write
    appends at _SECTION_NL.  To render a changed section, pass dict(section)."""

    __slots__ = ("json",)


@functools.lru_cache(maxsize=64)
def _d_sections(d):
    """report's sections that depend on d alone, built with every check on the
    first call for each d, as (name, marshal bytes of the dict, JSON text at
    _SECTION_NL), and their checks as built; a raise is never kept.  The
    largest entry, the partition at d = 4469, the largest d of a report
    (cmd_report), is 0.3 MiB, so the memo stays near 16 MiB."""
    from . import surface

    sections, checks = [], []
    if d >= 4:
        results, checks = _classify_section(d, "classify.")
        sections += zip(("classification", "class_counts"), results.values())  # counts from d = 5
    if 3 <= d <= surface.SURFACE_LIMIT:
        results, more = _surface_section(d, "surface.")
        sections.append(("surface", results))
        checks += more
    return (tuple((name, marshal.dumps(v), _json_text(v, _SECTION_NL)) for name, v in sections),
            tuple(checks))


def cmd_report(args):
    general_l = _general_l(args)
    action = _parse_action(args)
    d = args.d
    # one restriction, refused from the count before the partition: as
    # mu >= d/2 + 5/2, every E past d = 4469 passes ELIMINATION_LIMIT, so no
    # report reaches the classify limit.  The verdict, from counts, gates minimality
    r = Restriction.of(action)
    verdict = WlpVerdict.of(action)
    shared, shared_checks = _d_sections(d)
    # each section with its checks, named section.check once
    sections = {}
    sections["invariants"], checks = _invariants_section(r.ideal, "invariants.")
    sections["verdict"], more = _verdict_section(verdict, general_l, args.seed, "verdict.")
    checks += more
    if verdict.is_togliatti:
        sections["minimal"], more = _minimal_section(r, prefix="minimal.")
        checks += more
    else:
        sections["minimal"] = {"applies": False, "reason": (
            f"not a Togliatti system: mu={verdict.mu}, d+1={d + 1}, nullity={r.nullity}")}

    # a new dict for each d-only section, from bytes no caller sees, and for
    # each of its checks, so a caller that changes one changes no later report
    for name, blob, text in shared:
        section = sections[name] = _Section(marshal.loads(blob))
        section.json = text
    checks.extend(map(dict, shared_checks))

    if d <= 9:
        import random

        # scaling the variables by nonzero integers keeps the support, so
        # every form has the product's support size
        product = r.product if r.product is not None else r.newton_product()
        support_size = len(product.terms)
        rng = random.Random(args.seed)
        forms = [{"scales": list(random_scales(rng)), "support_size": support_size}
                 for _ in range(5)]
        sections["membership"] = {"forms": forms}
        checks.append(_check("membership.random_forms", "pass", "5 forms in the ideal"))

    return _report("report", {"d": d, "action": str(action), "seed": args.seed}, sections, checks)


# ---------------------------------------------------------------- rendering


def _md_cell(v):
    """A list or tuple as the cells of its items, joined by ", "; any other
    value as its _cell."""
    if isinstance(v, (list, tuple)):
        return ", ".join(map(_cell, v))
    return _cell(v)


def _md_table(rows):
    keys = list(dict.fromkeys(k for r in rows for k in r))  # every row's keys, first seen first
    lines = ["| " + " | ".join(keys) + " |", "|" + " --- |" * len(keys)]
    for r in rows:
        lines.append("| " + " | ".join(_md_cell(r.get(k, "")) for k in keys) + " |")
    return lines


def _is_table(v):
    return (
        isinstance(v, list)
        and v
        and all(isinstance(r, dict) for r in v)
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
    else:
        rows.append((prefix, _cell(value)))


def _render_csv(report):
    import csv

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


# the JSON text of each scalar type a report holds, by exact type: no
# report holds a float or a subclass of these
_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _cell(value):
    """value as a cell of md or csv: a str as it is, and any other value as
    its one-line JSON text, so null, true and false as JSON spells them."""
    if type(value) is str:
        return value
    scalar = _SCALARS.get(type(value))
    return _json_text(value, None) if scalar is None else scalar(value)


def _json_write(value, nl, out):
    """Append the dict, list or tuple value to out as json.dumps(value,
    indent=2, sort_keys=True) writes it, nested at the line prefix nl, or
    with nl None as json.dumps(value, sort_keys=True) writes it on one line.
    Each item of a _SCALARS type is written from that table, and any other
    item recurses; a _Section at _SECTION_NL appends its stored text.  A key
    that is no str, or a value of no type here, raises TypeError."""
    append, scalar = out.append, _SCALARS.get
    inner = None if nl is None else nl + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        lead, sep = ("[", ", ") if nl is None else ("[" + inner, "," + inner)
        for v in value:
            f = scalar(type(v))
            if f is None:
                append(lead)
                _json_write(v, inner, out)
            else:
                append(lead + f(v))
            lead = sep
        append("]" if nl is None else nl + "]")
    elif isinstance(value, dict):
        if type(value) is _Section and nl == _SECTION_NL:
            append(value.json)
            return
        if not value:
            append("{}")
            return
        lead, sep = ("{", ", ") if nl is None else ("{" + inner, "," + inner)
        for k, v in sorted(value.items()):
            f = scalar(type(v))
            if f is None:
                append(lead + _json_str(k) + ": ")
                _json_write(v, inner, out)
            else:
                append(lead + _json_str(k) + ": " + f(v))
            lead = sep
        append("}" if nl is None else nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value, nl):
    out = []
    _json_write(value, nl, out)
    return "".join(out)


def _render(report, fmt):
    if fmt == "json":
        return _json_text(report, "\n") + "\n"
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

# The most samples --general-l draws (_general_l).  The samples cost time and
# memory linearly: at the limit gt-verdict and report take 1.2-1.5 s with a
# peak resident set of about 110 MiB as fresh processes printing JSON (Python
# 3.11, one core of a shared Xeon host).
GENERAL_L_LIMIT = 100_000


# The options of the commands, each the option name and the keywords that
# add_argument takes
_FORMAT_OUT = (
    ("--format", {"choices": ("json", "md", "csv"), "default": "json"}),
    ("--out", {"default": None, "help": "write the report to a file"}),
)
_D = (("--d", {"type": int, "required": True}),)
_ACTION = (
    ("--action", {"default": None, "help": "three weights a,b,c"}),
    ("--a", {"type": int, "default": None, "help": "shortcut for --action 0,1,a"}),
)
_VERDICT = _FORMAT_OUT + _D + _ACTION + (
    ("--seed", {"type": int, "default": DEFAULT_SEED}),
    ("--general-l", {"type": int, "default": 0, "dest": "general_l",
                     "help": "also sample N random linear forms and compare ranks"}),
)
# --action and --a name the action twice, so one call takes at most one
_EXCLUSIVE = frozenset(("--action", "--a"))

# every command once, in the order of the help: its help line, its options in
# the order of its usage, and the names of those options that exclude each
# other
_COMMANDS = {
    "invariants": ("invariant monomials of an action", _FORMAT_OUT + _D + _ACTION, _EXCLUSIVE),
    "gt-verdict": ("weak Lefschetz failure verdict", _VERDICT, _EXCLUSIVE),
    "minimal": ("minimality of the Togliatti system", _FORMAT_OUT + _D + _ACTION + (
        ("--subset-oracle", {"action": "store_true", "dest": "subset_oracle"}),
    ), _EXCLUSIVE),
    "classify": ("equivalence classes of actions for one d", _FORMAT_OUT + _D, frozenset()),
    "circulant": ("exact circulant determinant data", _FORMAT_OUT + _D + (
        ("--a", {"type": int, "default": None}),
        ("--b", {"type": int, "default": None}),
        ("--coeff", {"default": None, "help": "comma-separated row indices"}),
    ), frozenset()),
    "conjecture-scan": ("scan (d,a,b) for minimality failures", _FORMAT_OUT + (
        ("--dmax", {"type": int, "required": True}),
        ("--stream", {"action": "store_true"}),
    ), frozenset()),
    "surface": ("toric surface invariants of the classical system", _FORMAT_OUT + _D,
                frozenset()),
    "arrangement": ("line arrangement census and freeness", _FORMAT_OUT + _D + (
        ("--type", {"choices": ("ceva", "hd", "fermat"), "required": True}),
    ), frozenset()),
    "report": ("bundle all analyses for one (d, action)", _VERDICT, _EXCLUSIVE),
}


def _plain_form(options, exclusive):
    """A command's options as _read_plain reads them: the keywords and the
    dest of each option by name, the defaults of the options that are not
    required by dest, the required names and the exclusive names."""
    dests = {option: kw.get("dest") or option.lstrip("-").replace("-", "_")
             for option, kw in options}
    defaults = {
        dests[option]: kw.get("default", False if kw.get("action") == "store_true" else None)
        for option, kw in options if not kw.get("required")
    }
    required = frozenset(option for option, kw in options if kw.get("required"))
    return dict(options), dests, defaults, required, exclusive


_PLAIN_FORMS = {name: _plain_form(options, exclusive)
                for name, (_, options, exclusive) in _COMMANDS.items()}


def _read_plain(name, argv):
    """The arguments of a plain call of command name with options argv, as
    build_parser().parse_args gives them, or None for any other call.  A
    plain call names each option in full and at most once, gives each option
    but a flag one value that does not start with -, names no two exclusive
    options and names every required option.  Values go through the
    option's type and choices, as in argparse, and a value that either
    refuses makes the call not plain: argparse parses it again and reports
    or raises what it raises."""
    keywords, dests, defaults, required, exclusive = _PLAIN_FORMS[name]
    given = {}
    rest = iter(argv)
    for option in rest:
        kw = keywords.get(option)
        if kw is None or option in given:
            return None
        if kw.get("action") == "store_true":
            given[option] = True
            continue
        text = next(rest, "-")  # a missing value is not plain either
        if text.startswith("-"):
            return None
        value = text
        if "type" in kw:
            try:
                value = kw["type"](text)
            except Exception:  # argparse's to report, or to raise again
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[option] = value
    if not required <= given.keys() or len(exclusive & given.keys()) > 1:
        return None
    args = SimpleNamespace(command=name, **defaults)
    for option, value in given.items():
        setattr(args, dests[option], value)
    return args


@functools.cache
def _parser_class():
    """The parser class, defined on first use: only a call that is not plain
    needs argparse, and with it gettext and locale."""
    import argparse

    class CliParser(argparse.ArgumentParser):
        """argparse exits with 2 on bad usage; the contract here is 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            sys.exit(1)

    return CliParser


def build_parser():
    """The full parser: every command, as a subparser."""
    parser = _parser_class()(prog="gtsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_line, options, exclusive) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        group = command.add_mutually_exclusive_group() if exclusive else None
        for option, kw in options:
            (group if option in exclusive else command).add_argument(option, **kw)
    return parser


def _parse(argv):
    """The arguments that build_parser().parse_args(argv) gives, with its
    exits: a plain call (_read_plain) is read from the option table alone,
    and any other call is parsed by build_parser()."""
    if argv and argv[0] in _COMMANDS:
        args = _read_plain(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    if args.command is None:
        build_parser().print_usage(sys.stderr)
        print("gtsys: error: a command is required", file=sys.stderr)
        return 1
    # looked up by name on every call, so a replaced cmd_* takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        report = command(args)
    except ConsistencyError as exc:
        print(f"gtsys: consistency failure: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"gtsys: size limit: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"gtsys: error: {exc}", file=sys.stderr)
        return 1
    # a report is rendered; --stream returns its lines as text
    text = report if isinstance(report, str) else _render(report, args.format)
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"gtsys: error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
