"""Every exported name resolves, and names deleted from the API stay gone."""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import gtsystems

MODULES = [gtsystems] + [
    importlib.import_module(f"gtsystems.{info.name}")
    for info in pkgutil.iter_modules(gtsystems.__path__)
]

REMOVED = (
    "CirculantSpec",
    "circulant_det_oracle",
    "equivalent_ideal_oracle",
    "canonical_ideal_key",
    "arithmetic_counts",
    "ArithmeticCounts",
    "classical_parametrization",
    "projective_key",
    "proportional",
    "gt_verdict",
    "minimality_subset_oracle",
    "minimality_circulant",
    "kernel_certificate",
    "KernelCertificate",
    "divide_by_ell",
    "certificate_product_membership",
    "MembershipCertificate",
    "inverse_data",
    "n_sequence",
    "ternary_product",
    "CycloPolynomial",
    "bareiss_echelon",
    "bareiss_rank",
    "_restriction_rows",
    "_check_elimination_limit",
    "_congruence",
    "_admissible_exponents",
    "kernel_dimension",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_package_knows_where_each_export_lives():
    assert set(gtsystems._ORIGIN) == set(gtsystems.__all__) - {"__version__"}
    for name, module in gtsystems._ORIGIN.items():
        assert getattr(gtsystems, name) is getattr(importlib.import_module(f"gtsystems.{module}"), name)


def test_star_import():
    namespace = {}
    exec("from gtsystems import *", namespace)
    assert set(gtsystems.__all__) <= set(namespace)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    for name in REMOVED:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_members_are_gone():
    assert not hasattr(gtsystems.Action, "is_m_family")
    assert "source" not in gtsystems.Action._fields
    assert "is_gt" not in gtsystems.WlpVerdict._fields
    # WlpVerdict.of(action) is the one constructor beside the record's own
    assert [n for n, v in vars(gtsystems.WlpVerdict).items() if isinstance(v, classmethod)] == [
        "of"]
    assert not hasattr(gtsystems.cli, "invariant_count")  # the verdict counts in wlp
    assert not hasattr(gtsystems.SparsePoly, "map_coefficients")
    assert not hasattr(gtsystems.CyclotomicInt, "__pow__")
    assert not hasattr(gtsystems.CyclotomicInt, "substitute_power")
    assert not hasattr(gtsystems.CyclotomicInt, "to_json")
    assert gtsystems.CyclotomicInt.__hash__ is None
    assert not hasattr(gtsystems.CyclotomicInt, "__bool__")
    assert not hasattr(gtsystems.arrangements.Arrangement, "to_json")
    assert not hasattr(gtsystems.classification.ClassPartition, "sizes")
    cyclotomic = gtsystems.cyclotomic
    for name in ("_PHI_LOCK", "_RED_LOCK", "_PHI_CACHE", "_RED_CACHE", "_poly_mul",
                 "_reduce_vector", "threading"):
        assert not hasattr(cyclotomic, name), name
    assert "_reduced" not in gtsystems.CyclotomicInt.__slots__
    assert not hasattr(gtsystems.CyclotomicInt, "_nonzero_terms")
    assert not hasattr(gtsystems.wlp, "_support_is_invariant_set")
    assert not hasattr(gtsystems.wlp, "is_artinian")
    assert not hasattr(gtsystems.circulant, "scaled_ternary_product")
    assert not hasattr(gtsystems.circulant, "cofactor_product")
    assert not hasattr(gtsystems.wlp, "check_circulant_route")
    assert not hasattr(gtsystems.arrangements.FreenessReport, "to_json")
    assert not hasattr(gtsystems.surface.BettiTable, "length")
    for cls in (gtsystems.SparsePoly, gtsystems.CyclotomicInt):
        assert not hasattr(cls, "__rsub__"), cls.__name__
    assert gtsystems.SparsePoly.__hash__ is None
    assert "prune" not in inspect.signature(gtsystems.SparsePoly).parameters
    # SparsePoly is read-only: no ring arithmetic, no constructors beside __init__
    for name in ("zero", "monomial", "variable", "is_zero", "_as_pair", "__add__", "__radd__",
                 "__neg__", "__sub__", "__mul__", "__rmul__", "total_degree"):
        assert not hasattr(gtsystems.SparsePoly, name), name


def test_cli_holds_no_private_wlp_object():
    cli, wlp = gtsystems.cli, gtsystems.wlp
    private = {n for n in vars(wlp) if n.startswith("_") and not n.startswith("__")}
    held = [n for n, obj in vars(cli).items()
            if n.startswith("_") and not n.startswith("__")
            and (n in private or getattr(obj, "__module__", None) == wlp.__name__)]
    assert held == []


def test_cli_holds_no_check_of_the_library():
    # every consistency check and size gate lives in the module that owns
    # the fact: cli raises no ConsistencyError of its own and calls no
    # private function of another gtsystems module
    tree = ast.parse(inspect.getsource(gtsystems.cli))

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    modules, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.asname or alias.name for alias in node.names}
            if node.module is None:
                modules |= names
            else:
                imported |= set(filter(private, names))
    errors = {"ConsistencyError", "NonIntegerError"}
    raised = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and node.exc is not None
              and any(getattr(n, "id", None) in errors for n in ast.walk(node.exc))]
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ((isinstance(node.func, ast.Attribute) and private(node.func.attr)
                   and getattr(node.func.value, "id", None) in modules)
                  or getattr(node.func, "id", None) in imported)]
    assert (raised, calls) == ([], [])


def _limit_refused_by_value_error(tree):
    """The lines of every raise ValueError(...) that reads a size limit: one
    whose arguments read a name or attribute ending in _LIMIT, _LIMITS or
    _RANGE, or one directly under an if whose test orders a value against
    such a name (a kind looked up in a table of limits is no such test)."""

    def reads_limit(node):
        return any((getattr(n, "id", None) or getattr(n, "attr", "")).endswith(
            ("_LIMIT", "_LIMITS", "_RANGE")) for n in ast.walk(node))

    def orders_by_limit(test):
        return any(isinstance(n, ast.Compare) and reads_limit(n)
                   and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in n.ops)
                   for n in ast.walk(test))

    def value_errors(body):
        return [n for n in body if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                and getattr(n.exc.func, "id", None) == "ValueError"]

    found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Raise)
             and value_errors([n]) and reads_limit(n.exc)]
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and orders_by_limit(node.test):
            found += [n.lineno for n in value_errors(node.body)]
    return sorted(set(found))


def test_every_size_limit_refuses_by_size_limit_error():
    # a limit is this tool's budget, not invalid input: no plain ValueError
    # may refuse a request past one
    refused = {module.__name__: _limit_refused_by_value_error(ast.parse(inspect.getsource(module)))
               for module in MODULES}
    assert {name: lines for name, lines in refused.items() if lines} == {}
    # the guard sees both shapes of such a refusal, and passes a lower bound
    assert _limit_refused_by_value_error(ast.parse(
        "if d > X_LIMIT:\n    raise ValueError('too big')\n"
        "if d < 3:\n    raise ValueError('need d >= 3')\n"
        "if kind not in X_LIMITS:\n    raise ValueError('unknown kind')\n"
        "raise ValueError(f'supported for d in {_X_RANGE}')\n")) == [2, 7]


def test_restriction_is_exported():
    from gtsystems import Restriction

    assert Restriction is gtsystems.wlp.Restriction
    assert "Restriction" in gtsystems.__all__


def test_no_module_imports_a_private_name_of_another():
    # a relative import of a gtsystems module names only its public names
    # (or a dunder such as __version__)
    for module in MODULES:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names
                           if a.name.startswith("_") and not a.name.endswith("__")]
                assert not private, (module.__name__, node.module, private)


def test_one_restriction_per_ideal_api():
    from gtsystems import conjugate_nullity, restriction

    wlp = gtsystems.wlp
    assert {"restriction", "conjugate_nullity"} <= set(gtsystems.__all__)
    assert (restriction, conjugate_nullity) == (wlp.restriction, wlp.conjugate_nullity)
    for name in ("_nullity_and_kernel_vector", "_eigenvalue_product", "_is_minimal",
                 "_is_togliatti_system"):
        assert not hasattr(wlp, name), name


def test_one_rank_engine():
    # the column sweep of wlp.restriction is the only caller of the
    # fraction-free step, and polymat exports nothing else
    assert gtsystems.polymat.__all__ == ["SparsePoly"]
    callers = set()
    for module in MODULES[1:]:
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and "fraction_free_step" in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        callers.add(f"{module.__name__}.{fn.name}")
    assert callers == {"gtsystems.wlp.restriction"}


def test_surface_api_is_unchanged():
    surface = gtsystems.surface
    for name in ("_pullback", "_hermite_basis", "_projected"):
        assert not hasattr(surface, name), name
    assert surface.__all__ == [
        "BettiTable", "ClassicalSuite", "GeneratorPresentation", "LatticeModel",
        "SmoothnessReport", "betti_table", "classical_suite", "complement_exponents",
        "determinantal_generators", "exponent_polytope_degree", "polytope_smoothness",
    ]


# every record, with its fields in order
RECORD_FIELDS = {
    "actions.Action": ("d", "weights"),
    "actions.GTIdeal": ("d", "generators", "action"),
    "wlp.WlpVerdict": ("action", "d", "mu", "dim_source", "dim_target", "rank",
                       "fails_injectivity", "fails_wlp_at_d_minus_1", "generator_bound_ok",
                       "is_togliatti", "method"),
    "wlp.Restriction": ("ideal", "nullity", "v"),
    "classification.ClassPartition": ("d", "classes"),
    "classification.ClassCounts": ("N21", "N22", "N23", "N3", "N4", "N6"),
    "classification.ClassCountReport": ("d", "formula", "oracle"),
    "surface.LatticeModel": ("points", "hull", "normalized_area", "lattice_index", "degree"),
    "surface.SmoothnessReport": ("smooth", "lattice_index", "vertices", "edge_gaps",
                                 "interior_condition"),
    "surface.GeneratorPresentation": ("d", "k", "matrix", "minors", "extra_quadric",
                                      "quadric_count", "cubic_count", "pullbacks_vanish"),
    "surface.BettiTable": ("d", "k", "rows"),
    "surface.ClassicalSuite": ("ideal", "degree_model", "smoothness", "presentation", "betti"),
    "arrangements.Arrangement": ("d", "name", "lines"),
    "arrangements.CevaCertificate": ("d", "n_lines", "n_points", "lines_per_point",
                                     "points_per_line"),
    "arrangements.CensusReport": ("name", "d", "n_lines", "counts"),
    "arrangements.FreenessReport": ("name", "n_lines", "c1", "c2", "weight", "discriminant",
                                    "exponents"),
}


def test_record_fields_are_pinned():
    from gtsystems._record import Record

    found = {f"{m.__name__.partition('.')[2]}.{n}" for m in MODULES for n, obj in vars(m).items()
             if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
             and obj.__module__ == m.__name__}
    assert found == set(RECORD_FIELDS)
    for path, names in RECORD_FIELDS.items():
        module, _, name = path.partition(".")
        cls = getattr(importlib.import_module(f"gtsystems.{module}"), name)
        assert cls._fields == names, path
        # the fields live in slots; only Restriction's instances keep a
        # __dict__, for the cached product
        assert (cls.__dictoffset__ != 0) == (name == "Restriction"), path


def test_records_behave_as_frozen_dataclasses():
    from gtsystems import Action, GTIdeal, InvalidActionError, invariant_monomials, restriction
    from gtsystems.classification import ClassPartition

    a = Action(7, (7, 8, 10))
    with pytest.raises(AttributeError, match="cannot assign to field 'd'"):
        a.d = 8
    with pytest.raises(AttributeError, match="cannot delete field 'weights'"):
        del a.weights
    # equal fields: equal records with equal hashes; the same fields in another
    # class never compare equal
    assert a == Action(7, (0, 1, 3)) and hash(a) == hash(Action(7, (0, 1, 3)))
    assert a != Action(7, (0, 1, 4))
    assert a != ClassPartition(7, (0, 1, 3)) and ClassPartition(7, (0, 1, 3)) != a
    ideal = invariant_monomials(a)
    shuffled = GTIdeal(7, sorted(ideal.generators), action=a)
    assert shuffled == ideal and hash(shuffled) == hash(ideal)
    assert repr(a) == "Action(d=7, weights=(0, 1, 3))"
    assert repr(GTIdeal(2, ((2, 0, 0),))) == "GTIdeal(d=2, generators=((2, 0, 0),), action=None)"
    # replace runs __init__ again: the weights are normalised and checked
    assert a.replace(d=5) == Action(5, (0, 1, 3))
    with pytest.raises(InvalidActionError):
        a.replace(weights=(0, 7, 14))
    with pytest.raises(TypeError):
        a.replace(source="paper")
    # and it carries over no cached property
    r = restriction(ideal)
    assert r.product is not None and "product" in vars(r)
    assert r.replace() == r and "product" not in vars(r.replace())
    # copy and pickle rebuild through __init__ too
    assert copy.copy(r) == r and "product" not in vars(copy.copy(r))
    assert pickle.loads(pickle.dumps(ideal)) == ideal
