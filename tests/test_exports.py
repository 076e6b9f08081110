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


def test_one_restriction_per_ideal_api():
    from gtsystems import kernel_dimension, restriction

    wlp = gtsystems.wlp
    assert {"restriction", "kernel_dimension"} <= set(gtsystems.__all__)
    assert (restriction, kernel_dimension) == (wlp.restriction, wlp.kernel_dimension)
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
