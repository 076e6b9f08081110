"""Every exported name resolves, and names deleted from the API stay gone."""

import importlib
import inspect
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
    assert "source" not in gtsystems.Action.__dataclass_fields__
    assert "is_gt" not in gtsystems.WlpVerdict.__dataclass_fields__
    assert not hasattr(gtsystems.SparsePoly, "map_coefficients")
    assert not hasattr(gtsystems.CyclotomicInt, "__pow__")
    assert not hasattr(gtsystems.CyclotomicInt, "substitute_power")
    assert not hasattr(gtsystems.CyclotomicInt, "to_json")
    assert gtsystems.CyclotomicInt.__hash__ is None
    assert not hasattr(gtsystems.CyclotomicInt, "__bool__")
    assert not hasattr(gtsystems.arrangements.Arrangement, "to_json")
    assert "__str__" not in vars(gtsystems.cyclotomic.CycloPolynomial)
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


def test_surface_api_is_unchanged():
    surface = gtsystems.surface
    for name in ("_pullback", "_hermite_basis", "_projected"):
        assert not hasattr(surface, name), name
    assert surface.__all__ == [
        "BettiTable", "GeneratorPresentation", "LatticeModel", "SmoothnessReport",
        "betti_table", "complement_exponents", "determinantal_generators",
        "exponent_polytope_degree", "polytope_smoothness",
    ]
    fields = {
        surface.GeneratorPresentation: ["d", "k", "matrix", "minors", "extra_quadric",
                                        "quadric_count", "cubic_count", "pullbacks_vanish"],
        surface.BettiTable: ["d", "k", "rows"],
        surface.LatticeModel: ["points", "hull", "normalized_area", "lattice_index", "degree"],
        surface.SmoothnessReport: ["smooth", "lattice_index", "vertices", "edge_gaps",
                                   "interior_condition"],
    }
    for cls, names in fields.items():
        assert list(cls.__dataclass_fields__) == names, cls.__name__
