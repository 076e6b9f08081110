"""Exact arithmetic toolkit for cyclic-invariant monomial ideals in three
variables: weak Lefschetz failure tests, minimality via circulant
determinants, equivalence-class counting, toric surface invariants and line
arrangement diagnostics.  Everything is integer or cyclotomic-integer
arithmetic; no floating point is involved anywhere."""

__version__ = "0.1.0"

import importlib

# where each exported name is defined; __getattr__ below imports the module
# on the first access of one of its names, so `import gtsystems` loads none
_ORIGIN = {
    name: module
    for module, names in {
        "actions": ("Action", "GTIdeal", "InvalidActionError", "generalized_classical",
                    "invariant_monomials", "normalize_action"),
        "arrangements": ("build_arrangement", "ceva_configuration", "freeness_diagnostic",
                         "singular_census"),
        "circulant": ("circulant_det_symbolic", "coefficient_query"),
        "classification": ("class_count_formulas", "classify_moves",
                           "prime_and_primepower_counts"),
        "cyclotomic": ("CyclotomicInt", "cyclotomic_polynomial"),
        "errors": ("ConsistencyError", "NonIntegerError", "SizeLimitError"),
        "polymat": ("SparsePoly",),
        "surface": ("betti_table", "classical_suite", "determinantal_generators",
                    "exponent_polytope_degree", "polytope_smoothness"),
        "wlp": ("Restriction", "WlpVerdict", "conjecture_scan", "conjugate_nullity",
                "restriction"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_ORIGIN.values()) | {"cli", "primes"}

__all__ = sorted([*_ORIGIN, "__version__"])


def __getattr__(name):
    """An exported name or a submodule, imported on its first access and
    kept in the package namespace, so later accesses do not come here."""
    if name in _ORIGIN:
        value = getattr(importlib.import_module("." + _ORIGIN[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    """Every name, loaded or not."""
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
