"""Exact arithmetic toolkit for cyclic-invariant monomial ideals in three
variables: weak Lefschetz failure tests, minimality via circulant
determinants, equivalence-class counting, toric surface invariants and line
arrangement diagnostics.  Everything is integer or cyclotomic-integer
arithmetic; no floating point is involved anywhere."""

__version__ = "0.1.0"

from .actions import (
    Action,
    GTIdeal,
    InvalidActionError,
    generalized_classical,
    invariant_monomials,
    inverse_data,
    n_sequence,
    normalize_action,
)
from .arrangements import (
    build_arrangement,
    certificate_product_membership,
    ceva_configuration,
    freeness_diagnostic,
    projective_key,
    singular_census,
)
from .circulant import (
    CirculantSpec,
    circulant_det_oracle,
    circulant_det_symbolic,
    coefficient_query,
    ternary_product,
)
from .classification import (
    arithmetic_counts,
    class_count_formulas,
    classify_moves,
    equivalent_ideal_oracle,
    prime_and_primepower_counts,
)
from .cyclotomic import CyclotomicInt, cyclotomic_polynomial
from .errors import ConsistencyError, NonIntegerError
from .polymat import SparsePoly, bareiss_rank
from .surface import (
    betti_table,
    determinantal_generators,
    exponent_polytope_degree,
    polytope_smoothness,
)
from .wlp import (
    WlpVerdict,
    conjecture_scan,
    gt_verdict,
    kernel_certificate,
    minimality_circulant,
    minimality_subset_oracle,
)

__all__ = [
    "Action",
    "CirculantSpec",
    "ConsistencyError",
    "CyclotomicInt",
    "GTIdeal",
    "InvalidActionError",
    "NonIntegerError",
    "SparsePoly",
    "WlpVerdict",
    "__version__",
    "arithmetic_counts",
    "bareiss_rank",
    "betti_table",
    "build_arrangement",
    "certificate_product_membership",
    "ceva_configuration",
    "circulant_det_oracle",
    "circulant_det_symbolic",
    "class_count_formulas",
    "classify_moves",
    "coefficient_query",
    "conjecture_scan",
    "cyclotomic_polynomial",
    "determinantal_generators",
    "equivalent_ideal_oracle",
    "exponent_polytope_degree",
    "freeness_diagnostic",
    "generalized_classical",
    "gt_verdict",
    "invariant_monomials",
    "inverse_data",
    "kernel_certificate",
    "minimality_circulant",
    "minimality_subset_oracle",
    "n_sequence",
    "normalize_action",
    "polytope_smoothness",
    "prime_and_primepower_counts",
    "projective_key",
    "singular_census",
    "ternary_product",
]
