"""The degree-3 starting point: four cubics that fail weak Lefschetz.

The ideal (x^3, y^3, z^3, xyz) is the invariant ideal of the order-3
diagonal action with weights (0, 1, 2).  Multiplication by x + y + z on
the quotient drops rank exactly once between degrees 2 and 3, and the
system is minimal: no proper subset of the generators reproduces the
failure.
"""

from gtsystems import (
    Action,
    circulant_det_symbolic,
    gt_verdict,
    invariant_monomials,
    minimality_circulant,
    minimality_subset_oracle,
)
from gtsystems.actions import monomial_str

action = Action(3, (0, 1, 2))
ideal = invariant_monomials(action)

print("action weights:", action.weights, "on K[x,y,z]_3")
print("invariant monomials:", ", ".join(monomial_str(m) for m in ideal.generators))

verdict = gt_verdict(ideal)
print(f"multiplication by x+y+z in degree 2 -> 3: rank {verdict.rank} of {verdict.dim_source}")
print("fails injectivity:", verdict.fails_injectivity)
print("generator bound mu <= d+1 holds:", verdict.generator_bound_ok)
print("verdict:", "GT-system" if verdict.is_togliatti else "not a GT-system")

print("minimal (circulant route):", minimality_circulant(ideal))
print("minimal (subset oracle, one elimination; kernel vector nonzero off the pure powers):",
      minimality_subset_oracle(ideal))

det = circulant_det_symbolic(3)
print("3x3 symbolic circulant determinant:", det.render(names=("v0", "v1", "v2")))
