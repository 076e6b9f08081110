"""The degree-3 starting point: four cubics that fail weak Lefschetz.

The ideal (x^3, y^3, z^3, xyz) is the invariant ideal of the order-3
diagonal action with weights (0, 1, 2).  Multiplication by x + y + z on
the quotient drops rank exactly once between degrees 2 and 3, and the
system is minimal: no proper subset of the generators reproduces the
failure.  The verdict, WlpVerdict.of(action), reads two counts of the
action, mu and the conjugate forms; one call, Restriction.of(action),
lists the invariant ideal and gives the Togliatti property and
minimality, and its newton_product() expands the product of the
conjugate forms by Newton's identities, the circulant route.
"""

from gtsystems import Action, Restriction, WlpVerdict, circulant_det_symbolic
from gtsystems.actions import monomial_str

action = Action(3, (0, 1, 2))
r = Restriction.of(action)  # the invariant ideal, and E at x + y + z decided once
ideal = r.ideal

print("action weights:", action.weights, "on K[x,y,z]_3")
print("invariant monomials:", ", ".join(monomial_str(m) for m in ideal.generators))

# two counts, no elimination: mu and the nullity; all three pure powers are invariant
verdict = WlpVerdict.of(action)
print(f"multiplication by x+y+z in degree 2 -> 3: rank {verdict.rank} of {verdict.dim_source}")
print("fails injectivity:", verdict.fails_injectivity)
print("generator bound mu <= d+1 holds:", verdict.generator_bound_ok)
print("verdict:", "GT-system" if r.togliatti else "not a GT-system")

print("minimal (circulant route, Newton-expanded product on every generator):",
      r.newton_product().support() == set(ideal.generators))
print("minimal (kernel vector nonzero off the pure powers):", r.minimal)

det = circulant_det_symbolic(3)
print("3x3 symbolic circulant determinant:", det.render(names=("v0", "v1", "v2")))
