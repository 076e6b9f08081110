"""Why multiplication by x + y + z drops rank: an explicit kernel element.

The product of the conjugate linear forms x + zeta^j y + zeta^(aj) z over
all j lands inside the invariant ideal.  Its j = 0 factor is x + y + z, so
the product of the other d - 1 factors is a form of degree d - 1 that
multiplication by x + y + z sends to zero in the quotient.  One call,
restriction(ideal), decides E (here by its unit pivots, without an
elimination) and reads the product off the kernel vector of E, with no
expansion; its newton_product() expands the same product by
Newton's identities and checks it against the kernel vector.  The product
also witnesses minimality: its support uses every invariant monomial, so
removing any generator breaks the containment.
"""

from gtsystems import Action, invariant_monomials, restriction
from gtsystems.actions import monomial_str

d, a = 7, 3
action = Action(d, (0, 1, a))
ideal = invariant_monomials(action)
r = restriction(ideal)

product = r.newton_product()  # expanded by Newton's identities
print(f"product of the {d} conjugate forms at (d, a) = ({d}, {a}):")
print(" ", product.render())
print("support size:", len(product.support()), " invariant monomials:", ideal.mu)
print("support equals invariant set:", product.support() == set(ideal.generators))

print()
print(f"E decided by its {r.route.replace('_', ' ')}: nullity {r.nullity}, kernel vector v = {r.v}")
print("product read off v equals the expanded product:", r.product.terms == product.terms)
print("  it stays inside the ideal:", r.product.support() <= set(ideal.generators))

print()
print("minimal (kernel vector nonzero off the pure powers):", r.minimal)
print("generators:", ", ".join(monomial_str(m) for m in ideal.generators))
