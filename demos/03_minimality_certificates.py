"""Why multiplication by x + y + z drops rank: an explicit kernel element.

The product of the conjugate linear forms x + zeta^j y + zeta^(aj) z over
all j lands inside the invariant ideal; dividing out the j = 0 factor
leaves a degree-(d-1) cofactor that multiplication by x + y + z sends to
zero in the quotient.  The kernel certificate reads the same product off
the kernel vector of one elimination, with no expansion.  The product also
witnesses minimality: its support uses every invariant monomial, so
removing any generator breaks the containment.
"""

from gtsystems import Action, invariant_monomials, kernel_certificate, ternary_product
from gtsystems.actions import monomial_str
from gtsystems.wlp import minimality_subset_oracle

d, a = 7, 3
action = Action(d, (0, 1, a))
ideal = invariant_monomials(action)

product = ternary_product(d, 1, a)
print(f"product of the {d} conjugate forms at (d, a) = ({d}, {a}):")
print(" ", product.render())
print("support size:", len(product.support()), " invariant monomials:", ideal.mu)
print("support equals invariant set:", product.support() == set(ideal.generators))

cert = kernel_certificate(ideal)
print()
print("kernel certificate (product read off the kernel vector):")
print("  equals the expanded product:", cert.product.terms == product.terms)
print("  cofactor degree:", cert.cofactor.total_degree())
print("  cofactor monic in x^%d:" % (d - 1), cert.cofactor.coefficient((d - 1, 0, 0)) == 1)
print("  full product stays inside the ideal:", cert.product.support() <= set(ideal.generators))

print()
print("subset oracle (one elimination; kernel vector nonzero off the pure powers):",
      minimality_subset_oracle(ideal))
print("generators:", ", ".join(monomial_str(m) for m in ideal.generators))
