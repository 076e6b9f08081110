"""Geometry of the generalized classical family: degree, smoothness, Betti.

The systems (x^d, y^d, z^d, x^k y^k z^eps, ..., xyz^(d-2)) define toric
surfaces.  The exponent polytope computes the degree (it always equals d),
lattice data decides smoothness (odd d smooth, even d singular), and the
binomial 2x2 minors of a 2-row matrix of monomial entries present the
ideal: each minor m - n vanishes on the surface because the exponent images
of m and n under the parametrization agree.  The closed-form Betti table
has vanishing alternating sums and an h-polynomial that evaluates to d at 1.
classical_suite(d) holds all four results for one d, computed together.
"""

import math

from gtsystems import classical_suite

print(" d | degree | smooth | quadrics | cubics | h(1)")
print("---+--------+--------+----------+--------+-----")
for d in range(3, 13):
    suite = classical_suite(d)
    gp = suite.presentation
    h1 = sum(suite.betti.h_polynomial())
    print(f"{d:2d} | {suite.degree_model.degree:6d} | {str(suite.smoothness.smooth):6s} | {gp.quadric_count:8d} | {gp.cubic_count:6d} | {h1:4d}")

print()
d = 9
k = d // 2
suite = classical_suite(d)
print(f"full Betti table at d = {d} (k = {k}):")
for i, j, b in suite.betti.rows:
    print(f"  beta_{{{i},{j}}} = {b}")
print("expected counts: C(k,2) =", math.comb(k, 2), "quadrics and k =", k, "cubics")
print("pullbacks of all minors vanish:", suite.presentation.pullbacks_vanish)
