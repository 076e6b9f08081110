"""Line arrangements over the cyclotomic field, computed exactly.

Ceva's d^2 lines meet in 3d points of multiplicity d; adding the
coordinate triangle gives the extended family, free exactly for small d;
the Fermat arrangement of 3d lines has d^2 triple points plus 3 points of
multiplicity d.  Every census meets each point once, at its first line
pair, collects the lines through it by exact cyclotomic incidence tests,
and is double-checked against the pairing identity
sum_p C(mult(p), 2) = C(#lines, 2).  Last, the eigenvalue product of an
action lies in its invariant ideal: restriction(ideal).newton_product()
expands it and checks it against the kernel vector.
"""

import math

from gtsystems import (
    Action,
    build_arrangement,
    ceva_configuration,
    freeness_diagnostic,
    invariant_monomials,
    restriction,
    singular_census,
)

print("Ceva configurations (d^2 lines, 3d points, d per point, 3 per line):")
for d in (3, 5, 8):
    cert = ceva_configuration(d)
    print(f"  d = {d}: {cert.n_lines} lines, {cert.n_points} points "
          f"({cert.lines_per_point} lines/point, {cert.points_per_line} points/line)")

print()
print("extended family and Fermat family:")
for kind, ds in (("hd", (3, 4, 5, 6)), ("fermat", (3, 4, 8))):
    for d in ds:
        census = singular_census(build_arrangement(kind, d))
        diag = freeness_diagnostic(census)
        pairs = sum(b * math.comb(h, 2) for h, b in census.counts)
        counts = ", ".join(f"{b} points of mult {h}" for h, b in census.counts)
        status = f"free with exponents {diag.exponents}" if diag.exponents else "necessary condition fails"
        print(f"  {kind}:{d:2d}  {census.n_lines} lines; {counts}; pairs check {pairs} = C({census.n_lines},2); {status}")

print()
print("the eigenvalue product lies in the ideal (Newton expansion, checked against")
print("the kernel vector; scaling x, y, z by nonzero integers keeps its support):")
for d, a in ((5, 2), (7, 3), (9, 4)):
    ideal = invariant_monomials(Action(d, (0, 1, a)))
    product = restriction(ideal).newton_product()
    inside = product.support() <= set(ideal.generators)
    print(f"  (d, a) = ({d}, {a}): product supported on {len(product.terms)} "
          f"of the {ideal.mu} invariant monomials, inside the ideal: {inside}")
