"""Line arrangements over the cyclotomic field, computed exactly.

Ceva's d^2 lines meet in 3d points of multiplicity d; adding the
coordinate triangle gives the extended family, free exactly for small d;
the Fermat arrangement of 3d lines has d^2 triple points plus 3 points of
multiplicity d.  Every census meets each point once, at its first line
pair, collects the lines through it by exact cyclotomic incidence tests,
and is double-checked against the pairing identity
sum_p C(mult(p), 2) = C(#lines, 2).
"""

import math
import random

from gtsystems import (
    Action,
    build_arrangement,
    certificate_product_membership,
    ceva_configuration,
    freeness_diagnostic,
    invariant_monomials,
    singular_census,
)
from gtsystems.wlp import random_scales

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
print("membership certificates (scaled conjugate products stay in the ideal):")
rng = random.Random(0)
for d, a in ((5, 2), (7, 3), (9, 4)):
    scales = random_scales(rng)
    cert = certificate_product_membership(invariant_monomials(Action(d, (0, 1, a))), scales)
    print(f"  (d, a) = ({d}, {a}), scales {scales}: product supported on "
          f"{cert.support_size} invariant monomials")
