"""Toric geometry of the surfaces attached to an invariant ideal.

Two point configurations matter.  The generator exponents (projected to the
last two coordinates) control the image of the monomial map given by the
ideal: its degree is the normalized hull area divided by the index of the
difference lattice.  The complementary degree-d monomials parametrize the
variety cut out by the inverse system; smoothness is decided there, by
checking that every hull edge is fully populated and that the primitive edge
directions at each vertex form a basis of the difference lattice.  The
presentation of the classical surface is built from binomials, and each one
is checked by comparing the exponent images of its two terms.

classical_suite(d) gathers the whole suite of the degree-d classical system;
it is the one place that checks the range of d the suite supports.
"""

from __future__ import annotations

import math

from ._record import Record
from .actions import GTIdeal, _classical_exponents, generalized_classical
from .errors import ConsistencyError
from .polymat import SparsePoly

__all__ = [
    "BettiTable",
    "ClassicalSuite",
    "GeneratorPresentation",
    "LatticeModel",
    "SmoothnessReport",
    "betti_table",
    "classical_suite",
    "complement_exponents",
    "determinantal_generators",
    "exponent_polytope_degree",
    "polytope_smoothness",
]

# The orders d for which classical_suite runs the surface suite of the
# classical system.
_SURFACE_RANGE = range(3, 13)


def _convex_hull(points):
    """Monotone chain; returns hull vertices in counterclockwise order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _normalized_area(hull):
    s = 0
    for i, (x0, y0) in enumerate(hull):
        x1, y1 = hull[(i + 1) % len(hull)]
        s += x0 * y1 - x1 * y0
    return abs(s)


class _Lattice:
    """Rank-2 sublattice of Z^2 with Hermite basis (a, b), (0, c)."""

    def __init__(self, vectors):
        rows = [list(v) for v in vectors if v != (0, 0)]
        lead = None
        for row in rows:
            if row[0] == 0:
                continue
            if lead is None:
                lead = row
                continue
            while row[0]:
                if abs(row[0]) < abs(lead[0]):
                    lead, row = row, lead
                q = row[0] // lead[0]
                row[0] -= q * lead[0]
                row[1] -= q * lead[1]
        c = math.gcd(*(row[1] for row in rows if row is not lead))
        if lead is None or c == 0:
            raise ValueError("point configuration does not span a rank-2 lattice")
        lead[1] %= c
        self.a, self.b, self.c = abs(lead[0]), lead[1] if lead[0] > 0 else -lead[1], c

    @property
    def index(self):
        return self.a * self.c

    def contains(self, v):
        x, y = v
        if x % self.a:
            return False
        k = x // self.a
        return (y - k * self.b) % self.c == 0

    def primitive(self, v):
        """Largest Lambda-divisor u of v with v = n*u; returns (u, n).  In the
        basis, v = k*(a, b) + l*(0, c), and v/n lies in the lattice exactly
        when n divides both k and l, so n = gcd(k, l)."""
        x, y = v
        if x == y == 0:
            raise ValueError("zero vector has no primitive direction")
        if not self.contains(v):
            raise ConsistencyError("vector not in its own lattice")
        k = x // self.a
        n = math.gcd(k, (y - k * self.b) // self.c)
        return (x // n, y // n), n


class LatticeModel(Record):
    __slots__ = ("points", "hull", "normalized_area", "lattice_index", "degree")

    def to_json(self):
        return {
            "points": [list(p) for p in self.points],
            "hull": [list(p) for p in self.hull],
            "normalized_area": self.normalized_area,
            "lattice_index": self.lattice_index,
            "degree": self.degree,
        }


def _hull_and_lattice(pts, name):
    """Hull of the points and the lattice their differences span."""
    hull = _convex_hull(pts)
    if len(hull) < 3:
        raise ValueError(f"{name} is degenerate")
    base = pts[0]
    return hull, _Lattice([(p[0] - base[0], p[1] - base[1]) for p in pts])


def exponent_polytope_degree(ideal: GTIdeal) -> LatticeModel:
    """Degree of the image surface from the generator exponent polytope."""
    pts = [(g[1], g[2]) for g in ideal.generators]
    hull, lattice = _hull_and_lattice(pts, "exponent polytope")
    area = _normalized_area(hull)
    degree, rem = divmod(area, lattice.index)
    if rem:
        raise ConsistencyError("lattice index does not divide the normalized area")
    return LatticeModel(tuple(sorted(pts)), tuple(hull), area, lattice.index, degree)


def complement_exponents(ideal: GTIdeal):
    """Exponent pairs of the degree-d monomials outside the ideal."""
    d = ideal.d
    gens = set(ideal.generators)
    return [
        (be, ga)
        for be in range(d + 1)
        for ga in range(d + 1 - be)
        if (d - be - ga, be, ga) not in gens
    ]


class SmoothnessReport(Record):
    __slots__ = (
        "smooth",
        "lattice_index",
        "vertices",  # (vertex, det, ok) per hull corner
        "edge_gaps",  # lattice points missing from hull edges
        "interior_condition",  # every non-pure-power generator uses all three variables
    )

    def to_json(self):
        return {
            "smooth": self.smooth,
            "lattice_index": self.lattice_index,
            "vertices": [
                {"vertex": list(v), "det": det, "ok": ok}
                for v, det, ok in self.vertices
            ],
            "edge_gaps": [list(p) for p in self.edge_gaps],
            "interior_condition": self.interior_condition,
        }


def polytope_smoothness(ideal: GTIdeal) -> SmoothnessReport:
    """Smoothness of the variety given by the complementary monomials.

    The configuration must contain every lattice point of every hull edge
    (a boundary gap forces a non-normal, hence singular, edge chart) and the
    primitive edge directions at each corner must span the whole difference
    lattice (determinant equal to plus or minus the index).
    """
    pts = complement_exponents(ideal)
    pset = set(pts)
    hull, lattice = _hull_and_lattice(pts, "complement configuration")

    # one primitive step per hull edge; the edge back from vertex i is minus
    # the step of edge i - 1
    gaps, steps = [], []
    for v, w in zip(hull, hull[1:] + hull[:1]):
        step, count = lattice.primitive((w[0] - v[0], w[1] - v[1]))
        steps.append(step)
        for t in range(1, count):
            q = (v[0] + t * step[0], v[1] + t * step[1])
            if q not in pset:
                gaps.append(q)

    vertices = []
    for i, v in enumerate(hull):
        (u0, u1), (b0, b1) = steps[i], steps[i - 1]
        det = u1 * b0 - u0 * b1  # det(step i, -step i-1)
        vertices.append((v, det, abs(det) == lattice.index))

    interior = all(
        g.count(0) == 0
        for g in ideal.generators
        if sorted(g) != [0, 0, ideal.d]
    )
    smooth = not gaps and all(ok for _, _, ok in vertices)
    return SmoothnessReport(smooth, lattice.index, tuple(vertices), tuple(gaps), interior)


class GeneratorPresentation(Record):
    __slots__ = (
        "d",
        "k",
        "matrix",  # 2 x ncols entries as SparsePoly
        "minors",
        "extra_quadric",
        "quadric_count",
        "cubic_count",
        "pullbacks_vanish",
    )

    @property
    def generators(self):
        return list(self.minors) + ([] if self.extra_quadric is None else [self.extra_quadric])

    def generator_strings(self):
        names = tuple(f"x{i}" for i in range(self.k + 3))
        return [g.render(names) for g in self.generators]

    def to_json(self):
        return {
            "d": self.d,
            "k": self.k,
            "generators": self.generator_strings(),
            "quadrics": self.quadric_count,
            "cubics": self.cubic_count,
            "pullbacks_vanish": self.pullbacks_vanish,
        }


def determinantal_generators(d) -> GeneratorPresentation:
    """Presentation of the image surface of the degree-d classical system.

    Every generator is a binomial in x0..x(k+2).  Both parities share the
    2 x k matrix with rows x3..x(k+2) and x4..x(k+2), x2.  For odd d the
    column (x0*x1, x3^2) is appended and the ideal is the 2x2 minors; for even
    d the same column gives the extra quadric x0*x1 - x3^2.  A binomial m - n
    pulls back to zero exactly when the exponent images of m and n under the
    parametrization agree, which is verified here.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    k = d // 2
    nv = k + 3
    mono = lambda *idx: tuple(idx.count(i) for i in range(nv))
    row1 = [mono(i) for i in range(3, k + 3)]
    row2 = [mono(i) for i in range(4, k + 3)] + [mono(2)]
    column = (mono(0, 1), mono(3, 3))
    if d % 2:
        row1.append(column[0])
        row2.append(column[1])
    plus = lambda m, n: tuple(map(sum, zip(m, n)))
    minors = [
        (plus(row1[i], row2[j]), plus(row2[i], row1[j]))
        for i in range(len(row1))
        for j in range(i + 1, len(row1))
    ]
    binomials = minors + ([] if d % 2 else [column])

    params = _classical_exponents(d)
    # the image of x_i1*x_i2*... is params[i1] + params[i2] + ...
    image = lambda e: [sum(c) for c in
                       zip(*(params[i] for i, p in enumerate(e) for _ in range(p)))]
    if any(image(m) != image(n) for m, n in binomials):
        raise ConsistencyError(f"pullback of a presentation generator is nonzero at d={d}")

    degrees = [max(sum(m), sum(n)) for m, n in binomials]
    quadrics, cubics = degrees.count(2), degrees.count(3)
    expected = (math.comb(k, 2), k) if d % 2 else (math.comb(k, 2) + 1, 0)
    if quadrics + cubics != len(binomials) or (quadrics, cubics) != expected:
        raise ConsistencyError(f"unexpected generator degrees at d={d}")
    poly = lambda *terms: SparsePoly(nv, dict(zip(terms, (1, -1))))
    gens = [poly(m, n) for m, n in binomials]
    return GeneratorPresentation(
        d, k, tuple(tuple(poly(e) for e in row) for row in (row1, row2)),
        tuple(gens[:len(minors)]), None if d % 2 else gens[-1],
        quadrics, cubics, True,
    )


class BettiTable(Record):
    """Graded ranks beta_(i,j) of the free resolution of the surface ideal."""

    __slots__ = (
        "d",
        "k",
        "rows",  # (homological step i, twist j, rank)
    )

    def alternating_sum(self):
        return sum((-1) ** i * r for i, _, r in self.rows)

    def numerator(self):
        top = max(j for _, j, _ in self.rows)
        coeffs = [0] * (top + 1)
        for i, j, r in self.rows:
            coeffs[j] += (-1) ** i * r
        return coeffs

    def h_polynomial(self):
        """Divide the numerator by (1-t)^k exactly; ascending coefficients."""
        coeffs = list(self.numerator())
        for _ in range(self.k):
            out = []
            acc = 0
            for c in coeffs:
                acc += c
                out.append(acc)
            if out[-1] != 0:
                raise ConsistencyError(f"numerator not divisible by (1-t)^{self.k}")
            coeffs = out[:-1]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    def to_json(self):
        return {
            "d": self.d,
            "k": self.k,
            "rows": [{"i": i, "twist": j, "rank": r} for i, j, r in self.rows],
            "alternating_sum": self.alternating_sum(),
            "h_polynomial": self.h_polynomial(),
        }


def betti_table(d) -> BettiTable:
    """Resolution ranks for the image surface of the degree-d classical system.

    Odd d: the Eagon-Northcott complex of the 2 x (k+1) matrix, whose step i
    contributes i*C(k,i+1) in twist -(i+1) and i*C(k,i) in twist -(i+2).
    Even d: a mapping cone over the Eagon-Northcott complex of the 2 x k
    matrix, shifted copies accounting for the extra quadric; step 1 has rank
    1+C(k,2) in twist -2, step i >= 2 contributes i*C(k,i+1) in twist -(i+1)
    and (i-1)*C(k,i) in twist -(i+2).  One loop builds both: even d differs
    only in the coefficient i-1 and the extra 1 in beta_(1,2).
    """
    if d < 3:
        raise ValueError("need d >= 3")
    k = d // 2
    even = 1 - d % 2
    rows = [(0, 0, 1)]
    for i in range(1, k + 1):
        for j, r in ((i + 1, i * math.comb(k, i + 1) + (even if i == 1 else 0)),
                     (i + 2, (i - even) * math.comb(k, i))):
            if r:
                rows.append((i, j, r))
    table = BettiTable(d, k, tuple(rows))
    if table.alternating_sum() != 0:
        raise ConsistencyError(f"alternating rank sum nonzero at d={d}")
    h = table.h_polynomial()
    if sum(h) != d:
        raise ConsistencyError(f"h-polynomial does not evaluate to d at d={d}")
    return table


class ClassicalSuite(Record):
    """The surface suite of the degree-d classical system: the ideal, and the
    degree model, smoothness report, presentation and Betti table of its
    image surface."""

    __slots__ = ("ideal", "degree_model", "smoothness", "presentation", "betti")


def classical_suite(d) -> ClassicalSuite:
    """The suite for 3 <= d <= 12 (_SURFACE_RANGE), computed with every
    consistency check; any other d raises ValueError."""
    if d not in _SURFACE_RANGE:
        raise ValueError("the surface suite is supported for "
                         f"{_SURFACE_RANGE.start} <= d <= {_SURFACE_RANGE[-1]}")
    ideal = generalized_classical(d)
    return ClassicalSuite(ideal, exponent_polytope_degree(ideal), polytope_smoothness(ideal),
                          determinantal_generators(d), betti_table(d))
