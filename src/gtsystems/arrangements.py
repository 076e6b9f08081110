"""Line arrangements in the projective plane over Q(zeta_d).

Lines and points are coordinate triples with entries in Z[zeta_d] and all
incidence questions are decided exactly, by testing a dot product for zero.
The census meets each intersection point once: the first line pair through
it gives the point as their cross product, one pass of incidence tests gives
the set of lines through it, and every pair inside that set is then marked
as covered.  No canonical form of a point is needed.
"""

from __future__ import annotations

import math

from ._record import Record
from .cyclotomic import CyclotomicInt
from .errors import ConsistencyError

__all__ = [
    "Arrangement",
    "CensusReport",
    "CevaCertificate",
    "FreenessReport",
    "build_arrangement",
    "ceva_configuration",
    "cross",
    "freeness_diagnostic",
    "singular_census",
]

# Largest d for which build_arrangement builds each arrangement kind; the
# census tests every candidate point against every line exactly, so its cost
# grows quickly with d.
_ARRANGEMENT_LIMITS = {"ceva": 8, "hd": 8, "fermat": 12}


def cross(u, v):
    """Coordinates of the intersection point of two lines (or the line
    through two points)."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _lines_through(lines, p):
    """Indices of the lines that pass through the point p."""
    return [i for i, ln in enumerate(lines) if _dot(ln, p).is_zero()]


def _zeta(d, k):
    return CyclotomicInt.zeta(d, k % d)


def _int(d, n):
    return CyclotomicInt.from_int(d, n)


class Arrangement(Record):
    __slots__ = ("d", "name", "lines")

    @property
    def n_lines(self):
        return len(self.lines)


def _ceva_lines(d):
    return [
        (_int(d, 1), _zeta(d, i), _zeta(d, j))
        for i in range(d)
        for j in range(d)
    ]


def _ceva_points(d):
    pts = [(_int(d, 1), _int(d, 0), -_zeta(d, t)) for t in range(d)]
    pts += [(_int(d, 0), _int(d, 1), -_zeta(d, t)) for t in range(d)]
    pts += [(_int(d, 1), -_zeta(d, t), _int(d, 0)) for t in range(d)]
    return pts


def _coordinate_lines(d):
    one, zero = _int(d, 1), _int(d, 0)
    return [(one, zero, zero), (zero, one, zero), (zero, zero, one)]


def build_arrangement(kind, d) -> Arrangement:
    """kind 'ceva' (d^2 lines), 'hd' (ceva plus the coordinate triangle) or
    'fermat' (the 3d lines splitting x^d-y^d, x^d-z^d, y^d-z^d), for
    3 <= d <= _ARRANGEMENT_LIMITS[kind]."""
    if d < 3:
        raise ValueError("need d >= 3")
    if kind not in _ARRANGEMENT_LIMITS:
        raise ValueError(f"unknown arrangement kind {kind!r}")
    if d > _ARRANGEMENT_LIMITS[kind]:
        raise ValueError(f"arrangement {kind} is supported for d <= {_ARRANGEMENT_LIMITS[kind]}")
    if kind == "ceva":
        lines = _ceva_lines(d)
    elif kind == "hd":
        lines = _coordinate_lines(d) + _ceva_lines(d)
    else:
        one, zero = _int(d, 1), _int(d, 0)
        lines = [(one, -_zeta(d, j), zero) for j in range(d)]
        lines += [(one, zero, -_zeta(d, j)) for j in range(d)]
        lines += [(zero, one, -_zeta(d, j)) for j in range(d)]
    # every line is scaled to have 1 as its first nonzero coordinate, so two
    # lines are the same projective line exactly when their coordinates agree
    if any(next(c for c in ln if not c.is_zero()) != 1 for ln in lines):
        raise ConsistencyError("a line is not scaled to a leading coordinate 1")
    if len({tuple(c.reduced() for c in ln) for ln in lines}) != len(lines):
        raise ConsistencyError("arrangement contains a repeated line")
    return Arrangement(d, kind, tuple(lines))


class CevaCertificate(Record):
    __slots__ = ("d", "n_lines", "n_points", "lines_per_point", "points_per_line")

    def to_json(self):
        return {
            "d": self.d,
            "n_lines": self.n_lines,
            "n_points": self.n_points,
            "lines_per_point": self.lines_per_point,
            "points_per_line": self.points_per_line,
        }


def ceva_configuration(d) -> CevaCertificate:
    """Incidence certificate for the d^2 lines x + zeta^i y + zeta^j z: the
    3d distinguished points each lie on exactly d lines and every line passes
    through exactly 3 of them."""
    lines = _ceva_lines(d)
    points = _ceva_points(d)
    per_line = [0] * len(lines)
    for p in points:
        hits = _lines_through(lines, p)
        if len(hits) != d:
            raise ConsistencyError(
                f"distinguished point lies on {len(hits)} lines, expected {d}"
            )
        for i in hits:
            per_line[i] += 1
    if any(c != 3 for c in per_line):
        raise ConsistencyError("a line misses the expected 3 distinguished points")
    return CevaCertificate(d, len(lines), len(points), d, 3)


class CensusReport(Record):
    __slots__ = (
        "name",
        "d",
        "n_lines",
        "counts",  # sorted (multiplicity, number of points)
    )

    @property
    def n_points(self):
        return sum(b for _, b in self.counts)

    def pair_identity(self):
        return sum(math.comb(h, 2) * b for h, b in self.counts)

    def to_json(self):
        return {
            "name": self.name,
            "d": self.d,
            "n_lines": self.n_lines,
            "n_points": self.n_points,
            "census": [{"mult": h, "count": b} for h, b in self.counts],
        }


def singular_census(arr: Arrangement) -> CensusReport:
    """Multiplicity census of the intersection points of an arrangement.

    The line pairs are visited in order.  A pair not yet covered meets in a
    new point p; the lines through p are found by exact incidence tests, and
    every pair among them is marked as covered.  A zero cross product, or a
    pair covered twice (two lines sharing two points), means a repeated line
    and is an inconsistency.  The census must satisfy the pairing identity
    sum_h C(h,2) b_h = C(n,2), else a ConsistencyError is raised.
    """
    lines = arr.lines
    n = len(lines)
    covered = set()
    counts = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in covered:
                continue
            p = cross(lines[i], lines[j])
            if all(c.is_zero() for c in p):
                raise ConsistencyError(f"lines {i} and {j} are a repeated line")
            through = _lines_through(lines, p)
            if i not in through or j not in through:
                raise ConsistencyError(f"the intersection of lines {i} and {j} misses one of them")
            for k, u in enumerate(through):
                for v in through[k + 1:]:
                    if (u, v) in covered:
                        raise ConsistencyError(
                            f"lines {u} and {v} meet in two distinct points: a repeated line")
                    covered.add((u, v))
            counts[len(through)] = counts.get(len(through), 0) + 1
    report = CensusReport(arr.name, arr.d, n, tuple(sorted(counts.items())))
    if report.pair_identity() != math.comb(n, 2):
        raise ConsistencyError("census violates the pairwise intersection identity")
    return report


class FreenessReport(Record):
    __slots__ = ("name", "n_lines", "c1", "c2", "weight", "discriminant", "exponents")

    @property
    def status(self):
        if self.exponents is None:
            return "necessary condition fails"
        return "splits with integer exponents"


def freeness_diagnostic(census: CensusReport) -> FreenessReport:
    """Numerical freeness test from the census.

    With c1 = n-1 and c2 = C(n-1,2) - sum_h C(h-1,2) b_h, a free arrangement
    has exponents (a, b) with a + b = c1 and a*b = c2, so the quadratic must
    split over the nonnegative integers; otherwise the necessary condition
    fails and the arrangement cannot be free.
    """
    n = census.n_lines
    c1 = n - 1
    weight = sum(math.comb(h - 1, 2) * b for h, b in census.counts)
    c2 = math.comb(c1, 2) - weight
    disc = c1 * c1 - 4 * c2
    exponents = None
    if disc >= 0:
        s = math.isqrt(disc)
        if s * s == disc and (c1 - s) % 2 == 0 and c1 - s >= 0:
            exponents = ((c1 - s) // 2, (c1 + s) // 2)
            if exponents[0] + exponents[1] != c1 or exponents[0] * exponents[1] != c2:
                raise ConsistencyError(f"exponents {exponents} do not split c1={c1}, c2={c2}")
    return FreenessReport(census.name, n, c1, c2, weight, disc, exponents)
