"""Weak Lefschetz failure tests for invariant monomial ideals.

The decisive map is multiplication by a linear form L from degree d-1 to
degree d of R/I, R = K[x,y,z].  I is generated in degree d, so
(R/I)_(d-1) = R_(d-1) and the kernel of the map is I_d intersected with
L*R_(d-1): the forms of I_d that vanish on the line L = 0.  Restricting the
mu generators to that line gives a (d+1) x mu integer matrix E, and the
kernel has dimension mu - rank E (the exact sequence A/LA = R/(I, L)).  The
rank of E is exact at every d.

At L = x + y + z, row (i, j, k) of E^T is (-1)^k C(k, m) at column j + m, so
its first entry is +-1, at column j, and rows with distinct first columns
are independent.  L is symmetric in x, y, z, so reading the x or the z
exponent as the first column (with another variable eliminated on the line)
gives a matrix of the same rank with the same left kernel.  Let f rows of
one such matrix have distinct first columns.  If f = min(mu, d+1), the rank
is f.  If f = mu - 1, one forward substitution through the f unit pivots,
in integers and without division, either leaves the last row a nonzero
residual (nullity 0) or gives a kernel vector v (nullity 1), and v.E = 0 is
checked on every column.  These unit pivots decide E for an action whose
shifted weights are faithful exactly when some weight difference is a unit
mod d, which is the paper's family: with b - a a unit, only x^d and y^d
share a z exponent.  Otherwise, for instance (0, 2, 5) at d = 840 or
shifted weights that share a factor with d, and for every other linear
form, E is eliminated fraction-free (polymat.bareiss_echelon).  The rows of
E are signed binomial rows, built once per exponent by the recurrence
C(k, m+1) = C(k, m) (k - m) / (m + 1).

For L = x + y + z the eigenvalue product of the action lies in that kernel,
so when the kernel has dimension 1 its vector is the product's coefficient
vector, scaled.  restriction(ideal) decides E once, by its unit pivots or
by one elimination, and the Togliatti predicate, minimality and the product
are read off the Restriction it returns; the verdict needs only the nullity
(WlpVerdict.from_nullity).  Restriction.newton_product() is the one
cross-check of the product against its Newton expansion, for minimal,
report and conjecture_scan alike.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._record import Record
from .actions import Action, GTIdeal, invariant_monomials
from .circulant import _TERNARY_LIMIT, check_ternary_limit, circulant_product
from .errors import ConsistencyError
from .polymat import SparsePoly, bareiss_echelon, bareiss_rank

__all__ = [
    "WlpVerdict",
    "Restriction",
    "check_minimality_route",
    "conjecture_scan",
    "kernel_dimension",
    "random_scales",
    "restriction",
]

# The verdict reports the exact rank only up to this d.  The check detail of
# gt-verdict prints the rank, and the answers recorded for the benchmark in
# bench/expected print None above d = 16; the limit goes when they are
# recorded again.
RANK_REPORT_LIMIT = 16

# Largest d at which report and minimal decide minimality.  The augmented
# elimination, where the unit pivots leave E to it, takes 0.02-0.03 s at
# d = 256 and 0.10-0.15 s at d = 420 (Python 3.11, one Xeon core), so the
# limit is a contract, not a cost: raising it changes which requests are
# answered.
MINIMALITY_LIMIT = 256

# Largest number of cells mu * (d+1) of the restriction matrix E, checked
# before either route, so kernel_dimension, restriction and every command
# that decides E refuse a matrix whose elimination would run for minutes or
# exhaust memory, instead of starting it, also where the unit pivots would
# decide it at once.  The plain elimination of (0, 2, 5) at d = 2520 (3.2
# million cells) takes 3.4 s (Python 3.11, one Xeon core).
ELIMINATION_LIMIT = 10**7

_ONES = (1, 1, 1)

# The variable orders of the unit-pivot route: (the exponent read as the
# first column, the exponent eliminated on the line); (1, 2) is E itself.
_ORDERS = ((1, 2), (0, 2), (2, 1))


def _check_elimination_limit(ideal: GTIdeal):
    """Raise ValueError when E has more than ELIMINATION_LIMIT cells."""
    cells = ideal.mu * (ideal.d + 1)
    if cells > ELIMINATION_LIMIT:
        raise ValueError(
            f"the elimination has a size limit of {ELIMINATION_LIMIT} matrix cells "
            f"(ELIMINATION_LIMIT); the ideal at d = {ideal.d} with {ideal.mu} generators "
            f"needs {cells}"
        )


class _SignedBinomials(dict):
    """k -> the coefficients (-1)^k C(k, m), m = 0..k, of (-(s + t))^k, built
    on first use by C(k, m+1) = C(k, m) (k - m) / (m + 1) over half the row;
    one per call, so no row outlives the call that built it."""

    def __missing__(self, k):
        c = -1 if k % 2 else 1
        row = [c] * (k + 1)
        for m in range(k // 2):
            c = c * (k - m) // (m + 1)
            row[m + 1] = row[k - m - 1] = c
        self[k] = row
        return row


def _restriction_rows(ideal: GTIdeal, coeffs):
    """The transpose of E: row i is generator i restricted to the line
    al*x + be*y + ga*z = 0, that is g_i(ga*s, ga*t, -al*s - be*t), in the
    basis s^(d-k) t^k, k = 0..d.  This is ga^d * g_i(s, t, -(al*s + be*t)/ga),
    so the entries are integers: ga^(i+j) (-1)^k C(k, m) al^(k-m) be^m at
    column j + m, the signed binomial row itself when coeffs = (1, 1, 1)."""
    al, be, ga = coeffs
    if ga == 0:
        raise ValueError("the linear form needs a nonzero z coefficient")
    d = ideal.d
    binomials = _SignedBinomials()
    rows = []
    if tuple(coeffs) == _ONES:
        for _, j, k in ideal.generators:
            row = [0] * (d + 1)
            row[j:j + k + 1] = binomials[k]
            rows.append(row)
        return rows
    # the powers 0..d of al, be and ga, built once per call
    pa, pb, pg = [1], [1], [1]
    for _ in range(d):
        pa.append(pa[-1] * al)
        pb.append(pb[-1] * be)
        pg.append(pg[-1] * ga)
    for i, j, k in ideal.generators:
        row = [0] * (d + 1)
        scale = pg[i + j]
        for m, c in enumerate(binomials[k]):
            row[j + m] = scale * c * pa[k - m] * pb[m]
        rows.append(row)
    return rows


def _first_columns(generators, key):
    """({first column: generator index}, [indices of the later rows]): the
    first generator with a given exponent at key holds that column's unit
    pivot, and every later one is left over."""
    pivot, rest = {}, []
    for n, g in enumerate(generators):
        if g[key] in pivot:
            rest.append(n)
        else:
            pivot[g[key]] = n
    return pivot, rest


def _substitute(ideal: GTIdeal, order, pivot, r, binomials):
    """Row r of E^T, in the variable order `order`, reduced by the unit
    pivots column by column: a kernel vector v with v_r = 1, or None when a
    column without a pivot keeps a nonzero residual.  Each pivot row is
    used at most once, so it costs O(sum of k)."""
    key, elim = order
    gens = ideal.generators
    v = [0] * ideal.mu
    v[r] = 1
    residual = [0] * (ideal.d + 1)
    j = gens[r][key]
    first = binomials[gens[r][elim]]
    residual[j:j + len(first)] = first
    for c in range(j, ideal.d + 1):
        x = residual[c]
        if not x:
            continue
        n = pivot.get(c)
        if n is None:
            return None
        row = binomials[gens[n][elim]]
        f = v[n] = -x * row[0]  # row[0] is +-1
        end = c + len(row)
        residual[c:end] = [a + f * e for a, e in zip(residual[c:end], row)]
    return v


def _check_kernel_vector(ideal: GTIdeal, v, binomials):
    """ConsistencyError unless v != 0 and v.E = 0, summed over the k + 1
    columns j..j+k where generator (i, j, k) is nonzero."""
    acc = [0] * (ideal.d + 1)
    for vi, (_, j, k) in zip(v, ideal.generators):
        if vi:
            acc[j:j + k + 1] = [a + vi * e for a, e in zip(acc[j:j + k + 1], binomials[k])]
    if not any(v) or any(acc):
        raise ConsistencyError("the kernel vector is not in the kernel of E")


def _unit_pivots(ideal: GTIdeal):
    """(nullity, v) of E at x + y + z read off its unit pivots in the variable
    order with the most distinct first columns, or None when they do not
    decide it (see the module docstring); v is the checked kernel vector
    when a substitution finds one, else None."""
    d, mu, gens = ideal.d, ideal.mu, ideal.generators
    order = max(_ORDERS, key=lambda o: len({g[o[0]] for g in gens}))
    pivot, rest = _first_columns(gens, order[0])
    if len(pivot) == min(mu, d + 1):
        return mu - len(pivot), None
    if len(rest) != 1:
        return None
    binomials = _SignedBinomials()
    v = _substitute(ideal, order, pivot, rest[0], binomials)
    if v is None:
        return 0, None
    _check_kernel_vector(ideal, v, binomials)
    return 1, tuple(v)


NOT_TOGLIATTI = "not a Togliatti system: minimality is defined only for a Togliatti system"


def _candidate(ideal: GTIdeal) -> bool:
    """All three pure powers and at most d+1 generators."""
    return ideal.has_pure_powers() and ideal.mu <= ideal.d + 1


def _togliatti(ideal: GTIdeal, nullity: int) -> bool:
    """A Togliatti candidate on which x + y + z fails injectivity."""
    return nullity >= 1 and _candidate(ideal)


def kernel_dimension(ideal: GTIdeal, coeffs=_ONES) -> int:
    """Exact dimension of the kernel of multiplication by
    coeffs[0]*x + coeffs[1]*y + coeffs[2]*z from degree d-1 to degree d of
    the quotient; the z coefficient must be nonzero.  At x + y + z the unit
    pivots decide it where they can; elsewhere E is eliminated."""
    _check_elimination_limit(ideal)
    if tuple(coeffs) == _ONES:
        decided = _unit_pivots(ideal)
        if decided is not None:
            return decided[0]
    return _eliminated_nullity(ideal, coeffs)


def _eliminated_nullity(ideal: GTIdeal, coeffs) -> int:
    rows = _restriction_rows(ideal, coeffs)
    return len(rows) - bareiss_rank(rows)


def random_scales(rng):
    """Three nonzero integer scales in 1..9 with random signs: the
    coefficients of a random linear form for kernel_dimension, or the scales
    of a membership form of report."""
    return tuple(rng.randint(1, 9) * rng.choice((-1, 1)) for _ in range(3))


class WlpVerdict(Record):
    __slots__ = ("action", "d", "mu", "dim_source", "dim_target", "rank", "fails_injectivity",
                 "fails_wlp_at_d_minus_1", "generator_bound_ok", "is_togliatti", "method")

    def to_json(self):
        return {
            "action": self.action.to_json() if self.action else None,
            "d": self.d,
            "mu": self.mu,
            "dim_source": self.dim_source,
            "dim_target": self.dim_target,
            "rank": self.rank,
            "fails_injectivity": self.fails_injectivity,
            "fails_wlp_at_d_minus_1": self.fails_wlp_at_d_minus_1,
            "generator_bound_ok": self.generator_bound_ok,
            "is_togliatti": self.is_togliatti,
            "is_gt": self.is_togliatti,  # the report's name for the same verdict
            "method": self.method,
        }

    @classmethod
    def from_nullity(cls, ideal: GTIdeal, nullity: int) -> WlpVerdict:
        """The verdict from the nullity of E at x + y + z, which is the
        dimension of the kernel at degree d-1 -> d."""
        d, mu = ideal.d, ideal.mu
        dim_src, dim_tgt = d * (d + 1) // 2, (d + 1) * (d + 2) // 2 - mu
        rank = dim_src - nullity
        return cls(
            action=ideal.action, d=d, mu=mu, dim_source=dim_src, dim_target=dim_tgt,
            rank=rank if d <= RANK_REPORT_LIMIT else None,
            fails_injectivity=nullity > 0,
            fails_wlp_at_d_minus_1=rank < min(dim_src, dim_tgt),
            generator_bound_ok=mu <= d + 1, is_togliatti=_togliatti(ideal, nullity),
            method="restriction",
        )


class Restriction(Record):
    """E at x + y + z for an ideal, decided once by restriction(ideal): the
    nullity, for a Togliatti system the checked kernel vector v, and the
    route that decided it, "unit_pivots" or "elimination" (not printed)."""

    __slots__ = ("ideal", "nullity", "v", "route", "__dict__")  # __dict__ holds product

    @property
    def togliatti(self) -> bool:
        return _togliatti(self.ideal, self.nullity)

    @property
    def minimal(self) -> bool:
        """No proper generator subset is still a Togliatti system; ValueError
        unless this ideal is one.  Kernels only grow when generators are
        added, so single removals suffice: removing a pure power breaks
        artinianness, and removing generator i keeps a kernel exactly when
        the nullity is 2 or more or v_i = 0."""
        if not self.togliatti:
            raise ValueError(NOT_TOGLIATTI)
        d, gens = self.ideal.d, self.ideal.generators
        return self.nullity == 1 and all(vi or d in g for vi, g in zip(self.v, gens))

    @cached_property
    def product(self) -> SparsePoly | None:
        """The eigenvalue product prod_j (zeta^(ja) x + zeta^(jb) y + zeta^(jc) z)
        of the ideal's action (a, b, c) when the nullity is 1, else None.

        Its coefficients on the generators lie in the kernel of E (it is
        supported on the invariant set and divisible by x + y + z), so they
        are a multiple of v, and its x^d coefficient is (-1)^(a(d-1)): it is
        sum_i v_i g_i * (-1)^(a(d-1)) / v_(x^d), what circulant_product
        expands.  An inexact division, or a support that is the whole
        generator set where minimal is False or the other way round, raises
        ConsistencyError."""
        ideal, v = self.ideal, self.v
        if self.nullity != 1 or v is None or ideal.action is None:
            return None
        d = ideal.d
        lead = v[0]  # the generators are in descending order, so x^d comes first
        if ideal.generators[0] != (d, 0, 0) or not lead:
            raise ConsistencyError("the kernel vector vanishes at x^d")
        if ideal.action.weights[0] * (d - 1) % 2:
            lead = -lead
        terms = {}
        for g, vi in zip(ideal.generators, v):
            q, r = divmod(vi, lead)
            if r:
                raise ConsistencyError(f"the kernel vector is not a multiple of the product at {g}")
            if q:
                terms[g] = q
        if (len(terms) == ideal.mu) != self.minimal:
            raise ConsistencyError("the product's support disagrees with minimality")
        return SparsePoly(3, terms)

    def newton_product(self) -> SparsePoly | None:
        """The eigenvalue product expanded by Newton's identities
        (circulant_product) at the action's own weights, or None past the
        ternary limit or without an action.  Its support must lie in the
        generator set, and with nullity 1 it must equal self.product term by
        term; otherwise ConsistencyError.  With any other nullity nothing is
        compared with v."""
        ideal = self.ideal
        if ideal.action is None or ideal.d > _TERNARY_LIMIT:
            return None
        newton = circulant_product(ideal.d, ideal.action.weights)
        if not newton.support() <= set(ideal.generators):
            raise ConsistencyError("product escapes the invariant monomial span")
        if self.product is not None and newton.terms != self.product.terms:
            raise ConsistencyError("the Newton product disagrees with the kernel vector")
        return newton


def restriction(ideal: GTIdeal) -> Restriction:
    """Decide E at x + y + z once: by its unit pivots where they decide it,
    else by elimination.  Only a Togliatti candidate (all three pure powers,
    at most d+1 generators) is eliminated as E^T beside the identity,
    pivoting only in the columns of E^T: with a kernel, the identity part of
    the last row is a kernel vector v, and v.E = 0 is checked.  No other
    ideal is a Togliatti system, so nothing reads its v and the plain
    elimination serves."""
    _check_elimination_limit(ideal)
    candidate = _candidate(ideal)
    decided = _unit_pivots(ideal)
    if decided is not None:
        nullity, v = decided
        return Restriction(ideal, nullity, v if candidate else None, "unit_pivots")
    if not candidate:
        return Restriction(ideal, _eliminated_nullity(ideal, _ONES), None, "elimination")
    rows = _restriction_rows(ideal, _ONES)
    mu, width = len(rows), ideal.d + 1
    # row i of the identity is the slice of this unit row that puts its 1 at i
    unit = [0] * (mu - 1) + [1] + [0] * (mu - 1)
    m = [row + unit[mu - 1 - i:2 * mu - 1 - i] for i, row in enumerate(rows)]
    nullity = mu - bareiss_echelon(m, width)
    if not nullity:
        return Restriction(ideal, 0, None, "elimination")
    v = tuple(m[-1][width:])
    _check_kernel_vector(ideal, v, _SignedBinomials())
    return Restriction(ideal, nullity, v, "elimination")


def check_minimality_route(action: Action):
    """Raise ValueError unless minimality is decided for the action: three
    distinct weights and d within MINIMALITY_LIMIT.  It needs no ideal, so it
    can run before the invariant scan."""
    if len(set(action.weights)) < 3:
        raise ValueError("repeated weights do not give a Togliatti system")
    if action.d > MINIMALITY_LIMIT:
        raise ValueError(f"minimality has a size limit: it is decided for d <= {MINIMALITY_LIMIT}")


def conjecture_scan(d_values):
    """Scan actions (0, a, b) for failures of minimality.

    For every d and every 1 <= a < b <= d-1 with gcd(a, b, d) = 1 the
    invariant ideal is built and eliminated once.  Its restriction gives the
    Togliatti verdict and, for every Togliatti unit, the kernel-vector
    minimality; its newton_product() gives the circulant route, the support
    of the Newton-expanded product compared with the generator set, and with
    nullity 1 checks that product against v term by term (a mismatch raises
    ConsistencyError).  A unit is a counterexample candidate exactly when
    one of the two minimality routes fails.  Pairs with a == b provably keep
    the Lefschetz property and are recorded as degenerate; units that are
    not Togliatti systems are recorded as such.  The largest d is checked
    against the ternary limit before the first unit.
    """
    dmax = max(d_values, default=0)
    if dmax >= 3:
        check_ternary_limit(dmax)
    findings = []
    units = []
    for d in d_values:
        for a in range(1, d):
            for b in range(a, d):
                if math.gcd(a, b, d) != 1:
                    units.append({"d": d, "a": a, "b": b, "status": "skipped_gcd"})
                    continue
                if a == b:
                    units.append({"d": d, "a": a, "b": b, "status": "degenerate_wlp"})
                    continue
                ideal = invariant_monomials(Action(d, (0, a, b)))
                r = restriction(ideal)
                unit = {
                    "d": d, "a": a, "b": b, "mu": ideal.mu,
                    "minimal_circulant": r.newton_product().support() == set(ideal.generators),
                }
                bad = not unit["minimal_circulant"]
                togliatti = unit["togliatti"] = r.togliatti
                if togliatti:
                    unit["minimal_oracle"] = r.minimal
                    bad = bad or not unit["minimal_oracle"]
                if bad:
                    unit["status"] = "counterexample"
                    findings.append(unit)
                elif not togliatti:
                    unit["status"] = "not_togliatti"
                else:
                    unit["status"] = "ok"
                units.append(unit)
    return {"units": units, "findings": findings}
