"""Weak Lefschetz failure tests for invariant monomial ideals.

The decisive map is multiplication by a linear form L from degree d-1 to
degree d of R/I, R = K[x,y,z].  I is generated in degree d, so
(R/I)_(d-1) = R_(d-1) and the kernel of the map is I_d intersected with
L*R_(d-1): the forms of I_d that vanish on the line L = 0.  Restricting the
mu generators to that line gives a (d+1) x mu integer matrix E, and the
kernel has dimension mu - rank E (the exact sequence A/LA = R/(I, L)).  The
rank of E is exact at every d.

At L = x + y + z, row (i, j, k) of E^T is (-1)^k C(k, m) at column j + m, so
its first entry is +-1, at column j.  L is symmetric in x, y, z, so reading
the x or the z exponent as the first column (with another variable
eliminated on the line) gives a matrix of the same rank with the same left
kernel; restriction takes the order with the most distinct first columns.
The first row at each first column is a unit pivot; the other, leftover,
rows are swept once through the columns, left to right.  A unit pivot
takes x times its row off a leftover row with entry x, with no scaling.
At a free column, one without a unit pivot, the leftover row of least
magnitude there becomes a pivot and clears the others by one fraction-free
step (polymat.fraction_free_step), which leaves them primitive.  No row
becomes a pivot past the last free column, so a leftover row that starts
there is counted, not built.  A Togliatti candidate sweeps on to the end:
its leftover rows carry their combinations of the generators and end
zero, so the combinations span the left kernel.  In the paper's family
(some weight difference a unit mod d) one row is left over.

The entries stay small because the sweep is a Gaussian elimination in
column order: after column c a leftover row is, over Q, the one vector of
its coset modulo the pivot rows that vanishes at every pivot column up to
c, so its entries are quotients of minors of E^T (Cramer), and the
primitive integer row divides those minors (Bareiss).  A leftover row
pushed through every unit pivot before a free-column pivot meets it has no
such bound.

Any other form al*x + be*y + ga*z with al, be and ga nonzero has the same
nullity: scaling x, y and z by al, be and ga maps a monomial ideal to itself
and x + y + z to the form (Migliore, Miro-Roig and Nagel, Trans. AMS 2011).

For the full invariant ideal of an action (a, b, c) the nullity is a count
(conjugate_nullity).  Let g = gcd(b-a, c-a, d), d' = d/g and
(p', q') = ((b-a)/g, (c-a)/g).
1. x^i y^j z^k of degree d is invariant exactly when p'j + q'k = 0 (mod d'),
   as a*d = 0; so every generator is invariant under
   rho' = diag(1, zeta_d'^p', zeta_d'^q'), with gcd(p', q', d') = 1.
2. A form f of I_d that L = x + y + z divides is rho'-invariant, so it is
   divided by the d' conjugates L o rho'^t, t = 0..d'-1.  They are distinct
   (gcd(p', q', d') = 1) with x-coefficient 1, so pairwise coprime, and
   their product P' has degree d'.
3. So f = P'h.  P' is rho'-invariant, so h is rho'-invariant of degree
   d - d'; conversely every such P'h lies in I_d.
4. The kernel is P' times the invariant forms of degree d - d', and the
   nullity is their number, #{i + j + k = d - d' : p'j + q'k = 0 (mod d')}:
   1 when g = 1, 10 for (1, 1, 1) mod 4 and 12 for (1, 1, 4) mod 9.
The verdict reads that count and sweeps nothing.  restriction raises
ConsistencyError when the nullity of a full invariant ideal is any other;
a subset labelled with the action may have a smaller one.

For L = x + y + z the eigenvalue product of the action lies in that kernel,
so when the kernel has dimension 1 its vector is the product's coefficient
vector, scaled.  restriction(ideal) decides E once, by the sweep, and the
Togliatti predicate, minimality and the product are read off the
Restriction it returns.  Restriction.newton_product() is the one
cross-check of the product against its Newton expansion, for minimal,
report and conjecture_scan alike.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._record import Record
from .actions import Action, GTIdeal, invariant_exponents, invariant_monomials
from .circulant import _TERNARY_LIMIT, circulant_product
from .errors import ConsistencyError
from .polymat import SparsePoly, fraction_free_step

__all__ = [
    "WlpVerdict",
    "Restriction",
    "check_minimality_route",
    "conjecture_scan",
    "conjugate_nullity",
    "random_scales",
    "restriction",
]

# The verdict reports the exact rank only up to this d.  The check detail of
# gt-verdict prints the rank, and the answers recorded for the benchmark in
# bench/expected print None above d = 16; the limit goes when they are
# recorded again.
RANK_REPORT_LIMIT = 16

# Largest d at which report and minimal decide minimality: a contract, not
# a cost, as the sweep takes at most 0.01 s at d <= 256 and 0.02-0.03 s
# for (0, 3, 7) at d = 420 (Python 3.11, one Xeon core).
MINIMALITY_LIMIT = 256

# Largest number of cells mu * (d+1) of E, checked before the sweep starts,
# so that no command runs for minutes or exhausts memory on one.  The worst
# case measured inside it is (0, 2, 5) at d = 4440 (9.9 million cells): the
# sweep takes 22-26 s and peaks at 632 MiB resident (Python 3.11, one Xeon
# core, shared); at d = 2520 (3.2 million cells) it takes 2.5-3.7 s.
ELIMINATION_LIMIT = 10**7

# The variable orders of the sweep: (the exponent read as the first column,
# the exponent eliminated on the line); (1, 2) is E itself.
_ORDERS = ((1, 2), (0, 2), (2, 1))


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


def _check_kernel_vector(ideal: GTIdeal, v, binomials):
    """ConsistencyError unless v != 0 and v.E = 0, summed over the k + 1
    columns j..j+k where generator (i, j, k) is nonzero."""
    acc = [0] * (ideal.d + 1)
    for vi, (_, j, k) in zip(v, ideal.generators):
        if vi:
            acc[j:j + k + 1] = [a + vi * e for a, e in zip(acc[j:j + k + 1], binomials[k])]
    if not any(v) or any(acc):
        raise ConsistencyError("the kernel vector is not in the kernel of E")


NOT_TOGLIATTI = "not a Togliatti system: minimality is defined only for a Togliatti system"


def _candidate(ideal: GTIdeal) -> bool:
    """All three pure powers and at most d+1 generators."""
    return ideal.has_pure_powers() and ideal.mu <= ideal.d + 1


def _togliatti(ideal: GTIdeal, nullity: int) -> bool:
    """A Togliatti candidate on which x + y + z fails injectivity."""
    return nullity >= 1 and _candidate(ideal)


def conjugate_nullity(action: Action) -> int:
    """The nullity of E at x + y + z for the full invariant ideal of the
    action: the number of invariant forms of degree d - d' (module
    docstring), counted by invariant_exponents, so 1 when g = 1."""
    d, (a, b, c) = action.d, action.weights
    g = math.gcd(b - a, c - a, d)
    return len(invariant_exponents(d, (0, b - a, c - a), d - d // g))


def random_scales(rng):
    """Three nonzero integer scales in 1..9 with random signs: the
    coefficients of a random linear form of gt-verdict --general-l, or the
    scales of a membership form of report."""
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
        dimension of the kernel at degree d-1 -> d: for the full invariant
        ideal of an action, conjugate_nullity(action), hence the method."""
        d, mu = ideal.d, ideal.mu
        dim_src, dim_tgt = d * (d + 1) // 2, (d + 1) * (d + 2) // 2 - mu
        rank = dim_src - nullity
        return cls(
            action=ideal.action, d=d, mu=mu, dim_source=dim_src, dim_target=dim_tgt,
            rank=rank if d <= RANK_REPORT_LIMIT else None,
            fails_injectivity=nullity > 0,
            fails_wlp_at_d_minus_1=rank < min(dim_src, dim_tgt),
            generator_bound_ok=mu <= d + 1, is_togliatti=_togliatti(ideal, nullity),
            method="conjugate_forms",
        )


class Restriction(Record):
    """E at x + y + z for an ideal, decided once by restriction(ideal): the
    nullity and, for a Togliatti system, the checked kernel vector v."""

    __slots__ = ("ideal", "nullity", "v", "__dict__")  # __dict__ holds product

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
    """Decide E at x + y + z once, by the sweep of the module docstring: for
    a Togliatti candidate with a kernel the last leftover row gives v, and
    v.E = 0 is checked; other ideals are no Togliatti systems and get no v."""
    d, mu, gens = ideal.d, ideal.mu, ideal.generators
    width = d + 1
    if mu * width > ELIMINATION_LIMIT:
        raise ValueError(
            f"the elimination has a size limit of {ELIMINATION_LIMIT} matrix cells "
            f"(ELIMINATION_LIMIT); the ideal at d = {d} with {mu} generators "
            f"needs {mu * width}"
        )
    candidate = _candidate(ideal)
    firsts, key, elim = max((({g[k] for g in gens}, k, e) for k, e in _ORDERS),
                            key=lambda t: len(t[0]))
    binomials = _SignedBinomials()
    nullity = mu - len(firsts)  # less one for each pivot at a free column
    # a leftover row that starts past the last free column is only counted
    stop = width if candidate else max(set(range(width)) - firsts, default=-1) + 1
    units = [None] * width  # column -> the generator of its unit pivot
    rows = []  # the leftover rows, with their combinations for a candidate
    for n, g in enumerate(gens):
        c = g[key]
        if units[c] is None:
            units[c] = n
        elif c < stop:
            row = binomials[g[elim]]
            left = [0] * (width + mu if candidate else width)
            left[c:c + len(row)] = row
            if candidate:
                left[width + n] = 1
            rows.append(left)
    for c in range(stop):
        n = units[c]
        if n is not None:
            for left in rows:
                x = left[c]
                if x:
                    row = binomials[gens[n][elim]]
                    f = -x * row[0]  # row[0] is +-1
                    end = c + len(row)
                    left[c:end] = [a + f * e for a, e in zip(left[c:end], row)]
                    if candidate:
                        left[width + n] += f
            continue
        for left in rows:
            if left[c]:
                break
        else:
            continue
        live = [i for i, left in enumerate(rows) if left[c]]
        row = rows.pop(min(live, key=lambda i: abs(rows[i][c])))
        nullity -= 1
        support = [(j, row[j]) for j in range(c + 1, len(row)) if row[j]]
        rows = [fraction_free_step(left, c, row[c], support) if left[c] else left
                for left in rows]
    v = None
    if candidate and nullity:
        v = tuple(rows[-1][width:])
        _check_kernel_vector(ideal, v, binomials)
    if ideal.action is not None:
        count = conjugate_nullity(ideal.action)
        if nullity != count and gens == invariant_monomials(ideal.action).generators:
            raise ConsistencyError(f"nullity {nullity} of E where the conjugate forms give {count}")
    return Restriction(ideal, nullity, v)


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
    invariant ideal is built and its E decided once.  Its restriction gives the
    Togliatti verdict and, for every Togliatti unit, the kernel-vector
    minimality; its newton_product() gives the circulant route, the support
    of the Newton-expanded product compared with the generator set, and with
    nullity 1 checks that product against v term by term (a mismatch raises
    ConsistencyError).  A unit is a counterexample candidate exactly when
    one of the two minimality routes fails.  Pairs with a == b provably keep
    the Lefschetz property and are recorded as degenerate; units that are
    not Togliatti systems are recorded as such.  Before the first unit the
    d values are checked against the ternary limit, up to the first past it.
    """
    if any(d > _TERNARY_LIMIT for d in d_values):
        raise ValueError(f"the conjecture scan has a size limit: its largest d (--dmax) "
                         f"must be at most {_TERNARY_LIMIT}")
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
