"""Diagonal actions of Z/d on K[x,y,z] and their invariant monomial ideals.

An action is a weight triple (a,b,c): the group generator scales the variables
by zeta^a, zeta^b, zeta^c.  A degree-d monomial x^al y^be z^ga is invariant
exactly when a*al + b*be + c*ga = 0 (mod d).  invariant_exponents is the one
solver of that congruence, for any weights and degree: the invariant ideal
and the Newton power sums of circulant read it.  invariant_count counts the
solutions of three weights by floor sums, in O(log d), without listing them:
mu, the nullity of every verdict (wlp.conjugate_nullity) and the limit of
check_invariant_limit read it.  invariant_monomials is the one listing of
an invariant ideal and holds it to that count; wlp.Restriction.of and
generalized_classical, the classical system, list through it.  The direct
scan of the simplex is the oracle of both in the tests.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import ConsistencyError, SizeLimitError
from .polymat import monomial_str

__all__ = [
    "Action",
    "GTIdeal",
    "InvalidActionError",
    "check_invariant_limit",
    "generalized_classical",
    "invariant_count",
    "invariant_exponents",
    "invariant_monomials",
    "monomial_str",
    "normalize_action",
]


# Largest number of monomials invariant_monomials may yield, counted before
# the enumeration starts (check_invariant_limit).
INVARIANT_LIMIT = 10**6


class InvalidActionError(ValueError):
    """Weight triple does not generate a faithful action of Z/d."""


class Action(Record):
    """Weights of a diagonal Z/d action on (x, y, z)."""

    __slots__ = ("d", "weights")

    def __init__(self, d, weights):
        if d < 2:
            raise InvalidActionError("order must be at least 2")
        w = tuple(v % d for v in weights)
        if len(w) != 3:
            raise InvalidActionError("need exactly three weights")
        if math.gcd(*w, d) != 1:
            raise InvalidActionError(
                f"gcd{(*weights, d)} != 1: the action is not faithful"
            )
        super().__init__(d, w)

    def normalized(self) -> tuple:
        """normalize_action of the weights, read off the validated ones."""
        d, w = self.d, self.weights
        return tuple(sorted((v - w[0]) % d for v in w))

    def to_json(self):
        return {"d": self.d, "weights": list(self.weights)}

    def __str__(self):
        return f"({self.weights[0]},{self.weights[1]},{self.weights[2]}) mod {self.d}"


def normalize_action(d, a, b, c) -> tuple:
    """Canonical weights of a faithful action: subtract the first weight, then
    sort.  A plain tuple, as they need not be faithful: (5,1,1) mod 6 gives
    (0,2,2)."""
    return Action(d, (a, b, c)).normalized()


class GTIdeal(Record):
    """Artinian monomial ideal generated in a single degree d.

    Generators are exponent triples summing to d, kept in descending
    lexicographic order.  The action is recorded when the ideal arose from
    one, as its full invariant ideal or a subset of that.
    """

    __slots__ = ("d", "generators", "action")

    def __init__(self, d, generators, action=None):
        gens = tuple(map(tuple, generators))
        # one pass tells a strictly descending input, which needs no sort
        if any(g <= h for g, h in zip(gens, gens[1:])):
            gens = tuple(sorted(set(gens), reverse=True))
        # whole-tuple passes, lengths first, so min sees no empty generator;
        # only a failed pass looks for the first bad one
        if gens and (set(map(len, gens)) != {3} or min(map(min, gens)) < 0
                     or set(map(sum, gens)) != {d}):
            bad = next(g for g in gens if len(g) != 3 or min(g) < 0 or sum(g) != d)
            raise ValueError(f"bad degree-{d} generator {bad}")
        super().__init__(d, gens, action)

    @property
    def mu(self):
        return len(self.generators)

    def has_pure_powers(self):
        """x^d, y^d and z^d are generators: in descending order x^d is the
        first and z^d the last."""
        d, gens = self.d, self.generators
        return (bool(gens) and gens[0] == (d, 0, 0) and gens[-1] == (0, 0, d)
                and (0, d, 0) in gens)

    def generator_strings(self):
        return [monomial_str(g) for g in self.generators]

    def to_json(self):
        return {
            "d": self.d,
            "mu": self.mu,
            "generators": [list(g) for g in self.generators],
            "monomials": self.generator_strings(),
            "action": self.action.to_json() if self.action else None,
        }


def _extended(states, w):
    """Each state (prefix, s, room) of invariant_exponents followed by one
    more exponent e of weight w, from e = room down to 0."""
    for prefix, s, room in states:
        for e in range(room, -1, -1):
            yield prefix + (e,), s + w * e, room - e


def invariant_exponents(d, weights, n):
    """Every exponent vector al with |al| = n and sum al_k * weights[k] = 0
    (mod d), for any number of weights, as a list in descending
    lexicographic order.  The leading coordinates are chosen largest first,
    one generator per coordinate.  With s their weighted sum and r = n minus
    their sum, the last two (be, r - be), of weights b and c, solve
    (b - c)*be = -(s + c*r) (mod d).  That has solutions exactly when
    h = gcd(b - c, d) divides s + c*r, and they form one class modulo d / h,
    listed from the largest be <= r down."""
    if len(weights) == 1:
        return [(n,)] if n * weights[0] % d == 0 else []
    *lead, b, c = weights
    h = math.gcd(b - c, d)
    step = d // h
    inverse = pow((b - c) // h, -1, step)
    states = [((), 0, n)]
    for w in lead:
        states = _extended(states, w)
    found = []
    for prefix, s, r in states:
        rhs = -(s + c * r) % d
        if rhs % h == 0:
            be0 = rhs // h * inverse % step
            for be in range(r - (r - be0) % step, -1, -step):
                found.append(prefix + (be, r - be))
    return found


def _floor_sum(n, m, a, b):
    """sum_{t < n} floor((a*t + b) / m) for m >= 1 and any integers a, b, in
    O(log m) steps of Euclid's algorithm (the AtCoder Library's floor_sum;
    Graham, Knuth and Patashnik, Concrete Mathematics, section 3.5)."""
    total = 0
    while n:
        q, a = divmod(a, m)
        r, b = divmod(b, m)
        total += n * (n - 1) // 2 * q + n * r
        top = a * n + b
        if top < m:
            break
        # the lattice points under the line, counted by columns instead
        n, b = divmod(top, m)
        m, a = a, m
    return total


def invariant_count(d, weights, n):
    """The number of exponent vectors (i, j, k) with i + j + k = n and
    a*i + b*j + c*k = 0 (mod d), for three weights (a, b, c) and n >= 0:
    len(invariant_exponents(d, weights, n)), in O(log d) operations on
    integers.  mu is invariant_count(d, weights, d).

    With i = n - j - k the congruence reads p*j + q*k = r (mod d), where
    p = b - a, q = c - a and r = -a*n.  Let h = gcd(p, d) and M = d / h.
    A j exists exactly when q*k = r (mod h).  With h' = gcd(q, h) that has
    solutions only when h' divides r, and then k runs over one class
    k0 + s*t, t >= 0, with s = h / h'.  For each such k, p*j = r - q*k
    (mod d) puts j in one class modulo M, J0 + C*t (mod M), where u is the
    inverse of p/h modulo M, J0 = u*(r - q*k0)/h mod M and
    C = -u*q*s/h mod M.  The number of j in [0, n - k] of class
    rho(t) = (J0 + C*t) mod M is floor((n - k - rho(t)) / M) + 1, which is
    0 when rho(t) > n - k, as rho(t) < M.  Writing rho(t) as
    J0 + C*t - M*floor((J0 + C*t) / M) and summing over the
    T = floor((n - k0) / s) + 1 values of t gives

        T + floor_sum(T, M, -(s + C), n - k0 - J0) + floor_sum(T, M, C, J0).

    For weights (0, p, q) at n = d, r = k0 = J0 = 0 and this is
    T + floor_sum(T, M, -(s + C), n) + floor_sum(T, M, C, 0)."""
    a, b, c = weights
    p, q, r = b - a, c - a, -a * n
    h = math.gcd(p, d)
    hq = math.gcd(q, h)
    if r % hq:
        return 0
    s, big_m = h // hq, d // h
    k0 = r // hq * pow(q // hq, -1, s) % s
    if k0 > n:
        return 0
    u = pow(p // h, -1, big_m)
    j0 = (r - q * k0) // h * u % big_m
    step = -(q * s // h) * u % big_m
    big_t = (n - k0) // s + 1
    return (big_t + _floor_sum(big_t, big_m, -(s + step), n - k0 - j0)
            + _floor_sum(big_t, big_m, step, j0))


def check_invariant_limit(action: Action) -> int:
    """The number mu of invariant monomials of degree d of the action,
    invariant_count; SizeLimitError, naming mu, past INVARIANT_LIMIT.
    The count is at least d/2 + 5/2: the (j, k) of the invariant x^i y^j z^k
    form a lattice of index d/g <= d in Z^2, and the triangle j, k >= 0,
    j + k <= d has its three vertices on it and area d^2/2, so Pick's
    theorem gives at least d/2 + 1 + 3/2 lattice points in it.  So the
    limit also bounds the d + 1 x-exponents that the enumeration visits."""
    d = action.d
    mu = invariant_count(d, action.weights, d)
    if mu > INVARIANT_LIMIT:
        raise SizeLimitError(f"the number of invariant monomials of the action {action}", mu,
                             "INVARIANT_LIMIT", INVARIANT_LIMIT)
    return mu


def invariant_monomials(action: Action) -> GTIdeal:
    """All invariant degree-d monomials of the action, in descending
    lexicographic order, listed by invariant_exponents at n = d after
    check_invariant_limit; ConsistencyError unless the list has mu, the
    count, members.  It is the one listing of an action's ideal."""
    d, mu = action.d, check_invariant_limit(action)
    gens = invariant_exponents(d, action.weights, d)
    if len(gens) != mu:
        raise ConsistencyError(
            f"{len(gens)} invariant monomials enumerated where the count gives {mu}")
    return GTIdeal(d, tuple(gens), action)


def generalized_classical(d) -> GTIdeal:
    """The classical system x^d, y^d, z^d, x^k y^k z^eps, ..., xyz^(d-2), with
    k = floor(d/2) and eps = d mod 2: the invariant ideal of the action with
    weights (0, 2, 1), listed by invariant_monomials and so held to the
    count.  ValueError for d < 3."""
    if d < 3:
        raise ValueError("need d >= 3")
    return invariant_monomials(Action(d, (0, 2, 1)))
