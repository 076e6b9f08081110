"""Diagonal actions of Z/d on K[x,y,z] and their invariant monomial ideals.

An action is a weight triple (a,b,c): the group generator scales the variables
by zeta^a, zeta^b, zeta^c.  A degree-d monomial x^al y^be z^ga is invariant
exactly when a*al + b*be + c*ga = 0 (mod d).  invariant_exponents is the one
solver of that congruence, for any weights and degree: the invariant ideal,
the bound of check_invariant_limit and the Newton power sums of circulant all
read it.  The direct scan of the simplex is its oracle in the tests.
"""

from __future__ import annotations

import math

from ._record import Record
from .polymat import monomial_str

__all__ = [
    "Action",
    "GTIdeal",
    "InvalidActionError",
    "check_invariant_limit",
    "generalized_classical",
    "invariant_exponents",
    "invariant_monomials",
    "monomial_str",
    "normalize_action",
]


# Largest number of monomials invariant_monomials may yield, bounded before
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
        return normalize_action(self.d, *self.weights)

    def to_json(self):
        return {"d": self.d, "weights": list(self.weights)}

    def __str__(self):
        return f"({self.weights[0]},{self.weights[1]},{self.weights[2]}) mod {self.d}"


def normalize_action(d, a, b, c) -> tuple:
    """Canonical weights of a faithful action: subtract the first weight, then
    sort.  A plain tuple, as they need not be faithful: (5,1,1) mod 6 gives
    (0,2,2)."""
    probe = Action(d, (a, b, c))
    return tuple(sorted((w - probe.weights[0]) % d for w in probe.weights))


class GTIdeal(Record):
    """Artinian monomial ideal generated in a single degree d.

    Generators are exponent triples summing to d, kept in descending
    lexicographic order.  The action is recorded when the ideal arose as the
    full invariant ideal of one.
    """

    __slots__ = ("d", "generators", "action")

    def __init__(self, d, generators, action=None):
        gens = tuple(map(tuple, generators))
        # one pass tells a strictly descending input, which needs no sort
        if any(g <= h for g, h in zip(gens, gens[1:])):
            gens = tuple(sorted(set(gens), reverse=True))
        for g in gens:
            if len(g) != 3 or min(g) < 0 or sum(g) != d:
                raise ValueError(f"bad degree-{d} generator {g}")
        super().__init__(d, gens, action)

    @property
    def mu(self):
        return len(self.generators)

    def has_pure_powers(self):
        need = {(self.d, 0, 0), (0, self.d, 0), (0, 0, self.d)}
        return need.issubset(set(self.generators))

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


def _class_bound(d, a, b, c):
    """The bound N + h*N/2 of check_invariant_limit for the weights in this order."""
    h = math.gcd(b - c, d)
    t = h // math.gcd(a - c, h)
    n = d // t + 1
    return n + n * h // 2


def check_invariant_limit(action: Action):
    """Raise ValueError when invariant_monomials could yield more than
    INVARIANT_LIMIT monomials.  In the classes of invariant_exponents, with
    h = gcd(b - c, d) and t = h / gcd(a - c, h), the last two exponents of
    x^(d-n) y^be z^ga have solutions exactly when t divides n (a*d = 0), and
    then at most n*h/d + 1 of them.  Summed over the N = d // t + 1 values
    n = k*t that is N + t*h*N*(N - 1) / (2d), which is N + h*N/2 as t
    divides d.  The number of monomials does not change when the variables
    are permuted, so the bound is the least of that formula over the three
    cyclic orders of the weights (swapping the last two weights keeps h and
    t).  It is exact for (1, 1, 1) and for every action that moves one
    variable only, and more than d/2 in every order, so twice it also bounds
    the d + 1 x-exponents that the enumeration visits."""
    d = action.d
    a, b, c = action.weights
    bound = min(_class_bound(d, *w) for w in ((a, b, c), (b, c, a), (c, a, b)))
    if bound > INVARIANT_LIMIT:
        raise ValueError(
            f"the invariant enumeration has a size limit of {INVARIANT_LIMIT} monomials "
            f"(INVARIANT_LIMIT); the action {action} may have up to {bound}"
        )


def invariant_monomials(action: Action) -> GTIdeal:
    """All invariant degree-d monomials of the action, in descending
    lexicographic order (invariant_exponents at n = d), bounded first by
    check_invariant_limit."""
    check_invariant_limit(action)
    d = action.d
    return GTIdeal(d, tuple(invariant_exponents(d, action.weights, d)), action)


def _classical_exponents(d):
    """The exponents of x^d, y^d, z^d, x^k y^k z^eps, ..., x^2 y^2 z^(d-4),
    xyz^(d-2) in this order, with k = floor(d/2) and eps = d mod 2.  The
    order numbers the variables of surface.determinantal_generators."""
    if d < 3:
        raise ValueError("need d >= 3")
    k = d // 2
    return [(d, 0, 0), (0, d, 0), (0, 0, d)] + [(i, i, d - 2 * i) for i in range(k, 0, -1)]


def generalized_classical(d) -> GTIdeal:
    """The system x^d, y^d, z^d, x^k y^k z^eps, ..., xyz^(d-2), whose monomial
    set coincides with the invariant ideal of the action with weights (0, 2, 1)."""
    return GTIdeal(d, tuple(_classical_exponents(d)), action=Action(d, (0, 2, 1)))
