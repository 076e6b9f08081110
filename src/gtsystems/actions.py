"""Diagonal actions of Z/d on K[x,y,z] and their invariant monomial ideals.

An action is a weight triple (a,b,c): the group generator scales the variables
by zeta^a, zeta^b, zeta^c.  A degree-d monomial x^al y^be z^ga is invariant
exactly when a*al + b*be + c*ga = 0 (mod d).  The enumeration below solves
that linear congruence for be at each al, in O(d + mu) steps, and so yields
the monomials in descending lexicographic order; the direct scan of the whole
degree-d simplex is its oracle in the tests.
"""

from __future__ import annotations

import math

from ._record import Record

__all__ = [
    "Action",
    "GTIdeal",
    "InvalidActionError",
    "check_invariant_limit",
    "generalized_classical",
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


def monomial_str(exp, names=("x", "y", "z")):
    if not any(exp):
        return "1"
    return "".join(
        names[i] + (f"^{p}" if p > 1 else "")
        for i, p in enumerate(exp)
        if p
    )


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


def _congruence(action: Action):
    """(p, q, g, t) for the action (a, b, c) of order d: p = b - a and
    q = c - a mod d, g = gcd(q, d), and t = g / gcd(p, g).  The invariant
    monomials x^al y^be z^ga are those with q*ga = -p*be (mod d): there are
    some for be exactly when g divides p*be, that is when t divides be, and
    their ga then form one class modulo d / g."""
    d = action.d
    a, b, c = action.weights
    p, q = (b - a) % d, (c - a) % d
    g = math.gcd(q, d)
    return p, q, g, g // math.gcd(p, g)


def check_invariant_limit(action: Action):
    """Raise ValueError when invariant_monomials could yield more than
    INVARIANT_LIMIT monomials.  The n = d // t + 1 y-exponents be = k*t have
    at most (d - k*t) // (d / g) + 1 monomials each; the bound sums these
    without the floors.  It is at least n + n*g // 2, more than d / 2 as
    n*g > d, so twice it also bounds the at most d + 1 steps of the loop of
    invariant_monomials."""
    d = action.d
    _, _, g, t = _congruence(action)
    n = d // t + 1
    bound = n + n * (2 * d - t * (n - 1)) * g // (2 * d)
    if bound > INVARIANT_LIMIT:
        raise ValueError(
            f"the invariant enumeration has a size limit of {INVARIANT_LIMIT} monomials "
            f"(INVARIANT_LIMIT); the action {action} may have up to {bound}"
        )


def invariant_monomials(action: Action) -> GTIdeal:
    """All invariant degree-d monomials of the action (a, b, c), in descending
    lexicographic order, bounded first by check_invariant_limit.  With
    n = be + ga = d - al the condition reads r*be = s*n (mod d) for r = b - c
    and s = a - c.  It has solutions exactly when h = gcd(r, d) divides s*n,
    that is when t = h / gcd(s, h) divides n, and their be then form one class
    modulo d / h.  So it is solved once for each x-exponent al = d - n with
    solutions, al descending and be descending inside: O(d / t + mu) steps."""
    check_invariant_limit(action)
    d = action.d
    a, b, c = action.weights
    r, s = (b - c) % d, (a - c) % d
    h = math.gcd(r, d)
    t = h // math.gcd(s, h)
    step = d // h
    inverse = pow(r // h, -1, step)
    gens = []
    for n in range(0, d + 1, t):
        # the largest be <= n in the class of s*n/h * inverse; none below 0
        be0 = s * n // h * inverse % step
        for be in range(n - (n - be0) % step, -1, -step):
            gens.append((d - n, be, n - be))
    return GTIdeal(d, tuple(gens), action=action)


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
