"""Exact arithmetic in Z[zeta_d], the ring of integers extended by a primitive
d-th root of unity.

Elements are stored as integer coefficient vectors of length d in the power
basis 1, zeta, ..., zeta^(d-1).  Arithmetic only wraps exponents modulo d,
which is cheap; reduction modulo the d-th cyclotomic polynomial happens lazily,
only when a zero test, an equality test or a canonical form is requested.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import ConsistencyError, NonIntegerError

__all__ = [
    "CycloPolynomial",
    "CyclotomicInt",
    "OrderMismatchError",
    "cyclotomic_polynomial",
]


class OrderMismatchError(ValueError):
    """Raised when two elements built on different roots of unity are combined."""


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def _poly_divmod_exact(num, den):
    """Divide num by the monic polynomial den over Z, returning (quot, rem)."""
    if den[-1] != 1:
        raise ConsistencyError("exact division needs a monic divisor")
    num = list(num)
    dn = len(den) - 1
    quot = [0] * max(1, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@dataclass(frozen=True)
class CycloPolynomial:
    """The d-th cyclotomic polynomial with coefficients in ascending degree."""

    d: int
    coeffs: tuple

    @property
    def degree(self):
        return len(self.coeffs) - 1


_PHI_CACHE: dict = {}
# reentrant: the computation for d recurses into the proper divisors of d
_PHI_LOCK = threading.RLock()


def cyclotomic_polynomial(d: int) -> CycloPolynomial:
    """Return Phi_d, computed by exact division of x^d - 1 by all Phi_e, e|d, e<d."""
    if d < 1:
        raise ValueError("order must be positive")
    got = _PHI_CACHE.get(d)
    if got is not None:
        return got
    with _PHI_LOCK:
        got = _PHI_CACHE.get(d)
        if got is not None:
            return got
        if d == 1:
            phi = CycloPolynomial(1, (-1, 1))
        else:
            num = [-1] + [0] * (d - 1) + [1]
            den = [1]
            for e in range(1, d):
                if d % e == 0:
                    den = _poly_mul(den, list(cyclotomic_polynomial(e).coeffs))
            den_deg = len(den) - 1
            if den[-1] != 1:
                raise ConsistencyError("divisor product must be monic")
            quot, rem = _poly_divmod_exact(num, den)
            if any(rem) and rem != [0]:
                raise ConsistencyError(f"x^{d}-1 not divisible by proper factors")
            phi = CycloPolynomial(d, tuple(quot))
            if phi.coeffs[-1] != 1 or phi.degree != d - den_deg:
                raise ConsistencyError(f"Phi_{d} is not monic of degree {d - den_deg}")
        _PHI_CACHE[d] = phi
        return phi


_RED_CACHE: dict = {}
_RED_LOCK = threading.Lock()


def _reduction_rows(d: int):
    """Rows expressing x^i mod Phi_d for i = deg(Phi_d), ..., d-1."""
    got = _RED_CACHE.get(d)
    if got is not None:
        return got
    with _RED_LOCK:
        got = _RED_CACHE.get(d)
        if got is not None:
            return got
        phi = cyclotomic_polynomial(d)
        m = phi.degree
        rows = []
        if m < d:
            base = [-c for c in phi.coeffs[:m]]
            rows.append(tuple(base))
            cur = base
            for _ in range(m + 1, d):
                nxt = [0] + cur[:-1]
                top = cur[-1]
                if top:
                    for t in range(m):
                        nxt[t] += top * base[t]
                rows.append(tuple(nxt))
                cur = nxt
        got = (m, tuple(rows))
        _RED_CACHE[d] = got
        return got


def _reduce_vector(d, coeffs):
    m, rows = _reduction_rows(d)
    res = list(coeffs[:m])
    res.extend([0] * (m - len(res)))
    for i in range(m, min(len(coeffs), d)):
        c = coeffs[i]
        if c:
            row = rows[i - m]
            for t in range(m):
                if row[t]:
                    res[t] += c * row[t]
    return tuple(res)


class CyclotomicInt:
    """An element of Z[zeta_d] in the power basis."""

    __slots__ = ("order", "coeffs", "_reduced")

    def __init__(self, order, coeffs):
        if order < 1:
            raise ValueError("order must be positive")
        coeffs = tuple(coeffs)
        if len(coeffs) > order:
            raise ValueError("coefficient vector longer than order")
        if len(coeffs) < order:
            coeffs = coeffs + (0,) * (order - len(coeffs))
        self.order = order
        self.coeffs = coeffs
        self._reduced = None

    @classmethod
    def from_int(cls, order, n):
        return cls(order, (n,) + (0,) * (order - 1))

    @classmethod
    def zeta(cls, order, k=1):
        v = [0] * order
        v[k % order] = 1
        return cls(order, v)

    @classmethod
    def zero(cls, order):
        return cls.from_int(order, 0)

    @classmethod
    def one(cls, order):
        return cls.from_int(order, 1)

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatchError(
                f"incompatible roots of unity: order {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.order, other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        self._check(other)
        return CyclotomicInt(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.order, other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        self._check(other)
        return CyclotomicInt(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def _nonzero_terms(self):
        return [(i, c) for i, c in enumerate(self.coeffs) if c]

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return CyclotomicInt.zero(self.order)
            return CyclotomicInt(self.order, [other * a for a in self.coeffs])
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        self._check(other)
        d = self.order
        a = self._nonzero_terms()
        b = other._nonzero_terms()
        long_coeffs = other.coeffs
        if len(a) > len(b):
            a, b = b, a
            long_coeffs = self.coeffs
        # single-term multiplications are rotations; they dominate product
        # expansions where each factor coefficient is a power of zeta
        if len(a) == 1:
            i, c = a[0]
            rot = long_coeffs[-i:] + long_coeffs[:-i] if i else long_coeffs
            if c == 1:
                return CyclotomicInt(d, rot)
            return CyclotomicInt(d, [c * v for v in rot])
        out = [0] * d
        for i, c in a:
            for j, e in b:
                k = i + j
                if k >= d:
                    k -= d
                out[k] += c * e
        return CyclotomicInt(d, out)

    __rmul__ = __mul__

    def reduced(self):
        """Canonical coefficient vector modulo Phi_d (length deg Phi_d)."""
        r = self._reduced
        if r is None:
            r = _reduce_vector(self.order, self.coeffs)
            self._reduced = r
        return r

    def is_zero(self):
        return not any(self.reduced())

    def as_integer(self):
        r = self.reduced()
        if any(r[1:]):
            raise NonIntegerError(f"not a rational integer: {self!r}")
        return r[0]

    def __eq__(self, other):
        if isinstance(other, int):
            r = self.reduced()
            return r[0] == other and not any(r[1:])
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        if self.order != other.order:
            return False
        return (self - other).is_zero()

    def __str__(self):
        parts = []
        for i, c in enumerate(self.reduced()):
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                term = "z" if i == 1 else f"z^{i}"
                if abs(c) != 1:
                    term = f"{abs(c)}*{term}"
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"CyclotomicInt(order={self.order}, {self})"
