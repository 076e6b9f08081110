"""Exact arithmetic in Z[zeta_d], the ring of integers extended by a primitive
d-th root of unity.

Elements are stored as integer coefficient vectors of length d in the power
basis 1, zeta, ..., zeta^(d-1).  Arithmetic only wraps exponents modulo d;
reduction modulo the d-th cyclotomic polynomial happens when a zero test, an
equality test or a canonical form is requested, and is not remembered.
"""

from __future__ import annotations

import functools

from .errors import ConsistencyError, NonIntegerError

__all__ = [
    "CyclotomicInt",
    "OrderMismatchError",
    "cyclotomic_polynomial",
]


class OrderMismatchError(ValueError):
    """Raised when two elements built on different roots of unity are combined."""


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


@functools.cache
def cyclotomic_polynomial(d: int) -> tuple:
    """Return the coefficients of Phi_d in ascending degree: x^d - 1 divided
    exactly by each Phi_e, e|d, e<d, in turn."""
    if d < 1:
        raise ValueError("order must be positive")
    quot = [-1] + [0] * (d - 1) + [1]
    degree = d
    for e in range(1, d):
        if d % e == 0:
            phi_e = cyclotomic_polynomial(e)
            quot, rem = _poly_divmod_exact(quot, phi_e)
            if any(rem):
                raise ConsistencyError(f"x^{d}-1 not divisible by proper factors")
            degree -= len(phi_e) - 1
    phi = tuple(quot)
    if phi[-1] != 1 or len(phi) - 1 != degree:
        raise ConsistencyError(f"Phi_{d} is not monic of degree {degree}")
    return phi


@functools.cache
def _reduction_rows(d: int):
    """(m, rows) with m = deg Phi_d and rows[i - m] the nonzero (t, c) of
    x^i mod Phi_d, for i = m, ..., d-1."""
    phi = cyclotomic_polynomial(d)
    m = len(phi) - 1
    rows = []
    for i in range(m, d):
        _, rem = _poly_divmod_exact([0] * i + [1], phi)
        rows.append(tuple((t, c) for t, c in enumerate(rem) if c))
    return m, tuple(rows)


class CyclotomicInt:
    """An element of Z[zeta_d] in the power basis."""

    __slots__ = ("order", "coeffs")

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

    def _operand(self, other):
        """other as an element of the same order; None when it is neither an
        int nor an element."""
        if isinstance(other, int):
            return CyclotomicInt.from_int(self.order, other)
        if not isinstance(other, CyclotomicInt):
            return None
        if self.order != other.order:
            raise OrderMismatchError(
                f"incompatible roots of unity: order {self.order} vs {other.order}"
            )
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return CyclotomicInt(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return CyclotomicInt(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        d = self.order
        terms = [(j, e) for j, e in enumerate(other.coeffs) if e]
        out = [0] * d
        for i, c in enumerate(self.coeffs):
            if c:
                for j, e in terms:
                    # 0 <= i + j < 2d, so the negative index wraps to (i + j) mod d
                    out[i + j - d] += c * e
        return CyclotomicInt(d, out)

    __rmul__ = __mul__

    def reduced(self):
        """Canonical coefficient vector modulo Phi_d (length deg Phi_d)."""
        m, rows = _reduction_rows(self.order)
        res = list(self.coeffs[:m])
        for c, row in zip(self.coeffs[m:], rows):
            if c:
                for t, r in row:
                    res[t] += c * r
        return tuple(res)

    def is_zero(self):
        return not any(self.reduced())

    def as_integer(self):
        r = self.reduced()
        if any(r[1:]):
            raise NonIntegerError(f"not a rational integer: {self!r}")
        return r[0]

    def __eq__(self, other):
        if isinstance(other, CyclotomicInt) and self.order != other.order:
            return False
        other = self._operand(other)
        if other is None:
            return NotImplemented
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
