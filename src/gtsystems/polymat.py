"""Sparse multivariate polynomials and exact integer matrix rank.

Polynomials map exponent tuples to nonzero coefficients; coefficients are
either Python ints or CyclotomicInt values (never mixed within one term after
promotion).  Ranks are computed exactly by fraction-free Bareiss elimination
over Z.
"""

from __future__ import annotations

from .cyclotomic import CyclotomicInt

__all__ = ["SparsePoly", "bareiss_rank"]


def _is_zero_coeff(c):
    if isinstance(c, int):
        return c == 0
    return c.is_zero()


def _promote(c, order):
    if isinstance(c, int):
        return CyclotomicInt.from_int(order, c)
    return c


class SparsePoly:
    """Polynomial stored as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None, prune=True):
        self.nvars = nvars
        if terms is None:
            self.terms = {}
        else:
            self.terms = dict(terms)
            if prune:
                dead = [e for e, c in self.terms.items() if _is_zero_coeff(c)]
                for e in dead:
                    del self.terms[e]

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars, exp, coeff=1):
        exp = tuple(exp)
        if len(exp) != nvars:
            raise ValueError("exponent length does not match variable count")
        return cls(nvars, {exp: coeff})

    @classmethod
    def variable(cls, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls.monomial(nvars, exp)

    def cyclotomic_order(self):
        for c in self.terms.values():
            if isinstance(c, CyclotomicInt):
                return c.order
        return None

    def is_zero(self):
        return not self.terms

    def _coerced_pair(self, other):
        if isinstance(other, (int, CyclotomicInt)):
            other = SparsePoly(self.nvars, {(0,) * self.nvars: other})
        if not isinstance(other, SparsePoly):
            return None, None
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return self, other

    def __add__(self, other):
        a, b = self._coerced_pair(other)
        if a is None:
            return NotImplemented
        order = a.cyclotomic_order() or b.cyclotomic_order()
        out = dict(a.terms)
        if order is not None:
            out = {e: _promote(c, order) for e, c in out.items()}
        for e, c in b.terms.items():
            if order is not None:
                c = _promote(c, order)
            if e in out:
                out[e] = out[e] + c
            else:
                out[e] = c
        return SparsePoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()}, prune=False)

    def __sub__(self, other):
        a, b = self._coerced_pair(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, CyclotomicInt)):
            if _is_zero_coeff(other):
                return SparsePoly.zero(self.nvars)
            return SparsePoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        a, b = self._coerced_pair(other)
        if a is None:
            return NotImplemented
        order = a.cyclotomic_order() or b.cyclotomic_order()
        out = {}
        for ea, ca in a.terms.items():
            if order is not None:
                ca = _promote(ca, order)
            for eb, cb in b.terms.items():
                if order is not None:
                    cb = _promote(cb, order)
                e = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return SparsePoly(self.nvars, out)

    __rmul__ = __mul__

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def map_coefficients(self, fn):
        return SparsePoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    def to_integer_poly(self):
        """Reduce all cyclotomic coefficients to rational integers."""
        out = {}
        for e, c in self.terms.items():
            if isinstance(c, CyclotomicInt):
                c = c.as_integer()
            if c:
                out[e] = c
        return SparsePoly(self.nvars, out, prune=False)

    def support(self):
        return set(self.terms)

    def terms_sorted(self):
        """Terms in descending lexicographic order of exponent vectors."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def to_json(self):
        out = []
        for e, c in self.terms_sorted():
            coeff = c.to_json() if isinstance(c, CyclotomicInt) else c
            out.append({"exp": list(e), "coeff": coeff})
        return out

    def __eq__(self, other):
        a, b = self._coerced_pair(other) if isinstance(other, (SparsePoly, int, CyclotomicInt)) else (None, None)
        if a is None:
            return NotImplemented
        return (a - b).is_zero()

    def __hash__(self):
        raise TypeError("SparsePoly is not hashable")

    def __str__(self):
        return self.render()

    def render(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = ("x", "y", "z") if self.nvars == 3 else tuple(f"x{i}" for i in range(self.nvars))
        parts = []
        for e, c in self.terms_sorted():
            mono = "".join(
                f"{names[i]}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e)
                if p
            )
            if isinstance(c, CyclotomicInt):
                cs = str(c)
                piece = f"({cs})*{mono}" if mono else f"({cs})"
                parts.append("+ " + piece)
                continue
            sign = "- " if c < 0 else "+ "
            mag = abs(c)
            if not mono:
                piece = str(mag)
            elif mag == 1:
                piece = mono
            else:
                piece = f"{mag}*{mono}"
            parts.append(sign + piece)
        text = " ".join(parts)
        if text.startswith("+ "):
            return text[2:]
        return "-" + text[2:]

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {self.render()})"


def bareiss_rank(rows) -> int:
    """Rank over Q by fraction-free Bareiss elimination (exact divisions only)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    r = 0
    for col in range(nc):
        # pick the remaining entry of least magnitude in this column to slow growth
        pivot_row = -1
        best = None
        for i in range(r, nr):
            v = m[i][col]
            if v:
                a = abs(v)
                if best is None or a < best:
                    best = a
                    pivot_row = i
                    if a == 1:
                        break
        if pivot_row < 0:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][col]
        for i in range(r + 1, nr):
            mi = m[i]
            mr = m[r]
            f = mi[col]
            if f == 0 and piv == prev:
                continue  # update reduces to mi[j] * piv // prev == mi[j]
            for j in range(col, nc):
                mi[j] = (mi[j] * piv - f * mr[j]) // prev
        prev = piv
        r += 1
        if r == nr:
            break
    return r
