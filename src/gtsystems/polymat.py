"""Sparse multivariate integer polynomials and exact integer matrix rank.

Polynomials map exponent tuples to nonzero Python int coefficients.  Ranks
are computed exactly by fraction-free elimination over Z that keeps every
updated row primitive.
"""

from __future__ import annotations

from math import gcd

__all__ = ["SparsePoly", "bareiss_echelon", "bareiss_rank"]


class SparsePoly:
    """Polynomial stored as {exponent tuple: coefficient}: built once, then
    only read, compared and rendered; it has no ring arithmetic."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        self.terms = {e: c for e, c in dict(terms).items() if c}

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def support(self):
        return set(self.terms)

    def terms_sorted(self):
        """Terms in descending lexicographic order of exponent vectors."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def to_json(self):
        out = []
        for e, c in self.terms_sorted():
            out.append({"exp": list(e), "coeff": c})
        return out

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

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


def bareiss_echelon(m, pivot_cols=None) -> int:
    """Reduce the integer matrix m (a list of row lists) in place to row
    echelon form by fraction-free elimination with primitive rows; return
    the number of pivots.  Pivots are taken only among the first pivot_cols
    columns (all by default), so when m is a matrix beside the identity,
    every row below the pivots is zero on the left and holds an integer
    left-kernel vector of the left block on the right.

    The pivot is the remaining entry of least magnitude in its column.  A row
    with entry f != 0 under the pivot p becomes (p/g)*row - (f/g)*pivot_row,
    g = gcd(p, f), and is then divided by its content, so entries stay small
    and a row with f = 0 is not touched; only the pivot row's nonzero columns
    are read.  Every division is exact."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for col in range(nc if pivot_cols is None else pivot_cols):
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
        mr = m[r]
        piv = mr[col]
        support = [(j, mr[j]) for j in range(col + 1, nc) if mr[j]]
        for i in range(r + 1, nr):
            mi = m[i]
            f = mi[col]
            if not f:
                continue
            g = gcd(piv, f)
            p, q = piv // g, f // g
            if p != 1:
                mi = m[i] = [x * p for x in mi]
            mi[col] = 0
            for j, x in support:
                mi[j] -= q * x
            c = gcd(*mi)
            if c > 1:
                m[i] = [x // c for x in mi]
        r += 1
        if r == nr:
            break
    return r


def bareiss_rank(rows) -> int:
    """Rank over Q: the pivot count of bareiss_echelon on a copy of rows."""
    return bareiss_echelon([list(r) for r in rows])
