"""Sparse multivariate integer polynomials and exact integer matrix rank.

Polynomials map exponent tuples to nonzero Python int coefficients.  Ranks
are computed exactly by fraction-free elimination over Z, whose step
(fraction_free_step) keeps every updated row primitive.
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


def fraction_free_step(row, col, piv, support):
    """row, with entry f != 0 at col, as (p/g)*row - (f/g)*pivot row over its
    content, g = gcd(p, f), for a pivot row with p = piv at col and the
    (column, entry) pairs support after it; row itself may be changed."""
    f = row[col]
    g = gcd(piv, f)
    p, q = piv // g, f // g
    if p != 1:
        row = [x * p for x in row]
    row[col] = 0
    for j, x in support:
        row[j] -= q * x
    c = gcd(*row)
    if c > 1:
        row = [x // c for x in row]
    return row


def bareiss_echelon(m) -> int:
    """Reduce the integer matrix m (a list of row lists) in place to row
    echelon form and return the number of pivots.  The pivot is the
    remaining entry of least magnitude in its column, and each row with a
    nonzero entry under it takes one fraction_free_step."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for col in range(nc):
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
            if m[i][col]:
                m[i] = fraction_free_step(m[i], col, piv, support)
        r += 1
        if r == nr:
            break
    return r


def bareiss_rank(rows) -> int:
    """Rank over Q: the pivot count of bareiss_echelon on a copy of rows."""
    return bareiss_echelon([list(r) for r in rows])
