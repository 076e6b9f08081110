"""Sparse multivariate integer polynomials, the monomial renderer they share
with actions.GTIdeal, and the fraction-free step of the column sweep that
decides E (wlp.restriction).

Polynomials map exponent tuples to nonzero Python int coefficients.  The
step (fraction_free_step) keeps every updated row primitive.
"""

from __future__ import annotations

from math import gcd

__all__ = ["SparsePoly"]


def monomial_str(exp, names=("x", "y", "z")):
    """The monomial of the exponents exp, as x^2z; the constant one is 1."""
    text = ""
    for name, p in zip(names, exp):
        if p:
            text += f"{name}^{p}" if p > 1 else name
    return text or "1"


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
            mono = monomial_str(e, names)
            sign = "- " if c < 0 else "+ "
            mag = abs(c)
            if mag == 1:
                piece = mono
            elif any(e):
                piece = f"{mag}*{mono}"
            else:
                piece = str(mag)
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
