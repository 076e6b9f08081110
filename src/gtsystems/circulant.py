"""Circulant determinants expanded exactly over Z by Newton's identities.

The determinant of a circulant matrix is the product of its eigenvalue forms
l_j = sum_k zeta^(j * position_k) v_k, j = 0..d-1.  It is computed without
any cyclotomic arithmetic.  The power sums of the eigenvalue forms are

    p_n = sum_j l_j^n = d * sum multinomial(n; al) v^al,

over the exponent vectors al with |al| = n and sum_k al_k * position_k = 0
(mod d), because sum_j zeta^(j*r) is d when r = 0 (mod d) and 0 otherwise.
Those are invariant_exponents(d, positions, n), the solver of the same
congruence that lists the invariant monomials (actions).
Newton's identities n * s_n = sum_(k=1..n) (-1)^(k-1) s_(n-k) p_k then give
the elementary symmetric functions s_n of the eigenvalue forms, and the
determinant is s_d.

The division by n is exact: replacing zeta by another primitive d-th root of
unity permutes the eigenvalue forms, so every s_n is Galois-invariant and has
coefficients that are algebraic integers in Q, that is rational integers.  A
nonzero remainder therefore means a bug and raises NonIntegerError.
"""

from __future__ import annotations

import math

from .actions import invariant_exponents
from .errors import ConsistencyError, NonIntegerError, SizeLimitError
from .polymat import SparsePoly

__all__ = [
    "check_ternary_limit",
    "circulant_det_symbolic",
    "circulant_product",
    "coefficient_query",
]

# Largest d of the general form and of a ternary product (check_ternary_limit)
GENERAL_LIMIT = 12
TERNARY_LIMIT = 128


def circulant_product(d, positions) -> SparsePoly:
    """prod_(j=0..d-1) sum_k zeta_d^(j * positions[k]) v_k over Z, in the
    variables v_0..v_(m-1) with m = len(positions), by Newton's identities.
    The positions are any integers: both the power sums and the Galois
    argument hold also when they share a factor with d."""
    m = len(positions)
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and at least one position")
    # A monomial of degree n is keyed by the exponents of v_1..v_(m-1) as
    # digits in base d+1; the exponent of v_0 is n minus their sum.  No
    # exponent exceeds d, so the key of a product is the sum of the keys.
    base = d + 1
    weights = [base ** k for k in range(m - 1)]
    fact = [math.factorial(i) for i in range(d + 1)]

    def exponents(key, n):
        exps = []
        for _ in range(m - 1):
            key, e = divmod(key, base)
            exps.append(e)
        return (n - sum(exps), *exps)

    s = [{0: 1}]
    signed_p = [None]  # signed_p[k] = (-1)^(k-1) p_k
    for n in range(1, d + 1):
        scale = d * fact[n] if n % 2 else -d * fact[n]
        p_n = {}
        for al in invariant_exponents(d, positions, n):
            denom = fact[al[0]]
            key = 0
            for e, w in zip(al[1:], weights):
                denom *= fact[e]
                key += e * w
            p_n[key] = scale // denom
        signed_p.append(p_n)
        acc = {}
        for k in range(1, n + 1):
            p_k = signed_p[k].items()
            for ka, ca in s[n - k].items():
                for kb, cb in p_k:
                    key = ka + kb
                    acc[key] = acc.get(key, 0) + ca * cb
        s_n = {}
        for key, total in acc.items():
            q, r = divmod(total, n)
            if r:
                raise NonIntegerError(
                    f"coefficient of {exponents(key, n)} in s_{n} is {total}/{n}, not an integer"
                )
            if q:
                s_n[key] = q
        s.append(s_n)
    return SparsePoly(m, {exponents(key, d): c for key, c in s[d].items()})


def circulant_det_symbolic(d) -> SparsePoly:
    """det Circ(v_0..v_(d-1)) as the product of eigenvalue forms, over Z.
    Every term v^e has index sum sum_i i * e_i = 0 (mod d), as scaling
    each v_i by zeta^i permutes the forms; a term that breaks the rule
    raises ConsistencyError."""
    _check_general_d(d)
    det = circulant_product(d, range(d))
    if any(sum(i * m for i, m in enumerate(e)) % d for e in det.terms):
        raise ConsistencyError("determinant support violates the index-sum rule")
    return det


def _check_general_d(d):
    """ValueError for d < 2, then SizeLimitError past GENERAL_LIMIT."""
    if d < 2:
        raise ValueError("need d >= 2")
    if d > GENERAL_LIMIT:
        raise SizeLimitError("the d of the general form", d, "GENERAL_LIMIT", GENERAL_LIMIT)


def check_ternary_limit(d):
    """Raise SizeLimitError when d passes TERNARY_LIMIT."""
    if d > TERNARY_LIMIT:
        raise SizeLimitError("the d of a ternary product", d, "TERNARY_LIMIT", TERNARY_LIMIT)


def coefficient_query(d, indices) -> int:
    """Exact coefficient of the monomial v_(i1) ... v_(id) in the determinant.

    The query is a multiset of d row indices; entries outside 0..d-1 or a
    wrong count are rejected, after the checks of d itself.
    """
    _check_general_d(d)
    indices = list(indices)
    if len(indices) != d:
        raise ValueError(f"need exactly {d} indices")
    if any(not 0 <= i < d for i in indices):
        raise ValueError("indices must lie in 0..d-1")
    return circulant_det_symbolic(d).coefficient([indices.count(i) for i in range(d)])
