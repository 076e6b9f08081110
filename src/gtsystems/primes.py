"""Primes and prime fields: a deterministic Miller-Rabin test, trial-division
factorization, primes p = 1 (mod d) and elements of order d in F_p.

Miller-Rabin to the thirteen prime bases 2..41 is exact below
3317044064679887385961981, the least strong pseudoprime to all of them
(Sorenson and Webster, Math. Comp. 2017); is_prime refuses a larger n.
"""

from __future__ import annotations

from .errors import ConsistencyError, SizeLimitError

__all__ = ["factorize", "is_prime", "prime_1_mod", "root_of_order"]

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Largest n that is_prime decides: one below the least strong pseudoprime to
# every base of _BASES
PRIME_TEST_LIMIT = 3317044064679887385961980


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the bases 2..41, exact for
    n <= PRIME_TEST_LIMIT; SizeLimitError past it."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n > PRIME_TEST_LIMIT:
        raise SizeLimitError("the number to test", n, "PRIME_TEST_LIMIT", PRIME_TEST_LIMIT)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s t with t odd
    t = (n - 1) >> s
    for a in _BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """The prime factorization {p: e} of n >= 1, by trial division: about
    sqrt(n) / 2 steps, so the caller bounds n."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def prime_1_mod(d: int, start: int) -> int:
    """The least prime p >= start with p = 1 (mod d), for d >= 1.  By
    Dirichlet's theorem there is one, and near 2^61 about one candidate in
    43 phi(d) / d is prime."""
    if d < 1:
        raise ValueError("need d >= 1")
    p = start + (1 - start) % d
    while not is_prime(p):
        p += d
    return p


def root_of_order(d: int, p: int) -> int:
    """An element of order exactly d in F_p: g^((p - 1) / d) for the least
    g >= 1 whose power is not 1 at any exponent d / q, q a prime factor of d.
    ValueError unless p is a prime = 1 (mod d)."""
    if d < 1 or (p - 1) % d or not is_prime(p):
        raise ValueError(f"need a prime p = 1 (mod {d}), got {p}")
    e, qs = (p - 1) // d, tuple(factorize(d))
    for g in range(1, p):
        w = pow(g, e, p)
        if all(pow(w, d // q, p) != 1 for q in qs):
            return w
    raise ConsistencyError(f"F_{p} has no element of order {d}")  # F_p^* is cyclic
