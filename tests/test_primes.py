"""Primes: Miller-Rabin against a sieve and known pseudoprimes, trial
division, primes = 1 (mod d) and elements of order exactly d."""

import math

import pytest

from gtsystems import primes
from gtsystems.errors import SizeLimitError
from gtsystems.primes import factorize, is_prime, prime_1_mod, root_of_order


def sieve(n):
    """is_composite flags for 0..n, by the sieve of Eratosthenes."""
    flags = bytearray([1, 1]) + bytearray(n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if not flags[p]:
            flags[p * p::p] = b"\x01" * len(range(p * p, n + 1, p))
    return flags


def order(w, p):
    """The multiplicative order of w mod p, by brute force."""
    k, x = 1, w
    while x != 1:
        x = x * w % p
        k += 1
    return k


class TestMillerRabin:
    def test_agrees_with_the_sieve_to_a_million(self):
        n = 10**6
        composite = sieve(n)
        assert [m for m in range(n + 1) if is_prime(m)] == [
            m for m in range(n + 1) if not composite[m]]

    @pytest.mark.parametrize("n", [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
        5394826801, 232250619601, 9746347772161,
    ])
    def test_carmichael_numbers_are_composite(self, n):
        assert pow(2, n - 1, n) == 1  # Fermat's test to base 2 passes
        assert not is_prime(n)

    @pytest.mark.parametrize("n,bases", [
        (2047, 1),                             # strong to base 2
        (3215031751, 4),                       # strong to bases 2, 3, 5, 7
        (3825123056546413051, 9),              # strong to bases 2..23
        (318665857834031151167461, 12),        # strong to bases 2..37
    ])
    def test_strong_pseudoprimes_are_composite(self, n, bases):
        # each passes the strong test at the first bases, which the last
        # bases refute
        for a in primes._BASES[:bases]:
            s = ((n - 1) & (1 - n)).bit_length() - 1
            x = pow(a, (n - 1) >> s, n)
            assert x in (1, n - 1) or n - 1 in [pow(x, 2**r, n) for r in range(1, s)], a
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**61 - 1, 10**18 + 9, 10**18 + 3])
    def test_large_primes(self, n):
        assert is_prime(n)
        assert not is_prime(3 * n) and not is_prime(1000003 * n)

    def test_past_the_limit_is_refused(self):
        limit = primes.PRIME_TEST_LIMIT
        assert limit + 1 == 3317044064679887385961981  # strong to every base 2..41
        assert is_prime(limit) is False  # decided, not refused
        with pytest.raises(SizeLimitError) as info:
            is_prime(limit + 1)
        assert (info.value.name, info.value.limit, info.value.size) == (
            "PRIME_TEST_LIMIT", limit, limit + 1)
        assert not is_prime(2 * (limit + 1))  # even: no test needed


class TestFactorize:
    def test_products_of_the_factors(self):
        composite = sieve(5000)
        for n in range(1, 5001):
            fac = factorize(n)
            assert math.prod(p**e for p, e in fac.items()) == n
            assert all(not composite[p] for p in fac) and list(fac) == sorted(fac)

    def test_examples(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(97) == {97: 1}
        assert factorize(1) == {}
        assert factorize(10**6) == {2: 6, 5: 6}
        with pytest.raises(ValueError, match="need n >= 1") as info:
            factorize(0)
        assert not isinstance(info.value, SizeLimitError)


class TestPrimeField:
    def test_prime_1_mod_is_the_least_one(self):
        for d in range(1, 60):
            for start in (0, 2, 100, 2**61):
                p = prime_1_mod(d, start)
                assert is_prime(p) and p % d == 1 % d and p >= start
                assert not any(is_prime(q) for q in range(max(start, 2), p) if q % d == 1 % d)

    def test_root_has_order_exactly_d(self):
        for d in range(1, 301):
            p = prime_1_mod(d, 2 * d * d)
            assert order(root_of_order(d, p), p) == d, d

    def test_root_near_two_to_the_61(self):
        # the pairs the evaluation check draws: order d, checked by the
        # prime factors of d
        for d in (7, 60, 128, 210, 256):
            p = prime_1_mod(d, 1 << 61)
            w = root_of_order(d, p)
            assert pow(w, d, p) == 1
            assert all(pow(w, d // q, p) != 1 for q in factorize(d))

    @pytest.mark.parametrize("d,p", [(7, 13), (6, 25), (0, 7), (4, 5 * 4 + 1)])
    def test_root_needs_a_prime_1_mod_d(self, d, p):
        with pytest.raises(ValueError):
            root_of_order(d, p)
