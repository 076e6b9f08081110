"""Exact arithmetic in Z[zeta_d]: cyclotomic polynomials and integers in the
power basis, reduced modulo Phi_d on demand."""

import math
import random

import pytest

from gtsystems.cyclotomic import (
    CyclotomicInt,
    OrderMismatchError,
    cyclotomic_polynomial,
)


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def long_division_remainder(num, phi, m):
    """num mod phi by schoolbook division, phi monic of degree m; the
    remainder padded to length m."""
    rem = list(num) + [0] * max(0, m - len(num))
    for top in range(len(rem) - 1, m - 1, -1):
        c = rem[top]
        for k, p in enumerate(phi):
            rem[top - m + k] -= c * p
    assert not any(rem[m:])
    return tuple(rem[:m])


KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


class TestCyclotomicPolynomial:
    @pytest.mark.parametrize("d,coeffs", sorted(KNOWN_PHI.items()))
    def test_known_polynomials(self, d, coeffs):
        assert cyclotomic_polynomial(d) == coeffs

    @pytest.mark.parametrize("d", range(1, 40))
    def test_degree_is_totient(self, d):
        assert len(cyclotomic_polynomial(d)) - 1 == totient(d)

    @pytest.mark.parametrize("d", range(2, 40))
    def test_value_at_one(self, d):
        # Phi_d(1) = p when d is a prime power p^k, and 1 otherwise.
        value = sum(cyclotomic_polynomial(d))
        factors = set()
        m = d
        p = 2
        while p * p <= m:
            while m % p == 0:
                factors.add(p)
                m //= p
            p += 1
        if m > 1:
            factors.add(m)
        expected = next(iter(factors)) if len(factors) == 1 else 1
        assert value == expected

    @pytest.mark.parametrize("d", [6, 12, 30, 36])
    def test_product_over_divisors_is_x_pow_d_minus_1(self, d):
        # prod_{e | d} Phi_e(x) = x^d - 1, checked coefficient by coefficient.
        prod = [1]
        for e in range(1, d + 1):
            if d % e == 0:
                phi = cyclotomic_polynomial(e)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        expected = [-1] + [0] * (d - 1) + [1]
        assert prod == expected


class TestCyclotomicInt:
    def test_zeta_power_d_is_one(self):
        for d in (3, 4, 5, 6, 7, 12):
            z = CyclotomicInt.zeta(d)
            acc = CyclotomicInt.one(d)
            for _ in range(d):
                acc = acc * z
            assert acc == CyclotomicInt.one(d)

    def test_geometric_sum_vanishes(self):
        # 1 + zeta + ... + zeta^{d-1} = 0 for every d > 1.
        for d in (2, 3, 5, 6, 9, 12):
            z = CyclotomicInt.zeta(d)
            acc = CyclotomicInt.zero(d)
            term = CyclotomicInt.one(d)
            for _ in range(d):
                acc = acc + term
                term = term * z
            assert acc.is_zero()

    def test_from_int_roundtrip(self):
        for n in (-7, 0, 3, 123456789):
            x = CyclotomicInt.from_int(5, n)
            assert x.as_integer() == n

    def test_as_integer_rejects_irrational(self):
        from gtsystems.errors import NonIntegerError

        z = CyclotomicInt.zeta(5)
        with pytest.raises(NonIntegerError):
            z.as_integer()

    def test_ring_axioms_random(self):
        rng = random.Random(99)
        for d in (4, 6, 7, 10):
            for _ in range(25):
                def rand():
                    return CyclotomicInt(d, tuple(rng.randint(-9, 9) for _ in range(d)))

                a, b, c = rand(), rand(), rand()
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c

    def test_order_mismatch_raises(self):
        a = CyclotomicInt.one(5)
        b = CyclotomicInt.one(7)
        with pytest.raises(OrderMismatchError):
            a + b
        with pytest.raises(OrderMismatchError):
            a - b
        with pytest.raises(OrderMismatchError):
            a * b

    def test_mixed_order_elements_are_unequal(self):
        # 1 in Z[zeta_5] and 1 in Z[zeta_7] are never compared as numbers
        assert CyclotomicInt.one(5) != CyclotomicInt.one(7)
        assert not CyclotomicInt.zero(3) == CyclotomicInt.zero(6)

    def test_reduced_is_the_remainder_of_long_division(self):
        rng = random.Random(7)
        for d in range(1, 41):
            phi = cyclotomic_polynomial(d)
            m = len(phi) - 1
            for _ in range(5):
                coeffs = [rng.randint(-20, 20) for _ in range(d)]
                assert CyclotomicInt(d, coeffs).reduced() == long_division_remainder(coeffs, phi, m)

    def test_minimal_polynomial_kills_zeta(self):
        for d in (5, 8, 9, 12):
            z = CyclotomicInt.zeta(d)
            acc = CyclotomicInt.zero(d)
            power = CyclotomicInt.one(d)
            for c in cyclotomic_polynomial(d):
                acc = acc + power * CyclotomicInt.from_int(d, c)
                power = power * z
            assert acc.is_zero()
