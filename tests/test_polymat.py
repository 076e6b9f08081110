"""Sparse integer polynomials and exact matrix rank."""

import random
from fractions import Fraction

import pytest

from gtsystems.polymat import SparsePoly, bareiss_rank


def fraction_rank(rows):
    """Independent oracle: Gaussian elimination over Fraction."""
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestSparsePoly:
    def test_monomial_and_coefficient(self):
        p = SparsePoly.monomial(3, (1, 2, 0), 5)
        assert p.coefficient((1, 2, 0)) == 5
        assert p.coefficient((0, 0, 0)) == 0
        assert p.total_degree() == 3

    def test_addition_cancels(self):
        p = SparsePoly.monomial(3, (1, 0, 0), 2)
        q = SparsePoly.monomial(3, (1, 0, 0), -2)
        assert (p + q).is_zero()

    def test_multiplication_matches_expansion(self):
        x = SparsePoly.variable(2, 0)
        y = SparsePoly.variable(2, 1)
        square = (x + y) * (x + y)
        assert square.coefficient((2, 0)) == 1
        assert square.coefficient((1, 1)) == 2
        assert square.coefficient((0, 2)) == 1

    def test_ring_axioms_random(self):
        rng = random.Random(5)

        def rand_poly():
            p = SparsePoly.zero(2)
            for _ in range(rng.randint(1, 4)):
                exp = (rng.randint(0, 3), rng.randint(0, 3))
                p = p + SparsePoly.monomial(2, exp, rng.randint(-4, 4))
            return p

        for _ in range(30):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a * b).terms == (b * a).terms
            assert ((a * b) * c).terms == (a * (b * c)).terms
            assert (a * (b + c)).terms == (a * b + a * c).terms

    def test_support_excludes_zero_coefficients(self):
        p = SparsePoly.monomial(2, (1, 1), 3) + SparsePoly.monomial(2, (1, 1), -3)
        assert p.support() == set()


class TestExactRank:
    def test_identity_and_zero(self):
        assert bareiss_rank([[1, 0], [0, 1]]) == 2
        assert bareiss_rank([[0, 0], [0, 0]]) == 0
        assert bareiss_rank([]) == 0

    def test_rank_one_outer_product(self):
        u = [2, -3, 5]
        v = [7, 1, -4, 9]
        rows = [[a * b for b in v] for a in u]
        assert bareiss_rank(rows) == 1

    def test_dependent_rows(self):
        rows = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]  # row3 = row1 + row2
        assert bareiss_rank(rows) == 2

    def test_rank_unchanged_by_row_scaling(self):
        # Regression guard: the fraction-free update must stay exact when a
        # pivot row is skipped because its leading entry is zero.  Matrices
        # whose entries are far from +-1 exercise the non-unit pivot path.
        rows = [
            [0, -6, -7, 0],
            [-6, 0, 0, -7],
            [0, -12, -14, 0],
            [-7, -6, 0, 0],
        ]
        assert bareiss_rank(rows) == fraction_rank(rows) == 3

    def test_bareiss_agrees_with_fraction_oracle_random(self):
        rng = random.Random(1234)
        for _ in range(250):
            nr = rng.randint(1, 8)
            nc = rng.randint(1, 8)
            lo, hi = rng.choice([(-1, 1), (-9, 9), (0, 1), (-500, 500)])
            rows = [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]
            if nr >= 2 and rng.random() < 0.4:
                k = rng.randint(-3, 3)
                rows[-1] = [k * x for x in rows[0]]
            exact = bareiss_rank(rows)
            assert exact == fraction_rank(rows), rows

    def test_huge_entries_stay_exact(self):
        big = 10**30
        rows = [[big, big + 1], [big - 1, big]]
        # determinant = big^2 - (big+1)(big-1) = 1, so full rank
        assert bareiss_rank(rows) == 2
        rows2 = [[big, big], [big, big]]
        assert bareiss_rank(rows2) == 1
