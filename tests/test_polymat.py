"""Read-only sparse integer polynomials and exact matrix rank."""

import math
import random
from fractions import Fraction

import pytest

from gtsystems import wlp
from gtsystems.actions import Action, invariant_monomials
from gtsystems.polymat import SparsePoly, bareiss_echelon, bareiss_rank


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


def bareiss_oracle(m, pivot_cols=None):
    """Independent oracle: the classical fraction-free Bareiss elimination,
    which scales every row below the pivot at every step and divides by the
    previous pivot, with the same pivot rule (least magnitude) and the same
    in-place contract as bareiss_echelon."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    r = 0
    for col in range(nc if pivot_cols is None else pivot_cols):
        pivot_row = -1
        best = None
        for i in range(r, nr):
            v = m[i][col]
            if v and (best is None or abs(v) < best):
                best, pivot_row = abs(v), i
        if pivot_row < 0:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv, mr = m[r][col], m[r]
        for i in range(r + 1, nr):
            mi = m[i]
            f = mi[col]
            for j in range(col, nc):
                q, rem = divmod(mi[j] * piv - f * mr[j], prev)
                assert rem == 0
                mi[j] = q
        prev = piv
        r += 1
        if r == nr:
            break
    return r


def beside_identity(rows):
    return [row + [int(i == j) for j in range(len(rows))] for i, row in enumerate(rows)]


class TestSparsePoly:
    def test_coefficient_and_support(self):
        p = SparsePoly(3, {(1, 2, 0): 5, (0, 0, 3): 0})
        assert p.coefficient((1, 2, 0)) == 5
        assert p.coefficient([0, 0, 0]) == 0
        assert p.support() == {(1, 2, 0)}  # the zero coefficient is dropped

    def test_equality_compares_variable_count_and_terms(self):
        p = SparsePoly(2, {(1, 1): 3})
        assert p == SparsePoly(2, {(1, 1): 3, (2, 0): 0})
        assert p != SparsePoly(2, {(1, 1): 2})
        assert SparsePoly(2) != SparsePoly(3)
        assert p != {(1, 1): 3} and p != 3
        with pytest.raises(TypeError):
            hash(p)

    def test_render_and_json(self):
        p = SparsePoly(3, {(3, 0, 0): 1, (1, 1, 1): -3, (0, 0, 0): 2})
        assert str(p) == "x^3 - 3*xyz + 2"
        assert repr(p) == "SparsePoly(3, x^3 - 3*xyz + 2)"
        assert p.to_json() == [{"exp": [3, 0, 0], "coeff": 1}, {"exp": [1, 1, 1], "coeff": -3},
                               {"exp": [0, 0, 0], "coeff": 2}]
        assert SparsePoly(2, {(0, 1): -1}).render(("s", "t")) == "-t"
        assert SparsePoly(3).render() == "0"


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

    def test_echelon_beside_identity_gives_the_left_kernel(self):
        rng = random.Random(1968)
        for _ in range(200):
            nr, nc = rng.randint(1, 8), rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            if nr >= 2 and rng.random() < 0.5:
                rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
            m = [row + [int(i == j) for j in range(nr)] for i, row in enumerate(rows)]
            rank = bareiss_echelon(m, nc)
            assert rank == fraction_rank(rows), rows
            # the rows below the pivots are zero on the left and independent
            # left-kernel vectors of rows on the right
            kernel = [row[nc:] for row in m[rank:]]
            assert all(not any(row[:nc]) for row in m[rank:]), rows
            for v in kernel:
                assert all(sum(vi * r[c] for vi, r in zip(v, rows)) == 0 for c in range(nc))
            assert fraction_rank(kernel) == nr - rank, rows

    def test_updated_rows_are_primitive_and_untouched_rows_kept(self):
        # pivot 2 in column 0: a row with 0 there is not touched; a row with
        # f becomes (2/g)*row - (f/g)*pivot row, g = gcd(2, f), over its content
        rows = [[2, 4, 6, 1], [0, 3, 5, 7], [4, 2, 8, 2], [6, 0, 0, 4], [5, 5, 5, 5]]
        m = [list(r) for r in rows]
        kept = m[1]
        assert bareiss_echelon(m, 1) == 1
        assert m[0] == rows[0] and m[1] is kept and kept == rows[1]
        assert m[2] == [0, -3, -2, 0]  # row - 2*pivot row = 0, -6, -4, 0, content 2
        assert m[3] == [0, -12, -18, 1]  # row - 3*pivot row, content 1
        assert m[4] == [0, -2, -4, 1]  # 2*row - 5*pivot row = 0, -10, -20, 5, content 5

    def test_agrees_with_the_bareiss_oracle_random(self):
        rng = random.Random(4140)
        for _ in range(300):
            nr, nc = rng.randint(1, 9), rng.randint(1, 7)
            lo, hi = rng.choice([(-1, 1), (-9, 9), (0, 3), (-10**12, 10**12)])
            rows = [[rng.randint(lo, hi) if rng.random() < 0.6 else 0 for _ in range(nc)]
                    for _ in range(nr)]
            if nr >= 3 and rng.random() < 0.5:
                rows[-1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[1])]
            new, old = beside_identity(rows), beside_identity(rows)
            rank = bareiss_echelon(new, nc)
            assert rank == bareiss_oracle(old, nc) == fraction_rank(rows), rows
            kernel_new = [row[nc:] for row in new[rank:]]
            kernel_old = [row[nc:] for row in old[rank:]]
            assert all(not any(row[:nc]) for row in new[rank:]), rows
            # both bottom blocks span the same left kernel
            assert fraction_rank(kernel_new + kernel_old) == nr - rank, rows

    def test_huge_entries_stay_exact(self):
        big = 10**30
        rows = [[big, big + 1], [big - 1, big]]
        # determinant = big^2 - (big+1)(big-1) = 1, so full rank
        assert bareiss_rank(rows) == 2
        rows2 = [[big, big], [big, big]]
        assert bareiss_rank(rows2) == 1


def _candidates(d_values, weights=None):
    """The distinct Togliatti candidates (all pure powers, mu <= d + 1) among
    the invariant ideals of (0, a, b), 1 <= a < b <= d - 1; the elimination
    reads only the generators, so each ideal is eliminated once."""
    seen = {}
    for d in d_values:
        pairs = weights or [(a, b) for a in range(1, d) for b in range(a + 1, d)]
        for a, b in pairs:
            if math.gcd(a, b, d) != 1:
                continue
            ideal = invariant_monomials(Action(d, (0, a, b)))
            if ideal.has_pure_powers() and ideal.mu <= d + 1:
                seen.setdefault(ideal.generators, ideal)
    return list(seen.values())


class TestRestrictionAgainstBareiss:
    """The restriction matrices E^T at x + y + z beside the identity, as
    wlp.restriction eliminates them: the primitive-row engine and the
    Bareiss oracle give the same nullity and proportional kernel vectors v."""

    @staticmethod
    def _agree(ideal):
        rows = wlp._restriction_rows(ideal, (1, 1, 1))
        mu, width = len(rows), ideal.d + 1
        new, old = beside_identity(rows), beside_identity(rows)
        rank = bareiss_echelon(new, width)
        assert rank == bareiss_oracle(old, width), ideal.generators
        nullity = mu - rank
        if nullity == 1:
            v, w = new[-1][width:], old[-1][width:]
            k = next(i for i, x in enumerate(w) if x)
            assert all(vi * w[k] == wi * v[k] for vi, wi in zip(v, w)), ideal.generators
            assert math.gcd(*v) == 1  # the last update left the row primitive
        return nullity

    def test_every_candidate_up_to_40(self):
        ideals = _candidates(range(3, 41))
        assert len(ideals) == 1122
        # every one is a Togliatti system with a one-dimensional kernel
        assert {self._agree(ideal) for ideal in ideals} == {1}

    @pytest.mark.parametrize("d,pairs", [
        (128, [(1, 3), (2, 5), (1, 65), (3, 7)]),
        (256, [(1, 3), (2, 5)]),
    ])
    def test_large_d(self, d, pairs):
        ideals = _candidates([d], pairs)
        assert len(ideals) == len(pairs)
        assert {self._agree(ideal) for ideal in ideals} == {1}
