"""Read-only sparse integer polynomials, the fraction-free step, and the
exact rank oracles that the tests hold the column sweep against."""

import math
import random
from fractions import Fraction

import pytest

from gtsystems import wlp
from gtsystems.actions import Action, GTIdeal, invariant_monomials
from gtsystems.polymat import SparsePoly, fraction_free_step


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
    previous pivot.  The pivot is the remaining entry of least magnitude in
    its column.  m (a list of row lists) is reduced in place to row echelon
    form and the number of pivots returned.  Pivots are taken only among the
    first pivot_cols columns (all by default), so beside the identity the
    rows below the pivots hold the left kernel of the left block."""
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
        # a constant term prints as its magnitude, one included
        assert str(SparsePoly(2, {(1, 0): 1, (0, 0): -1})) == "x0 - 1"
        assert str(SparsePoly(1, {(0,): 1})) == "1"

    def test_one_monomial_renderer(self):
        from gtsystems import actions, polymat

        assert actions.monomial_str is polymat.monomial_str
        ideal = invariant_monomials(Action(7, (0, 1, 3)))
        poly = SparsePoly(3, dict.fromkeys(ideal.generators, 1))
        assert " + ".join(ideal.generator_strings()) == str(poly)


class TestExactRank:
    @pytest.mark.parametrize("rows,rank", [
        ([[1, 0], [0, 1]], 2),
        ([[0, 0], [0, 0]], 0),
        ([], 0),
        # an outer product
        ([[a * b for b in (7, 1, -4, 9)] for a in (2, -3, 5)], 1),
        # row 3 = row 1 + row 2
        ([[1, 2, 3], [4, 5, 6], [5, 7, 9]], 2),
        # entries far from +-1, and a pivot row skipped for its zero lead
        ([[0, -6, -7, 0], [-6, 0, 0, -7], [0, -12, -14, 0], [-7, -6, 0, 0]], 3),
        # determinant big^2 - (big + 1)(big - 1) = 1
        ([[10**30, 10**30 + 1], [10**30 - 1, 10**30]], 2),
        ([[10**30, 10**30], [10**30, 10**30]], 1),
    ])
    def test_oracles_on_hand_made_matrices(self, rows, rank):
        assert bareiss_oracle([list(r) for r in rows]) == fraction_rank(rows) == rank

    def test_fraction_free_step_leaves_rows_primitive(self):
        # pivot 2 in column 0: a row with f there becomes
        # (2/g)*row - (f/g)*pivot row, g = gcd(2, f), over its content
        pivot = [2, 4, 6, 1]
        support = [(j, x) for j, x in enumerate(pivot) if j and x]
        assert fraction_free_step([4, 2, 8, 2], 0, 2, support) == [0, -3, -2, 0]  # content 2
        assert fraction_free_step([6, 0, 0, 4], 0, 2, support) == [0, -12, -18, 1]  # content 1
        # 2*row - 5*pivot row = 0, -10, -20, 5, content 5
        assert fraction_free_step([5, 5, 5, 5], 0, 2, support) == [0, -2, -4, 1]
        # pivot -1: -row - 3*pivot row = 0, -7, 0, 0, content 7
        assert fraction_free_step([3, 1, 0, 0], 0, -1, [(1, 2)]) == [0, -1, 0, 0]

    def test_the_bareiss_oracle_agrees_with_the_fraction_oracle_random(self):
        rng = random.Random(4140)
        for _ in range(300):
            nr, nc = rng.randint(1, 9), rng.randint(1, 7)
            lo, hi = rng.choice([(-1, 1), (-9, 9), (0, 3), (-10**12, 10**12)])
            rows = [[rng.randint(lo, hi) if rng.random() < 0.6 else 0 for _ in range(nc)]
                    for _ in range(nr)]
            if nr >= 3 and rng.random() < 0.5:
                rows[-1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[1])]
            m = [list(r) for r in rows]
            rank = bareiss_oracle(m)
            assert rank == fraction_rank(rows), rows
            # echelon form: zero below the pivots, the row space kept
            assert all(not any(row) for row in m[rank:]), rows
            leads = [next(j for j, x in enumerate(row) if x) for row in m[:rank]]
            assert leads == sorted(set(leads)), rows
            assert fraction_rank(m[:rank] + rows) == rank, rows


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


def signed_binomial_rows(ideal):
    """E^T at x + y + z, built entry by entry: row (i, j, k) holds
    (-1)^k C(k, m) at column j + m."""
    rows = []
    for _, j, k in ideal.generators:
        row = [0] * (ideal.d + 1)
        for m in range(k + 1):
            row[j + m] = (-1) ** k * math.comb(k, m)
        rows.append(row)
    return rows


class TestRestrictionAgainstBareiss:
    """wlp.restriction against the classical Bareiss elimination of E^T
    beside the identity: the same nullity, and for a Togliatti candidate a
    v in the oracle's left kernel, proportional to it with nullity 1."""

    @staticmethod
    def _agree(ideal):
        r = wlp.restriction(ideal)
        rows = signed_binomial_rows(ideal)
        mu, width = len(rows), ideal.d + 1
        candidate = ideal.has_pure_powers() and mu <= width
        if not candidate:
            # only the rank: E itself, d + 1 rows
            assert r.v is None, ideal.generators
            assert r.nullity == mu - bareiss_oracle([list(c) for c in zip(*rows)]), ideal.generators
            return r.nullity
        old = beside_identity(rows)
        nullity = mu - bareiss_oracle(old, width)
        assert r.nullity == nullity, ideal.generators
        if not nullity:
            assert r.v is None, ideal.generators
            return 0
        v, kernel = r.v, [row[width:] for row in old[mu - nullity:]]
        assert any(v) and fraction_rank(kernel + [list(v)]) == nullity, ideal.generators
        if nullity == 1:
            w = kernel[0]
            k = next(i for i, x in enumerate(w) if x)
            assert all(vi * w[k] == wi * v[k] for vi, wi in zip(v, w)), ideal.generators
            # one leftover row keeps its 1; a fraction-free step leaves it primitive
            assert math.gcd(*v) == 1
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

    @pytest.mark.parametrize("d,weights,nullity", [
        # no Togliatti candidates; E has a free column, one without a unit pivot
        (16, (15, 3, 11), 25),
        (90, (1, 31, 61), 1306),
        # outside the paper's family: fraction-free steps at the free columns
        (30, (0, 2, 5), 1), (30, (0, 3, 5), 1),
    ])
    def test_free_columns(self, d, weights, nullity):
        assert self._agree(invariant_monomials(Action(d, weights))) == nullity

    def test_random_ideals(self):
        # ideals without an action, candidates and not; nullity 2 and more
        # and nullity 0 among them
        rng = random.Random(2016)
        seen = {}
        for _ in range(1500):
            d = rng.randint(3, 10)
            monomials = [(d - b - c, b, c) for b in range(d + 1) for c in range(d + 1 - b)]
            gens = rng.sample(monomials, rng.randint(1, min(len(monomials), d + 4)))
            if rng.random() < 0.7:
                gens += [(d, 0, 0), (0, d, 0), (0, 0, d)]
            nullity = self._agree(GTIdeal(d, gens))
            seen[min(nullity, 2)] = seen.get(min(nullity, 2), 0) + 1
        assert sorted(seen) == [0, 1, 2] and min(seen.values()) > 50, seen
