"""Injectivity of multiplication by a linear form, verdicts, and minimality."""

import itertools
import json
import math
import random
from pathlib import Path

import pytest
from polyring import add, mul
from test_circulant import ternary_oracle

from gtsystems import circulant, polymat, wlp
from gtsystems.actions import Action, GTIdeal, invariant_monomials
from gtsystems.circulant import circulant_product
from gtsystems.cli import main
from gtsystems.errors import ConsistencyError
from gtsystems.polymat import SparsePoly, bareiss_rank
from gtsystems.wlp import (
    RANK_REPORT_LIMIT,
    WlpVerdict,
    conjecture_scan,
    kernel_dimension,
    random_scales,
    restriction,
)

# ------------------------------------------------------------------ oracle
# The matrix of multiplication by a linear form from degree j to degree j+1
# of the quotient, on its monomial basis.  It knows nothing of the
# restriction to the line L = 0 that kernel_dimension uses, so it is an
# independent check of it.


def _monomials_of_degree(j):
    return [
        (j - be - ga, be, ga)
        for be in range(j + 1)
        for ga in range(j + 1 - be)
    ]


def _divides(g, m):
    return g[0] <= m[0] and g[1] <= m[1] and g[2] <= m[2]


def quotient_basis(ideal, j):
    """Degree-j monomials outside the ideal, in descending lexicographic order."""
    gens = ideal.generators
    return [
        m for m in sorted(_monomials_of_degree(j), reverse=True)
        if not any(_divides(g, m) for g in gens)
    ]


def multiplication_matrix(ideal, j, coeffs=(1, 1, 1)):
    """Rows indexed by the degree-(j+1) basis, columns by the degree-j basis.

    Returns (rows, source basis, target basis)."""
    src = quotient_basis(ideal, j)
    tgt = quotient_basis(ideal, j + 1)
    index = {m: i for i, m in enumerate(tgt)}
    rows = [[0] * len(src) for _ in tgt]
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for col, m in enumerate(src):
        for c, step in zip(coeffs, steps):
            i = index.get((m[0] + step[0], m[1] + step[1], m[2] + step[2]))
            if i is not None:
                rows[i][col] += c
    return rows, src, tgt


def oracle_rank(ideal, coeffs=(1, 1, 1)):
    """(rank, dim source) of the degree d-1 -> d map by Bareiss."""
    rows, src, _ = multiplication_matrix(ideal, ideal.d - 1, coeffs)
    return bareiss_rank(rows), len(src)


def oracle_kernel(ideal, coeffs=(1, 1, 1)):
    rank, dim_src = oracle_rank(ideal, coeffs)
    return dim_src - rank


def togliatti_oracle(ideal):
    """A Togliatti system: artinian, at most d+1 generators, a nonzero kernel
    by the plain elimination."""
    return ideal.has_pure_powers() and ideal.mu <= ideal.d + 1 and kernel_dimension(ideal) >= 1


def single_removal_oracle(ideal):
    """Minimality by brute force: drop each generator in turn and ask whether
    what is left is still a Togliatti system.  Kernels only grow when
    generators are added, so a Togliatti subset forces a Togliatti subset of
    corank one and single removals suffice.  It runs the restriction rank
    mu + 1 times."""
    gens = ideal.generators
    if not togliatti_oracle(ideal):
        raise ValueError("minimality oracle expects a Togliatti system")
    return not any(togliatti_oracle(GTIdeal(ideal.d, gens[:i] + gens[i + 1:]))
                   for i in range(len(gens)))


def random_togliatti_candidates(rng, count):
    """Seeded GTIdeals holding the three pure powers and at most d+1
    generators in all, for 5 <= d <= 10."""
    for _ in range(count):
        d = rng.randint(5, 10)
        pool = [(d - b - c, b, c) for b in range(d + 1) for c in range(d + 1 - b)
                if d not in (d - b - c, b, c)]
        extra = rng.sample(pool, rng.randint(1, d - 2))
        yield GTIdeal(d, ((d, 0, 0), (0, d, 0), (0, 0, d), *extra))


def faithful_units(d_values):
    """Every faithful (0, a, b) with 0 <= a <= b <= d-1."""
    for d in d_values:
        for a in range(d):
            for b in range(a, d):
                if math.gcd(a, b, d) == 1:
                    yield Action(d, (0, a, b))


# ------------------------------------------------------------------- tests


class TestQuotientStructure:
    def test_artinian_detection(self):
        assert invariant_monomials(Action(5, (0, 1, 2))).has_pure_powers()
        no_z = GTIdeal(3, ((3, 0, 0), (0, 3, 0), (1, 1, 1)))
        assert not no_z.has_pure_powers()

    def test_quotient_basis_counts(self):
        # Below the generation degree nothing is modded out, so the basis of
        # (R/I)_j has the full dimension C(j+2, 2).
        ideal = invariant_monomials(Action(7, (0, 1, 3)))
        for j in range(7):
            assert len(quotient_basis(ideal, j)) == (j + 1) * (j + 2) // 2
        assert len(quotient_basis(ideal, 7)) == 36 - ideal.mu

    def test_rank_plus_kernel_is_source_dimension(self):
        for d, a in ((5, 2), (6, 5), (7, 3)):
            ideal = invariant_monomials(Action(d, (0, 1, a)))
            rank, src = oracle_rank(ideal)
            assert rank + kernel_dimension(ideal) == src


class TestMultiplicationMatrix:
    def test_rank_is_invariant_under_coefficient_scaling(self):
        # Multiplication by c0*x + c1*y + c2*z is conjugate to multiplication
        # by x + y + z on a monomial quotient whenever all ci are nonzero, so
        # the rank must not depend on the coefficient triple.
        ideal = invariant_monomials(Action(5, (0, 1, 2)))
        base, _ = oracle_rank(ideal)
        for coeffs in ((-6, -6, -7), (1, 1, 1), (3, -5, 11), (-1, -3, 8)):
            rows, src, _ = multiplication_matrix(ideal, 4, coeffs)
            assert bareiss_rank(rows) == base, coeffs
            assert kernel_dimension(ideal, coeffs) == len(src) - base, coeffs

    def test_zero_coefficient_drops_rank_or_not(self):
        # Degenerate forms are allowed in the matrix builder; the rank is
        # still computed exactly (here x alone is far from injective).
        ideal = invariant_monomials(Action(5, (0, 1, 2)))
        rows, src, _ = multiplication_matrix(ideal, 4, (1, 0, 0))
        assert bareiss_rank(rows) < len(src)


class TestRestriction:
    FORMS = ((1, 1, 1), (3, -5, 11), (-2, 7, 4))

    def test_kernel_agrees_with_quotient_oracle(self):
        # 284 units, each at x+y+z and at two forms with nonzero coefficients
        for action in faithful_units(range(3, 13)):
            ideal = invariant_monomials(action)
            for coeffs in self.FORMS:
                assert kernel_dimension(ideal, coeffs) == oracle_kernel(ideal, coeffs), (
                    action, coeffs)

    def test_zero_z_coefficient_rejected(self):
        ideal = invariant_monomials(Action(5, (0, 1, 2)))
        with pytest.raises(ValueError):
            kernel_dimension(ideal, (1, 1, 0))

    def test_zero_x_or_y_coefficient_is_still_exact(self):
        # only the z coefficient is divided out on the line
        ideal = invariant_monomials(Action(5, (0, 1, 2)))
        for coeffs in ((0, 1, 1), (1, 0, 1), (0, 0, 1)):
            assert kernel_dimension(ideal, coeffs) == oracle_kernel(ideal, coeffs), coeffs


def _restriction_rows_by_powers(ideal, coeffs):
    """The rows of E^T as wlp built them before it kept the powers: three
    powers taken per entry."""
    al, be, ga = coeffs
    rows = []
    for i, j, k in ideal.generators:
        row = [0] * (ideal.d + 1)
        for m in range(k + 1):
            row[j + m] = ga ** (i + j) * math.comb(k, m) * (-al) ** (k - m) * (-be) ** m
        rows.append(row)
    return rows


def _pool_ideals():
    """The invariant ideal of every request in the benchmark's interactive
    pool (read only)."""
    pool = json.loads((Path(__file__).resolve().parent.parent / "bench" / "expected"
                       / "interactive_pool.json").read_text())
    for argv in pool:
        weights = tuple(int(w) for w in argv[argv.index("--action") + 1].split(","))
        yield invariant_monomials(Action(int(argv[argv.index("--d") + 1]), weights))


def test_random_scales_are_nonzero():
    rng = random.Random(7)
    for _ in range(50):
        scales = random_scales(rng)
        assert len(scales) == 3
        assert all(s != 0 for s in scales)


class TestRestrictionRows:
    def test_rows_equal_the_power_formula_on_the_pool(self):
        rng = random.Random(20261018)
        seen = 0
        for ideal in _pool_ideals():
            for coeffs in ((1, 1, 1), random_scales(rng), random_scales(rng)):
                assert wlp._restriction_rows(ideal, coeffs) == \
                    _restriction_rows_by_powers(ideal, coeffs), (ideal.d, ideal.action, coeffs)
            seen += 1
        assert seen == 180

    @pytest.mark.parametrize("d,coeffs", [(420, (1, 1, 1)), (840, (1, 1, 1)), (420, (2, -3, 5))])
    def test_rows_equal_the_power_formula_at_large_d(self, d, coeffs):
        # outside the paper's family: the rows the elimination runs on
        ideal = invariant_monomials(Action(d, (0, 2, 5)))
        assert wlp._restriction_rows(ideal, coeffs) == _restriction_rows_by_powers(ideal, coeffs)


class TestEliminationLimit:
    def test_every_elimination_refuses_past_it(self):
        # (0, 0, 1) at d = 100000: 100002 generators, 10^10 cells of E
        ideal = invariant_monomials(Action(100000, (0, 0, 1)))
        assert ideal.mu * (ideal.d + 1) > wlp.ELIMINATION_LIMIT
        message = f"size limit of {wlp.ELIMINATION_LIMIT} matrix cells \\(ELIMINATION_LIMIT\\)"
        for route in (kernel_dimension, restriction, lambda i: kernel_dimension(i, (2, -3, 5))):
            with pytest.raises(ValueError, match=message):
                route(ideal)

    def test_the_limit_is_inclusive(self, monkeypatch):
        ideal = invariant_monomials(Action(7, (0, 1, 3)))
        monkeypatch.setattr(wlp, "ELIMINATION_LIMIT", ideal.mu * 8)
        assert restriction(ideal).nullity == 1
        monkeypatch.setattr(wlp, "ELIMINATION_LIMIT", ideal.mu * 8 - 1)
        with pytest.raises(ValueError, match="ELIMINATION_LIMIT"):
            restriction(ideal)

    def test_no_ideal_up_to_the_minimality_limit_is_refused(self):
        # an ideal of degree d has at most the (d+1)(d+2)/2 monomials of degree d
        d = wlp.MINIMALITY_LIMIT
        assert (d + 1) * (d + 2) // 2 * (d + 1) <= wlp.ELIMINATION_LIMIT
        assert kernel_dimension(invariant_monomials(Action(d, (0, 0, 1)))) == 1

    def test_the_interactive_pool_stays_far_below_it(self):
        # at most 3480 cells: the repeated-weight (6, 6, 13) at d = 28, mu = 120
        cells = max(ideal.mu * (ideal.d + 1) for ideal in _pool_ideals())
        assert 1000 * cells < wlp.ELIMINATION_LIMIT


class TestCandidateRule:
    def test_restriction_agrees_with_the_plain_elimination(self):
        # every faithful action with 3 <= d <= 12: only a Togliatti candidate
        # is eliminated beside the identity, and v is kept exactly for the
        # Togliatti systems
        seen = {"actions": 0, "togliatti": 0, "non_candidates": 0}
        for d in range(3, 13):
            for weights in itertools.product(range(d), repeat=3):
                if math.gcd(*weights, d) != 1:
                    continue
                ideal = invariant_monomials(Action(d, weights))
                r = restriction(ideal)
                assert r.nullity == kernel_dimension(ideal), (d, weights)
                assert r.togliatti == togliatti_oracle(ideal), (d, weights)
                assert (r.v is not None) == r.togliatti, (d, weights)
                seen["actions"] += 1
                seen["togliatti"] += r.togliatti
                seen["non_candidates"] += ideal.mu > d + 1
        # every candidate among them is a Togliatti system
        assert seen == {"actions": 5534, "togliatti": 3780, "non_candidates": 1754}, seen


def _shifted_faithful(d, weights):
    a, b, c = weights
    return math.gcd(b - a, c - a, d) == 1


def _unit_difference(d, weights):
    a, b, c = weights
    return any(math.gcd(w, d) == 1 for w in (b - a, c - a, c - b))


class TestUnitPivots:
    """The unit-pivot route against the elimination, which it bypasses."""

    @staticmethod
    def _compare(ideal, decided, eliminated):
        nullity, v = decided
        assert nullity == eliminated.nullity, ideal
        if v is None:
            return
        assert nullity == 1 and any(v), ideal
        if eliminated.v is not None:
            w = eliminated.v
            k = next(i for i, wi in enumerate(w) if wi)
            assert all(vi * w[k] == wi * v[k] for vi, wi in zip(v, w)), ideal
        else:
            assert not wlp._candidate(ideal), ideal

    def test_agrees_with_the_elimination_on_every_small_action(self, monkeypatch):
        # every faithful (a, b, c) with a in {0, 1} and 3 <= d <= 30
        real = wlp._unit_pivots
        monkeypatch.setattr(wlp, "_unit_pivots", lambda ideal: None)
        seen = {"ideals": 0, "decided": 0, "kernel_vectors": 0}
        for d in range(3, 31):
            for weights in itertools.product((0, 1), range(d), range(d)):
                if math.gcd(*weights, d) != 1:
                    continue
                ideal = invariant_monomials(Action(d, weights))
                decided = real(ideal)
                seen["ideals"] += 1
                if _shifted_faithful(d, weights):
                    # exactly the paper's family
                    assert (decided is not None) == _unit_difference(d, weights), (d, weights)
                if decided is None:
                    continue
                self._compare(ideal, decided, restriction(ideal))
                seen["decided"] += 1
                seen["kernel_vectors"] += decided[1] is not None
        assert seen == {"ideals": 17222, "decided": 15950, "kernel_vectors": 13792}, seen

    def test_agrees_with_the_elimination_on_random_ideals(self, monkeypatch):
        # the random Togliatti candidates of TestMinimality, without an action
        real = wlp._unit_pivots
        monkeypatch.setattr(wlp, "_unit_pivots", lambda ideal: None)
        seen = {"decided": 0, "kernel_vectors": 0, "nullity_0": 0}
        for ideal in random_togliatti_candidates(random.Random(2016), 6000):
            decided = real(ideal)
            if decided is None:
                continue
            self._compare(ideal, decided, restriction(ideal))
            seen["decided"] += 1
            seen["kernel_vectors"] += decided[1] is not None
            seen["nullity_0"] += decided[0] == 0
        assert min(seen.values()) > 0, seen

    def test_kernel_dimension_and_restriction_take_it_at_x_plus_y_plus_z_only(
            self, eliminations, pivot_decisions):
        ideal = invariant_monomials(Action(13, (0, 1, 4)))
        assert kernel_dimension(ideal) == restriction(ideal).nullity == 1
        assert len(pivot_decisions) == 2 and eliminations == []
        assert kernel_dimension(ideal, (2, -3, 5)) == 1
        assert len(pivot_decisions) == 2 and len(eliminations) == 1

    @pytest.mark.parametrize("tamper", ["shift", "zero"])
    def test_tampered_kernel_vector_is_caught(self, monkeypatch, tamper):
        real = wlp._substitute

        def tampered(*args):
            v = real(*args)
            if tamper == "shift":
                v[1] += 1
            else:
                v[:] = [0] * len(v)
            return v

        monkeypatch.setattr(wlp, "_substitute", tampered)
        ideal = invariant_monomials(Action(7, (0, 1, 3)))
        for route in (restriction, kernel_dimension):
            with pytest.raises(ConsistencyError, match="not in the kernel of E"):
                route(ideal)

    def test_a_repeated_first_column_taken_as_distinct_exits_2(self, capsys, monkeypatch):
        # the later of two rows with one first column also takes that pivot
        def mutant(generators, key):
            pivot, rest = {}, []
            for n, g in enumerate(generators):
                if g[key] in pivot:
                    rest.append(n)
                pivot[g[key]] = n
            return pivot, rest

        monkeypatch.setattr(wlp, "_first_columns", mutant)
        for argv in (["minimal", "--d", "7", "--action", "0,1,3"],
                     ["gt-verdict", "--d", "13", "--a", "4"]):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and "not in the kernel of E" in err

    def test_past_the_elimination_at_large_d(self, eliminations):
        # (0, 0, 1): the d + 1 columns y^j are covered, nullity mu - d - 1 = 1
        ideal = invariant_monomials(Action(3000, (0, 0, 1)))
        r = restriction(ideal)
        assert (r.route, r.nullity, r.v) == ("unit_pivots", 1, None)
        assert eliminations == []


class TestVerdicts:
    def test_classical_degree_three(self):
        ideal = invariant_monomials(Action(3, (0, 1, 2)))
        v = WlpVerdict.from_nullity(ideal, kernel_dimension(ideal))
        assert v.mu == 4
        assert (v.dim_source, v.dim_target) == (6, 6)
        assert v.rank == 5
        assert v.fails_injectivity and v.generator_bound_ok
        assert v.is_togliatti and v.to_json()["is_gt"]
        assert v.method == "restriction"

    @pytest.mark.parametrize("d,a", [(5, 2), (7, 3), (11, 4), (13, 6)])
    def test_prime_actions_are_gt_systems(self, d, a):
        ideal = invariant_monomials(Action(d, (0, 1, a)))
        v = WlpVerdict.from_nullity(ideal, kernel_dimension(ideal))
        assert v.mu == 3 + (d - 1) // 2
        assert v.fails_injectivity and v.is_togliatti and v.to_json()["is_gt"]

    def test_injectivity_failure_has_corank_exactly_one_for_primes(self):
        for d, a in ((5, 2), (7, 3), (11, 2)):
            ideal = invariant_monomials(Action(d, (0, 1, a)))
            v = WlpVerdict.from_nullity(ideal, kernel_dimension(ideal))
            assert v.rank == v.dim_source - 1

    def test_degenerate_direction_is_not_togliatti(self):
        ideal = invariant_monomials(Action(3, (0, 1, 1)))
        v = WlpVerdict.from_nullity(ideal, kernel_dimension(ideal))
        assert not v.is_togliatti  # mu = 5 exceeds d + 1 = 4

    def test_exact_verdict_above_rank_report_limit(self):
        d = RANK_REPORT_LIMIT + 1
        ideal = invariant_monomials(Action(d, (0, 1, 3)))
        nullity = kernel_dimension(ideal)
        assert nullity == 1
        v = WlpVerdict.from_nullity(ideal, nullity)
        assert v.method == "restriction"
        assert v.rank is None
        assert v.fails_injectivity and v.fails_wlp_at_d_minus_1 and v.is_togliatti

    def test_verdict_above_rank_report_limit_agrees_with_oracle(self):
        d = RANK_REPORT_LIMIT + 1
        for weights in ((0, 1, 3), (0, 1, 1), (0, 0, 1)):
            ideal = invariant_monomials(Action(d, weights))
            v = WlpVerdict.from_nullity(ideal, kernel_dimension(ideal))
            rank, dim_src = oracle_rank(ideal)
            assert v.dim_source == dim_src, weights
            assert v.fails_injectivity == (rank < dim_src), weights
            assert v.fails_wlp_at_d_minus_1 == (rank < min(dim_src, v.dim_target)), weights

    def test_repeated_weight_at_large_d(self):
        # (0, a, a) and (0, 0, c) used to raise above d = 16
        ideal = invariant_monomials(Action(40, (0, 1, 1)))
        v = WlpVerdict.from_nullity(ideal, kernel_dimension(ideal))
        assert v.mu == 42
        assert v.fails_injectivity
        assert v.fails_wlp_at_d_minus_1 is False
        assert not v.is_togliatti  # mu 42 > d + 1
        ideal = invariant_monomials(Action(20, (0, 0, 1)))
        assert WlpVerdict.from_nullity(ideal, kernel_dimension(ideal)).fails_injectivity

    def test_verdict_beyond_product_limit(self):
        # the ternary product stops at d = 128; the verdict does not
        ideal = invariant_monomials(Action(200, (0, 1, 3)))
        nullity = kernel_dimension(ideal)
        assert nullity == 1
        v = WlpVerdict.from_nullity(ideal, nullity)
        assert v.mu == 103
        assert v.fails_injectivity and v.is_togliatti
        assert v.rank is None


class TestMinimality:
    @pytest.mark.parametrize("d,a", [(3, 2), (5, 2), (7, 3), (13, 4), (20, 9)])
    def test_circulant_route(self, d, a):
        ideal = invariant_monomials(Action(d, (0, 1, a)))
        assert circulant_product(d, (0, 1, a)).support() == set(ideal.generators)

    def test_own_weights_agree_with_the_normal_form(self):
        # every faithful action with three distinct weights whose shifted
        # weights (0, a, b) are faithful too: the product at the action's own
        # weights decides minimality and counts membership terms as the
        # normal form does
        actions = 0
        for d in range(3, 11):
            for weights in itertools.product(range(d), repeat=3):
                if math.gcd(*weights, d) != 1 or len(set(weights)) < 3:
                    continue
                _, a, b = Action(d, weights).normalized()
                if math.gcd(a, b, d) != 1:
                    continue
                actions += 1
                ideal = invariant_monomials(Action(d, weights))
                normal = circulant_product(d, (0, a, b))
                normal_ideal = invariant_monomials(Action(d, (0, a, b)))
                assert (circulant_product(d, weights).support() == set(ideal.generators)) == (
                    normal.support() == set(normal_ideal.generators)), weights
                r = restriction(ideal)
                product = r.product if r.product is not None else r.newton_product()
                assert len(product.terms) == len(normal.terms), (d, weights)
        assert actions == 1782

    def test_minimality_route_rejects_equal_weights(self):
        with pytest.raises(ValueError, match="repeated weights"):
            wlp.check_minimality_route(Action(5, (0, 1, 1)))

    @pytest.mark.parametrize("d,a", [(3, 2), (5, 2), (7, 3), (11, 5)])
    def test_subset_oracle_route(self, d, a):
        assert restriction(invariant_monomials(Action(d, (0, 1, a)))).minimal

    def test_subset_oracle_requires_togliatti(self):
        with pytest.raises(ValueError):
            restriction(invariant_monomials(Action(3, (0, 1, 1)))).minimal

    def test_routes_agree(self):
        for d in range(3, 11):
            for a in range(2, d):
                ideal = invariant_monomials(Action(d, (0, 1, a)))
                circ = circulant_product(d, (0, 1, a)).support() == set(ideal.generators)
                r = restriction(ideal)
                if r.togliatti:
                    assert circ == r.minimal, (d, a)

    def test_kernel_vector_route_agrees_with_single_removals(self):
        units = 0
        for action in faithful_units(range(3, 17)):
            r = restriction(invariant_monomials(action))
            if r.togliatti:
                units += 1
                assert r.minimal == single_removal_oracle(r.ideal), action
        assert units == 493

    def test_kernel_vector_route_agrees_on_random_ideals(self):
        rng = random.Random(2016)
        seen = {"togliatti": 0, "minimal": 0, "non_minimal": 0, "nullity_2+": 0}
        for ideal in random_togliatti_candidates(rng, 6000):
            r = restriction(ideal)
            try:
                expected = single_removal_oracle(ideal)
            except ValueError:
                assert not r.togliatti
                with pytest.raises(ValueError):
                    r.minimal
                continue
            assert r.minimal == expected, ideal.generators
            seen["togliatti"] += 1
            seen["minimal" if expected else "non_minimal"] += 1
            seen["nullity_2+"] += r.nullity >= 2
        assert seen["togliatti"] >= 300, seen
        assert min(seen.values()) > 0, seen


@pytest.fixture
def eliminations(monkeypatch):
    """Records the matrix of every call of polymat's elimination loop, whether
    made by wlp directly or through bareiss_rank."""
    calls = []
    real = polymat.bareiss_echelon

    def spy(m, pivot_cols=None):
        calls.append(m)
        return real(m, pivot_cols)

    monkeypatch.setattr(polymat, "bareiss_echelon", spy)
    monkeypatch.setattr(wlp, "bareiss_echelon", spy)
    return calls


@pytest.fixture
def pivot_decisions(monkeypatch):
    """Records the answer of every call of the unit-pivot route, None where
    it left E to the elimination."""
    calls = []
    real = wlp._unit_pivots

    def spy(ideal):
        calls.append(real(ideal))
        return calls[-1]

    monkeypatch.setattr(wlp, "_unit_pivots", spy)
    return calls


@pytest.fixture
def no_unit_pivots(monkeypatch):
    """Forces the elimination: the unit-pivot route decides nothing."""
    monkeypatch.setattr(wlp, "_unit_pivots", lambda ideal: None)


class TestKernelVector:
    @pytest.mark.parametrize("d,weights,route", [
        (3, (0, 1, 2), "unit_pivots"), (7, (0, 1, 3), "unit_pivots"),
        (13, (0, 1, 4), "unit_pivots"), (18, (0, 2, 9), "unit_pivots"),
        (24, (0, 1, 7), "unit_pivots"),
        # no weight difference is a unit mod 30: the pivots leave E to the elimination
        (30, (0, 2, 5), "elimination"), (30, (0, 3, 5), "elimination"),
    ])
    def test_one_restriction_per_call(self, eliminations, pivot_decisions, d, weights, route):
        r = restriction(invariant_monomials(Action(d, weights)))
        assert r.minimal
        assert r.route == route
        assert len(pivot_decisions) == 1
        assert len(eliminations) == (route == "elimination")

    def test_one_elimination_when_the_pivots_are_bypassed(self, eliminations, no_unit_pivots):
        r = restriction(invariant_monomials(Action(7, (0, 1, 3))))
        assert r.minimal and r.route == "elimination"
        assert len(eliminations) == 1

    def test_kernel_vector_is_proportional_to_the_circulant_product(self, eliminations):
        units = 0
        for action in faithful_units(range(3, 17)):
            d, (_, a, b) = action.d, action.weights
            ideal = invariant_monomials(action)
            if not 0 < a < b or kernel_dimension(ideal) != 1:
                continue
            units += 1
            r = restriction(ideal)
            # below d = 30 some weight difference of a faithful (0, a, b) is a unit
            assert r.route == "unit_pivots", action
            v = r.v
            product = circulant_product(d, (0, a, b))
            assert product.support() <= set(ideal.generators), action
            c = [product.coefficient(g) for g in ideal.generators]
            k = next(i for i, ci in enumerate(c) if ci)
            assert v[k], action
            assert all(vi * c[k] == ci * v[k] for vi, ci in zip(v, c)), action
        assert units == 493
        assert eliminations == []

    def test_nullity_two_is_not_minimal_whatever_the_kernel_vector(self, monkeypatch):
        # The last row may hold any kernel vector.  Here the sum of the last
        # two is nonzero at every generator, yet the ideal is not minimal.
        ideal = GTIdeal(6, ((6, 0, 0), (5, 1, 0), (5, 0, 1), (1, 5, 0),
                            (0, 6, 0), (0, 5, 1), (0, 0, 6)))
        assert kernel_dimension(ideal) == 2
        assert not single_removal_oracle(ideal)
        real = polymat.bareiss_echelon

        def summed(m, pivot_cols=None):
            r = real(m, pivot_cols)
            m[-1] = [a + b for a, b in zip(m[-2], m[-1])]
            return r

        monkeypatch.setattr(wlp, "bareiss_echelon", summed)
        assert not restriction(ideal).minimal

    @pytest.mark.parametrize("tamper", ["shift", "zero"])
    def test_tampered_kernel_vector_is_caught(self, monkeypatch, no_unit_pivots, tamper):
        real = polymat.bareiss_echelon

        def tampered(m, pivot_cols=None):
            r = real(m, pivot_cols)
            last = m[-1]
            if tamper == "shift":
                last[pivot_cols] += 1
            else:
                last[pivot_cols:] = [0] * (len(last) - pivot_cols)
            return r

        monkeypatch.setattr(wlp, "bareiss_echelon", tampered)
        with pytest.raises(ConsistencyError):
            restriction(invariant_monomials(Action(7, (0, 1, 3))))


class TestEigenvalueProductFromKernel:
    # With nullity 1 the eigenvalue product is the kernel vector v of E,
    # divided by its x^d entry and signed by (-1)^(a(d-1)).  The elimination
    # depends on the generators only, so one per ideal serves every action
    # that has it.

    def test_equals_the_newton_product_at_the_actions_own_weights(self):
        kernels = {}
        checked = signed = 0
        for d in range(3, 17):
            for weights in itertools.product(range(d), repeat=3):
                if math.gcd(*weights, d) != 1 or len(set(weights)) < 3:
                    continue
                ideal = invariant_monomials(Action(d, weights))
                if ideal.generators not in kernels:
                    kernels[ideal.generators] = restriction(ideal)
                # the same elimination, read for this action's weights
                r = kernels[ideal.generators].replace(ideal=ideal)
                if r.nullity != 1 or not r.togliatti:
                    assert r.product is None
                    continue
                product = r.product
                assert product.terms == circulant_product(d, weights).terms, (d, weights)
                checked += 1
                signed += product.coefficient((d, 0, 0)) == -1
        assert checked == 12468
        assert signed > 0  # odd first weight at even d

    def test_integral_for_every_unit_up_to_40(self):
        kernels = {}
        units = 0
        for action in faithful_units(range(3, 41)):
            _, a, b = action.weights
            if not 0 < a < b:
                continue
            ideal = invariant_monomials(action)
            if ideal.generators not in kernels:
                # raises ConsistencyError on an inexact division
                kernels[ideal.generators] = restriction(ideal).product
            product = kernels[ideal.generators]
            if product is None:
                continue
            units += 1
            assert product.coefficient((action.d, 0, 0)) == 1
            assert all(isinstance(c, int) for c in product.terms.values())
        assert units == 8410

    def test_inexact_division_is_a_consistency_error(self):
        r = restriction(invariant_monomials(Action(7, (0, 1, 3))))
        v = r.v
        assert r.nullity == 1 and r.product is not None
        with pytest.raises(ConsistencyError):
            r.replace(v=(2 * v[0],) + v[1:]).product
        with pytest.raises(ConsistencyError):
            r.replace(v=(0,) + v[1:]).product

    @pytest.mark.parametrize("d", range(3, 15))
    def test_conjugate_factors_lie_in_the_kernel(self, d):
        # The factor j = 0 of the product is x + y + z.  The other d - 1
        # factors, multiplied out over Z[zeta_d] by the rotation oracle, give
        # an integral form of degree d - 1 that times x + y + z is the
        # product, and that multiplication by x + y + z sends into the ideal.
        ell = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
        checked = 0
        for a, b in itertools.combinations(range(1, d), 2):
            if math.gcd(a, b, d) != 1:
                continue
            ideal = invariant_monomials(Action(d, (0, a, b)))
            product = restriction(ideal).product
            if product is None:
                continue
            checked += 1
            cofactor = ternary_oracle(d, a, b, js=range(1, d))
            assert all(isinstance(c, int) for c in cofactor.terms.values()), (d, a, b)
            assert mul(cofactor.terms, ell) == product.terms, (d, a, b)
            rows, src, _ = multiplication_matrix(ideal, d - 1)
            vec = [cofactor.coefficient(m) for m in src]
            assert any(vec)
            assert not any(sum(r * c for r, c in zip(row, vec)) for row in rows), (d, a, b)
        assert checked > 0

    @pytest.mark.parametrize("d,weights", [(3, (0, 1, 2)), (7, (0, 1, 3)), (13, (0, 1, 4)),
                                           (18, (0, 2, 9)), (24, (0, 1, 7))])
    def test_kernel_vector_vanishes_on_the_line(self, d, weights):
        # sum v_i g_i restricted to x + y + z = 0 is the binary form
        # sum v_i g_i(1, t, -1 - t) of degree d; it vanishes at d + 1 points
        r = restriction(invariant_monomials(Action(d, weights)))
        assert r.nullity == 1 and any(r.v)
        for t in range(d + 1):
            value = sum(vi * t ** j * (-1 - t) ** k
                        for vi, (_, j, k) in zip(r.v, r.ideal.generators))
            assert value == 0, (d, weights, t)

    @pytest.mark.parametrize("d,a", [(3, 2), (5, 2), (7, 3), (12, 5), (100, 3)])
    def test_product_support_inside_ideal(self, d, a):
        ideal = invariant_monomials(Action(d, (0, 1, a)))
        product = restriction(ideal).product
        assert product.support() <= set(ideal.generators)
        assert product.terms == circulant_product(d, (0, 1, a)).terms

    def test_works_past_the_ternary_limit(self):
        # the ternary product stops at circulant._TERNARY_LIMIT; the kernel
        # vector does not
        d = 200
        assert d > circulant._TERNARY_LIMIT
        ideal = invariant_monomials(Action(d, (0, 1, 3)))
        product = restriction(ideal).product
        assert product.coefficient((d, 0, 0)) == 1
        assert {sum(e) for e in product.terms} == {d}
        assert product.support() <= set(ideal.generators)

    def test_needs_the_action(self):
        ideal = GTIdeal(3, invariant_monomials(Action(3, (0, 1, 2))).generators)
        r = restriction(ideal)
        assert r.nullity == 1 and r.togliatti
        assert r.product is None

    def test_repeated_weights_have_no_product(self):
        # x^5 and (y, z)^5: mu = 7 > d + 1, no Togliatti system
        assert restriction(invariant_monomials(Action(5, (0, 1, 1)))).product is None

    def test_newton_product_equals_the_kernel_product(self):
        r = restriction(invariant_monomials(Action(7, (0, 1, 3))))
        assert r.nullity == 1
        assert r.newton_product().terms == r.product.terms == circulant_product(7, (0, 1, 3)).terms

    def test_newton_product_stops_at_the_ternary_limit_and_needs_the_action(self, monkeypatch):
        def no_expansion(d, positions):
            raise AssertionError(f"expanded at d = {d}")

        monkeypatch.setattr(wlp, "circulant_product", no_expansion)
        d = circulant._TERNARY_LIMIT + 1
        assert restriction(invariant_monomials(Action(d, (0, 1, 3)))).newton_product() is None
        ideal = GTIdeal(3, invariant_monomials(Action(3, (0, 1, 2))).generators)
        assert restriction(ideal).newton_product() is None

    def test_newton_product_must_stay_in_the_ideal(self):
        # the ideal of (0, 1, 3) mod 7 without x^4 y z^2, which the product has
        ideal = invariant_monomials(Action(7, (0, 1, 3)))
        assert (4, 1, 2) in ideal.generators
        smaller = GTIdeal(7, [g for g in ideal.generators if g != (4, 1, 2)], ideal.action)
        with pytest.raises(ConsistencyError, match="escapes the invariant monomial span"):
            wlp.Restriction(smaller, 2, None, "elimination").newton_product()

    def test_newton_product_is_compared_only_with_nullity_one(self, monkeypatch):
        real = circulant_product
        monkeypatch.setattr(wlp, "circulant_product",
                            lambda d, w: SparsePoly(3, add({}, real(d, w).terms, 2)))
        r = restriction(invariant_monomials(Action(7, (0, 1, 3))))
        with pytest.raises(ConsistencyError, match="disagrees with the kernel vector"):
            r.newton_product()
        # nullity 2: no product is read off v, and nothing is compared
        doubled = r.replace(nullity=2).newton_product()
        assert doubled.terms == {g: 2 * c for g, c in r.product.terms.items()}

    def test_support_must_match_minimality(self):
        # v vanishing at z^d leaves the ideal minimal (pure powers are not
        # read), but the product then misses a generator
        r = restriction(invariant_monomials(Action(7, (0, 1, 3))))
        assert r.ideal.generators[-1] == (0, 0, 7)
        tampered = r.replace(v=r.v[:-1] + (0,))
        assert tampered.minimal
        with pytest.raises(ConsistencyError, match="support"):
            tampered.product


class TestConjectureScan:
    def test_small_range_has_no_counterexamples(self):
        out = conjecture_scan(range(3, 9))
        assert out["findings"] == []
        statuses = {u["status"] for u in out["units"]}
        assert "counterexample" not in statuses
        assert "degenerate_wlp" in statuses  # a == b diagonal cases
        assert "ok" in statuses

    def test_gcd_skips_are_labelled(self):
        out = conjecture_scan([4])
        by_pair = {(u["a"], u["b"]): u["status"] for u in out["units"]}
        assert by_pair[(2, 2)] == "skipped_gcd"

    def test_unit_fields_on_checked_pairs(self):
        out = conjecture_scan([5])
        checked = [u for u in out["units"] if u["status"] == "ok"]
        assert checked
        for u in checked:
            assert u["minimal_circulant"] is True
            assert u["togliatti"] is True

    def test_every_togliatti_unit_gets_both_routes(self):
        # d = 18 has Togliatti units with 16 generators
        out = conjecture_scan([18])
        togliatti = [u for u in out["units"] if u.get("togliatti")]
        assert max(u["mu"] for u in togliatti) == 16
        for u in togliatti:
            assert u["minimal_circulant"] is True
            assert u["minimal_oracle"] is True

    def test_ternary_limit_checked_before_the_first_unit(self, monkeypatch):
        def no_scan(action):
            raise AssertionError(f"scanned {action}")

        monkeypatch.setattr(wlp, "invariant_monomials", no_scan)
        with pytest.raises(ValueError, match=f"d <= {circulant._TERNARY_LIMIT}"):
            conjecture_scan(range(3, circulant._TERNARY_LIMIT + 2))
        with pytest.raises(ValueError):
            conjecture_scan([circulant._TERNARY_LIMIT + 1, 5])

    def test_one_enumeration_and_one_restriction_per_unit(self, eliminations, pivot_decisions,
                                                           monkeypatch):
        enumerations = []
        real = wlp.invariant_monomials

        def spy(action):
            enumerations.append(action)
            return real(action)

        monkeypatch.setattr(wlp, "invariant_monomials", spy)
        out = conjecture_scan(range(3, 13))
        assert sum(u["status"] == "ok" for u in out["units"]) == 196
        assert len(enumerations) == 196
        # every unit below d = 30 is in the paper's family: no elimination
        assert len(pivot_decisions) == 196 and None not in pivot_decisions
        assert eliminations == []

    def test_units_outside_the_family_are_eliminated_once(self, eliminations, pivot_decisions):
        out = conjecture_scan([30])
        units = [u for u in out["units"] if "mu" in u]
        outside = [u for u in units
                   if all(math.gcd(w, 30) > 1 for w in (u["a"], u["b"], u["b"] - u["a"]))]
        assert len(outside) == 24 and out["findings"] == []
        assert len(pivot_decisions) == len(units)
        assert pivot_decisions.count(None) == len(eliminations) == len(outside)

    def test_units_agree_with_the_verdict_and_the_circulant_route(self):
        units = [u for u in conjecture_scan(range(3, 17))["units"] if "mu" in u]
        assert len(units) == 493
        for u in units:
            weights = (0, u["a"], u["b"])
            ideal = invariant_monomials(Action(u["d"], weights))
            verdict = WlpVerdict.from_nullity(ideal, kernel_dimension(ideal))
            assert (u["mu"], u["togliatti"]) == (verdict.mu, verdict.is_togliatti), u
            circ = circulant_product(u["d"], weights).support() == set(ideal.generators)
            assert u["minimal_circulant"] == circ, u
            assert u["minimal_oracle"] == restriction(ideal).minimal, u
