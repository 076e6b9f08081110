"""Injectivity of multiplication by a linear form, verdicts, and minimality."""

import math

import pytest

from gtsystems.actions import Action, GTIdeal, invariant_monomials
from gtsystems.circulant import ternary_product
from gtsystems.polymat import bareiss_rank
from gtsystems.wlp import (
    RANK_REPORT_LIMIT,
    conjecture_scan,
    gt_verdict,
    is_artinian,
    kernel_certificate,
    kernel_dimension,
    minimality_circulant,
    minimality_subset_oracle,
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
        assert is_artinian(invariant_monomials(Action(5, (0, 1, 2))))
        no_z = GTIdeal(3, ((3, 0, 0), (0, 3, 0), (1, 1, 1)))
        assert not is_artinian(no_z)

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


class TestVerdicts:
    def test_classical_degree_three(self):
        v = gt_verdict(Action(3, (0, 1, 2)))
        assert v.mu == 4
        assert (v.dim_source, v.dim_target) == (6, 6)
        assert v.rank == 5
        assert v.fails_injectivity and v.generator_bound_ok
        assert v.is_togliatti and v.is_gt
        assert v.method == "restriction"

    @pytest.mark.parametrize("d,a", [(5, 2), (7, 3), (11, 4), (13, 6)])
    def test_prime_actions_are_gt_systems(self, d, a):
        v = gt_verdict(Action(d, (0, 1, a)))
        assert v.mu == 3 + (d - 1) // 2
        assert v.fails_injectivity and v.is_togliatti and v.is_gt

    def test_injectivity_failure_has_corank_exactly_one_for_primes(self):
        for d, a in ((5, 2), (7, 3), (11, 2)):
            v = gt_verdict(Action(d, (0, 1, a)))
            assert v.rank == v.dim_source - 1

    def test_degenerate_direction_is_not_togliatti(self):
        v = gt_verdict(Action(3, (0, 1, 1)))
        assert not v.is_togliatti  # mu = 5 exceeds d + 1 = 4

    def test_exact_verdict_above_rank_report_limit(self):
        d = RANK_REPORT_LIMIT + 1
        v = gt_verdict(Action(d, (0, 1, 3)))
        assert v.method == "restriction"
        assert v.rank is None
        assert v.fails_injectivity and v.fails_wlp_at_d_minus_1 and v.is_togliatti
        assert kernel_dimension(invariant_monomials(Action(d, (0, 1, 3)))) == 1

    def test_verdict_above_rank_report_limit_agrees_with_oracle(self):
        d = RANK_REPORT_LIMIT + 1
        for weights in ((0, 1, 3), (0, 1, 1), (0, 0, 1)):
            action = Action(d, weights)
            v = gt_verdict(action)
            rank, dim_src = oracle_rank(invariant_monomials(action))
            assert v.dim_source == dim_src, weights
            assert v.fails_injectivity == (rank < dim_src), weights
            assert v.fails_wlp_at_d_minus_1 == (rank < min(dim_src, v.dim_target)), weights

    def test_repeated_weight_at_large_d(self):
        # (0, a, a) and (0, 0, c) used to raise above d = 16
        v = gt_verdict(Action(40, (0, 1, 1)))
        assert v.mu == 42
        assert v.fails_injectivity
        assert v.fails_wlp_at_d_minus_1 is False
        assert not v.is_togliatti  # mu 42 > d + 1
        assert gt_verdict(Action(20, (0, 0, 1))).fails_injectivity

    def test_verdict_beyond_product_limit(self):
        # the ternary product stops at d = 64; the verdict does not
        v = gt_verdict(Action(100, (0, 1, 3)))
        assert v.mu == 53
        assert v.fails_injectivity and v.is_togliatti
        assert v.rank is None
        assert kernel_dimension(invariant_monomials(Action(100, (0, 1, 3)))) == 1


class TestKernelCertificate:
    @pytest.mark.parametrize("d,a", [(3, 2), (5, 2), (7, 3), (12, 5)])
    def test_product_support_inside_ideal(self, d, a):
        cert = kernel_certificate(Action(d, (0, 1, a)))
        gens = set(invariant_monomials(Action(d, (0, 1, a))).generators)
        assert cert.product.support() <= gens
        assert not cert.cofactor.is_zero()
        assert cert.product.terms == ternary_product(d, 1, a).terms

    def test_cofactor_really_lies_in_kernel(self):
        # Reduce the cofactor into the degree-(d-1) quotient basis and apply
        # the multiplication matrix: the image must be zero mod the ideal.
        d, a = 5, 2
        ideal = invariant_monomials(Action(d, (0, 1, a)))
        cert = kernel_certificate(Action(d, (0, 1, a)))
        cof = cert.cofactor.to_integer_poly()
        src = quotient_basis(ideal, d - 1)
        tgt = quotient_basis(ideal, d)
        tgt_index = {m: i for i, m in enumerate(tgt)}
        vec = [cof.coefficient(m) for m in src]
        assert any(vec)
        rows, _, _ = multiplication_matrix(ideal, d - 1)
        image = [sum(rows[i][j] * vec[j] for j in range(len(src))) for i in range(len(tgt))]
        assert not any(image), image
        assert len(tgt_index) == len(tgt)

    def test_repeated_weights_rejected(self):
        with pytest.raises(ValueError):
            kernel_certificate(Action(5, (0, 1, 1)))


class TestMinimality:
    @pytest.mark.parametrize("d,a", [(3, 2), (5, 2), (7, 3), (13, 4), (20, 9)])
    def test_circulant_route(self, d, a):
        assert minimality_circulant(Action(d, (0, 1, a)))

    def test_circulant_route_rejects_equal_weights(self):
        with pytest.raises(ValueError):
            minimality_circulant(Action(5, (0, 1, 1)))

    @pytest.mark.parametrize("d,a", [(3, 2), (5, 2), (7, 3), (11, 5)])
    def test_subset_oracle_route(self, d, a):
        assert minimality_subset_oracle(invariant_monomials(Action(d, (0, 1, a))))

    def test_subset_oracle_requires_togliatti(self):
        with pytest.raises(ValueError):
            minimality_subset_oracle(invariant_monomials(Action(3, (0, 1, 1))))

    def test_routes_agree(self):
        for d in range(3, 11):
            for a in range(2, d):
                act = Action(d, (0, 1, a))
                circ = minimality_circulant(act)
                if gt_verdict(act).is_togliatti:
                    assert circ == minimality_subset_oracle(invariant_monomials(act)), (d, a)


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
