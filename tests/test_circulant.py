"""Symbolic circulant determinants and the ternary specialization."""

import itertools
import math
import random

import pytest
from polyring import add, mul, variable

from gtsystems import circulant
from gtsystems.actions import Action, invariant_monomials
from gtsystems.circulant import (
    check_ternary_limit,
    circulant_det_symbolic,
    circulant_product,
    coefficient_query,
)
from gtsystems.cyclotomic import CyclotomicInt
from gtsystems.errors import ConsistencyError, SizeLimitError
from gtsystems.polymat import SparsePoly


def rotation_oracle(d, nvars, factors):
    """Independent oracle: expand a product of linear forms over Z[zeta_d].

    Each factor is a list of (variable index, zeta exponent, integer scale)
    triples.  A coefficient is a length-d integer vector in the power basis
    of zeta, so multiplying by scale * zeta^m is a rotation of that vector.
    Every final coefficient must reduce to a rational integer.
    """
    state = {(0,) * nvars: (1,) + (0,) * (d - 1)}
    for factor in factors:
        nxt = {}
        for exp, vec in state.items():
            for var, m, scale in factor:
                if scale == 0:
                    continue
                new_exp = exp[:var] + (exp[var] + 1,) + exp[var + 1:]
                m %= d
                rot = vec[-m:] + vec[:-m] if m else vec
                if scale != 1:
                    rot = tuple(scale * v for v in rot)
                acc = nxt.get(new_exp)
                nxt[new_exp] = rot if acc is None else tuple(x + y for x, y in zip(acc, rot))
        state = {e: v for e, v in nxt.items() if any(v)}
    terms = {}
    for e, vec in state.items():
        reduced = CyclotomicInt(d, vec).reduced()
        assert not any(reduced[1:]), f"coefficient of {e} is no rational integer"
        terms[e] = reduced[0]
    return SparsePoly(nvars, terms)


def ternary_oracle(d, a, b, js=None):
    js = range(d) if js is None else js
    factors = [[(0, 0, 1), (1, a * j, 1), (2, b * j, 1)] for j in js]
    return rotation_oracle(d, 3, factors)


def circulant_det_oracle(d) -> SparsePoly:
    """det Circ(v_0..v_(d-1)) by Laplace cofactor expansion of the symbolic
    matrix: integer arithmetic only, no roots of unity, so an independent
    check of the eigenvalue route."""
    if d > 6:
        raise ValueError("cofactor oracle supported for d <= 6")
    mat = [[variable(d, (j - i) % d) for j in range(d)] for i in range(d)]
    return SparsePoly(d, _laplace_det(mat))


def _laplace_det(mat):
    if len(mat) == 1:
        return mat[0][0]
    total = {}
    for j, entry in enumerate(mat[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total = add(total, mul(entry, _laplace_det(minor)), (-1) ** j)
    return total


def _specialize_ternary(det: SparsePoly, a, b) -> SparsePoly:
    """Set v_0 -> x, v_a -> y, v_b -> z and all other symbols to zero."""
    keep = {0: 0, a: 1, b: 2}
    terms = {}
    for exp, c in det.terms.items():
        if any(p and k not in keep for k, p in enumerate(exp)):
            continue
        new = [0, 0, 0]
        for k, slot in keep.items():
            new[slot] = exp[k]
        terms[tuple(new)] = terms.get(tuple(new), 0) + c
    return SparsePoly(3, terms)


class TestGeneralCirculant:
    @pytest.mark.parametrize("d", range(2, 6))
    def test_eigenvalue_product_equals_laplace_expansion(self, d):
        # The product of the d eigenvalue linear forms must equal the
        # cofactor-expansion determinant of the symbolic circulant matrix.
        assert circulant_det_symbolic(d).terms == circulant_det_oracle(d).terms

    @pytest.mark.parametrize("d", range(3, 7))
    def test_ternary_sections_equal_specialized_laplace_expansion(self, d):
        det = circulant_det_oracle(d)
        for a, b in itertools.combinations(range(1, d), 2):
            assert circulant_product(d, (0, a, b)).terms == _specialize_ternary(det, a, b).terms, (
                d, a, b)

    def test_degree_three_closed_form(self):
        det = circulant_det_symbolic(3)
        expected = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3}
        assert det.terms == expected

    @pytest.mark.parametrize("d", range(2, 8))
    def test_support_obeys_index_sum_congruence(self, d):
        # A monomial v_0^{e_0} ... v_{d-1}^{e_{d-1}} can only appear when
        # sum(i * e_i) = 0 mod d.
        det = circulant_det_symbolic(d)
        assert det.terms
        for exp in det.support():
            assert sum(e for e in exp) == d
            assert sum(i * e for i, e in enumerate(exp)) % d == 0

    @pytest.mark.parametrize("d", range(2, 8))
    def test_a_term_off_the_rule_raises(self, monkeypatch, d):
        # v_0^(d-1) v_1 has index sum 1: the determinant checks every term
        real = circulant.circulant_product
        monkeypatch.setattr(circulant, "circulant_product", lambda n, w: SparsePoly(
            n, add(real(n, w).terms, {(n - 1, 1) + (0,) * (n - 2): 1})))
        with pytest.raises(ConsistencyError, match="violates the index-sum rule"):
            circulant_det_symbolic(d)
        with pytest.raises(ConsistencyError, match="violates the index-sum rule"):
            coefficient_query(d, [0] * d)

    @pytest.mark.parametrize("d", (3, 5, 7))
    def test_all_admissible_coefficients_nonzero_for_small_odd_prime(self, d):
        det = circulant_det_symbolic(d)
        support = det.support()
        for combo in itertools.combinations_with_replacement(range(d), d):
            if sum(combo) % d == 0:
                exp = [0] * d
                for i in combo:
                    exp[i] += 1
                assert tuple(exp) in support, combo

    def test_converse_fails_at_composite_order(self):
        # At d = 6 the admissible index multiset (0,0,1,3,3,5) has coefficient
        # zero, so the congruence condition is necessary but not sufficient.
        assert sum((0, 0, 1, 3, 3, 5)) % 6 == 0
        assert coefficient_query(6, (0, 0, 1, 3, 3, 5)) == 0

    def test_coefficient_query_agrees_with_symbolic(self):
        det = circulant_det_symbolic(5)
        for indices in [(0, 0, 0, 0, 0), (0, 1, 4, 2, 3), (1, 1, 1, 1, 1)]:
            exp = [0] * 5
            for i in indices:
                exp[i] += 1
            assert coefficient_query(5, indices) == det.coefficient(tuple(exp))

    def test_coefficient_query_validates_length(self):
        with pytest.raises(ValueError):
            coefficient_query(5, (0, 1))


class TestTernaryProduct:
    @pytest.mark.parametrize("d", range(3, 16))
    def test_support_equals_invariant_set(self, d):
        for a in range(2, d):
            prod = circulant_product(d, (0, 1, a))
            ideal = invariant_monomials(Action(d, (0, 1, a)))
            assert prod.support() == set(ideal.generators), (d, a)

    def test_classical_case_is_circulant_determinant_specialization(self):
        # Substituting (x, y, z, 0, ..., 0) style variable collapse: for d=3
        # the ternary product IS the 3x3 circulant determinant.
        prod = circulant_product(3, (0, 1, 2))
        det = circulant_det_symbolic(3)
        assert prod.terms == det.terms


class TestNewtonKernelAgainstRotationOracle:
    # circulant_product expands the eigenvalue product over Z by Newton's
    # identities; the oracle multiplies the d factors out over Z[zeta_d].

    @pytest.mark.parametrize("d", range(3, 15))
    def test_every_ternary_section(self, d):
        for a, b in itertools.permutations(range(1, d), 2):
            assert circulant_product(d, (0, a, b)).terms == ternary_oracle(d, a, b).terms, (
                d, a, b)

    @pytest.mark.parametrize("d,a,b", [(40, 1, 3), (40, 7, 11), (40, 4, 20), (64, 1, 3)])
    def test_large_sections(self, d, a, b):
        assert circulant_product(d, (0, a, b)).terms == ternary_oracle(d, a, b).terms

    def test_shifted_weights_change_only_the_sign(self):
        rng = random.Random(7)
        for d in range(3, 12):
            for _ in range(3):
                a, b = rng.sample(range(1, d), 2)
                # the shift of all weights by 1 multiplies the product by
                # zeta^(d(d-1)/2) = (-1)^(d-1)
                got = circulant_product(d, (1, 1 + a, 1 + b))
                sign = (-1) ** (d - 1)
                want = {e: sign * c for e, c in ternary_oracle(d, a, b).terms.items()}
                assert got.terms == want, (d, a, b)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_general_form(self, d):
        factors = [[(k, j * k, 1) for k in range(d)] for j in range(d)]
        assert circulant_det_symbolic(d).terms == rotation_oracle(d, d, factors).terms

    def test_repeated_and_zero_positions(self):
        # positions need not be distinct or nonzero; a common factor g of d
        # and the positions makes the product a g-th power
        for d, positions in ((6, (0, 2, 2)), (8, (0, 0, 3)), (9, (3, 6, 0)), (4, (0, 0, 0))):
            factors = [[(k, j * p, 1) for k, p in enumerate(positions)] for j in range(d)]
            assert circulant_product(d, positions).terms == rotation_oracle(d, 3, factors).terms

    @pytest.mark.parametrize("d", range(2, 13))
    def test_sections_sharing_a_factor_with_d(self, d, monkeypatch):
        # the Newton loop is exact also when d and the positions share a
        # factor g: the product is then a g-th power, which nothing
        # special-cases, and circulant_product does not call itself
        real = circulant.circulant_product
        monkeypatch.setattr(circulant, "circulant_product", lambda *args: pytest.fail("recursed"))
        for a, b in itertools.product(range(d), repeat=2):
            if math.gcd(d, a, b) == 1:
                continue
            assert real(d, (0, a, b)).terms == ternary_oracle(d, a, b).terms, (d, a, b)

    def test_single_variable(self):
        assert circulant_product(5, (2,)).terms == {(5,): 1}

    def test_power_sums_read_the_invariant_exponents(self, monkeypatch):
        # every p_n sums over invariant_exponents(d, positions, n), with the
        # positions as given: negative and >= d alike
        calls = []
        real = circulant.invariant_exponents
        monkeypatch.setattr(circulant, "invariant_exponents",
                            lambda d, w, n: calls.append((d, tuple(w), n)) or real(d, w, n))
        d, positions = 7, (-1, 5, 12)
        factors = [[(k, j * p, 1) for k, p in enumerate(positions)] for j in range(d)]
        assert circulant_product(d, positions).terms == rotation_oracle(d, 3, factors).terms
        assert calls == [(d, positions, n) for n in range(1, d + 1)]
        assert not hasattr(circulant, "_admissible_exponents")


class TestSpecValidation:
    def test_rejects_oversized_general_order(self):
        # d = 1 is invalid input; past GENERAL_LIMIT it is a size limit
        with pytest.raises(ValueError, match="need d >= 2") as info:
            circulant_det_symbolic(1)
        assert not isinstance(info.value, SizeLimitError)
        for d in (circulant.GENERAL_LIMIT + 1, 40):
            with pytest.raises(SizeLimitError) as info:
                circulant_det_symbolic(d)
            assert str(info.value) == (f"the d of the general form is {d}, "
                                       f"past GENERAL_LIMIT = {circulant.GENERAL_LIMIT}")

    def test_coefficient_query_checks_the_general_limit(self, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("expanded above the general limit")

        monkeypatch.setattr(circulant, "circulant_product", no_expansion)
        d = circulant.GENERAL_LIMIT + 1
        with pytest.raises(SizeLimitError, match=f"past GENERAL_LIMIT = {circulant.GENERAL_LIMIT}$"):
            coefficient_query(d, [0] * d)

    @pytest.mark.parametrize("d", [-3, 0, 1, circulant.GENERAL_LIMIT + 1, 100])
    def test_coefficient_query_checks_d_before_the_indices(self, d):
        # the query refuses d as the general form does, whatever the indices
        with pytest.raises(ValueError) as general:
            circulant_det_symbolic(d)
        for indices in ([1], [0] * max(d, 0), [d + 5] * 3):
            with pytest.raises(type(general.value)) as query:
                coefficient_query(d, indices)
            assert str(query.value) == str(general.value)

    def test_ternary_limit(self):
        check_ternary_limit(circulant.TERNARY_LIMIT)
        assert len(circulant_product(circulant.TERNARY_LIMIT, (0, 1, 3)).terms) == 67
        with pytest.raises(SizeLimitError, match=f"past TERNARY_LIMIT = {circulant.TERNARY_LIMIT}$"):
            check_ternary_limit(circulant.TERNARY_LIMIT + 1)

    def test_kernel_rejects_empty_input(self):
        with pytest.raises(ValueError):
            circulant_product(5, ())
        with pytest.raises(ValueError):
            circulant_product(0, (0, 1))
