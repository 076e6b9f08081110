"""Toric-surface invariants of the generalized classical family."""

import math

import pytest

from gtsystems.actions import Action, _classical_exponents, generalized_classical, invariant_monomials
from gtsystems.surface import (
    betti_table,
    complement_exponents,
    determinantal_generators,
    exponent_polytope_degree,
    polytope_smoothness,
)


class TestPolytopeDegree:
    @pytest.mark.parametrize("d", range(3, 13))
    def test_degree_equals_d(self, d):
        model = exponent_polytope_degree(generalized_classical(d))
        assert model.degree == d
        assert model.normalized_area == model.degree * model.lattice_index

    def test_classical_action_ideal(self):
        model = exponent_polytope_degree(invariant_monomials(Action(5, (0, 1, 2))))
        assert model.degree == 5

    def test_lattice_index_nontrivial_for_odd(self):
        # For odd d the exponent differences span an index-d sublattice, so
        # the normalized hull area overshoots the degree by that factor.
        model = exponent_polytope_degree(invariant_monomials(Action(5, (0, 1, 2))))
        assert model.lattice_index == 5
        assert model.normalized_area == 25


class TestComplementAndSmoothness:
    @pytest.mark.parametrize("d", range(3, 13))
    def test_complement_size(self, d):
        ideal = generalized_classical(d)
        comp = complement_exponents(ideal)
        total = (d + 1) * (d + 2) // 2
        assert len(comp) == total - ideal.mu

    @pytest.mark.parametrize("d,smooth", [(3, True), (5, True), (7, True), (9, True), (11, True), (4, False), (6, False)])
    def test_smoothness_verdicts(self, d, smooth):
        report = polytope_smoothness(generalized_classical(d))
        assert report.smooth == smooth
        if not smooth:
            # even d fails through the boundary-gap/vertex criterion
            assert report.edge_gaps or not report.interior_condition or report.lattice_index != 1


class TestParametrizationAndGenerators:
    @pytest.mark.parametrize("d", range(3, 13))
    def test_parametrization_size(self, d):
        k = d // 2
        monos = _classical_exponents(d)
        assert len(monos) == k + 3
        assert monos[:3] == [(d, 0, 0), (0, d, 0), (0, 0, d)]
        assert monos[3:] == [(i, i, d - 2 * i) for i in range(k, 0, -1)]
        assert set(monos) == set(generalized_classical(d).generators)

    @pytest.mark.parametrize("d", range(3, 13))
    def test_pullbacks_vanish(self, d):
        assert determinantal_generators(d).pullbacks_vanish

    @pytest.mark.parametrize("d", range(3, 13))
    def test_generator_counts(self, d):
        k = d // 2
        gp = determinantal_generators(d)
        if d % 2:
            assert gp.quadric_count == math.comb(k, 2)
            assert gp.cubic_count == k
            assert gp.extra_quadric is None
        else:
            assert gp.quadric_count == 1 + math.comb(k, 2)
            assert gp.cubic_count == 0
            assert gp.extra_quadric is not None

    def test_matrix_shape(self):
        gp = determinantal_generators(9)  # k = 4
        assert len(gp.matrix) == 2
        assert len(gp.matrix[0]) == 5  # k + 1 columns
        assert len(gp.minors) == math.comb(5, 2)
        assert gp.quadric_count + gp.cubic_count == math.comb(5, 2)


class TestBettiTables:
    def test_degree_five_table(self):
        bt = betti_table(5)
        assert bt.rows == ((0, 0, 1), (1, 2, 1), (1, 3, 2), (2, 4, 2))

    @pytest.mark.parametrize("d", range(3, 13))
    def test_alternating_sum_vanishes(self, d):
        assert betti_table(d).alternating_sum() == 0

    @pytest.mark.parametrize("d", range(3, 13))
    def test_h_polynomial_sums_to_degree(self, d):
        # h(1) equals the degree of the embedded surface.
        assert sum(betti_table(d).h_polynomial()) == d

    @pytest.mark.parametrize("d", range(3, 13))
    def test_resolution_length(self, d):
        # The resolution of the coordinate ring has length k = codimension.
        bt = betti_table(d)
        assert bt.length == bt.k
        assert bt.k == d // 2

    def test_odd_table_closed_form(self):
        # For odd d = 2k+1: beta_{i,i+1} = i*C(k, i+1) and
        # beta_{i,i+2} = i*C(k, i) for 1 <= i <= k.
        for d in (5, 7, 9, 11):
            k = d // 2
            bt = betti_table(d)
            got = {(i, j): b for i, j, b in bt.rows if i > 0}
            for i in range(1, k + 1):
                lin = i * math.comb(k, i + 1)
                quad = i * math.comb(k, i)
                if lin:
                    assert got[(i, i + 1)] == lin
                if quad:
                    assert got[(i, i + 2)] == quad
