"""Toric-surface invariants of the generalized classical family."""

import math
import random

import pytest
from polyring import add, mul, variable

from gtsystems import surface
from gtsystems.actions import Action, _classical_exponents, generalized_classical, invariant_monomials
from gtsystems.errors import ConsistencyError
from gtsystems.polymat import SparsePoly
from gtsystems.surface import (
    SmoothnessReport,
    betti_table,
    complement_exponents,
    determinantal_generators,
    exponent_polytope_degree,
    polytope_smoothness,
)


# ------------------------------------------------------------------ oracles


def presentation_oracle(d):
    """The presentation built symbolically: the 2x2 minors of the odd/even
    matrix, multiplied out as dict polynomials, each pulled back through the
    parametrization by substituting monomials.  Returns (rows, generators,
    pullbacks), the rows and generators as SparsePoly and the pullbacks as
    dicts."""
    k = d // 2
    nv = k + 3
    var = lambda i: variable(nv, i)
    if d % 2:
        row1 = [var(3 + j) for j in range(k - 1)] + [var(k + 2), mul(var(0), var(1))]
        row2 = [var(4 + j) for j in range(k - 1)] + [var(2), mul(var(3), var(3))]
        extra = []
    else:
        row1 = [var(3 + j) for j in range(k - 1)] + [var(k + 2)]
        row2 = [var(4 + j) for j in range(k - 1)] + [var(2)]
        extra = [add(mul(var(0), var(1)), mul(var(3), var(3)), -1)]
    gens = [
        add(mul(row1[i], row2[j]), mul(row2[i], row1[j]), -1)
        for i in range(len(row1))
        for j in range(i + 1, len(row1))
    ] + extra
    params = [{e: 1} for e in _classical_exponents(d)]
    pullbacks = []
    for g in gens:
        out = {}
        for exp, c in g.items():
            term = {(0, 0, 0): c}
            for i, e in enumerate(exp):
                for _ in range(e):
                    term = mul(term, params[i])
            out = add(out, term)
        pullbacks.append(out)
    poly = lambda p: SparsePoly(nv, p)
    return ([*map(poly, row1)], [*map(poly, row2)]), [*map(poly, gens)], pullbacks


def faithful_actions(d_values):
    """Every faithful (0, a, b) with 0 <= a, b <= d-1."""
    for d in d_values:
        for a in range(d):
            for b in range(d):
                if math.gcd(a, b, d) == 1:
                    yield Action(d, (0, a, b))


def smoothness_oracle(ideal):
    """The smoothness report with both edge directions at each vertex taken
    separately, as primitive vectors of the vertex-to-neighbour differences."""
    pts = complement_exponents(ideal)
    hull = surface._convex_hull(pts)
    lattice = surface._Lattice([(p[0] - pts[0][0], p[1] - pts[0][1]) for p in pts])
    n = len(hull)
    gaps, vertices = [], []
    for i in range(n):
        v, w = hull[i], hull[(i + 1) % n]
        step, count = lattice.primitive((w[0] - v[0], w[1] - v[1]))
        edge = [(v[0] + t * step[0], v[1] + t * step[1]) for t in range(1, count)]
        gaps += [q for q in edge if q not in pts]
    for i in range(n):
        v, nxt, prv = hull[i], hull[(i + 1) % n], hull[(i - 1) % n]
        u1, _ = lattice.primitive((nxt[0] - v[0], nxt[1] - v[1]))
        u2, _ = lattice.primitive((prv[0] - v[0], prv[1] - v[1]))
        det = u1[0] * u2[1] - u1[1] * u2[0]
        vertices.append((v, det, abs(det) == lattice.index))
    interior = all(0 not in g for g in ideal.generators if sorted(g) != [0, 0, ideal.d])
    smooth = not gaps and all(ok for _, _, ok in vertices)
    return SmoothnessReport(smooth, lattice.index, tuple(vertices), tuple(gaps), interior)


# -------------------------------------------------------------------- tests


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


class TestGaloisCoveringDegree:
    def test_degree_equals_d_for_every_faithful_action(self):
        # the degree of the Galois covering is the order of the group
        for action in faithful_actions(range(3, 17)):
            model = exponent_polytope_degree(invariant_monomials(action))
            assert model.degree == action.d, action

    def test_smoothness_equals_the_two_directions_oracle(self):
        for action in faithful_actions(range(3, 17)):
            ideal = invariant_monomials(action)
            assert polytope_smoothness(ideal) == smoothness_oracle(ideal), action

    def test_one_primitive_per_hull_edge(self, monkeypatch):
        calls = []
        primitive = surface._Lattice.primitive

        def spy(self, v):
            calls.append(v)
            return primitive(self, v)

        monkeypatch.setattr(surface._Lattice, "primitive", spy)
        for action in faithful_actions(range(3, 17)):
            calls.clear()
            report = polytope_smoothness(invariant_monomials(action))
            # one edge per hull vertex, walked once
            assert len(calls) == len(report.vertices), action


class TestLatticePrimitive:
    def test_largest_lattice_divisor(self):
        # v = n*u with u in the lattice, and no u/m with m > 1 is
        rng = random.Random(11)
        checked = 0
        while checked < 3000:
            gens = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(rng.randint(2, 4))]
            try:
                lattice = surface._Lattice(gens)
            except ValueError:  # rank below 2
                continue
            coeffs = [rng.randint(-6, 6) for _ in gens]
            v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(2))
            if v == (0, 0):
                continue
            u, n = lattice.primitive(v)
            assert (n * u[0], n * u[1]) == v and lattice.contains(u), (gens, v)
            g = math.gcd(*u)
            for m in range(2, g + 1):
                if g % m == 0:
                    assert not lattice.contains((u[0] // m, u[1] // m)), (gens, v, m)
            checked += 1

    def test_errors(self):
        lattice = surface._Lattice([(2, 0), (0, 3)])
        assert lattice.primitive((4, -6)) == ((2, -3), 2)
        with pytest.raises(ValueError, match="zero vector has no primitive direction"):
            lattice.primitive((0, 0))
        with pytest.raises(ConsistencyError, match="vector not in its own lattice"):
            lattice.primitive((1, 0))


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

    def test_equals_the_symbolic_oracle(self):
        for d in range(3, 41):
            (row1, row2), gens, pullbacks = presentation_oracle(d)
            gp = determinantal_generators(d)
            names = tuple(f"x{i}" for i in range(d // 2 + 3))
            assert gp.generator_strings() == [g.render(names) for g in gens], d
            assert gp.matrix == (tuple(row1), tuple(row2)), d
            degrees = [{sum(e) for e in g.terms} for g in gens]
            assert gp.quadric_count == degrees.count({2}), d
            assert gp.cubic_count == degrees.count({3}), d
            assert not any(pullbacks), d

    @pytest.mark.parametrize("d", [5, 6, 9])
    def test_wrong_parametrization_is_a_consistency_error(self, d, monkeypatch):
        params = _classical_exponents(d)
        params[2], params[3] = params[3], params[2]
        monkeypatch.setattr(surface, "_classical_exponents", lambda _: params)
        with pytest.raises(ConsistencyError, match=f"pullback .* nonzero at d={d}"):
            determinantal_generators(d)

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
        assert max(i for i, _, _ in bt.rows) == bt.k
        assert bt.k == d // 2

    def test_odd_table_closed_form(self):
        # For odd d = 2k+1: beta_{i,i+1} = i*C(k, i+1) and
        # beta_{i,i+2} = i*C(k, i) for 1 <= i <= k.
        for d in range(3, 42, 2):
            k = d // 2
            want = {}
            for i in range(1, k + 1):
                want[(i, i + 1)] = i * math.comb(k, i + 1)
                want[(i, i + 2)] = i * math.comb(k, i)
            got = {(i, j): b for i, j, b in betti_table(d).rows if i > 0}
            assert got == {key: b for key, b in want.items() if b}, d

    def test_even_table_closed_form(self):
        # The mapping cone for even d = 2k: beta_{1,2} = 1 + C(k, 2), and
        # for 2 <= i <= k, beta_{i,i+1} = i*C(k, i+1) and
        # beta_{i,i+2} = (i-1)*C(k, i).
        for d in range(4, 41, 2):
            k = d // 2
            want = {(1, 2): 1 + math.comb(k, 2)}
            for i in range(2, k + 1):
                want[(i, i + 1)] = i * math.comb(k, i + 1)
                want[(i, i + 2)] = (i - 1) * math.comb(k, i)
            got = {(i, j): b for i, j, b in betti_table(d).rows if i > 0}
            assert got == {key: b for key, b in want.items() if b}, d


class TestClassicalSuite:
    @pytest.mark.parametrize("d", surface._SURFACE_RANGE)
    def test_suite_is_the_four_results(self, d):
        suite = surface.classical_suite(d)
        ideal = generalized_classical(d)
        assert suite == surface.ClassicalSuite(
            ideal, exponent_polytope_degree(ideal), polytope_smoothness(ideal),
            determinantal_generators(d), betti_table(d),
        )
        assert surface.classical_suite(d) == suite
        with pytest.raises(AttributeError):
            suite.betti = None

    def test_refuses_every_d_outside_the_range(self):
        lo, hi = surface._SURFACE_RANGE[0], surface._SURFACE_RANGE[-1]
        refused = []
        for d in range(-1, 21):
            try:
                surface.classical_suite(d)
            except ValueError as exc:
                assert str(exc) == f"the surface suite is supported for {lo} <= d <= {hi}"
                refused.append(d)
        assert refused == [d for d in range(-1, 21) if d not in surface._SURFACE_RANGE]
