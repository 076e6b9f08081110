"""Acceptance suite: ten exact, tolerance-free criteria covering the full
library surface.  Each test prints one pass/fail summary line (via the
conftest terminal hook) and asserts exact equality -- no tolerances anywhere.
"""

import itertools
import math
from contextlib import contextmanager

from conftest import ACCEPTANCE_RESULTS
from test_circulant import circulant_det_oracle

import gtsystems as g
from gtsystems.circulant import circulant_det_symbolic, circulant_product, coefficient_query
from gtsystems.classification import class_count_formulas, classify_moves, prime_and_primepower_counts
from gtsystems.primes import is_prime
from gtsystems.wlp import WlpVerdict, restriction


@contextmanager
def criterion(num, desc):
    ok = False
    try:
        yield
        ok = True
    finally:
        ACCEPTANCE_RESULTS.append((num, ok, desc))


PRIMES_TO_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_criterion_01_classical_degree_three():
    with criterion(1, "d=3 classical system: generators, rank 5 of 6, minimal"):
        action = g.Action(3, (0, 1, 2))
        ideal = g.invariant_monomials(action)
        assert set(ideal.generators) == {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
        verdict = WlpVerdict.of(action)
        assert verdict.rank == 5
        assert verdict.dim_source == 6
        assert verdict.fails_injectivity
        assert verdict.to_json()["is_gt"]
        assert circulant_product(3, (0, 1, 2)).support() == set(ideal.generators)
        assert restriction(ideal).minimal


def test_criterion_02_prime_generator_counts():
    with criterion(2, "primes 5..31: mu = 3+(d-1)/2 and mixed generators use all three variables"):
        for d in PRIMES_TO_31:
            for a in range(2, d):
                ideal = g.invariant_monomials(g.Action(d, (0, 1, a)))
                assert ideal.mu == 3 + (d - 1) // 2, (d, a, ideal.mu)
                for m in ideal.generators:
                    if d not in m:
                        assert all(e > 0 for e in m), (d, a, m)


def test_criterion_03_class_partitions_and_counts():
    with criterion(3, "reference partitions d in {5,7,11,13,17}; closed-form class counts for primes <= 97 and prime powers"):
        reference = {
            5: {(2, 3, 4)},
            7: {(2, 4, 6), (3, 5)},
            11: {(2, 6, 10), (3, 4, 5, 7, 8, 9)},
            13: {(2, 7, 12), (4, 10), (3, 5, 6, 8, 9, 11)},
            17: {(2, 9, 16), (3, 6, 8, 10, 12, 15), (4, 5, 7, 11, 13, 14)},
        }
        for d, expected in reference.items():
            got = {tuple(sorted(members)) for members, _kind in classify_moves(d).classes}
            assert got == expected, (d, got)
        for d in range(5, 98):
            if is_prime(d):
                assert prime_and_primepower_counts(d) == len(classify_moves(d).classes), d
        prime_power_counts = {4: 1, 8: 3, 16: 5, 32: 9, 9: 2, 27: 6, 25: 5, 49: 10}
        for d, expected_count in prime_power_counts.items():
            assert prime_and_primepower_counts(d) == expected_count, d
            assert len(classify_moves(d).classes) == expected_count, d


def test_criterion_04_formula_versus_oracle():
    with criterion(4, "oracle count identity for 5<=d<=200; published formulas at d=825,42,210; mismatches surface as findings"):
        for d in range(5, 201):
            report = class_count_formulas(d)
            o = report.oracle
            n2 = o.N21 + o.N22 + o.N23
            assert 2 * n2 + 3 * o.N3 + 4 * o.N4 + 6 * o.N6 == d - 2, (d, o)
            # a finding is recorded exactly when formula and oracle disagree
            assert bool(report.findings) == (report.formula != report.oracle), d
        pins = {825: (1, 86, 129, 22), 42: (0, 12, 4, 0), 210: (0, 64, 20, 0)}
        for d, (n3, n2, n4, n6) in pins.items():
            f = class_count_formulas(d).formula
            assert (f.N3, f.N21 + f.N22 + f.N23, f.N4, f.N6) == (n3, n2, n4, n6), d


def test_criterion_05_composite_generator_bound():
    with criterion(5, "mu >= floor(d/2)+3 for squarefree-composite-like d <= 60; power-of-two special values"):
        def distinct_primes(n):
            out, m, p = set(), n, 2
            while p * p <= m:
                while m % p == 0:
                    out.add(p)
                    m //= p
                p += 1
            if m > 1:
                out.add(m)
            return out

        for d in range(4, 61):
            if is_prime(d) or len(distinct_primes(d)) < 2:
                continue
            for a in range(2, d):
                ideal = g.invariant_monomials(g.Action(d, (0, 1, a)))
                assert ideal.mu >= d // 2 + 3, (d, a, ideal.mu)
        assert g.invariant_monomials(g.Action(8, (0, 1, 5))).mu == 8
        assert g.invariant_monomials(g.Action(16, (0, 1, 9))).mu == 14
        for d in (8, 16, 32):
            assert g.invariant_monomials(g.Action(d, (0, 1, d // 2 + 1))).mu == 3 * d // 4 + 2, d


def test_criterion_06_circulant_suite():
    with criterion(6, "circulant coefficients: congruence support, nonzero for d in {3,5,7}, the d=6 exception, two determinant engines agree"):
        for d in range(2, 8):
            det = circulant_det_symbolic(d)
            assert det.terms
            for exp in det.support():
                assert sum(i * e for i, e in enumerate(exp)) % d == 0, (d, exp)
        for d in (3, 5, 7):
            support = circulant_det_symbolic(d).support()
            for combo in itertools.combinations_with_replacement(range(d), d):
                if sum(combo) % d == 0:
                    exp = [0] * d
                    for i in combo:
                        exp[i] += 1
                    assert tuple(exp) in support, (d, combo)
        assert coefficient_query(6, (0, 0, 1, 3, 3, 5)) == 0
        for d in range(2, 6):
            assert circulant_det_symbolic(d).terms == circulant_det_oracle(d).terms, d


def test_criterion_07_product_support_and_minimality():
    with criterion(7, "product support equals invariant set for d <= 30; the kernel-vector subset oracle confirms minimality for d <= 13"):
        for d in range(3, 31):
            for a in range(2, d):
                prod = circulant_product(d, (0, 1, a))
                ideal = g.invariant_monomials(g.Action(d, (0, 1, a)))
                assert prod.support() == set(ideal.generators), (d, a)
        for d in range(3, 14):
            for a in range(2, d):
                r = restriction(g.invariant_monomials(g.Action(d, (0, 1, a))))
                if r.togliatti:
                    assert r.minimal, (d, a)


def test_criterion_08_exceptional_action_order_42():
    with criterion(8, "d=42, weights (0,3,7): the nine two-variable monomials; inequivalent to every single-parameter action"):
        ideal = g.invariant_monomials(g.Action(42, (0, 3, 7)))
        two_variable = {m for m in ideal.generators if sum(1 for e in m if e) == 2}
        assert two_variable == {
            (36, 0, 6), (30, 0, 12), (24, 0, 18), (18, 0, 24), (12, 0, 30), (6, 0, 36),
            (28, 14, 0), (14, 28, 0), (0, 21, 21),
        }
        # single-parameter actions never produce a proper monomial in x and y only
        for a in range(2, 42):
            for m in g.invariant_monomials(g.Action(42, (0, 1, a))).generators:
                assert not (m[2] == 0 and m[0] > 0 and m[1] > 0), (a, m)
        # and none of them is coordinate-permutation equivalent to this ideal
        gens = set(ideal.generators)
        for a in range(1, 42):
            other = set(g.invariant_monomials(g.Action(42, (0, 1, a))).generators)
            if len(other) != len(gens):
                continue
            for perm in itertools.permutations(range(3)):
                assert {tuple(m[p] for p in perm) for m in other} != gens, (a, perm)


def test_criterion_09_surface_suite():
    with criterion(9, "surface degree d, vanishing pullbacks, generator counts, Betti checks for 3<=d<=12; smoothness verdicts"):
        for d in range(3, 13):
            k = d // 2
            ideal = g.generalized_classical(d)
            assert g.exponent_polytope_degree(ideal).degree == d, d
            gp = g.determinantal_generators(d)
            assert gp.pullbacks_vanish, d
            if d % 2:
                assert (gp.quadric_count, gp.cubic_count) == (math.comb(k, 2), k), d
            else:
                assert (gp.quadric_count, gp.cubic_count) == (1 + math.comb(k, 2), 0), d
            table = g.betti_table(d)
            assert table.alternating_sum() == 0, d
            assert sum(table.h_polynomial()) == d, d
        for d in (5, 7, 9, 11):
            assert g.polytope_smoothness(g.generalized_classical(d)).smooth, d
        for d in (4, 6):
            assert not g.polytope_smoothness(g.generalized_classical(d)).smooth, d


def test_criterion_10_arrangement_suite():
    with criterion(10, "Ceva incidences 3<=d<=8; extended censuses and exponents; Fermat family; eigenvalue products inside the ideal"):
        for d in range(3, 9):
            cert = g.ceva_configuration(d)
            assert (cert.n_lines, cert.n_points, cert.lines_per_point, cert.points_per_line) == (d * d, 3 * d, d, 3), d
        census3 = g.singular_census(g.build_arrangement("hd", 3))
        assert dict(census3.counts)[4] == 9
        assert g.freeness_diagnostic(census3).exponents == (4, 7)
        census4 = g.singular_census(g.build_arrangement("hd", 4))
        assert dict(census4.counts)[5] == 12
        assert g.freeness_diagnostic(census4).exponents == (9, 9)
        for d in (5, 6, 7):
            diag = g.freeness_diagnostic(g.singular_census(g.build_arrangement("hd", d)))
            assert diag.exponents is None, d
        for d in range(3, 9):
            census = g.singular_census(g.build_arrangement("fermat", d))
            expected = {3: 12} if d == 3 else {3: d * d, d: 3}
            assert dict(census.counts) == expected, d
            assert g.freeness_diagnostic(census).exponents == (d + 1, 2 * d - 2), d
        for d in range(3, 10):
            for a in range(2, d):
                ideal = g.invariant_monomials(g.Action(d, (0, 1, a)))
                # the Newton product, checked against the kernel vector
                assert restriction(ideal).newton_product().support() <= set(ideal.generators), (d, a)
