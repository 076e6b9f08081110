"""Exact projective line arrangements over the d-th cyclotomic field."""

import math
import random

import pytest

from gtsystems.actions import Action, invariant_monomials
from gtsystems.arrangements import (
    build_arrangement,
    certificate_product_membership,
    ceva_configuration,
    cross,
    freeness_diagnostic,
    projective_key,
    proportional,
    random_scales,
    singular_census,
)
from gtsystems.cyclotomic import CyclotomicInt, OrderMismatchError


def zeta_triple(d, exps, scale=1):
    out = []
    for e in exps:
        if e is None:
            out.append(CyclotomicInt.zero(d))
        else:
            v = [0] * d
            v[e % d] = scale
            out.append(CyclotomicInt(d, tuple(v)))
    return tuple(out)


class TestProjectiveKey:
    def test_scaling_by_root_of_unity_preserved(self):
        d = 7
        t1 = zeta_triple(d, (0, 2, 5))
        t2 = zeta_triple(d, (3, 5, 1))  # the same point scaled by zeta^3
        assert projective_key(d, t1) == projective_key(d, t2)

    def test_integer_scaling_preserved(self):
        d = 5
        t1 = zeta_triple(d, (0, 1, 3))
        t2 = zeta_triple(d, (0, 1, 3), scale=-4)
        assert projective_key(d, t1) == projective_key(d, t2)

    def test_distinct_points_separated(self):
        d = 5
        assert projective_key(d, zeta_triple(d, (0, 1, 3))) != projective_key(d, zeta_triple(d, (0, 2, 3)))

    def test_zero_component_handled(self):
        d = 5
        k1 = projective_key(d, zeta_triple(d, (None, 0, 2)))
        k2 = projective_key(d, zeta_triple(d, (None, 3, 0)))  # scaled by zeta^2... zeta^3
        assert k1 == k2

    def test_key_of_cross_is_incidence_invariant(self):
        # The intersection point of two lines does not depend on which scaled
        # representatives of each line are crossed.
        d = 7
        l1 = zeta_triple(d, (0, 1, 3))
        l2 = zeta_triple(d, (0, 2, 6))
        l1s = zeta_triple(d, (2, 3, 5))  # zeta^2 * l1
        p = cross(l1, l2)
        q = cross(l1s, l2)
        assert projective_key(d, p) == projective_key(d, q)
        assert proportional(p, q)

    def test_malformed_triples_are_value_errors(self):
        # input checks, not asserts: they hold under python -O too
        with pytest.raises(ValueError, match="3 coordinates"):
            projective_key(5, (1, 2))
        with pytest.raises(OrderMismatchError):
            projective_key(5, (CyclotomicInt.one(7), 1, 1))
        with pytest.raises(ValueError, match="zero triple"):
            projective_key(5, (0, 0, 0))


class TestArrangementConstruction:
    @pytest.mark.parametrize("kind,d,n", [("ceva", 3, 9), ("ceva", 5, 25), ("hd", 3, 12), ("hd", 6, 39), ("fermat", 4, 12), ("fermat", 8, 24)])
    def test_line_counts(self, kind, d, n):
        assert len(build_arrangement(kind, d).lines) == n

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_arrangement("wiggly", 5)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_ceva_incidence_structure(self, d):
        cert = ceva_configuration(d)
        assert cert.n_lines == d * d
        assert cert.n_points == 3 * d
        assert cert.lines_per_point == d
        assert cert.points_per_line == 3


class TestSingularCensus:
    def test_pairing_identity(self):
        # sum over points of C(multiplicity, 2) must equal C(n_lines, 2).
        for kind, d in (("ceva", 4), ("hd", 5), ("fermat", 6)):
            census = singular_census(build_arrangement(kind, d))
            pairs = sum(b * math.comb(h, 2) for h, b in census.counts)
            assert pairs == math.comb(census.n_lines, 2)

    def test_extended_ceva_3(self):
        census = singular_census(build_arrangement("hd", 3))
        assert dict(census.counts) == {2: 12, 4: 9}

    def test_extended_ceva_4(self):
        census = singular_census(build_arrangement("hd", 4))
        assert dict(census.counts) == {2: 51, 5: 12}

    @pytest.mark.parametrize("d", range(3, 9))
    def test_fermat_census(self, d):
        census = singular_census(build_arrangement("fermat", d))
        expected = {3: 12} if d == 3 else {3: d * d, d: 3}
        assert dict(census.counts) == expected


class TestFreeness:
    def test_extended_ceva_3_exponents(self):
        fr = freeness_diagnostic(singular_census(build_arrangement("hd", 3)))
        assert (fr.c1, fr.c2) == (11, 28)
        assert fr.exponents == (4, 7)

    def test_extended_ceva_4_exponents(self):
        fr = freeness_diagnostic(singular_census(build_arrangement("hd", 4)))
        assert fr.exponents == (9, 9)

    @pytest.mark.parametrize("d,disc", [(5, -75), (6, -288), (7, -735)])
    def test_extended_ceva_necessary_condition_fails(self, d, disc):
        fr = freeness_diagnostic(singular_census(build_arrangement("hd", d)))
        assert fr.exponents is None
        assert fr.discriminant == disc

    @pytest.mark.parametrize("d", range(3, 9))
    def test_fermat_exponents(self, d):
        fr = freeness_diagnostic(singular_census(build_arrangement("fermat", d)))
        assert fr.exponents == (d + 1, 2 * d - 2)
        assert fr.c1 == 3 * d - 1
        assert fr.exponents[0] + fr.exponents[1] == fr.c1
        assert fr.exponents[0] * fr.exponents[1] == fr.c2


class TestMembershipCertificates:
    def test_unit_scales_reproduce_invariant_support(self):
        cert = certificate_product_membership(Action(7, (0, 1, 3)), (1, 1, 1))
        gens = set(invariant_monomials(Action(7, (0, 1, 3))).generators)
        assert cert.product.support() == gens

    def test_random_scales_stay_inside_ideal(self):
        rng = random.Random(424242)
        for d, a in ((5, 2), (7, 3), (9, 5)):
            gens = set(invariant_monomials(Action(d, (0, 1, a))).generators)
            for _ in range(5):
                cert = certificate_product_membership(Action(d, (0, 1, a)), random_scales(rng))
                assert cert.product.support() <= gens
                assert cert.support_size == len(cert.product.support())

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            certificate_product_membership(Action(5, (0, 1, 2)), (1, 0, 1))

    def test_random_scales_are_nonzero(self):
        rng = random.Random(7)
        for _ in range(50):
            scales = random_scales(rng)
            assert len(scales) == 3
            assert all(s != 0 for s in scales)
