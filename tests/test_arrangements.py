"""Exact projective line arrangements over the d-th cyclotomic field.

The canonical projective key below is the census oracle: the key-based census
dedupes the pair intersections by key and recounts each point's lines, an
independent route to the line-set census in the library.
"""

import math
import random

import pytest

from gtsystems import arrangements
from gtsystems.arrangements import (
    Arrangement,
    CensusReport,
    build_arrangement,
    ceva_configuration,
    cross,
    freeness_diagnostic,
    singular_census,
)
from gtsystems.cyclotomic import CyclotomicInt, OrderMismatchError
from gtsystems.errors import ConsistencyError, SizeLimitError


def substitute_power(a, k):
    """The Galois conjugate of a under zeta -> zeta^k."""
    d = a.order
    out = [0] * d
    for i, c in enumerate(a.coeffs):
        if c:
            out[(i * k) % d] += c
    return CyclotomicInt(d, out)


def _coerce(d, value):
    if isinstance(value, CyclotomicInt):
        if value.order != d:
            raise OrderMismatchError(f"coordinate lies in Z[zeta_{value.order}], not Z[zeta_{d}]")
        return value
    return CyclotomicInt.from_int(d, value)


def _triple(d, coords):
    t = tuple(_coerce(d, v) for v in coords)
    if len(t) != 3:
        raise ValueError(f"a projective triple needs 3 coordinates, got {len(t)}")
    if all(v.is_zero() for v in t):
        raise ValueError("zero triple is not a projective point")
    return t


def proportional(u, v):
    """Projective equality through vanishing of all 2x2 minors."""
    return all(c.is_zero() for c in cross(u, v))


def projective_key(d, triple):
    """Canonical hashable form of a triple up to scaling by Q(zeta_d): the
    triple times the Galois conjugates of its pivot has a rational integer
    pivot, and its integer coefficient vectors are divided by their content
    and sign-normalized."""
    t = _triple(d, triple)
    pivot = next(v for v in t if not v.is_zero())
    adj = CyclotomicInt.from_int(d, 1)
    for k in range(2, d):
        if math.gcd(k, d) == 1:
            adj = adj * substitute_power(pivot, k)
    vecs = []
    for v in t:
        red = list((v * adj).reduced())
        red += [0] * (d - len(red))
        vecs.append(red)
    content = math.gcd(*(abs(c) for vec in vecs for c in vec))
    pivot_vec = vecs[t.index(pivot)]
    # pivot * adj is the field norm of the pivot, a nonzero rational integer
    assert content and pivot_vec[0] and not any(pivot_vec[1:])
    sign = 1 if pivot_vec[0] > 0 else -1
    return tuple(tuple(sign * c // content for c in vec) for vec in vecs)


def _census_by_keys(arr):
    """Census oracle: dedupe the pair intersections by projective key, then
    count the lines through each point."""
    d, lines = arr.d, arr.lines
    seen = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = cross(lines[i], lines[j])
            seen.setdefault(projective_key(d, p), p)
    counts = {}
    for p in seen.values():
        mult = sum(1 for ln in lines if (ln[0] * p[0] + ln[1] * p[1] + ln[2] * p[2]).is_zero())
        assert mult >= 2
        counts[mult] = counts.get(mult, 0) + 1
    return CensusReport(arr.name, d, arr.n_lines, tuple(sorted(counts.items())))


def zeta_triple(d, exps, scale=1):
    out = []
    for e in exps:
        if e is None:
            out.append(CyclotomicInt.from_int(d, 0))
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
            projective_key(5, (CyclotomicInt.from_int(7, 1), 1, 1))
        with pytest.raises(ValueError, match="zero triple"):
            projective_key(5, (0, 0, 0))


class TestSubstitutePower:
    def test_substitute_power_is_ring_map(self):
        rng = random.Random(7)
        d = 7
        for k in (2, 3, 5):
            for _ in range(20):
                a = CyclotomicInt(d, tuple(rng.randint(-5, 5) for _ in range(d)))
                b = CyclotomicInt(d, tuple(rng.randint(-5, 5) for _ in range(d)))
                assert substitute_power(a * b, k) == substitute_power(a, k) * substitute_power(b, k)
                assert substitute_power(a + b, k) == substitute_power(a, k) + substitute_power(b, k)

    def test_substitute_power_inverse(self):
        d = 11
        rng = random.Random(13)
        a = CyclotomicInt(d, tuple(rng.randint(-5, 5) for _ in range(d)))
        for k in range(1, d):
            kinv = pow(k, -1, d)
            assert substitute_power(substitute_power(a, k), kinv) == a

    def test_norm_is_rational_integer(self):
        # The product over all Galois conjugates lands in Z.
        d = 7
        rng = random.Random(21)
        for _ in range(10):
            a = CyclotomicInt(d, tuple(rng.randint(-3, 3) for _ in range(d)))
            prod = CyclotomicInt.from_int(d, 1)
            for k in range(1, d):
                if math.gcd(k, d) == 1:
                    prod = prod * substitute_power(a, k)
            assert not any(prod.reduced()[1:])


class TestArrangementConstruction:
    @pytest.mark.parametrize("kind,d,n", [("ceva", 3, 9), ("ceva", 5, 25), ("hd", 3, 12), ("hd", 6, 39), ("fermat", 4, 12), ("fermat", 8, 24)])
    def test_line_counts(self, kind, d, n):
        assert len(build_arrangement(kind, d).lines) == n

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_arrangement("wiggly", 5)

    @pytest.mark.parametrize("kind", ["ceva", "hd", "fermat"])
    def test_size_limit_is_checked_by_the_library(self, monkeypatch, kind):
        # refused before a single line is built, however large d is
        for name in ("_int", "_zeta", "_ceva_lines", "_coordinate_lines"):
            monkeypatch.setattr(arrangements, name, lambda *args: pytest.fail("built a line"))
        limit = arrangements.ARRANGEMENT_LIMITS[kind]
        for d in (limit + 1, 20, 10**9):
            with pytest.raises(SizeLimitError) as info:
                build_arrangement(kind, d)
            assert str(info.value) == (f"the d of the {kind} arrangement is {d}, "
                                       f"past ARRANGEMENT_LIMITS[{kind!r}] = {limit}")

    def test_line_not_scaled_to_leading_one_is_inconsistent(self, monkeypatch):
        real = arrangements._ceva_lines

        def scaled(d):
            lines = real(d)
            lines[1] = tuple(arrangements._zeta(d, 1) * c for c in lines[1])
            return lines

        monkeypatch.setattr(arrangements, "_ceva_lines", scaled)
        with pytest.raises(ConsistencyError, match="leading coordinate 1"):
            build_arrangement("ceva", 4)

    def test_repeated_line_is_inconsistent(self, monkeypatch):
        real = arrangements._ceva_lines
        monkeypatch.setattr(arrangements, "_ceva_lines", lambda d: real(d) + real(d)[:1])
        with pytest.raises(ConsistencyError, match="repeated line"):
            build_arrangement("ceva", 4)

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


class TestCensusClosedForms:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_ceva(self, d):
        census = singular_census(build_arrangement("ceva", d))
        assert dict(census.counts) == {2: d * d * (d - 1) * (d - 2) // 2, d: 3 * d}

    @pytest.mark.parametrize("d", range(3, 9))
    def test_hd(self, d):
        census = singular_census(build_arrangement("hd", d))
        assert dict(census.counts) == {2: d * d * (d - 1) * (d - 2) // 2 + 3, d + 1: 3 * d}


class TestCensusOracle:
    @pytest.mark.parametrize("kind,d", [(k, d) for k in ("ceva", "hd") for d in range(3, 7)]
                             + [("fermat", d) for d in range(3, 13)])
    def test_matches_census_by_keys(self, kind, d):
        arr = build_arrangement(kind, d)
        assert singular_census(arr) == _census_by_keys(arr)

    @pytest.mark.parametrize("kind,d", [("ceva", 5), ("hd", 4), ("fermat", 6)])
    def test_one_cross_product_per_point(self, monkeypatch, kind, d):
        calls = []

        def counting_cross(u, v):
            calls.append(1)
            return cross(u, v)

        monkeypatch.setattr(arrangements, "cross", counting_cross)
        census = singular_census(build_arrangement(kind, d))
        assert len(calls) == census.n_points

    def test_repeated_scaled_line_is_inconsistent(self):
        d = 4
        lines = build_arrangement("ceva", d).lines
        zeta = CyclotomicInt.zeta(d)
        arr = Arrangement(d, "ceva", lines + (tuple(zeta * c for c in lines[2]),))
        with pytest.raises(ConsistencyError, match="repeated line"):
            singular_census(arr)

    @pytest.mark.parametrize("tamper,message", [
        (lambda found: sorted(set(found) | {0, 1}), "two distinct points"),
        (lambda found: found[:1], "misses one of them"),
    ], ids=["pair-on-two-points", "point-off-its-lines"])
    def test_wrong_line_set_is_inconsistent(self, monkeypatch, tamper, message):
        real = arrangements._lines_through
        monkeypatch.setattr(arrangements, "_lines_through", lambda lines, p: tamper(real(lines, p)))
        with pytest.raises(ConsistencyError, match=message):
            singular_census(build_arrangement("fermat", 4))


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
