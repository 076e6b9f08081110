"""Equivalence classes of weight-(0,1,a) actions and their counting formulas."""

import math
from dataclasses import dataclass
from itertools import permutations

import pytest

from gtsystems import classification
from gtsystems.actions import Action, invariant_monomials
from gtsystems.classification import (
    CLASSIFY_LIMIT,
    _class_kind,
    _phi6_compatible,
    class_count_formulas,
    classify_moves,
    orbit,
    prime_and_primepower_counts,
    totient,
)
from gtsystems.errors import ConsistencyError, SizeLimitError
from gtsystems.primes import factorize, is_prime

# Verbatim reference partitions for small primes.
REFERENCE_PARTITIONS = {
    5: {(2, 3, 4)},
    7: {(2, 4, 6), (3, 5)},
    11: {(2, 6, 10), (3, 4, 5, 7, 8, 9)},
    13: {(2, 7, 12), (4, 10), (3, 5, 6, 8, 9, 11)},
    17: {(2, 9, 16), (3, 6, 8, 10, 12, 15), (4, 5, 7, 11, 13, 14)},
}


# ------------------------------------------------------------------ oracles
# Ideal comparison monomial by monomial, independent of the moves; and the
# closed-form solution counts of x^2 = 1 and x^2 - x + 1 = 0 mod d, which the
# class-count formulas rest on, next to brute scans.


def canonical_ideal_key(d, a):
    """Invariant-set fingerprint stable under all 6 variable permutations."""
    gens = invariant_monomials(Action(d, (0, 1, a))).generators
    best = None
    for sigma in permutations(range(3)):
        key = tuple(sorted(tuple(g[sigma[i]] for i in range(3)) for g in gens))
        if best is None or key < best:
            best = key
    return best


def equivalent_ideal_oracle(d, a1, a2) -> bool:
    """Do the invariant ideals of (0,1,a1) and (0,1,a2) agree up to permuting variables?"""
    g1 = set(invariant_monomials(Action(d, (0, 1, a1))).generators)
    g2 = set(invariant_monomials(Action(d, (0, 1, a2))).generators)
    if len(g1) != len(g2):
        return False
    for sigma in permutations(range(3)):
        if {tuple(g[sigma[i]] for i in range(3)) for g in g1} == g2:
            return True
    return False


@dataclass(frozen=True)
class ArithmeticCounts:
    d: int
    sqrt1_formula: int
    sqrt1_scan: int
    phi6_formula: int
    phi6_scan: int
    totient_formula: int
    totient_scan: int


def _sqrt1_count_formula(d):
    fac = factorize(d)
    alpha = fac.get(2, 0)
    r = len([p for p in fac if p != 2])
    if alpha <= 1:
        return 2 ** r
    if alpha == 2:
        return 2 ** (r + 1)
    return 2 ** (r + 2)


def _phi6_count_formula(d):
    fac = factorize(d)
    if not _phi6_compatible(fac):
        return 0
    # index r of the fixed parametrization 2^a0 * 3^a1 * p2 ... pr
    r = 1 + len([p for p in fac if p > 3])
    return 2 ** (r - 1)


def arithmetic_counts(d) -> ArithmeticCounts:
    """Solution counts of x^2=1 and x^2-x+1=0 mod d, plus the totient, each
    computed by closed form and by brute scan."""
    sqrt1_scan = sum(1 for x in range(d) if (x * x) % d == 1)
    phi6_scan = sum(1 for x in range(d) if (x * x - x + 1) % d == 0)
    tot_scan = sum(1 for x in range(1, d + 1) if math.gcd(x, d) == 1)
    return ArithmeticCounts(
        d,
        _sqrt1_count_formula(d),
        sqrt1_scan,
        _phi6_count_formula(d),
        phi6_scan,
        totient(d),
        tot_scan,
    )


class TestBasicNumberTheory:
    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(97) == {97: 1}

    def test_totient_matches_scan(self):
        for n in range(2, 60):
            assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(2, 50):
            assert is_prime(n) == (n in primes)


class TestOrbitsAndPartitions:
    def test_orbit_closed_under_moves(self):
        # The orbit of a is closed under a -> d - a + 1 and (when invertible)
        # a -> a^{-1} mod d.
        for d in (7, 12, 15, 42):
            for a in range(2, d):
                orb = set(orbit(d, a))
                for b in orb:
                    assert d - b + 1 in orb
                    if math.gcd(b, d) == 1:
                        assert pow(b, -1, d) in orb

    @pytest.mark.parametrize("d,expected", sorted(REFERENCE_PARTITIONS.items()))
    def test_reference_partitions(self, d, expected):
        got = {tuple(sorted(members)) for members, _kind in classify_moves(d).classes}
        assert got == expected

    def test_partition_covers_range(self):
        for d in (9, 10, 21, 30):
            part = classify_moves(d)
            all_members = [a for members, _ in part.classes for a in members]
            assert sorted(all_members) == list(range(2, d))

    def test_class_kinds_for_seven(self):
        kinds = {tuple(sorted(m)): kind for m, kind in classify_moves(7).classes}
        assert kinds[(2, 4, 6)] == "3"
        assert kinds[(3, 5)] == "2ii"

    def test_three_element_class_is_the_special_one(self):
        # For odd d the unique 3-element class is {2, d-1, (d+1)/2}.
        for d in (7, 11, 13, 17, 25):
            for members, kind in classify_moves(d).classes:
                if kind == "3":
                    assert set(members) == {2, d - 1, (d + 1) // 2}


def quadratic_closure_oracle(d):
    """The move closure as first written: repeatedly take the least value not
    yet placed, close it under the moves, and sort the classes at the end.
    Quadratic in d (``min`` over a set once per class); kept as the reference
    for the one-sweep ``classify_moves``."""
    remaining = set(range(2, d))
    classes = []
    while remaining:
        members = orbit(d, min(remaining))
        assert set(members) <= remaining
        remaining -= set(members)
        classes.append((members, _class_kind(d, members)))
    classes.sort(key=lambda c: c[0][0])
    return tuple(classes)


def assert_ordered_partition(d, classes):
    members = [a for m, _ in classes for a in m]
    assert sorted(members) == list(range(2, d))
    firsts = [m[0] for m, _ in classes]
    assert firsts == sorted(set(firsts))
    assert all(m[0] == min(m) for m, _ in classes)


class TestSweepAgainstQuadraticClosure:
    def test_every_d_up_to_1000(self):
        for d in range(4, 1001):
            part = classify_moves(d)
            assert part.d == d
            assert part.classes == quadratic_closure_oracle(d), d
            assert_ordered_partition(d, part.classes)

    @pytest.mark.parametrize("d", [2310, 15015])
    def test_large_squarefree_d(self, d):
        part = classify_moves(d)
        assert part.classes == quadratic_closure_oracle(d)
        assert_ordered_partition(d, part.classes)

    def test_one_orbit_per_class(self, monkeypatch):
        calls = []
        real = classification.orbit

        def counting_orbit(d, a):
            calls.append(a)
            return real(d, a)

        monkeypatch.setattr(classification, "orbit", counting_orbit)
        part = classify_moves(15015)
        assert calls == [m[0] for m, _ in part.classes]

    @pytest.mark.parametrize(
        "bad_orbit",
        [
            lambda d, a: (a, d - 1),  # every class after the first overlaps it
            lambda d, a: tuple(m for m in orbit(d, a) if m != 2),  # 2 is never placed
            lambda d, a: (a, d),  # a member outside {2, ..., d-1}
        ],
        ids=["overlap", "misses_2", "out_of_range"],
    )
    def test_broken_moves_are_a_consistency_error(self, monkeypatch, bad_orbit):
        monkeypatch.setattr(classification, "orbit", bad_orbit)
        with pytest.raises(ConsistencyError, match="moves did not produce a partition"):
            classify_moves(13)

    def test_bad_class_size_is_a_consistency_error(self, monkeypatch):
        monkeypatch.setattr(classification, "orbit", lambda d, a: (a,))
        with pytest.raises(ConsistencyError, match="unexpected class size 1"):
            classify_moves(13)


class TestClassifyLimit:
    def test_limit_is_the_factorization_limit(self):
        # the counts factor d by trial division, which the limit bounds
        assert factorize(CLASSIFY_LIMIT) == {2: 6, 5: 6}
        assert prime_and_primepower_counts(2**19) == 2**17 + 1
        with pytest.raises(SizeLimitError) as info:
            prime_and_primepower_counts(CLASSIFY_LIMIT + 1)
        assert str(info.value) == ("the d of a classification is 1000001, "
                                   "past CLASSIFY_LIMIT = 1000000")

    @pytest.mark.parametrize("func", [classify_moves, class_count_formulas,
                                      prime_and_primepower_counts])
    def test_limit_checked_before_any_orbit(self, monkeypatch, func):
        def no_orbit(d, a):
            raise AssertionError("orbit ran above the classification limit")

        def no_factors(n):
            raise AssertionError("factored above the classification limit")

        monkeypatch.setattr(classification, "orbit", no_orbit)
        monkeypatch.setattr(classification, "factorize", no_factors)
        with pytest.raises(SizeLimitError) as info:
            func(CLASSIFY_LIMIT + 1)
        assert (info.value.name, info.value.limit, info.value.size) == (
            "CLASSIFY_LIMIT", CLASSIFY_LIMIT, CLASSIFY_LIMIT + 1)


class TestIdealEquivalenceOracle:
    def test_oracle_matches_partition(self):
        # Two values of a produce coordinate-permutation-equivalent invariant
        # ideals exactly when they share a class.
        for d in (7, 10, 13):
            part = classify_moves(d)
            cls_of = {}
            for idx, (members, _) in enumerate(part.classes):
                for a in members:
                    cls_of[a] = idx
            for a1 in range(2, d):
                for a2 in range(a1, d):
                    assert equivalent_ideal_oracle(d, a1, a2) == (cls_of[a1] == cls_of[a2]), (d, a1, a2)

    def test_canonical_key_invariance(self):
        assert canonical_ideal_key(7, 3) == canonical_ideal_key(7, 5)
        assert canonical_ideal_key(7, 2) != canonical_ideal_key(7, 3)


class TestArithmeticCounts:
    @pytest.mark.parametrize("d", list(range(5, 121)))
    def test_formula_equals_scan(self, d):
        counts = arithmetic_counts(d)
        assert counts.sqrt1_formula == counts.sqrt1_scan
        assert counts.phi6_formula == counts.phi6_scan
        assert counts.totient_formula == counts.totient_scan


class TestClassCountFormulas:
    @pytest.mark.parametrize("d", list(range(5, 151)))
    def test_oracle_weighted_identity(self, d):
        # Every a in [2, d-1] lies in exactly one class, so the class sizes
        # weighted by multiplicity must sum to d - 2.
        o = class_count_formulas(d).oracle
        n2 = o.N21 + o.N22 + o.N23
        assert 2 * n2 + 3 * o.N3 + 4 * o.N4 + 6 * o.N6 == d - 2

    @pytest.mark.parametrize(
        "d,n3,n2,n4,n6",
        [(825, 1, 86, 129, 22), (42, 0, 12, 4, 0), (210, 0, 64, 20, 0)],
    )
    def test_pinned_formula_values(self, d, n3, n2, n4, n6):
        f = class_count_formulas(d).formula
        assert (f.N3, f.N21 + f.N22 + f.N23, f.N4, f.N6) == (n3, n2, n4, n6)

    def test_pinned_values_match_oracle(self):
        for d in (42, 210):
            r = class_count_formulas(d)
            assert r.findings == []
            assert r.formula == r.oracle

    def test_given_partition_is_not_computed_again(self, monkeypatch):
        expected = class_count_formulas(825)
        part = classify_moves(825)

        def no_partition(d):
            raise AssertionError("the partition was computed again")

        monkeypatch.setattr(classification, "classify_moves", no_partition)
        assert class_count_formulas(825, part) == expected

    def test_partition_for_another_d_rejected(self):
        with pytest.raises(ValueError, match="partition is for d=13, not d=14"):
            class_count_formulas(14, classify_moves(13))

    def test_known_mismatch_is_reported_not_raised(self):
        # The published two-element type-(ii) count evaluates to 4 at d=7
        # while the exhaustive oracle finds 1; this is surfaced as a finding.
        r = class_count_formulas(7)
        assert r.formula.N22 == 4 and r.oracle.N22 == 1
        assert any("N22" in f for f in r.findings)


class TestPrimeAndPrimePowerCounts:
    @pytest.mark.parametrize(
        "d,count",
        [(5, 1), (7, 2), (11, 2), (13, 3), (97, 17),
         (4, 1), (8, 3), (16, 5), (32, 9), (9, 2), (27, 6), (25, 5), (49, 10)],
    )
    def test_closed_form_values(self, d, count):
        assert prime_and_primepower_counts(d) == count

    def test_closed_form_matches_oracle_for_primes(self):
        for d in range(5, 98):
            if is_prime(d):
                assert prime_and_primepower_counts(d) == len(classify_moves(d).classes)

    def test_closed_form_matches_oracle_for_prime_powers(self):
        for d in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81):
            assert prime_and_primepower_counts(d) == len(classify_moves(d).classes)

    def test_rejects_composite_with_two_prime_factors(self):
        with pytest.raises(ValueError):
            prime_and_primepower_counts(12)
