"""Diagonal cyclic group actions and their invariant monomial ideals."""

import itertools
import math
import operator
import random

import pytest

from gtsystems import actions
from gtsystems.errors import ConsistencyError, SizeLimitError
from gtsystems.actions import (
    Action,
    GTIdeal,
    InvalidActionError,
    check_invariant_limit,
    generalized_classical,
    invariant_count,
    invariant_exponents,
    invariant_monomials,
    monomial_str,
    normalize_action,
)


def simplex(d):
    return [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]


def brute_invariants(d, weights):
    """Independent O(d^2) oracle: scan all degree-d exponent triples."""
    a, b, c = weights
    return {m for m in simplex(d) if (m[0] * a + m[1] * b + m[2] * c) % d == 0}


def faithful_actions(d):
    return [(a, b, c) for a in range(d) for b in range(d) for c in range(d)
            if math.gcd(a, b, c, d) == 1]


class TestAction:
    def test_weights_reduced_mod_d(self):
        act = Action(5, (0, 6, 12))
        assert act.weights == (0, 1, 2)

    def test_invalid_non_faithful(self):
        # weights sharing a common factor with d give a non-faithful action
        with pytest.raises(InvalidActionError):
            Action(6, (0, 2, 4))

    def test_invalid_d(self):
        with pytest.raises(InvalidActionError):
            Action(1, (0, 1, 1))

    def test_normalize_action(self):
        assert normalize_action(7, 0, 1, 3) == (0, 1, 3)
        assert normalize_action(7, 5, 2, 1) == (0, 3, 4)
        assert Action(7, (5, 2, 1)).normalized() == (0, 3, 4)

    @pytest.mark.parametrize("d,weights,shifted", [
        (6, (5, 1, 1), (0, 2, 2)),
        (16, (15, 15, 15), (0, 0, 0)),
        (16, (15, 3, 11), (0, 4, 12)),
        (9, (1, 1, 4), (0, 0, 3)),
    ])
    def test_faithful_action_with_unfaithful_shifted_weights(self, d, weights, shifted):
        # the shifted weights share a factor with d, but the action is
        # faithful, so it is accepted and normalizes to a plain tuple
        assert Action(d, weights).normalized() == shifted
        assert normalize_action(d, *weights) == shifted
        assert math.gcd(*shifted, d) > 1

    def test_normalize_action_checks_faithfulness(self):
        with pytest.raises(InvalidActionError):
            normalize_action(6, 0, 2, 4)


class TestInvariantMonomials:
    def test_classical_degree_three(self):
        ideal = invariant_monomials(Action(3, (0, 1, 2)))
        assert set(ideal.generators) == {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
        assert ideal.mu == 4

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8, 11, 12])
    def test_matches_brute_scan(self, d):
        for a in range(1, d):
            for b in range(a, d):
                if math.gcd(math.gcd(a, b), d) != 1:
                    continue
                act = Action(d, (0, a, b))
                ideal = invariant_monomials(act)
                assert set(ideal.generators) == brute_invariants(d, act.weights), (d, a, b)

    @pytest.mark.parametrize("d", range(2, 25))
    def test_congruence_equals_the_scan_on_every_faithful_action(self, d):
        mons = simplex(d)
        for a, b, c in faithful_actions(d):
            scan = {m for m in mons if (m[0] * a + m[1] * b + m[2] * c) % d == 0}
            assert set(invariant_monomials(Action(d, (a, b, c))).generators) == scan, (d, a, b, c)

    def test_congruence_equals_the_scan_on_random_actions(self):
        rng = random.Random(2016)
        checked = 0
        while checked < 150:
            d = rng.randint(25, 200)
            weights = tuple(rng.randrange(d) for _ in range(3))
            if math.gcd(*weights, d) != 1:
                continue
            # a common divisor of d and the shifted weights makes mu large
            if rng.random() < 0.3:
                g = rng.choice([k for k in range(2, 13) if d % k == 0] or [1])
                weights = (weights[0], weights[0] + g * weights[1], weights[0] + g * weights[2])
                if math.gcd(*weights, d) != 1:
                    continue
            ideal = invariant_monomials(Action(d, weights))
            assert set(ideal.generators) == brute_invariants(d, weights), (d, weights)
            checked += 1

    def test_pure_powers_always_invariant(self):
        for d in (3, 5, 8, 13):
            for a in range(2, d):
                gens = set(invariant_monomials(Action(d, (0, 1, a))).generators)
                assert {(d, 0, 0), (0, d, 0), (0, 0, d)} <= gens

    @pytest.mark.parametrize("d", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_prime_mu_formula(self, d):
        # mu = 3 + (d-1)/2 for every prime d >= 5 and every 2 <= a <= d-1,
        # and every non-pure-power generator uses all three variables.
        for a in range(2, d):
            ideal = invariant_monomials(Action(d, (0, 1, a)))
            assert ideal.mu == 3 + (d - 1) // 2
            for m in ideal.generators:
                if d not in m:
                    assert all(e > 0 for e in m)

    def test_composite_mu_lower_bound(self):
        # mu >= floor(d/2) + 3 when d has at least two distinct prime factors.
        for d in (6, 10, 12, 15, 20, 30):
            for a in range(2, d):
                assert invariant_monomials(Action(d, (0, 1, a))).mu >= d // 2 + 3

    def test_power_of_two_special_values(self):
        assert invariant_monomials(Action(8, (0, 1, 5))).mu == 8
        assert invariant_monomials(Action(16, (0, 1, 9))).mu == 14
        for d in (8, 16, 32):
            assert invariant_monomials(Action(d, (0, 1, d // 2 + 1))).mu == 3 * d // 4 + 2


    def test_enumeration_is_in_descending_order(self, monkeypatch):
        # GTIdeal sorts only an input that is not strictly descending, so with
        # sorted unavailable every enumeration must already be in order
        def no_sort(*args, **kwargs):
            raise AssertionError("the enumeration was sorted")

        monkeypatch.setattr(actions, "sorted", no_sort, raising=False)
        rng = random.Random(1018)
        cases = [(d, w) for d in range(2, 13) for w in faithful_actions(d)]
        while len(cases) < 5000:
            d = rng.randint(13, 120)
            w = tuple(rng.randrange(d) for _ in range(3))
            if math.gcd(*w, d) == 1:
                cases.append((d, w))
        for d, weights in cases:
            ideal = invariant_monomials(Action(d, weights))
            assert list(ideal.generators) == sorted(brute_invariants(d, weights), reverse=True)


def simplex_points(m, n):
    """Every exponent vector of length m >= 1 with |al| = n."""
    if m == 1:
        return [(n,)]
    return [(e,) + rest for e in range(n + 1) for rest in simplex_points(m - 1, n - e)]


def brute_exponents(d, weights, n):
    """The simplex scan, filtered by the congruence and sorted descending."""
    return sorted((al for al in simplex_points(len(weights), n)
                   if sum(map(operator.mul, al, weights)) % d == 0), reverse=True)


class TestInvariantExponents:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_equals_the_scan_on_every_faithful_action(self, d):
        for weights in faithful_actions(d):
            assert invariant_exponents(d, weights, d) == sorted(
                brute_invariants(d, weights), reverse=True), (d, weights)

    def test_equals_the_scan_on_random_weights_and_degrees(self):
        rng = random.Random(1611)
        for _ in range(2000):
            d = rng.randint(1, 40)
            weights = [rng.randint(-2 * d, 2 * d) for _ in range(rng.randint(1, 5))]
            n = rng.randint(0, d)
            assert invariant_exponents(d, weights, n) == brute_exponents(d, weights, n), (
                d, weights, n)


class TestInvariantCount:
    """invariant_count against its oracle, len(invariant_exponents(...))."""

    @pytest.mark.parametrize("d", range(2, 31))
    def test_equals_the_enumeration_on_every_faithful_triple(self, d):
        # at the degrees every verdict reads: mu (n = d) and the nullity
        # (n = d - d/g), for the shifted weights
        for a, b, c in faithful_actions(d):
            g = math.gcd(b - a, c - a, d)
            weights = (0, b - a, c - a)
            for n in (d, d - d // g):
                assert invariant_count(d, weights, n) == len(
                    invariant_exponents(d, weights, n)), (d, weights, n)

    def test_equals_the_enumeration_on_random_weights(self):
        # any integers, negative ones too, at any degree up to d + 5
        rng = random.Random(3011)
        for _ in range(1500):
            d = rng.randint(1, 400)
            weights = tuple(rng.randint(-3 * d, 3 * d) for _ in range(3))
            n = rng.randint(0, d + 5)
            assert invariant_count(d, weights, n) == len(invariant_exponents(d, weights, n)), (
                d, weights, n)

    def test_equals_the_scan_on_small_degrees(self):
        # the simplex scan itself, for every weight triple mod d
        for d in range(1, 8):
            for weights in itertools.product(range(d), repeat=3):
                for n in range(2 * d + 2):
                    assert invariant_count(d, weights, n) == len(
                        brute_exponents(d, weights, n)), (d, weights, n)

    def test_pick_lower_bound_of_check_invariant_limit(self):
        # mu >= d/2 + 5/2 on every faithful action, tight at (0, 1, 2) mod 3;
        # shifting the weights keeps mu, so (0, b, c) covers them all
        for d in range(2, 81):
            least = min(invariant_count(d, (0, b, c), d) for b in range(d) for c in range(d)
                        if math.gcd(b, c, d) == 1)
            assert least >= (d + 5) / 2, d
        assert invariant_count(3, (0, 1, 2), 3) == 4

    def test_floor_sum_equals_the_sum(self):
        rng = random.Random(73)
        for _ in range(3000):
            n, m = rng.randint(0, 30), rng.randint(1, 30)
            a, b = rng.randint(-100, 100), rng.randint(-100, 100)
            assert actions._floor_sum(n, m, a, b) == sum((a * t + b) // m for t in range(n)), (
                n, m, a, b)

    @pytest.mark.parametrize("d", [10**18, 10**18 + 9, 2**64])
    def test_closed_forms_at_huge_d(self, d):
        # (0, 0, 0): every monomial of degree n, C(n + 2, 2); (1, 1, 1): all
        # of degree d and none of degree d - 1; (0, 0, 1): x^i y^j z^k with
        # d | k, so d + 2 of degree d
        assert invariant_count(d, (0, 0, 0), d - 1) == d * (d + 1) // 2
        assert invariant_count(d, (1, 1, 1), d) == (d + 1) * (d + 2) // 2
        assert invariant_count(d, (1, 1, 1), d - 1) == 0
        assert invariant_count(d, (0, 0, 1), d) == d + 2


class TestGTIdeal:
    def test_unordered_input_is_sorted_and_deduplicated(self):
        gens = [[0, 3, 0], (3, 0, 0), (1, 1, 1), (3, 0, 0), (0, 0, 3)]
        ideal = GTIdeal(3, gens)
        assert ideal.generators == ((3, 0, 0), (1, 1, 1), (0, 3, 0), (0, 0, 3))
        assert GTIdeal(3, ((3, 0, 0), (3, 0, 0))).generators == ((3, 0, 0),)

    def test_ordered_input_is_kept(self):
        gens = ((3, 0, 0), (1, 1, 1), (0, 3, 0), (0, 0, 3))
        assert GTIdeal(3, gens).generators == gens
        assert GTIdeal(3, [list(g) for g in gens]).generators == gens

    @pytest.mark.parametrize("bad", [(2, 0, 0), (4, -1, 0), (1, 1, 1, 0), (3, 0), ()])
    def test_every_generator_is_validated_in_either_order(self, bad):
        ordered = sorted([(3, 0, 0), (0, 0, 3), bad], reverse=True)
        for gens in (ordered, ordered[::-1]):
            with pytest.raises(ValueError) as info:
                GTIdeal(3, gens)
            assert str(info.value) == f"bad degree-3 generator {bad}"

    def test_the_first_bad_generator_is_named(self):
        # in the descending order the ideal keeps: (4, -1, 0) before (1, 1, 1, 0)
        for gens in ([(1, 1, 1, 0), (3, 0, 0), (4, -1, 0)], [(3, 0, 0), (2, 0, 0), (0, 2, 0)]):
            first = next(g for g in sorted(gens, reverse=True) if len(g) != 3 or min(g) < 0
                         or sum(g) != 3)
            with pytest.raises(ValueError) as info:
                GTIdeal(3, gens)
            assert str(info.value) == f"bad degree-3 generator {first}"

    def test_has_pure_powers_equals_the_set_test(self):
        rng = random.Random(557)
        for _ in range(2000):
            d = rng.randint(1, 9)
            pool = simplex(d)
            gens = rng.sample(pool, rng.randint(0, len(pool)))
            if rng.random() < 0.5:
                gens += [(d, 0, 0), (0, d, 0), (0, 0, d)][:rng.randint(0, 3)]
            want = {(d, 0, 0), (0, d, 0), (0, 0, d)} <= set(gens)
            assert GTIdeal(d, gens).has_pure_powers() is want, (d, gens)


class TestInvariantLimit:
    def _bound_holds(self, monkeypatch, d, weights):
        # with the limit one below mu the check must refuse, and with the
        # limit at mu it must pass: it compares the exact number of monomials
        mu = len(brute_invariants(d, weights))
        action = Action(d, weights)
        monkeypatch.setattr(actions, "INVARIANT_LIMIT", mu - 1)
        with pytest.raises(SizeLimitError, match="INVARIANT_LIMIT"):
            check_invariant_limit(action)
        with pytest.raises(SizeLimitError, match="INVARIANT_LIMIT"):
            invariant_monomials(action)
        monkeypatch.setattr(actions, "INVARIANT_LIMIT", mu)
        check_invariant_limit(action)
        monkeypatch.undo()

    @pytest.mark.parametrize("d", range(2, 13))
    def test_bound_is_at_least_mu_on_every_faithful_action(self, monkeypatch, d):
        for weights in faithful_actions(d):
            self._bound_holds(monkeypatch, d, weights)

    def test_bound_is_at_least_mu_on_random_actions(self, monkeypatch):
        rng = random.Random(17)
        for d in rng.sample(range(13, 120), 40):
            for weights in ((0, 1, rng.randrange(d)), (1, 1, 1), (0, 0, 1), (0, 1, 0),
                            (0, d // 2, 1), (1, 1 + rng.randrange(d), 1)):
                if math.gcd(*weights, d) == 1:
                    self._bound_holds(monkeypatch, d, weights)

    @pytest.mark.parametrize("d,weights", [(10**8, (0, 1, 3)), (10**18, (0, 1, 1)),
                                           (5000, (1, 1, 1)), (2 * 10**6, (0, 1, 0))])
    def test_refused_before_any_enumeration(self, d, weights):
        # none of these could be enumerated in a test's lifetime
        with pytest.raises(SizeLimitError, match=f"past INVARIANT_LIMIT = {actions.INVARIANT_LIMIT}$"):
            invariant_monomials(Action(d, weights))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_bound_holds_in_every_order_of_the_variables(self, monkeypatch, d):
        # with the limit at 0 every action is refused, by a message that
        # names its exact mu; faithful_actions lists each triple in every order
        monkeypatch.setattr(actions, "INVARIANT_LIMIT", 0)
        for weights in faithful_actions(d):
            action = Action(d, weights)
            with pytest.raises(SizeLimitError) as info:
                check_invariant_limit(action)
            mu = len(invariant_exponents(d, weights, d))
            assert str(info.value) == (
                f"the number of invariant monomials of the action {action} is {mu}, "
                f"past INVARIANT_LIMIT = 0"), weights

    def test_one_moving_variable_passes_in_every_order(self):
        # mu = d + 2 < INVARIANT_LIMIT whichever variable moves
        for weights in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            check_invariant_limit(Action(700000, weights))

    def test_an_action_the_old_bound_refused_is_admitted(self):
        # (0, 2, 5) at d = 1000003 has 500004 monomials; a bound over the
        # classes of the enumeration said 1500006
        action = Action(1000003, (0, 2, 5))
        assert invariant_count(action.d, action.weights, action.d) == 500004
        check_invariant_limit(action)

    @pytest.mark.parametrize("d,weights", [(2, (0, 1, 1)), (12, (5, 7, 5)), (40, (0, 1, 3)),
                                           (300, (1, 1, 1))])
    def test_the_check_returns_the_one_count(self, monkeypatch, d, weights):
        # invariant_monomials counts once, at any d, and lists that many
        counts = []

        def counted(*args):
            counts.append(args)
            return invariant_count(*args)

        monkeypatch.setattr(actions, "invariant_count", counted)
        action = Action(d, weights)
        mu = len(brute_invariants(d, weights))
        assert check_invariant_limit(action) == mu
        assert invariant_monomials(action).mu == mu
        assert counts == [(d, action.weights, d)] * 2

    @pytest.mark.parametrize("change", [lambda gens: gens[1:], lambda gens: gens + gens[-1:]],
                             ids=["one_short", "one_more"])
    def test_an_enumeration_off_the_count_raises(self, monkeypatch, change):
        real = actions.invariant_exponents
        monkeypatch.setattr(actions, "invariant_exponents", lambda *args: change(real(*args)))
        mu = invariant_count(7, (0, 1, 3), 7)
        found = len(change(real(7, (0, 1, 3), 7)))
        with pytest.raises(ConsistencyError) as info:
            invariant_monomials(Action(7, (0, 1, 3)))
        assert str(info.value) == (
            f"{found} invariant monomials enumerated where the count gives {mu}")

    def test_limit_value(self):
        assert actions.INVARIANT_LIMIT == 10**6
        # the fully degenerate action at d = 1412 has 998 991 monomials and passes
        check_invariant_limit(Action(1412, (1, 1, 1)))
        with pytest.raises(SizeLimitError):
            check_invariant_limit(Action(1413, (1, 1, 1)))


class TestSequencesAndHelpers:
    def test_closed_form_of_the_0_1_a_ideal(self):
        # the paper's description of the ideal of (0, 1, a), a a unit mod d:
        # the pure powers and x^(d-m-n_m) y^m z^(n_m) for m = 1..d-1 with
        # m + n_m <= d, where n_m = -m * a^(-1) mod d is the one z-exponent
        # in 0..d with m + a * n_m = 0 mod d
        pairs = 0
        for d in range(3, 61):
            for a in range(2, d):
                if math.gcd(a, d) != 1:
                    continue
                inverse = pow(a, -1, d)
                want = {(d, 0, 0), (0, d, 0), (0, 0, d)}
                for m in range(1, d):
                    n_m = -m * inverse % d
                    if m + n_m <= d:
                        want.add((d - m - n_m, m, n_m))
                ideal = invariant_monomials(Action(d, (0, 1, a)))
                assert ideal.mu == len(want) and set(ideal.generators) == want, (d, a)
                pairs += 1
        assert pairs == 1042

    def test_monomial_str(self):
        assert monomial_str((2, 0, 1)) == "x^2z"
        assert monomial_str((1, 1, 1)) == "xyz"
        assert monomial_str((0, 3, 0)) == "y^3"
        assert monomial_str((0, 0, 0)) == "1"
        assert monomial_str((0, 1, 0, 12), ("x0", "x1", "x2", "x3")) == "x1x3^12"


class TestGeneralizedClassical:
    @pytest.mark.parametrize("d", range(3, 13))
    def test_generator_shape(self, d):
        k, eps = divmod(d, 2)
        ideal = generalized_classical(d)
        gens = set(ideal.generators)
        assert {(d, 0, 0), (0, d, 0), (0, 0, d)} <= gens
        ladder = {(i, i, d - 2 * i) for i in range(1, k + 1)}
        assert gens == {(d, 0, 0), (0, d, 0), (0, 0, d)} | ladder
        assert ideal.mu == 3 + k

    def test_matches_invariant_set_of_standard_action(self):
        # the classical system is the invariant ideal of the weights (0, 2, 1)
        for d in range(3, 13):
            gens = set(generalized_classical(d).generators)
            inv = brute_invariants(d, (0, 2, 1))
            assert gens == inv

    def test_is_the_enumerated_ideal_to_d_2000(self):
        # the enumerator lists the paper's system, in descending order
        for d in range(3, 2001):
            ideal = generalized_classical(d)
            assert ideal == invariant_monomials(Action(d, (0, 2, 1))), d
            ladder = [(i, i, d - 2 * i) for i in range(d // 2, 0, -1)]
            assert ideal.generators == ((d, 0, 0), *ladder, (0, d, 0), (0, 0, d)), d

    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    def test_needs_d_at_least_3(self, d):
        with pytest.raises(ValueError, match=r"^need d >= 3$"):
            generalized_classical(d)
