"""Injectivity of multiplication by a linear form, verdicts, and minimality."""

import inspect
import itertools
import json
import math
import random
import textwrap
from pathlib import Path

import pytest
from polyring import add, mul
from test_circulant import ternary_oracle
from test_polymat import bareiss_oracle, signed_binomial_rows

from gtsystems import circulant, cli, wlp
from gtsystems.actions import Action, GTIdeal, invariant_monomials
from gtsystems.circulant import circulant_product
from gtsystems.cli import main
from gtsystems.errors import ConsistencyError, SizeLimitError
from gtsystems.polymat import SparsePoly
from gtsystems.wlp import (
    RANK_REPORT_LIMIT,
    Restriction,
    WlpVerdict,
    conjecture_scan,
    conjugate_nullity,
    random_scales,
    restriction,
)

# ------------------------------------------------------------------ oracle
# The matrix of multiplication by a linear form from degree j to degree j+1
# of the quotient, on its monomial basis.  It knows nothing of the
# restriction to the line L = 0 that wlp.restriction uses, nor of the count
# of conjugate forms, so it is an independent check of both.  Its rank, and
# the plain nullity below, come from the classical Bareiss elimination of
# the tests (bareiss_oracle), which shares no code with the sweep.


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


def exact_rank(rows):
    """Rank over Q by bareiss_oracle, on a copy of rows."""
    return bareiss_oracle([list(r) for r in rows])


def oracle_rank(ideal, coeffs=(1, 1, 1)):
    """(rank, dim source) of the degree d-1 -> d map by Bareiss."""
    rows, src, _ = multiplication_matrix(ideal, ideal.d - 1, coeffs)
    return exact_rank(rows), len(src)


def oracle_kernel(ideal, coeffs=(1, 1, 1)):
    rank, dim_src = oracle_rank(ideal, coeffs)
    return dim_src - rank


def plain_nullity(ideal):
    """mu - rank E at x + y + z by the plain elimination (exact_rank) of the
    rows built from math.comb: independent of the sweep of wlp.restriction."""
    rows = signed_binomial_rows(ideal)
    return len(rows) - exact_rank(rows)


def togliatti_oracle(ideal):
    """A Togliatti system: artinian, at most d+1 generators, a nonzero kernel
    by the plain elimination."""
    return ideal.has_pure_powers() and ideal.mu <= ideal.d + 1 and plain_nullity(ideal) >= 1


def single_removal_oracle(ideal):
    """Minimality by brute force: drop each generator in turn and ask whether
    what is left is still a Togliatti system.  Kernels only grow when
    generators are added, so a Togliatti subset forces a Togliatti subset of
    corank one and single removals suffice.  It runs the plain elimination
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
            assert rank + restriction(ideal).nullity == src


class TestMultiplicationMatrix:
    def test_rank_is_invariant_under_coefficient_scaling(self):
        # Multiplication by c0*x + c1*y + c2*z is conjugate to multiplication
        # by x + y + z on a monomial quotient whenever all ci are nonzero, so
        # the rank must not depend on the coefficient triple.
        ideal = invariant_monomials(Action(5, (0, 1, 2)))
        base, _ = oracle_rank(ideal)
        for coeffs in ((-6, -6, -7), (1, 1, 1), (3, -5, 11), (-1, -3, 8)):
            rows, src, _ = multiplication_matrix(ideal, 4, coeffs)
            assert exact_rank(rows) == base, coeffs
            # what gt-verdict --general-l reports for every such form
            assert conjugate_nullity(ideal.action) == len(src) - base, coeffs

    def test_zero_coefficient_drops_rank_or_not(self):
        # Degenerate forms are allowed in the matrix builder; the rank is
        # still computed exactly (here x alone is far from injective).
        ideal = invariant_monomials(Action(5, (0, 1, 2)))
        rows, src, _ = multiplication_matrix(ideal, 4, (1, 0, 0))
        assert exact_rank(rows) < len(src)


class TestRestriction:
    def test_nullity_agrees_with_quotient_oracle(self):
        # every faithful unit with d <= 12: 284 units with 104 distinct
        # ideals, and the kernel reads only the generators
        ideals = {}
        for action in faithful_units(range(3, 13)):
            ideal = invariant_monomials(action)
            ideals.setdefault(ideal.generators, ideal)
        assert len(ideals) == 104
        for ideal in ideals.values():
            assert restriction(ideal).nullity == oracle_kernel(ideal), ideal.action

    def test_nullity_agrees_with_quotient_oracle_on_random_ideals(self):
        # 300 seeded ideals without an action, with and without the pure
        # powers; nullity 0, 1 and 2 or more among them
        rng = random.Random(2011)
        seen = set()
        for _ in range(300):
            d = rng.randint(2, 9)
            monomials = _monomials_of_degree(d)
            gens = rng.sample(monomials, rng.randint(1, len(monomials)))
            if rng.random() < 0.5:
                gens += [(d, 0, 0), (0, d, 0), (0, 0, d)]
            ideal = GTIdeal(d, gens)
            nullity = restriction(ideal).nullity
            assert nullity == oracle_kernel(ideal), ideal.generators
            seen.add(min(nullity, 2))
        assert seen == {0, 1, 2}, seen


class TestConjugateNullity:
    """The count of invariant forms of degree d - d' that the verdict reads,
    held against the Bareiss oracle and against the sweep."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_count_agrees_with_the_bareiss_oracle(self, d):
        # every faithful sorted (a, b, c) mod d; the oracle knows neither the
        # restriction nor the conjugate forms
        oracle = {}
        for weights in itertools.combinations_with_replacement(range(d), 3):
            if math.gcd(*weights, d) != 1:
                continue
            ideal = invariant_monomials(Action(d, weights))
            if ideal.generators not in oracle:
                oracle[ideal.generators] = oracle_kernel(ideal)
            assert conjugate_nullity(ideal.action) == oracle[ideal.generators], weights

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_count_agrees_with_the_sweep_where_the_shifted_weights_share_a_factor(self, seed):
        # 100 seeded actions with 25 <= d <= 120 and g = gcd(b-a, c-a, d) > 1
        rng = random.Random(seed)
        counts = set()
        while len(counts) < 100:
            d = rng.randint(25, 120)
            weights = tuple(rng.randrange(d) for _ in range(3))
            if math.gcd(*weights, d) != 1 or _shifted_faithful(d, weights):
                continue
            action = Action(d, weights)
            count = conjugate_nullity(action)
            assert restriction(invariant_monomials(action)).nullity == count, action
            counts.add((action, count))
        assert max(count for _, count in counts) > 1


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
    @pytest.mark.parametrize("d", [420, 840])
    def test_signed_binomials_equal_math_comb(self, d):
        # outside the paper's family: the rows the sweep of (0, 2, 5) reads
        binomials = wlp._SignedBinomials()
        for _, _, k in invariant_monomials(Action(d, (0, 2, 5))).generators:
            assert binomials[k] == [(-1) ** k * math.comb(k, m) for m in range(k + 1)], k


class TestEliminationLimit:
    def test_every_elimination_refuses_past_it(self):
        # (0, 0, 1) at d = 100000: 100002 generators, 10^10 cells of E
        ideal = invariant_monomials(Action(100000, (0, 0, 1)))
        assert ideal.mu * (ideal.d + 1) > wlp.ELIMINATION_LIMIT
        with pytest.raises(SizeLimitError) as info:
            restriction(ideal)
        assert str(info.value) == ("the cell count mu * (d + 1) of E for 100002 generators at "
                                   "d = 100000 is 10000300002, past ELIMINATION_LIMIT = 10000000")
        # the count needs no elimination
        assert conjugate_nullity(ideal.action) == 1

    def test_the_limit_is_inclusive(self, monkeypatch):
        ideal = invariant_monomials(Action(7, (0, 1, 3)))
        monkeypatch.setattr(wlp, "ELIMINATION_LIMIT", ideal.mu * 8)
        assert restriction(ideal).nullity == 1
        monkeypatch.setattr(wlp, "ELIMINATION_LIMIT", ideal.mu * 8 - 1)
        with pytest.raises(SizeLimitError, match="ELIMINATION_LIMIT"):
            restriction(ideal)

    def test_no_ideal_up_to_d_270_is_refused(self):
        # an ideal of degree d has at most the (d+1)(d+2)/2 monomials of
        # degree d: all of them fit up to d = 270, and not at d = 271
        def cells(d):
            return (d + 1) * (d + 2) // 2 * (d + 1)

        assert cells(270) <= wlp.ELIMINATION_LIMIT < cells(271)
        assert restriction(invariant_monomials(Action(270, (0, 0, 1)))).nullity == 1
        # (1, 1, 1) keeps all of them: the d + 1 first columns are unit pivots
        assert wlp.Restriction.of(Action(270, (1, 1, 1))).nullity == 270 * 271 // 2

    def test_the_interactive_pool_stays_far_below_it(self):
        # at most 3480 cells: the repeated-weight (6, 6, 13) at d = 28, mu = 120
        cells = max(ideal.mu * (ideal.d + 1) for ideal in _pool_ideals())
        assert 1000 * cells < wlp.ELIMINATION_LIMIT


class TestCandidateRule:
    def test_restriction_agrees_with_the_plain_elimination(self):
        # every faithful action with 3 <= d <= 12: the sweep's nullity is the
        # plain elimination's, and v is kept exactly for the Togliatti systems
        seen = {"actions": 0, "togliatti": 0, "non_candidates": 0}
        for d in range(3, 13):
            for weights in itertools.product(range(d), repeat=3):
                if math.gcd(*weights, d) != 1:
                    continue
                ideal = invariant_monomials(Action(d, weights))
                r = restriction(ideal)
                assert r.nullity == plain_nullity(ideal), (d, weights)
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


def mutant(monkeypatch, name, old, new):
    """Replace the wlp function `name`, for wlp and for cli where cli imports
    it, by a copy of its source with the one line `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(wlp, name)))
    assert source.count(old) == 1, old
    namespace = dict(vars(wlp))
    exec(compile(source.replace(old, new), wlp.__file__, "exec"), namespace)
    for module in (wlp, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, namespace[name])
    return namespace


def mutant_restriction(monkeypatch, old, new):
    return mutant(monkeypatch, "restriction", old, new)


class TestSweep:
    """The column sweep, its checked invariant and its mutants."""

    def test_nullity_one_wherever_the_shifted_weights_are_faithful(self):
        # every faithful (a, b, c) with 0 <= a <= b <= c < d <= 30: the
        # sweep's nullity is the count of conjugate forms, which is 1 where
        # (0, b-a, c-a) is faithful; restriction raises ConsistencyError on
        # any other, so the sweep is held against the conjugate-forms proof
        seen = {"actions": 0, "shifted_faithful": 0}
        for d in range(2, 31):
            for a, b, c in itertools.combinations_with_replacement(range(d), 3):
                if math.gcd(a, b, c, d) != 1:
                    continue
                action = Action(d, (a, b, c))
                r = restriction(invariant_monomials(action))
                assert r.nullity == conjugate_nullity(action), action
                seen["actions"] += 1
                if _shifted_faithful(d, (a, b, c)):
                    assert r.nullity == 1, action
                    seen["shifted_faithful"] += 1
        assert seen == {"actions": 37066, "shifted_faithful": 32325}, seen

    @pytest.mark.parametrize("d,weights,nullity",
                             [(4, (1, 1, 1), 10), (9, (1, 1, 4), 12), (6, (5, 1, 1), 5)])
    def test_the_invariant_checks_shifted_weights_with_a_common_factor(self, monkeypatch, d,
                                                                      weights, nullity):
        ideal = invariant_monomials(Action(d, weights))
        assert not _shifted_faithful(d, ideal.action.weights)
        assert restriction(ideal).nullity == conjugate_nullity(ideal.action) == nullity
        mutant(monkeypatch, "conjugate_nullity", "return invariant_count(",
               "return 1 + invariant_count(")
        message = f"nullity {nullity} of E where the conjugate forms give {nullity + 1}"
        with pytest.raises(ConsistencyError, match=message):
            wlp.Restriction.of(ideal.action)
        assert wlp.restriction(ideal).nullity == nullity  # the plain sweep holds it to nothing

    def test_the_invariant_leaves_a_subset_labelled_with_the_action(self):
        # (0, 1, 3) mod 7 without x^4 y z^2, a term of the product: nullity 0
        # is correct for this subset, which is not the action's invariant ideal
        ideal = invariant_monomials(Action(7, (0, 1, 3)))
        smaller = GTIdeal(7, [g for g in ideal.generators if g != (4, 1, 2)], ideal.action)
        assert _shifted_faithful(7, ideal.action.weights)
        r = restriction(smaller)
        assert (r.nullity, r.v, r.togliatti) == (0, None, False)

    def test_of_is_the_sweep_of_the_listed_ideal(self, sweeps):
        # every faithful (a, b, c), a <= b <= c < d <= 14: Restriction.of
        # lists the ideal once and sweeps it once, with the nullity and v of
        # the two-step route
        actions = 0
        for d in range(2, 15):
            for a, b, c in itertools.combinations_with_replacement(range(d), 3):
                if math.gcd(a, b, c, d) != 1:
                    continue
                action = Action(d, (a, b, c))
                sweeps.clear()
                r = wlp.Restriction.of(action)
                ideal = invariant_monomials(action)
                assert r.ideal == ideal and [i for i, _ in sweeps] == [ideal], action
                plain = restriction(ideal)
                assert (r.nullity, r.v) == (plain.nullity, plain.v), action
                actions += 1
        assert actions == 2129

    def test_a_nullity_off_by_one_passes_the_plain_sweep_only(self, monkeypatch):
        mutant_restriction(monkeypatch, "nullity = mu - len(firsts)",
                           "nullity = mu - len(firsts) + 1")
        action = Action(7, (0, 1, 3))
        assert wlp.restriction(invariant_monomials(action)).nullity == 2
        with pytest.raises(ConsistencyError, match="nullity 2 of E where the conjugate forms give 1"):
            wlp.Restriction.of(action)

    def test_the_count_is_no_sweep(self, sweeps):
        ideal = invariant_monomials(Action(13, (0, 1, 4)))
        assert conjugate_nullity(ideal.action) == 1 and sweeps == []
        assert wlp.restriction(ideal).nullity == 1 and sweeps == [(ideal, [])]

    def test_only_rows_with_an_entry_at_a_free_column_are_stepped(self, monkeypatch, sweeps):
        # (0, 2, 5) mod 30: 21 generators at 14 distinct first columns leave
        # 7 rows over, and nullity 1 makes 6 of them pivots at free columns.
        # At each of those just one other row has an entry: 6 steps, where
        # stepping every row left would take 6 + 5 + ... + 1 = 21
        ideal = invariant_monomials(Action(30, (0, 2, 5)))
        assert ideal.mu == 21 and max(len({g[k] for g in ideal.generators}) for k in range(3)) == 14
        entries = []
        step = wlp.fraction_free_step

        def spy(row, col, *args):
            entries.append((col, row[col]))
            return step(row, col, *args)

        monkeypatch.setattr(wlp, "fraction_free_step", spy)
        assert wlp.restriction(ideal).nullity == 1
        assert [col for col, _ in entries] == [1, 3, 5, 7, 11, 13]
        assert all(entry for _, entry in entries)
        assert len(sweeps) == 1 and len(sweeps[0][1]) == 6

    def test_a_skipped_unit_pivot_update_exits_2(self, capsys, monkeypatch):
        # the first nonzero entry at a unit pivot column is left in place
        skipped = []
        namespace = mutant_restriction(monkeypatch, "                if x:\n",
                                       "                if x and (skipped or skipped.append(x)):\n")
        namespace["skipped"] = skipped
        for argv in (["minimal", "--d", "7", "--action", "0,1,3"],
                     ["report", "--d", "13", "--a", "4"]):
            skipped.clear()
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and "not in the kernel of E" in err
            assert len(skipped) == 1

    @pytest.mark.parametrize("argv", [
        ["minimal", "--d", "7", "--action", "0,1,3"],
        ["report", "--d", "3000", "--action", "0,0,1"],
        ["conjecture-scan", "--dmax", "5"],
        ["circulant", "--d", "7", "--a", "1", "--b", "3"],
    ])
    def test_a_nullity_off_by_one_exits_2(self, capsys, monkeypatch, argv):
        # the sweep's nullity one too many: Restriction.of, which every
        # command calls, is the check that catches it
        mutant_restriction(monkeypatch, "nullity = mu - len(firsts)",
                           "nullity = mu - len(firsts) + 1")
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "nullity 2 of E where the conjugate forms give 1" in err

    @pytest.mark.parametrize("argv,nullity", [
        (["report", "--d", "7", "--action", "0,1,3"], 1),
        (["report", "--d", "30", "--action", "0,2,5"], 1),
        (["report", "--d", "9", "--action", "1,1,4"], 12),
        (["minimal", "--d", "7", "--action", "0,1,3"], 1),
        (["conjecture-scan", "--dmax", "5"], 1),
    ])
    def test_a_count_off_by_one_exits_2_where_the_sweep_runs(self, capsys, monkeypatch, argv,
                                                              nullity):
        mutant(monkeypatch, "conjugate_nullity", "return invariant_count(",
               "return 1 + invariant_count(")
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == (f"gtsys: consistency failure: nullity {nullity} of E "
                                     f"where the conjugate forms give {nullity + 1}\n")

    @pytest.mark.parametrize("tamper", ["shift", "zero"])
    def test_tampered_kernel_vector_is_caught(self, monkeypatch, tamper):
        # (0, 1, 3) mod 7: one leftover row, no fraction-free step
        tampered = {"shift": "v = tuple(rows[-1][width:-1]) + (rows[-1][-1] + 1,)",
                    "zero": "v = (0,) * mu"}[tamper]
        mutant_restriction(monkeypatch, "v = tuple(rows[-1][width:])", tampered)
        ideal = invariant_monomials(Action(7, (0, 1, 3)))
        with pytest.raises(ConsistencyError, match="not in the kernel of E"):
            wlp.restriction(ideal)

    def test_past_the_elimination_at_large_d(self, sweeps):
        # (0, 0, 1): the d + 1 columns y^j have unit pivots, nullity mu - d - 1 = 1
        ideal = invariant_monomials(Action(3000, (0, 0, 1)))
        r = wlp.restriction(ideal)
        assert (r.nullity, r.v) == (1, None)
        assert sweeps == [(ideal, [])]

    def test_combinations_only_for_togliatti_candidates(self, sweeps):
        # random ideals without an action, with and without the pure powers:
        # the rows of a fraction-free step carry the mu combination entries
        # exactly for a candidate
        rng = random.Random(23)
        stepped = {True: 0, False: 0}
        for _ in range(1500):
            d = rng.randint(3, 12)
            monomials = [(d - b - c, b, c) for b in range(d + 1) for c in range(d + 1 - b)]
            gens = rng.sample(monomials, rng.randint(1, len(monomials)))
            if rng.random() < 0.5:
                gens += [(d, 0, 0), (0, d, 0), (0, 0, d)]
            ideal = GTIdeal(d, gens)
            r = wlp.restriction(ideal)
            candidate = wlp._candidate(ideal)
            widths = sweeps[-1][1]
            assert set(widths) <= {d + 1 + (ideal.mu if candidate else 0)}, gens
            assert (r.v is not None) == (candidate and r.nullity > 0), gens
            stepped[candidate] += bool(widths)
        assert min(stepped.values()) > 0, stepped


def _verdict(ideal):
    """The verdict of an enumerated ideal, built here from the ideal and its
    sweep: mu and the pure powers read off the generators, the nullity off
    restriction(ideal), in the order of WlpVerdict's fields."""
    d, mu, nullity = ideal.d, ideal.mu, restriction(ideal).nullity
    dim_source, dim_target = d * (d + 1) // 2, (d + 1) * (d + 2) // 2 - mu
    rank = dim_source - nullity
    bound_ok = mu <= d + 1
    return WlpVerdict(ideal.action, d, mu, dim_source, dim_target,
                      rank if d <= RANK_REPORT_LIMIT else None, nullity > 0,
                      rank < min(dim_source, dim_target), bound_ok,
                      nullity >= 1 and ideal.has_pure_powers() and bound_ok, "conjugate_forms")


class TestVerdicts:
    @pytest.mark.parametrize("d", range(2, 15))
    def test_counts_give_the_verdict_of_the_enumerated_ideal(self, d):
        # WlpVerdict.of (two counts, no ideal) against the enumeration and the
        # sweep, for every faithful action; its ideal always holds the three
        # pure powers (a*d = 0 mod d), which the verdict takes for granted
        for weights in itertools.product(range(d), repeat=3):
            if math.gcd(*weights, d) != 1:
                continue
            action = Action(d, weights)
            ideal = invariant_monomials(action)
            assert ideal.has_pure_powers(), weights
            assert WlpVerdict.of(action) == _verdict(ideal), weights

    def test_classical_degree_three(self):
        v = WlpVerdict.of(Action(3, (0, 1, 2)))
        assert v.mu == 4
        assert (v.dim_source, v.dim_target) == (6, 6)
        assert v.rank == 5
        assert v.fails_injectivity and v.generator_bound_ok
        assert v.is_togliatti and v.to_json()["is_gt"]
        assert v.method == "conjugate_forms"

    @pytest.mark.parametrize("d,a", [(5, 2), (7, 3), (11, 4), (13, 6)])
    def test_prime_actions_are_gt_systems(self, d, a):
        v = WlpVerdict.of(Action(d, (0, 1, a)))
        assert v.mu == 3 + (d - 1) // 2
        assert v.fails_injectivity and v.is_togliatti and v.to_json()["is_gt"]

    def test_injectivity_failure_has_corank_exactly_one_for_primes(self):
        for d, a in ((5, 2), (7, 3), (11, 2)):
            v = WlpVerdict.of(Action(d, (0, 1, a)))
            assert v.rank == v.dim_source - 1

    def test_degenerate_direction_is_not_togliatti(self):
        v = WlpVerdict.of(Action(3, (0, 1, 1)))
        assert not v.is_togliatti  # mu = 5 exceeds d + 1 = 4

    def test_exact_verdict_above_rank_report_limit(self):
        action = Action(RANK_REPORT_LIMIT + 1, (0, 1, 3))
        assert conjugate_nullity(action) == 1
        v = WlpVerdict.of(action)
        assert v.method == "conjugate_forms"
        assert v.rank is None
        assert v.fails_injectivity and v.fails_wlp_at_d_minus_1 and v.is_togliatti

    def test_verdict_above_rank_report_limit_agrees_with_oracle(self):
        d = RANK_REPORT_LIMIT + 1
        for weights in ((0, 1, 3), (0, 1, 1), (0, 0, 1)):
            ideal = invariant_monomials(Action(d, weights))
            v = WlpVerdict.of(ideal.action)
            rank, dim_src = oracle_rank(ideal)
            assert v.dim_source == dim_src, weights
            assert v.fails_injectivity == (rank < dim_src), weights
            assert v.fails_wlp_at_d_minus_1 == (rank < min(dim_src, v.dim_target)), weights

    def test_repeated_weight_at_large_d(self):
        # (0, a, a) and (0, 0, c) used to raise above d = 16
        v = WlpVerdict.of(Action(40, (0, 1, 1)))
        assert v.mu == 42
        assert v.fails_injectivity
        assert v.fails_wlp_at_d_minus_1 is False
        assert not v.is_togliatti  # mu 42 > d + 1
        assert WlpVerdict.of(Action(20, (0, 0, 1))).fails_injectivity

    def test_verdict_beyond_product_limit(self):
        # the ternary product stops at d = 128; the verdict does not
        action = Action(200, (0, 1, 3))
        assert conjugate_nullity(action) == 1
        v = WlpVerdict.of(action)
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
        # the verdict's counts say no Togliatti system; the sweep agrees
        action = Action(5, (0, 1, 1))
        assert not WlpVerdict.of(action).is_togliatti
        with pytest.raises(ValueError, match=f"^{wlp.NOT_TOGLIATTI}$") as info:
            Restriction.of(action).minimal
        assert not isinstance(info.value, SizeLimitError)

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


class TestKernelVector:
    @pytest.mark.parametrize("d,weights,stepped", [
        (3, (0, 1, 2), False), (7, (0, 1, 3), False), (13, (0, 1, 4), False),
        (18, (0, 2, 9), False), (24, (0, 1, 7), False),
        # no weight difference is a unit mod 30: rows are left over past the
        # free columns, and the sweep takes fraction-free steps there
        (30, (0, 2, 5), True), (30, (0, 3, 5), True),
    ])
    def test_one_restriction_per_call(self, sweeps, d, weights, stepped):
        r = wlp.restriction(invariant_monomials(Action(d, weights)))
        assert r.minimal
        assert len(sweeps) == 1 and bool(sweeps[0][1]) == stepped

    def test_kernel_vector_is_proportional_to_the_circulant_product(self, sweeps):
        units = 0
        for action in faithful_units(range(3, 17)):
            d, (_, a, b) = action.d, action.weights
            ideal = invariant_monomials(action)
            if not 0 < a < b or conjugate_nullity(action) != 1:
                continue
            units += 1
            v = wlp.restriction(ideal).v
            product = circulant_product(d, (0, a, b))
            assert product.support() <= set(ideal.generators), action
            c = [product.coefficient(g) for g in ideal.generators]
            k = next(i for i, ci in enumerate(c) if ci)
            assert v[k], action
            assert all(vi * c[k] == ci * v[k] for vi, ci in zip(v, c)), action
        assert units == 493
        # below d = 30 some weight difference of a faithful (0, a, b) is a
        # unit: one row is left over, and no fraction-free step is taken
        assert all(widths == [] for _, widths in sweeps)

    def test_nullity_two_is_not_minimal_whatever_the_kernel_vector(self, monkeypatch):
        # The last row may hold any kernel vector.  Here the sum of the last
        # two is nonzero at every generator but the pure power z^6, which
        # minimality does not read, yet the ideal is not minimal.
        ideal = GTIdeal(6, ((6, 0, 0), (5, 1, 0), (5, 0, 1), (1, 5, 0),
                            (0, 6, 0), (0, 5, 1), (0, 0, 6)))
        assert restriction(ideal).nullity == 2
        assert not single_removal_oracle(ideal)
        mutant_restriction(monkeypatch, "v = tuple(rows[-1][width:])",
                           "v = tuple(map(sum, zip(rows[-2][width:], rows[-1][width:])))")
        r = wlp.restriction(ideal)
        assert r.nullity == 2 and all(r.v[:-1])
        assert not r.minimal

    @pytest.mark.parametrize("tamper", ["shift", "zero"])
    def test_tampered_fraction_free_step_is_caught(self, monkeypatch, tamper):
        # (0, 2, 5) mod 30: the combination part of the first stepped row is
        # tampered with, and v, read off the last row, is checked
        ideal = invariant_monomials(Action(30, (0, 2, 5)))
        real = wlp.fraction_free_step
        width = ideal.d + 1
        steps = []

        def tampered(row, *args):
            row = real(row, *args)
            if not steps:
                if tamper == "shift":
                    row[-1] += 1
                else:
                    row[width:] = [0] * ideal.mu
            steps.append(row)
            return row

        monkeypatch.setattr(wlp, "fraction_free_step", tampered)
        with pytest.raises(ConsistencyError, match="not in the kernel of E"):
            restriction(ideal)


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
        # the ternary product stops at circulant.TERNARY_LIMIT; the kernel
        # vector does not
        d = 200
        assert d > circulant.TERNARY_LIMIT
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

        monkeypatch.setattr(circulant, "circulant_product", no_expansion)
        d = circulant.TERNARY_LIMIT + 1
        r = Restriction.of(Action(d, (0, 1, 3)))
        with pytest.raises(SizeLimitError) as info:
            r.newton_product()
        assert str(info.value) == (f"the d of a ternary product is {d}, "
                                   f"past TERNARY_LIMIT = {circulant.TERNARY_LIMIT}")
        ideal = GTIdeal(3, invariant_monomials(Action(3, (0, 1, 2))).generators)
        assert restriction(ideal).newton_product() is None

    def test_newton_product_must_stay_in_the_ideal(self):
        # the ideal of (0, 1, 3) mod 7 without x^4 y z^2, which the product has
        ideal = invariant_monomials(Action(7, (0, 1, 3)))
        assert (4, 1, 2) in ideal.generators
        smaller = GTIdeal(7, [g for g in ideal.generators if g != (4, 1, 2)], ideal.action)
        with pytest.raises(ConsistencyError, match="escapes the invariant monomial span"):
            wlp.Restriction(smaller, 2, None).newton_product()

    def test_newton_product_is_compared_only_with_nullity_one(self, monkeypatch):
        real = circulant_product
        monkeypatch.setattr(circulant, "circulant_product",
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


class TestEvaluationCheck:
    # the product read off v against the eigenvalue product at two points of
    # F_p, p = 1 (mod d) near 2^61

    def test_agrees_with_the_newton_product_on_every_unit_to_d_40(self):
        # (0, ka, kb) for a unit k has the ideal and the product of (0, a, b),
        # as j -> jk permutes the factors: Newton runs once per ideal
        newton = {}
        units = 0
        for d in range(3, 41):
            for a in range(1, d):
                for b in range(a + 1, d):
                    if math.gcd(a, b, d) != 1:
                        continue
                    r = restriction(invariant_monomials(Action(d, (0, a, b))))
                    if r.product is None:
                        assert r.evaluation_check() is False
                        continue
                    assert r.evaluation_check() is True
                    if r.ideal.generators not in newton:
                        newton[r.ideal.generators] = r.newton_product().terms
                    assert newton[r.ideal.generators] == r.product.terms, (d, a, b)
                    units += 1
        assert units == 8410

    @pytest.mark.parametrize("d,weights", [(7, (0, 1, 3)), (30, (0, 2, 5)), (127, (0, 5, 17)),
                                           (256, (0, 5, 17)), (13, (4, 8, 11))])
    def test_every_changed_coefficient_is_caught(self, d, weights):
        r = restriction(invariant_monomials(Action(d, weights)))
        assert r.evaluation_check()
        for g in r.product.terms:
            wrong = r.replace()
            terms = dict(r.product.terms)
            terms[g] += 1
            wrong.__dict__["product"] = SparsePoly(3, terms)
            with pytest.raises(ConsistencyError, match="mod p disagrees with the kernel vector"):
                wrong.evaluation_check()

    @pytest.mark.parametrize("d,weights", [(7, (0, 1, 2)), (30, (0, 1, 2)), (31, (1, 3, 5)),
                                           (128, (0, 1, 2)), (256, (0, 5, 10))])
    def test_a_swap_of_equal_weight_coefficients_is_caught(self, d, weights):
        # with a + c = 2b (mod d), m*xz and m*y^2 are both invariant; a swap
        # of their coefficients keeps every monomial's weight, and one fixed
        # ray of points, such as (t, 3t, 9t), would give both the same value
        assert (weights[0] + weights[2] - 2 * weights[1]) % d == 0
        r = restriction(invariant_monomials(Action(d, weights)))
        terms = r.product.terms
        swaps = 0
        for (i, j, k), q in terms.items():
            other = (i - 1, j + 2, k - 1)
            if i and k and terms.get(other, q) != q:
                wrong = r.replace()
                swapped = dict(terms)
                swapped[(i, j, k)], swapped[other] = terms[other], q
                wrong.__dict__["product"] = SparsePoly(3, swapped)
                with pytest.raises(ConsistencyError, match="mod p disagrees with the kernel vector"):
                    wrong.evaluation_check()
                swaps += 1
        assert swaps > 0

    @pytest.mark.parametrize("d", [3, 7, 30, 256])
    def test_the_points_are_projectively_distinct_and_seeded_by_the_action(self, d):
        p, _ = wlp._prime_field(d)
        rays = set()
        for weights in ((0, 1, 2), (0, 1, 3 % d), (1, 2, 0), (0, 2, 1)):
            (x, y, z), (x2, y2, z2) = wlp._check_points(d, weights, p)
            assert x * y * z * x2 * y2 * z2 % p
            # no 2x2 minor of the two points vanishes: they differ projectively
            assert (x * y2 - y * x2) % p and (x * z2 - z * x2) % p and (y * z2 - z * y2) % p
            rays.add((y * pow(x, -1, p) % p, z * pow(x, -1, p) % p))
        assert len(rays) == 4

    def test_nothing_is_compared_without_a_product(self, monkeypatch):
        def no_field(d):
            raise AssertionError("a prime was drawn")

        monkeypatch.setattr(wlp, "_prime_field", no_field)
        r = restriction(invariant_monomials(Action(7, (0, 1, 3))))
        assert r.replace(nullity=2).evaluation_check() is False
        ideal = GTIdeal(3, invariant_monomials(Action(3, (0, 1, 2))).generators)
        assert restriction(ideal).evaluation_check() is False  # no action

    def test_the_field_is_drawn_once_per_d(self):
        wlp._prime_field.cache_clear()
        for weights in ((0, 1, 3), (0, 1, 5), (0, 2, 3)):
            assert restriction(invariant_monomials(Action(7, weights))).evaluation_check()
        info = wlp._prime_field.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 2, 256)
        p, w = wlp._prime_field(7)
        assert p % 7 == 1 and 2**61 <= p < 2**61 + 2**59 and pow(w, 7, p) == 1 != w

    def test_runs_past_the_ternary_limit_at_o_d_plus_mu(self, monkeypatch):
        def no_expansion(d, positions):
            raise AssertionError(f"expanded at d = {d}")

        monkeypatch.setattr(circulant, "circulant_product", no_expansion)
        d = 256
        assert d > circulant.TERNARY_LIMIT
        assert restriction(invariant_monomials(Action(d, (0, 5, 17)))).evaluation_check()


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
        def no_scan(cls, action):
            raise AssertionError(f"scanned {action}")

        monkeypatch.setattr(wlp.Restriction, "of", classmethod(no_scan))
        limit = circulant.TERNARY_LIMIT
        for d_values in (range(3, limit + 2), [limit + 1, 5], range(3, 10**12)):
            with pytest.raises(SizeLimitError) as info:
                conjecture_scan(d_values)
            assert str(info.value) == (f"the d of a ternary product is {limit + 1}, "
                                       f"past TERNARY_LIMIT = {limit}")

    def test_one_enumeration_and_one_restriction_per_unit(self, sweeps, monkeypatch):
        enumerations = []
        real = invariant_monomials

        def spy(action):
            enumerations.append(action)
            return real(action)

        monkeypatch.setattr(wlp, "invariant_monomials", spy)
        out = conjecture_scan(range(3, 13))
        assert sum(u["status"] == "ok" for u in out["units"]) == 196
        assert len(enumerations) == 196
        # every unit below d = 30 is in the paper's family: one leftover row,
        # no fraction-free step
        assert len(sweeps) == 196 and all(widths == [] for _, widths in sweeps)

    def test_units_outside_the_family_take_fraction_free_steps(self, sweeps):
        out = conjecture_scan([30])
        units = [u for u in out["units"] if "mu" in u]
        outside = [u for u in units
                   if all(math.gcd(w, 30) > 1 for w in (u["a"], u["b"], u["b"] - u["a"]))]
        assert len(outside) == 24 and out["findings"] == []
        assert len(sweeps) == len(units)
        stepped = [ideal.action.weights[1:] for ideal, widths in sweeps if widths]
        assert stepped == [(u["a"], u["b"]) for u in outside]

    def test_units_agree_with_the_verdict_and_the_circulant_route(self):
        units = [u for u in conjecture_scan(range(3, 17))["units"] if "mu" in u]
        assert len(units) == 493
        for u in units:
            weights = (0, u["a"], u["b"])
            ideal = invariant_monomials(Action(u["d"], weights))
            verdict = WlpVerdict.of(ideal.action)
            assert (u["mu"], u["togliatti"]) == (verdict.mu, verdict.is_togliatti), u
            circ = circulant_product(u["d"], weights).support() == set(ideal.generators)
            assert u["minimal_circulant"] == circ, u
            assert u["minimal_oracle"] == restriction(ideal).minimal, u
