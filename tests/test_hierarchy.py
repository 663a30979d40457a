import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from empathica import (
    EmpathyMatrix,
    Game2x2,
    HierarchyAnalysis,
    LimitKind,
    analyze_hierarchy,
    anti_coordination_game,
    berge_solutions,
    outcome_label,
    region_map,
    two_population_equilibria,
    check_consistency,
    consistent_family,
    coordination_game,
    default_battery,
    equilibrium_signature,
    infinitely_consistent,
    level_game,
    matching_pennies,
    prisoners_dilemma,
    pure_nash,
    spectral_limit,
    structural_epsilons,
    transform,
)
from empathica.equilibria import _KEY_PAIRS, _player_key
from empathica.games import _differences, _powers, _transformed_differences
from empathica.io import hierarchy_csv, region_csv
from oracles import (
    brute_berge,
    edge_games,
    exact_equilibrium_signature,
    exact_outcome_label,
    exact_pure_nash,
    reference_check_consistency,
    reference_equilibrium_signature,
    reference_hierarchy_csv,
    reference_levels,
    reference_exact_epsilons,
    reference_spectral_eigenvalues,
    reference_structural_base,
    reference_structural_epsilons,
)


def level_key(g: Game2x2) -> tuple:
    """The key-pair table's key of a level game: both players' ``_player_key``."""
    a1, a2, c1, c2 = _differences(g)
    return (_player_key(a1, a2), _player_key(c1, c2))


def ones(rho: float) -> EmpathyMatrix:
    return EmpathyMatrix.homogeneous(rho / 2.0, rho / 2.0)


def max_diff(a: EmpathyMatrix, b: EmpathyMatrix) -> float:
    return max(abs(x - y) for x, y in zip(a.entries(), b.entries()))


class TestLevelGame:
    def test_level_zero_is_the_base_game(self, pd):
        assert level_game(pd, EmpathyMatrix(1, 0.5, -0.3, 2), 0) == pd

    def test_level_one_is_the_transform(self, pd):
        lam = EmpathyMatrix(1, 0.5, -0.3, 2)
        assert level_game(pd, lam, 1) == transform(pd, lam)

    def test_identity_at_every_level(self, pd):
        for k in range(6):
            assert level_game(pd, EmpathyMatrix.identity(), k) == pd

    def test_equal_weights_scale_level_one_payoffs(self, pd):
        rho = 0.8
        lam = ones(rho)
        lvl1 = level_game(pd, lam, 1)
        for k in (2, 3, 5):
            lvlk = level_game(pd, lam, k)
            factor = rho ** (k - 1)
            for name in ("a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22"):
                assert getattr(lvlk, name) == pytest.approx(
                    factor * getattr(lvl1, name), abs=1e-10
                )

    def test_rejects_negative_level(self, pd):
        with pytest.raises(ValueError):
            level_game(pd, EmpathyMatrix.identity(), -1)


class TestPowerRecurrence:
    def test_equal_weights_closed_form(self):
        lam = ones(0.8)
        for k in range(1, 21):
            factor = 0.8 ** (k - 1)
            closed = EmpathyMatrix(*(factor * e for e in lam.entries()))
            assert max_diff(lam.power(k), closed) < 1e-10

    def test_idempotent_closed_form(self):
        lam = infinitely_consistent(0.5, 0.25)
        for k in range(1, 21):
            assert max_diff(lam.power(k), lam) < 1e-10


class TestCheckConsistency:
    def test_positive_equal_weights_are_structurally_consistent(self):
        verdict = check_consistency(ones(0.8), k_max=10)
        assert verdict.label == "StructurallyConsistent"
        assert verdict.consistent_up_to_k
        for k, eps in enumerate(verdict.epsilons, start=1):
            assert eps == pytest.approx(0.8 ** (k - 1), abs=1e-9)

    def test_small_equal_weights_keep_the_interior_root(self):
        # Every power of this Λ is 0.1^(k-1) times it.  From k = 162 a
        # probe's d1 * d2 underflowed, and the walk read Inconsistent there.
        verdict = check_consistency(EmpathyMatrix(0.05, 0.05, 0.05, 0.05), k_max=300)
        assert verdict.label == "StructurallyConsistent"
        assert verdict.levels_checked == 300

    def test_negative_equal_weights_fail_at_level_two(self):
        verdict = check_consistency(ones(-0.8), k_max=10)
        assert verdict.label == "Inconsistent"
        assert verdict.first_bad_k == 2
        assert verdict.witness_index == 0  # the dilemma probe game
        assert verdict.witness is not None
        sig1, sigk = verdict.witness_signatures
        assert sig1 != sigk

    def test_identity_is_consistent_for_any_battery(self):
        verdict = check_consistency(EmpathyMatrix.identity(), k_max=8)
        assert verdict.consistent_up_to_k
        assert verdict.label != "Inconsistent"

    def test_idempotent_profile_is_consistent(self):
        verdict = check_consistency(infinitely_consistent(0.5, 0.25), k_max=10)
        assert verdict.consistent_up_to_k
        assert verdict.structurally_consistent

    def test_witness_is_the_earliest_level_then_battery_order(self):
        # The first two games break at k=6 and the last two at k=2, so the
        # witness is the first game that breaks at level 2.
        battery = [prisoners_dilemma(), anti_coordination_game(), matching_pennies(),
                   coordination_game()]
        verdict = check_consistency(EmpathyMatrix(1.0, 0.5, -0.5, 1.0), 8, battery)
        assert verdict.first_bad_k == 2
        assert verdict.witness_index == 2
        assert verdict.witness == battery[2]

    def test_levels_checked_on_a_full_walk_and_at_a_mismatch(self):
        full = check_consistency(ones(0.8), k_max=10)
        assert (full.levels_checked, full.guard_hit) == (10, False)
        bad = check_consistency(ones(-0.8), k_max=10)
        assert (bad.first_bad_k, bad.levels_checked, bad.guard_hit) == (2, 2, False)

    def test_overflow_guard_stop_is_reported(self):
        # lam^2 has entries 1e14, past the 1e12 guard, so only level 1 is
        # compared; the verdict still reads ConsistentUpToK.
        verdict = check_consistency(EmpathyMatrix(1e7, 0.0, 0.0, -1e7), 5)
        assert verdict.label == "ConsistentUpToK"
        assert verdict.levels_checked == 1
        assert verdict.guard_hit

    def test_one_power_walk_forms_k_max_minus_one_products(self, products):
        # Every power of this matrix equals the matrix, so the battery walks
        # all 200 levels: lam^2 .. lam^200, each formed once.  The structural
        # test reads lam alone.
        verdict = check_consistency(ones(1.0), k_max=200)
        assert verdict.label == "StructurallyConsistent"
        assert len(products) == 199

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_consistency(EmpathyMatrix.identity(), k_max=1)
        with pytest.raises(ValueError):
            check_consistency(EmpathyMatrix.identity(), k_max=5, battery=[])

    def test_structural_scaling_implies_battery_consistency(self):
        # Whenever every power is a positive multiple of the base matrix,
        # no battery game can change its equilibrium signature.
        rng = random.Random(321)
        found = 0
        while found < 20:
            kind = rng.randrange(3)
            if kind == 0:
                lam = ones(rng.uniform(0.05, 1.5))
            elif kind == 1:
                lam = infinitely_consistent(rng.uniform(-1, 2), rng.uniform(0.1, 2))
            else:
                lam = EmpathyMatrix.homogeneous(rng.uniform(0.1, 1.5), 0.0)
            assert structural_epsilons(lam, 8) is not None
            verdict = check_consistency(lam, k_max=8)
            assert verdict.consistent_up_to_k
            found += 1


# Entries from 1e-160 to 1e150 of either sign, and both signed zeros: the
# squares of the smallest are subnormal, and a matrix of them can have a sum
# of squares that underflows to zero.
fit_entries = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda m, e, sign: sign * m * 10.0**e,
        st.floats(1.0, 9.99),
        st.integers(-160, 150),
        st.sampled_from([1.0, -1.0]),
    ),
)


def _six_families(rng: random.Random) -> EmpathyMatrix:
    """Small-integer weights, either family's outputs, multiples of I,
    rank-one products, and nilpotent rank-one products plus t on l22, whose
    trace t (1e-16 to 1) is small next to their entries."""
    kind = rng.randrange(6)
    if kind == 0:
        return EmpathyMatrix(*(rng.randint(-3, 3) for _ in range(4)))
    if kind == 1:
        eps = rng.uniform(0.05, 3.0)
        return rng.choice(consistent_family(eps, rng.uniform(-3.0, eps * eps / 4.0)))
    if kind == 2:
        l11 = rng.uniform(-3, 3)
        return infinitely_consistent(l11, rng.uniform(0.05, 3) * rng.choice((-1, 1)))
    if kind == 3:
        c = rng.uniform(-3, 3)
        return EmpathyMatrix(c, 0.0, 0.0, c)
    (u1, u2), (v1, v2) = [[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)]
    if kind == 4:
        return EmpathyMatrix(u1 * v1, u1 * v2, u2 * v1, u2 * v2)
    t = 10.0 ** rng.uniform(-16, 0) * rng.choice((-1, 1))
    return EmpathyMatrix(-u1 * u2 * v1, u1 * u1 * v1, -u2 * u2 * v1, u1 * u2 * v1 + t)


class TestStructuralFit:
    """The closed-form structural test against its exact form and against
    the least-squares fit it replaced."""

    @given(st.builds(EmpathyMatrix, *([fit_entries] * 4)), st.integers(1, 30))
    @example(EmpathyMatrix(1e-170, -1e-165, 0.0, 1e-163), 3)
    @example(EmpathyMatrix(1e-160, 0.0, -0.0, 1e-160), 3)
    @example(EmpathyMatrix(-0.0, 0.0, -0.0, 0.0), 2)
    @example(EmpathyMatrix(0.5, 0.5, 0.5, 0.5), 30)
    @example(EmpathyMatrix(1e150, 0.0, 0.0, 1e-150), 2)
    @example(EmpathyMatrix(1e150, 1e140, 1e-150, 1e-160), 2)  # rows 300 decades apart
    @example(EmpathyMatrix(1.0, 0.0, 1.0, 1e-12), 2)  # |det| at the band, tr = 1 + 1e-12
    @example(EmpathyMatrix(1e150, 1e150, 1e150, 1e150), 3)  # eps = 2e150, eps^2 overflows
    @example(EmpathyMatrix(1e-160, 1e-160, 1e-160, 1e-160), 3)  # eps^2 underflows to 0
    @example(EmpathyMatrix(1.0, 1.0, -1.0, -1.0 + 1e-13), 3)  # nearly nilpotent
    @example(EmpathyMatrix(8.3e-147, -7.1e207, 0.0, 8.8e-168), 3)  # rows 354 decades wide
    @settings(max_examples=300, deadline=None)
    def test_rule_matches_the_exact_oracle(self, lam, k_max):
        assert structural_epsilons(lam, k_max) == reference_exact_epsilons(lam, k_max)

    def test_rule_against_the_fit_on_six_families(self):
        # Draws whose powers pass the fit's 1e12 guard are skipped: the fit
        # gave None there whatever the matrix.  Every disagreement must be
        # explained by the walk itself: where only the rule gives scalars,
        # every power is within 1e-12 of them times lam, yet the fit's
        # absolute 1e-9 residual is below the rounding of its large powers
        # (at this seed one rank-one product with trace 6.3 at k_max 10,
        # whose powers reach 5e7); where only the fit does, a row of some
        # power is off its fitted multiple of lam's row by more than 1e-9 of
        # the row (at this seed 381 nilpotent draws plus t, whose powers'
        # det*I terms are below the fit's absolute residual).
        rng = random.Random(17)
        disagreements, explained, both = [], [], 0
        for i in range(20_000):
            lam = _six_families(rng)
            k_max = rng.randint(2, 10)
            walk = list(_powers(lam, k_max + 1))
            if max(max(map(abs, p)) for p in walk[1:]) > 1e12:
                continue
            got = structural_epsilons(lam, k_max)
            fit = reference_structural_epsilons(lam, k_max)
            if (got is None) != (fit is None):
                disagreements.append(i)
                if got is not None and all(
                    max(abs(c - e * b) for c, b in zip(p, walk[0])) <= 1e-12 * max(map(abs, p))
                    for p, e in zip(walk, got)
                ):
                    explained.append(i)
                if fit is not None and any(
                    max(abs(p[j] - e * walk[0][j]) for j in row) > 1e-9 * max(abs(p[j]) for j in row)
                    for p, e in zip(walk, fit)
                    for row in ((0, 1), (2, 3))
                ):
                    explained.append(i)
            elif got is not None:
                both += 1
                assert got == pytest.approx(fit, rel=1e-10)
        assert both > 10_000
        assert disagreements == explained

    def test_zero_sum_of_squares_has_no_fit(self):
        assert structural_epsilons(EmpathyMatrix(1e-170, 0.0, 0.0, -1e-170), 4) is None
        assert structural_epsilons(EmpathyMatrix(-0.0, -0.0, 0.0, -0.0), 4) is None

    @pytest.mark.parametrize(
        "lam", [EmpathyMatrix(2.0, 0.0, 0.0, 2.0), EmpathyMatrix(2.0, 2.0, 0.0, 0.0)]
    )
    def test_exact_doubling_at_every_k_max(self, lam):
        # lam^k = 2^(k-1) * lam exactly; the fit's guard on lam^(k_max+1)
        # used to read ConsistentUpToK from k_max 39 on.
        for k_max in (2, 10, 39, 50):
            verdict = check_consistency(lam, k_max)
            assert verdict.label == "StructurallyConsistent"
            assert verdict.epsilons == tuple(2.0**k for k in range(k_max))

    def test_ten_times_identity(self):
        lam = EmpathyMatrix(10.0, 0.0, 0.0, 10.0)
        verdict = check_consistency(lam, 12)
        assert verdict.label == "StructurallyConsistent"
        assert verdict.epsilons == tuple(10.0**k for k in range(12))
        # 10^319 leaves the float range: no scalars, still consistent, and no
        # error although lam^309 would overflow.
        verdict = check_consistency(lam, 320)
        assert verdict.label == "StructurallyConsistent"
        assert verdict.structurally_consistent and verdict.epsilons is None
        assert (verdict.levels_checked, verdict.guard_hit) == (12, True)

    def test_small_matrices_are_not_scaled_by_an_absolute_residual(self):
        # Every residual of this matrix is below 1e-9, but lam^2 is not a
        # multiple of lam: its rows are far from parallel.
        verdict = check_consistency(EmpathyMatrix(1e-5, 1e-6, 0.0, 2e-5), 10)
        assert verdict.label == "Inconsistent"
        assert not verdict.structurally_consistent and verdict.epsilons is None

    def test_large_rows_do_not_widen_the_band(self):
        # Against the largest entry squared, |det| = 1e20 would look tiny;
        # against tr times the smaller row's largest entry it is not.
        assert structural_epsilons(EmpathyMatrix(1e20, 0.0, 1.0, -1.0), 2) is None

    def test_a_near_nilpotent_lam_is_not_scaled(self):
        # Rows parallel to 1e-13 and trace 1e-13: lam^2 = tr*lam - det*I is
        # about 1e-13 * (0, 1; -1, -2), and lam^3 a negative multiple of lam.
        verdict = check_consistency(EmpathyMatrix(1.0, 1.0, -1.0, -1.0 + 1e-13), 10)
        assert not verdict.structurally_consistent and verdict.epsilons is None

    def test_same_verdict_at_every_k_max(self):
        rng = random.Random(5)
        for _ in range(40):
            lam = _six_families(rng)
            verdicts = [check_consistency(lam, k) for k in range(2, 41)]
            assert len({v.structurally_consistent for v in verdicts}) == 1
            full = structural_epsilons(lam, 40)
            for k, v in zip(range(2, 41), verdicts):
                assert v.epsilons == structural_epsilons(lam, k)
                if full is not None:
                    assert v.epsilons == full[:k]

    def test_rejects_k_max_below_one(self):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            structural_epsilons(EmpathyMatrix.identity(), 0)


# Either family over wide magnitudes: epsilon from 1e-100 to 1e100 and y
# down to 1e-14 * epsilon^2 or up to -1e6 * epsilon^2; idempotent profiles
# with |l11| <= 1e3 and first columns over 1e-50 .. 1e50.
family_outputs = st.tuples(
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-100, 100)),
    st.one_of(st.just(0.0), st.just(0.25), st.builds(
        lambda sign, u: sign * 10.0**u, st.sampled_from([1.0, -1.0]), st.floats(-14.0, 6.0)
    ).map(lambda t: min(t, 0.25))),
).flatmap(lambda t: st.sampled_from(consistent_family(t[0], t[1] * t[0] * t[0])))
idempotent_outputs = st.builds(
    infinitely_consistent,
    st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from([1.0, -1.0]), st.floats(-20, 3)),
    st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from([1.0, -1.0]), st.floats(-50, 50)),
)


class TestFamiliesAreStructurallyConsistent:
    @given(st.one_of(family_outputs, idempotent_outputs), st.integers(2, 400))
    @example(consistent_family(1.0, 1e-12)[1], 400)
    @example(infinitely_consistent(1e3, 0.5), 2)
    @example(infinitely_consistent(-1e3, -1e-50), 2)
    @settings(max_examples=200, deadline=None)
    def test_at_every_k_max(self, lam, k_max):
        verdict = check_consistency(lam, k_max)
        assert verdict.structurally_consistent
        assert verdict.epsilons == reference_exact_epsilons(lam, k_max)


class TestLevelsAreLabelledWithoutLevelGames:
    """Every level is labelled from lam^k's entries and the payoffs; a level
    game is built only where a payoff difference is not finite."""

    @pytest.fixture
    def built(self, monkeypatch):
        games = []
        real = transform

        def counting(g, lam):
            games.append((g, lam))
            return real(g, lam)

        monkeypatch.setattr("empathica.games.transform", counting)
        return games

    @pytest.fixture
    def looked_up(self, monkeypatch):
        """The key pairs that ``hierarchy`` reads from the key-pair table, in
        order."""
        pairs = []

        class Counting(dict):
            def __getitem__(self, pair):
                pairs.append(pair)
                return _KEY_PAIRS[pair]

        monkeypatch.setattr("empathica.hierarchy._KEY_PAIRS", Counting())
        return pairs

    def test_check_consistency(self, built):
        verdict = check_consistency(ones(1.0), 200)
        assert verdict.levels_checked == 200
        assert built == []

    @pytest.mark.parametrize("lam, lookups", [(EmpathyMatrix.identity(), 4), (ones(-0.8), 5)])
    def test_signatures_are_looked_up_only_for_a_changed_key_pair(self, looked_up, lam, lookups):
        # One lookup per battery game at level 1; the identity keeps every
        # key pair, and ones(-0.8) changes the first game's at level 2.
        verdict = check_consistency(lam, 50)
        assert len(looked_up) == lookups
        assert verdict == reference_check_consistency(lam, 50)

    @pytest.mark.parametrize("lam, k_max, lookups", [
        (EmpathyMatrix.identity(), 50, 1),
        (ones(0.8), 200, 1),
        # Pure altruism alternates between the dilemma and its exchanged
        # game, and ones(-0.8) between a game and its negation.
        (EmpathyMatrix(0.0, 1.0, 1.0, 0.0), 50, 50),
        (ones(-0.8), 50, 50),
        # Complex eigenvalues turn the level games a little at each level.
        (EmpathyMatrix(1.0, 0.5, -0.25, 1.0), 200, None),
    ])
    def test_walk_looks_up_a_signature_per_run_of_equal_key_pairs(
        self, looked_up, pd, lam, k_max, lookups
    ):
        analysis = analyze_hierarchy(pd, lam, k_max)
        reference = reference_levels(pd, lam, k_max)
        keys = [level_key(transform(pd, rec.lam_k)) for rec in reference]
        runs = [key for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
        assert looked_up == runs
        assert lookups is None or len(runs) == lookups
        assert analysis.levels == reference

    def test_analyze_hierarchy(self, built, pd):
        analysis = analyze_hierarchy(pd, ones(0.8), 200)
        assert len(analysis.levels) == 200
        assert built == []

    def test_only_where_a_difference_overflows(self, built):
        # Every payoff stays finite, and the row player's first difference
        # is 2e308 at every level of the identity: one build per level, no
        # error, and the labels of the built level games.
        g = Game2x2(1e308, 0.0, -1e308, 0.0, 0.0, 1.0, 1.0, 0.0)
        lam = EmpathyMatrix.identity()
        analysis = analyze_hierarchy(g, lam, 5)
        assert len(built) == 5
        assert analysis.levels == reference_levels(g, lam, 5)
        built.clear()
        assert check_consistency(lam, 5, [g]) == reference_check_consistency(lam, 5, [g])
        assert len(built) == 5


class TestTransformedDifferences:
    """Levels are keyed from ``_transformed_differences``; it must stay bit
    for bit the differences of the built level game."""

    finite = st.floats(allow_nan=False, allow_infinity=False)

    @given(st.builds(Game2x2, *([finite] * 8)), st.builds(EmpathyMatrix, *([finite] * 4)))
    @example(Game2x2(1e308, 0.0, -1e308, 0.0, 0.0, 0.0, 0.0, 0.0), EmpathyMatrix.identity())
    @example(Game2x2(1e308, 0.0, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0), ones(2.0))
    @example(Game2x2(-0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0), EmpathyMatrix(-1.0, 0.0, 0.0, -1.0))
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit_the_level_games_differences(self, g, lam):
        fast = _outcome(_transformed_differences(g), *lam.entries())
        try:
            built = transform(g, lam)
        except ValueError as exc:
            # A non-finite payoff makes a difference non-finite, which sends
            # ``_transformed_differences`` to ``transform`` and its error.
            assert fast == f"ValueError: {exc}"
            return
        assert [x.hex() for x in fast] == [x.hex() for x in _differences(built)]


class TestPositiveScalingInvariance:
    @given(
        st.builds(
            Game2x2,
            *(
                [
                    st.floats(min_value=-20, max_value=20, allow_nan=False).map(
                        lambda v: round(v, 3)
                    )
                ]
                * 8
            ),
        ),
        st.floats(min_value=0.01, max_value=50, allow_nan=False).map(lambda v: round(v, 3)),
    )
    @settings(max_examples=80)
    def test_signature_unchanged_by_positive_scaling(self, g, c):
        if c == 0.0:
            return
        scaled = Game2x2(*(c * v for v in (
            g.a11, g.a12, g.a21, g.a22, g.b11, g.b12, g.b21, g.b22
        )))
        assert equilibrium_signature(scaled) == equilibrium_signature(g)


class TestConsistentFamily:
    def test_double_root_gives_equal_weights(self):
        (lam,) = consistent_family(1.0, 0.25)
        assert lam == EmpathyMatrix(0.5, 0.5, 0.5, 0.5)

    def test_zero_product_includes_scaled_identity(self):
        fams = consistent_family(0.7, 0.0)
        assert EmpathyMatrix(0.7, 0.0, 0.0, 0.7) in fams

    def test_small_root_without_cancellation(self):
        # x^2 - x + 1e-12 has roots 1 - 1.000000000001e-12 and
        # 1.000000000001e-12 to 16 digits; (1 - sqrt(1 - 4e-12)) / 2 keeps
        # only 5 of them.
        big, small = consistent_family(1.0, 1e-12)
        assert (big.l11, big.l22) == (small.l22, small.l11)
        assert big.l22 == pytest.approx(1.000000000001e-12, rel=1e-15, abs=0.0)
        assert check_consistency(big, 10).label == "StructurallyConsistent"

    def test_mixed_sign_roots(self):
        fams = consistent_family(1.0, -2.0)
        assert len(fams) == 2
        for lam in fams:
            assert sorted((lam.l11, lam.l22)) == [-1.0, 2.0]
            assert lam.l12 * lam.l21 == pytest.approx(-2.0)

    def test_every_member_solves_the_matrix_equation(self):
        rng = random.Random(13)
        for _ in range(100):
            eps = rng.uniform(0.05, 3.0)
            y = rng.uniform(-3.0, eps * eps / 4.0)
            for lam in consistent_family(eps, y):
                sq = lam @ lam
                resid = max(abs(a - eps * b) for a, b in zip(sq.entries(), lam.entries()))
                assert resid < 1e-10 * max(1.0, eps, abs(y))

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_y(self, y):
        with pytest.raises(ValueError, match="y must be finite"):
            consistent_family(1.0, y)

    def test_rejects_complex_roots(self):
        with pytest.raises(ValueError):
            consistent_family(1.0, 1.0)
        with pytest.raises(ValueError):
            consistent_family(-1.0, 0.0)


class TestInfinitelyConsistent:
    def test_worked_example(self):
        lam = infinitely_consistent(0.5, 0.25)
        assert lam == EmpathyMatrix(0.5, 1.0, 0.25, 0.5)
        assert max_diff(lam @ lam, lam) < 1e-12

    def test_degenerate_own_weight_one(self):
        lam = infinitely_consistent(1.0, 0.7)
        assert lam == EmpathyMatrix(1.0, 0.0, 0.7, 0.0)
        assert max_diff(lam @ lam, lam) < 1e-12

    def test_identity_is_idempotent_too(self):
        eye = EmpathyMatrix.identity()
        assert max_diff(eye @ eye, eye) == 0.0

    def test_trace_one_determinant_zero(self):
        rng = random.Random(2)
        for _ in range(200):
            l11 = rng.uniform(-3, 3)
            l21 = rng.uniform(0.05, 3) * rng.choice((-1, 1))
            lam = infinitely_consistent(l11, l21)
            assert lam.trace() == pytest.approx(1.0, abs=1e-12)
            assert lam.det() == pytest.approx(0.0, abs=1e-9)
            assert max_diff(lam @ lam, lam) < 1e-9

    def test_random_non_idempotent_matrices_fail(self):
        rng = random.Random(3)
        checked = failed = 0
        while checked < 1000:
            lam = EmpathyMatrix(*(rng.uniform(-2, 2) for _ in range(4)))
            if abs(lam.trace() - 1.0) < 1e-6 and abs(lam.det()) < 1e-6:
                continue  # measure-zero idempotent neighborhood
            checked += 1
            if max_diff(lam @ lam, lam) >= 1e-12:
                failed += 1
        assert failed == checked == 1000

    def test_rejects_zero_l21(self):
        with pytest.raises(ValueError):
            infinitely_consistent(0.5, 0.0)


class TestSpectralLimit:
    def test_quarter_matrix_shrinks_to_zero(self):
        rec = spectral_limit(EmpathyMatrix(0.25, 0.25, 0.25, 0.25), 10)
        evs = sorted(abs(e) for e in rec.eigenvalues)
        assert evs == pytest.approx([0.0, 0.5])
        assert rec.rho == pytest.approx(0.5)
        assert rec.limit_kind is LimitKind.ZERO
        assert rec.limit == EmpathyMatrix(0.0, 0.0, 0.0, 0.0)

    def test_idempotent_converges_to_itself(self):
        lam = infinitely_consistent(0.5, 0.25)
        rec = spectral_limit(lam, 10)
        evs = sorted(abs(e) for e in rec.eigenvalues)
        assert evs == pytest.approx([0.0, 1.0], abs=1e-12)
        assert rec.limit_kind is LimitKind.CONVERGES
        assert max_diff(rec.limit, lam) < 1e-12

    def test_idempotent_radius_just_below_one_converges(self):
        # Rounding puts rho at 0.9999999999999982 for this profile; inside the
        # unit band its powers are walked, and they equal the matrix.
        lam = infinitely_consistent(-2.80, -2.46)
        rec = spectral_limit(lam, 10)
        assert 1.0 - 1e-12 < rec.rho < 1.0
        assert rec.limit_kind is LimitKind.CONVERGES
        assert max_diff(rec.limit, lam) < 1e-9

    def test_random_idempotent_profiles_converge(self):
        rng = random.Random(21)
        for _ in range(2000):
            l21 = rng.uniform(0.05, 3) * rng.choice((-1, 1))
            rec = spectral_limit(infinitely_consistent(rng.uniform(-3, 3), l21), 10)
            assert rec.limit_kind is LimitKind.CONVERGES

    def test_radius_below_the_band_is_zero(self):
        rec = spectral_limit(ones(1.0 - 1e-9), 10)
        assert rec.limit_kind is LimitKind.ZERO

    def test_negative_unit_family_oscillates(self):
        rec = spectral_limit(ones(-1.0), 20)
        assert rec.rho == pytest.approx(1.0)
        assert rec.limit_kind is LimitKind.OSCILLATES

    def test_expanding_matrix_diverges(self):
        rec = spectral_limit(EmpathyMatrix(2.0, 0.0, 0.0, 0.5), 50)
        assert rec.limit_kind is LimitKind.DIVERGES

    def test_trace_past_the_square_root_of_the_float_range(self):
        # tr^2 = 4e308 overflows; (tr/2)^2 = 1e308 does not.
        rec = spectral_limit(EmpathyMatrix(1e154, 0.0, 0.0, 1e154), 2)
        assert rec.eigenvalues == (1e154, 1e154)
        assert rec.rho == 1e154
        assert rec.limit_kind is LimitKind.DIVERGES

    @pytest.mark.parametrize("lam", [EmpathyMatrix.identity(), ones(0.25)])
    def test_rejects_k_max_below_one(self, lam):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            spectral_limit(lam, 0)

    @pytest.mark.parametrize("k_max", [1, 3])
    def test_determinant_past_the_float_range(self, k_max):
        # det = 1e400 overflows, and so did h*h - det (inf - inf = NaN): rho
        # read NaN and Oscillates at k_max 1, and at 3 the walk raised on an
        # infinite power.
        rec = spectral_limit(EmpathyMatrix(1e200, 0.0, 0.0, 1e200), k_max)
        assert rec.eigenvalues == (1e200, 1e200)
        assert rec.rho == 1e200
        assert rec.limit_kind is LimitKind.DIVERGES

    def test_rotation_past_the_float_range_has_a_finite_radius(self):
        # det = 1e400 read inf, so rho was inf and the eigenvalues +-inf*j.
        rec = spectral_limit(EmpathyMatrix(0.0, 1e200, -1e200, 0.0), 3)
        assert rec.eigenvalues == (1e200j, -1e200j)
        assert rec.rho == 1e200
        assert rec.limit_kind is LimitKind.DIVERGES

    def test_eigenvalue_past_the_float_range_is_infinite(self):
        rec = spectral_limit(EmpathyMatrix(1e308, 1e308, 1e308, 1e308), 3)
        assert rec.eigenvalues == (math.inf, 0.0)
        assert rec.rho == math.inf
        assert rec.limit_kind is LimitKind.DIVERGES

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-(2**20), 2**20).map(lambda n: n / 2**16), min_size=4, max_size=4),
        st.integers(-1000, 950),
    )
    def test_scaling_by_a_power_of_two_scales_the_eigenvalues(self, entries, e):
        # Exact at every scale, where the products of 2^e * lam once left the
        # float range for e past about 500, and underflowed below about -500.
        base = spectral_limit(EmpathyMatrix(*entries), 1)
        rec = spectral_limit(EmpathyMatrix(*(math.ldexp(x, e) for x in entries)), 1)
        assert rec.eigenvalues == tuple(z * 2.0**e for z in base.eigenvalues)
        assert rec.rho == base.rho * 2.0**e

    def test_rotation_below_the_square_root_of_the_smallest_float(self):
        # det = 1e-400 underflowed to 0, so the eigenvalues read 0j and rho 0.
        rec = spectral_limit(EmpathyMatrix(0.0, 1e-200, -1e-200, 0.0), 3)
        assert rec.eigenvalues == (1e-200j, -1e-200j)
        assert rec.rho == 1e-200
        assert rec.limit_kind is LimitKind.ZERO

    def test_entries_far_below_the_largest_keep_their_products(self):
        # det = -2^-200 is exact; scaled by 2^-601, the entry 2^-800 would
        # underflow to 0 and both eigenvalues would read 0.
        rec = spectral_limit(EmpathyMatrix(0.0, 2.0**600, 2.0**-800, 0.0), 1)
        assert rec.eigenvalues == (2.0**-100, -(2.0**-100))
        assert rec.rho == 2.0**-100

    def test_matches_the_unscaled_formula_bit_for_bit(self):
        rng = random.Random(24)
        for _ in range(5000):
            scale = 2.0 ** rng.randint(-200, 200)
            lam = EmpathyMatrix(*(rng.choice((0.0, rng.uniform(-3, 3), rng.randint(-4, 4))) * scale
                                  for _ in range(4)))
            rec = spectral_limit(lam, 1)
            # repr tells -0.0 from 0.0 in either part.
            assert repr((rec.eigenvalues, rec.rho)) == repr(reference_spectral_eigenvalues(lam))

    def test_complex_pair(self):
        rec = spectral_limit(EmpathyMatrix(0.0, -0.5, 0.5, 0.0), 10)
        assert rec.eigenvalues[0].imag != 0.0
        assert rec.rho == pytest.approx(0.5)
        assert rec.limit_kind is LimitKind.ZERO

    def test_unit_radius_jordan_block_past_the_guard_diverges(self):
        # Both eigenvalues are 1, so the powers (1, k*1e13; 0, 1) are
        # walked; lam^2 is past the overflow guard and never Cauchy.
        rec = spectral_limit(EmpathyMatrix(1.0, 1e13, 0.0, 1.0), 5)
        assert rec.rho == 1.0
        assert rec.limit_kind is LimitKind.DIVERGES


class TestAnalyzeHierarchy:
    def test_rejects_k_max_below_one_before_any_level(self, pd, monkeypatch):
        monkeypatch.setattr("empathica.hierarchy._transformed_differences", None)
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            analyze_hierarchy(pd, ones(0.5), k_max=0)

    def test_levels_enumerate_matrix_powers(self, pd):
        lam = ones(0.8)
        analysis = analyze_hierarchy(pd, lam, k_max=6)
        assert [rec.k for rec in analysis.levels] == [1, 2, 3, 4, 5, 6]
        assert analysis.levels[0].lam_k == lam
        for rec in analysis.levels:
            assert max_diff(rec.lam_k, lam.power(rec.k)) < 1e-12
        assert analysis.consistent_up_to_k

    def test_level_one_game_is_the_transform_bit_for_bit(self):
        # A -0.0 weight gives a11 = -0.0 * -3 + 0 * -3 = 0.0 in the
        # transform; lam^1 must keep that entry, not form identity @ lam.
        lam = EmpathyMatrix(-0.0, 0.0, 0.0, 1.0)
        g = Game2x2(-3, 1, 2, 0, -3, 5, 1, 2)
        assert repr(level_game(g, lam, 1)) == repr(transform(g, lam))

    def test_power_is_the_walk_power_bit_for_bit(self):
        # Each power is lam @ lam^(k-1), as the hierarchy walks form it, so
        # zero entries keep their sign (compared by repr: -0.0 != 0.0 there).
        rng = random.Random(1402)
        for _ in range(2000):
            lam = EmpathyMatrix(*(rng.choice((0.0, -0.0, rng.uniform(-2, 2))) for _ in range(4)))
            walk = list(_powers(lam, 10))
            for k in range(1, 11):
                assert repr(lam.power(k).entries()) == repr(walk[k - 1])

    def test_level_one_keeps_the_given_matrix(self, pd):
        lam = EmpathyMatrix(0.9, 0.3, -0.2, 1.1)
        assert analyze_hierarchy(pd, lam, 3).levels[0].lam_k is lam

    def test_last_finite_level_is_reported(self, mp):
        # Every power up to lam^308 is finite and lam^309 overflows; the walk
        # must not form a power beyond the last level it reports.
        lam = EmpathyMatrix(10.0, 0.0, 0.0, 10.0)
        analysis = analyze_hierarchy(mp, lam, k_max=308)
        assert len(analysis.levels) == 308
        assert analysis.levels[-1].lam_k == lam.power(308)

    def test_levels_are_built_once_on_first_read(self, pd):
        analysis = analyze_hierarchy(pd, ones(0.8), 20)
        hierarchy_csv(analysis)
        assert "levels" not in vars(analysis)  # the CSV reads the tuples
        levels = analysis.levels
        assert analysis.levels is levels
        assert levels == reference_levels(pd, ones(0.8), 20)

    @pytest.mark.parametrize(
        "lam, k_max",
        [
            (EmpathyMatrix(3, 1, 2, 5), 60),  # integer-valued
            (EmpathyMatrix(-0.0, 0.0, 0.0, -0.0), 4),
            (EmpathyMatrix(1.0, -0.0, -0.0, 1.0), 4),
            (EmpathyMatrix(10.0, 0.0, 0.0, 10.0), 308),  # the last finite level
            (EmpathyMatrix(10.0, 0.0, 0.0, 10.0), 400),  # overflows
            (EmpathyMatrix(10, 0, 0, 10), 400),
            (EmpathyMatrix(1e200, 0.0, 0.0, 1.0), 3),
        ],
    )
    @pytest.mark.parametrize("g", [prisoners_dilemma(), matching_pennies()])
    def test_csv_matches_the_records_of_the_reference(self, g, lam, k_max):
        fast = _outcome(lambda: hierarchy_csv(analyze_hierarchy(g, lam, k_max)))
        slow = _outcome(lambda: reference_hierarchy_csv(reference_levels(g, lam, k_max)))
        assert fast == slow

    def test_sign_flip_breaks_signature(self, pd):
        analysis = analyze_hierarchy(pd, ones(-0.8), k_max=4)
        assert not analysis.consistent_up_to_k
        assert analysis.levels[0].signature != analysis.levels[1].signature

    def test_battery_has_one_game_per_class(self):
        sigs = {equilibrium_signature(g) for g in default_battery()}
        assert len(sigs) == 4


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_walks_match_reference(g, lam, k_max, battery=None):
    """The memoised walks against the same walks with a full
    ``reference_equilibrium_signature`` call per level game: exact levels,
    CSV bytes and verdict fields, or the same ValueError text."""
    analysis = _outcome(analyze_hierarchy, g, lam, k_max)
    levels = _outcome(reference_levels, g, lam, k_max)
    if isinstance(analysis, str) or isinstance(levels, str):
        assert analysis == levels
    else:
        assert analysis.levels == levels
        assert hierarchy_csv(analysis) == hierarchy_csv(
            HierarchyAnalysis(
                lam=analysis.lam,
                k_max=analysis.k_max,
                powers=tuple(rec.lam_k.entries() for rec in levels),
                signatures=tuple(rec.signature for rec in levels),
                consistent_up_to_k=analysis.consistent_up_to_k,
                spectral=analysis.spectral,
            )
        )
    assert _outcome(check_consistency, lam, k_max, battery) == _outcome(
        reference_check_consistency, lam, k_max, battery
    )


# A plain discoordination game (the second) and games whose row player has
# two differences of one strict sign, so an interior root, where d1 * d2
# underflows, the root rounds to zero, a difference overflows to inf, or
# d1 + d2 does.
INTERIOR_ROOT_EDGE_GAMES = [
    Game2x2(1e-200, 0.0, 0.0, 1e-200, 0.0, 1.0, 1.0, 0.0),
    Game2x2(1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0),
    Game2x2(1e300, 0.0, 0.0, 1e-300, 0.0, 1.0, 1.0, 0.0),
    Game2x2(1e308, 0.0, -1e308, 1.0, 0.0, 1.0, 1.0, 0.0),
    Game2x2(1e308, 0.0, 0.0, 1e308, 0.0, 1.0, 1.0, 0.0),
]

OVERFLOWING = [
    EmpathyMatrix(10.0, 0.0, 0.0, 10.0),
    EmpathyMatrix(1e7, 0.0, 0.0, -1e7),
    EmpathyMatrix(3.0, 3.0, 3.0, 3.0),
    EmpathyMatrix(-20.0, 5.0, 5.0, -20.0),
    EmpathyMatrix(1e200, 0.0, 0.0, 1.0),
]

tie_games = st.builds(Game2x2, *([st.integers(-2, 2).map(float)] * 8))
general_lams = st.builds(
    EmpathyMatrix, *([st.floats(-1.5, 1.5, allow_nan=False).map(lambda v: round(v, 2))] * 4)
)
family_lams = (
    st.tuples(st.floats(0.1, 1.5), st.floats(-0.5, 0.5))
    .filter(lambda t: t[0] * t[0] >= 4.0 * t[1])
    .flatmap(lambda t: st.sampled_from(consistent_family(*t)))
)
idempotent_lams = st.builds(
    infinitely_consistent, st.floats(-3.0, 3.0), st.sampled_from([-1.0, 0.1, 0.5, 2.0])
)
lams = st.one_of(general_lams, family_lams, idempotent_lams, st.sampled_from(OVERFLOWING))
real_games = st.builds(Game2x2, *([st.floats(-1e3, 1e3, allow_nan=False)] * 8))
# Entry sizes 0.3 to 100 of either sign, as the benchmark's general weights.
wide_entries = st.builds(
    lambda size, sign: sign * size, st.floats(0.3, 100.0), st.sampled_from([1.0, -1.0])
)
wide_lams = st.builds(EmpathyMatrix, *([wide_entries] * 4))


def strict_ordinal_games() -> list[Game2x2]:
    """The 576 strict ordinal 2x2 games: each player's payoffs are a
    permutation of 1..4."""
    ranks = list(itertools.permutations((1.0, 2.0, 3.0, 4.0)))
    return [Game2x2(*pa, *pb) for pa in ranks for pb in ranks]


class TestPureAltruismOverStrictOrdinalGames:
    """Under pure altruism P = (0, 1; 1, 0) each player takes the other's
    payoff, so level 2 (P^2 = I) is the game itself and level 1 its
    exchanged game.  A game is consistent to level 2 exactly where its Berge
    solutions, the Nash cells of the exchanged game, are its own pure Nash
    cells (Colman et al., J. Math. Psych. 55, 2011)."""

    P = EmpathyMatrix(0.0, 1.0, 1.0, 0.0)

    def test_consistent_exactly_where_berge_equals_nash(self):
        games = strict_ordinal_games()
        consistent = [g for g in games if analyze_hierarchy(g, self.P, 2).consistent_up_to_k]
        berge_is_nash = [
            g for g in games if berge_solutions(g) == [eq.cell for eq in pure_nash(g)]
        ]
        assert len(games) == 576
        assert len(consistent) == 184
        assert consistent == berge_is_nash

    @pytest.mark.parametrize("mu, count", [(0.0, 576), (0.5, 576), (1.0, 184)])
    def test_the_mu_line_where_every_arithmetic_agrees(self, mu, count):
        # Lam_mu = (1 - mu, mu; mu, 1 - mu) has lam^k = J/2 + (1 - 2 mu)^k K/2,
        # J all ones and K = (1, -1; -1, 1).  At mu = 0 (the identity) and
        # mu = 1/2 (J/2) every power is a positive multiple of lam, so every
        # game keeps its level-1 signature; mu = 1 is pure altruism.  These
        # three counts are also the exact ones, unlike the floats' counts at
        # the other multiples of 1/8.
        lam = EmpathyMatrix(1.0 - mu, mu, mu, 1.0 - mu)
        walks = (analyze_hierarchy(g, lam, 200) for g in strict_ordinal_games())
        consistent = sum(walk.consistent_up_to_k for walk in walks)
        assert consistent == count
        structural = "StructurallyConsistent" if count == 576 else "Inconsistent"
        assert check_consistency(lam, 200).label == structural

    def test_battery_is_inconsistent_at_level_two_on_the_dilemma(self):
        verdict = check_consistency(self.P, 2)
        assert verdict.label == "Inconsistent"
        assert (verdict.first_bad_k, verdict.witness_index) == (2, 0)
        assert default_battery()[0] == prisoners_dilemma()


class TestMemoisedWalksMatchReference:
    @given(
        tie_games,
        lams,
        st.integers(2, 40),
        st.sampled_from([None, "with_game", "game_only"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_tie_games(self, g, lam, k_max, battery_kind, rnd):
        battery = None
        if battery_kind == "game_only":
            battery = [g]
        elif battery_kind == "with_game":
            battery = [g, *default_battery()]
            rnd.shuffle(battery)
        assert_walks_match_reference(g, lam, k_max, battery)

    @given(
        real_games,
        st.one_of(wide_lams, lams),
        st.integers(2, 160),
        st.sampled_from([None, "with_game", "game_only"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_real_valued_games(self, g, lam, k_max, battery_kind, rnd):
        battery = None
        if battery_kind == "game_only":
            battery = [g]
        elif battery_kind == "with_game":
            battery = [g, *default_battery()]
            rnd.shuffle(battery)
        assert_walks_match_reference(g, lam, k_max, battery)

    def test_tenths_where_rounding_sets_the_sign(self):
        # Payoffs and weights in tenths: in about one pair in a hundred a
        # level's payoff difference is zero in exact arithmetic, and its float
        # sign depends on the order in which the products are summed.
        rng = random.Random(6)
        for _ in range(1500):
            g = Game2x2(*(rng.randint(-5, 5) / 10 for _ in range(8)))
            lam = EmpathyMatrix(*(rng.randint(-5, 5) / 10 for _ in range(4)))
            assert_walks_match_reference(g, lam, 3, [g])

    @pytest.mark.parametrize("g", INTERIOR_ROOT_EDGE_GAMES)
    @pytest.mark.parametrize(
        "lam",
        [
            EmpathyMatrix.identity(),
            EmpathyMatrix(1.0, 0.5, -0.5, 1.0),
            EmpathyMatrix(0.9, 0.3, -0.2, 1.1),
            consistent_family(1.0, -0.25)[0],
            infinitely_consistent(0.5, 0.25),
            *OVERFLOWING,
        ],
    )
    def test_root_bit_edge_games(self, g, lam):
        battery = [*INTERIOR_ROOT_EDGE_GAMES, *default_battery()]
        for k_max in (2, 12, 320):
            assert_walks_match_reference(g, lam, k_max, battery)
            assert_walks_match_reference(g, lam, k_max, [g])

    def test_each_fact_key_has_one_signature(self):
        # Games whose four payoff differences take every sign, with
        # magnitudes that make the interior root exist, underflow, round to
        # zero or meet an infinite difference.
        values = [0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200, 1e300, -1e300, 1e-300, 1e308]
        by_key: dict = {}
        for a1, a2, c1, c2 in itertools.product(values, repeat=4):
            g = Game2x2(a1, 0.0, 0.0, a2, c1, 0.0, 0.0, c2)
            by_key.setdefault(level_key(g), set()).add(equilibrium_signature(g))
        # 3^4 sign patterns: a player's two signs are all that a label
        # reads of it, so 9 facts per player.
        assert len(by_key) == 9 * 9
        assert all(len(sigs) == 1 for sigs in by_key.values())


def _player_payoffs():
    """Row-player payoffs (a11, a12, a21, a22) by ``_player_key``, every key
    a player can have: differences of every sign and magnitude, and the row
    players of ``INTERIOR_ROOT_EDGE_GAMES`` and their negations, whose two
    differences share a sign with a product that underflows, a root that
    rounds to zero, or a difference or a sum that overflows."""
    values = [0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200, 1e300, -1e300, 1e-300, 1e308]
    edge = [(e.a11, e.a12, e.a21, e.a22) for e in INTERIOR_ROOT_EDGE_GAMES]
    quads = [*edge, *(tuple(-v for v in q) for q in edge)]
    quads += [(d1, 0.0, 0.0, d2) for d1, d2 in itertools.product(values, repeat=2)]
    by_key: dict = {}
    for q in quads:
        a11, a12, a21, a22 = q
        by_key.setdefault(_player_key(a11 - a21, a22 - a12), []).append(q)
    return by_key


class TestSignatureMatchesReference:
    """``equilibrium_signature`` reads a game's two player keys; it must
    equal the label of the full ``classify``, ``pure_nash`` and
    ``mixed_nash`` results."""

    def test_every_key_pair(self):
        by_key = _player_payoffs()
        # 3^2 sign pairs per player; (1, 1) is also met with the edge rows,
        # and (-1, -1) with their negations.
        assert len(by_key) == 9
        edge = [(e.a11 - e.a21, e.a22 - e.a12) for e in INTERIOR_ROOT_EDGE_GAMES]
        assert {_player_key(*d) for d in edge} == {(1, 1)}
        for row, col in itertools.product(by_key.values(), repeat=2):
            for a, b in itertools.product(row[:6], col[:6]):
                # The column player's payoffs transposed, so its differences
                # are the row quadruple's.
                g = Game2x2(*a, b[0], b[2], b[1], b[3])
                assert equilibrium_signature(g) == reference_equilibrium_signature(g)

    @given(edge_games())
    @settings(max_examples=500, deadline=None)
    def test_edge_games(self, g):
        assert equilibrium_signature(g) == reference_equilibrium_signature(g)


class TestKeyLabelMatchesReference:
    """``region_map`` labels every cell from the key-pair table; each label
    must equal the ``outcome_label`` of the full equilibrium analysis for
    every pair of keys."""

    def test_every_key_pair(self):
        by_key = _player_payoffs()
        identity = EmpathyMatrix.identity()
        for (row_key, row), (col_key, col) in itertools.product(by_key.items(), repeat=2):
            for a, b in itertools.product(row[:6], col[:6]):
                # The column player's payoffs transposed, as above.
                g = Game2x2(*a, b[0], b[2], b[1], b[3])
                expected = outcome_label(two_population_equilibria(g, identity))
                assert _KEY_PAIRS[row_key, col_key].label == expected


def _sweeps_and_walks():
    """Region and hierarchy CSVs of seeded games and weights, of the
    ``INTERIOR_ROOT_EDGE_GAMES`` and of one game per pair of player keys."""
    rng = random.Random(13)
    by_key = _player_payoffs()
    keyed = [
        Game2x2(*row[0], col[0][0], col[0][2], col[0][1], col[0][3])
        for row, col in itertools.product(by_key.values(), repeat=2)
    ]
    seeded = [Game2x2(*(rng.randint(-3, 3) for _ in range(8))) for _ in range(20)]
    out = []
    for g in [*INTERIOR_ROOT_EDGE_GAMES, *keyed, *seeded]:
        lam = EmpathyMatrix(*(rng.uniform(-1.5, 1.5) for _ in range(4)))
        out.append(_outcome(lambda: region_csv(region_map(g, (-2, 2), (-2, 2), 9))))
        out.append(_outcome(lambda: hierarchy_csv(analyze_hierarchy(g, lam, 12))))
        out.append(_outcome(check_consistency, lam, 12, [g, *default_battery()]))
    return out


class TestKeyPairCaches:
    """The key-pair table fills once per process: it stays within the 9 x 9
    key pairs, and a warm table gives the same outputs as a cold one."""

    def test_bounded_and_pure(self):
        _KEY_PAIRS.clear()
        cold = _sweeps_and_walks()
        # Every pair was met, and no other: one game per pair of keys is
        # swept and walked.
        keys = list(itertools.product((-1, 0, 1), repeat=2))
        assert set(_KEY_PAIRS) == set(itertools.product(keys, repeat=2))
        assert len(_KEY_PAIRS) == 9 * 9
        assert _sweeps_and_walks() == cold


def _keyed_games():
    """Up to 36 games for each pair of player keys, from ``_player_payoffs``."""
    by_key = _player_payoffs()
    return [
        # The column player's payoffs transposed, as above.
        Game2x2(*a, b[0], b[2], b[1], b[3])
        for row, col in itertools.product(by_key.values(), repeat=2)
        for a, b in itertools.product(row[:6], col[:6])
    ]


def assert_table_readers_match_comparisons(g: Game2x2) -> None:
    """Every reader of the key-pair table against the exact payoff
    comparisons.  ``berge_solutions`` reads the table with the keys of the
    game whose payoff matrices are exchanged, so it is checked on that game
    too, whose Berge keys are ``g``'s own."""
    assert [(p.cell, p.strict) for p in pure_nash(g)] == exact_pure_nash(g)
    exchanged = Game2x2(*g.payoffs()[4:], *g.payoffs()[:4])
    for h in (g, exchanged):
        assert berge_solutions(h) == sorted(brute_berge(h))
    assert equilibrium_signature(g) == exact_equilibrium_signature(g)
    identity = EmpathyMatrix.identity()
    assert outcome_label(two_population_equilibria(g, identity)) == exact_outcome_label(g)


class TestKeyPairTableReaders:
    """``pure_nash`` (cells and ``strict`` flags), ``berge_solutions``,
    ``equilibrium_signature`` and the ``outcome_label`` of a full analysis
    all read the key-pair table; each must match an exact enumeration of
    the payoff comparisons."""

    def test_every_key_pair(self):
        games = _keyed_games()
        keys = set(_player_payoffs())
        assert {level_key(g) for g in games} == set(itertools.product(keys, repeat=2))
        for g in games:
            assert_table_readers_match_comparisons(g)

    @given(edge_games())
    @settings(max_examples=500, deadline=None)
    # Signed zeros, differences that overflow, and subnormal differences.
    @example(Game2x2(0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0))
    @example(Game2x2(1e308, -1e308, -1e308, 1e308, -1e308, 1e308, 1e308, -1e308))
    @example(Game2x2(5e-324, 0.0, -5e-324, 0.0, 0.0, -5e-324, 0.0, 5e-324))
    def test_edge_games(self, g):
        assert_table_readers_match_comparisons(g)

    def test_records_are_shared_and_lists_are_not(self, pd):
        first = pure_nash(pd)
        first.clear()
        # Doubled payoffs keep every sign, so the same key pair.
        again = pure_nash(Game2x2(*(2.0 * v for v in pd.payoffs())))
        assert [(p.cell, p.strict) for p in again] == [((2, 2), True)]
        assert again[0] is pure_nash(pd)[0]


class TestOverflowParity:
    """A walk past the float range raises the error that building the
    overflowing power or level game raises."""

    @pytest.mark.parametrize(
        "g, message",
        [
            # 3 * 10^308 overflows in the level game of lam^308.
            (prisoners_dilemma(), "a11 must be a finite real number, got inf"),
            # Unit payoffs stay finite until lam^309 itself overflows.
            (matching_pennies(), "l11 must be a finite real number, got inf"),
        ],
    )
    def test_analyze_hierarchy(self, g, message):
        lam = EmpathyMatrix(10.0, 0.0, 0.0, 10.0)
        assert _outcome(analyze_hierarchy, g, lam, 400) == f"ValueError: {message}"
        assert _outcome(reference_levels, g, lam, 400) == f"ValueError: {message}"

    def test_integer_weights_walk_their_floats(self, pd):
        # Walked as exact integer powers, 10^309 cannot be converted to a
        # float, and the (3, 1; 2, 5) powers leave the float walk's rounded
        # ones at level 23.
        message = "ValueError: l11 must be a finite real number, got inf"
        assert _outcome(EmpathyMatrix(10, 0, 0, 10).power, 400) == message
        assert _outcome(EmpathyMatrix(10.0, 0.0, 0.0, 10.0).power, 400) == message
        assert _outcome(analyze_hierarchy, pd, EmpathyMatrix(10, 0, 0, 10), 400) == _outcome(
            analyze_hierarchy, pd, EmpathyMatrix(10.0, 0.0, 0.0, 10.0), 400
        )
        assert hierarchy_csv(analyze_hierarchy(pd, EmpathyMatrix(3, 1, 2, 5), 60)) == hierarchy_csv(
            analyze_hierarchy(pd, EmpathyMatrix(3.0, 1.0, 2.0, 5.0), 60)
        )
        assert EmpathyMatrix(3, 1, 2, 5).power(60) == EmpathyMatrix(3.0, 1.0, 2.0, 5.0).power(60)

    def test_check_consistency(self):
        # The battery's level-1 games are finite, and lam^2 overflows.
        lam = EmpathyMatrix(1e200, 0.0, 0.0, 1e200)
        message = "ValueError: l11 must be a finite real number, got inf"
        assert _outcome(check_consistency, lam, 5) == message
        assert _outcome(reference_check_consistency, lam, 5) == message

    def test_spectral_limit(self):
        # A unit radius walks the powers, and lam^2's l12 = 2e308 leaves the
        # float range before the 1e12 guard can read it; a walk of one level
        # forms no product.
        lam = EmpathyMatrix(1.0, 1e308, 0.0, 1.0)
        message = "ValueError: l12 must be a finite real number, got inf"
        assert _outcome(spectral_limit, lam, 3) == message
        assert spectral_limit(lam, 1).limit_kind is LimitKind.OSCILLATES


class TestKnownFloatDefects:
    """Answers the float power walk gets wrong, asserted exactly, so that a
    hierarchy that decides its levels exactly turns each into a pass."""

    @pytest.mark.xfail(strict=True, reason=(
        "lam^324 underflows to the zero matrix, whose level games are all "
        "ties, though every power is a positive multiple of lam"))
    def test_underflow_reads_as_inconsistent(self):
        lam = EmpathyMatrix(0.05, 0.05, 0.05, 0.05)
        verdict = check_consistency(lam, 400)
        assert verdict.structurally_consistent
        assert verdict.consistent_up_to_k

    @pytest.mark.xfail(strict=True, reason=(
        "the rounded powers of (0.75, 0.25; 0.25, 0.75) make a payoff "
        "difference that is exactly nonzero read as a tie from level 51 on"))
    def test_rounded_powers_read_as_degenerate(self):
        g = Game2x2(1, 2, 3, 4, 1, 2, 4, 3)
        walk = analyze_hierarchy(g, EmpathyMatrix(0.75, 0.25, 0.25, 0.75), 60)
        assert set(walk.signatures) == {"class=DominantStrategy|pure=21|mixed=0"}
