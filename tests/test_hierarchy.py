import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from empathica import (
    EmpathyMatrix,
    Game2x2,
    LimitKind,
    analyze_hierarchy,
    anti_coordination_game,
    check_consistency,
    consistent_family,
    coordination_game,
    default_battery,
    equilibrium_signature,
    infinitely_consistent,
    level_game,
    matching_pennies,
    prisoners_dilemma,
    spectral_limit,
    structural_epsilons,
    transform,
)
from empathica import hierarchy
from empathica.equilibria import _differences
from empathica.games import _transformed_differences
from empathica.hierarchy import _fact_key
from empathica.io import hierarchy_csv
from oracles import (
    reference_check_consistency,
    reference_levels,
    reference_structural_epsilons,
)


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

    def test_one_power_walk_feeds_the_battery_and_the_fit(self, products):
        # Every power of this matrix equals the matrix, so the battery walks
        # all 200 levels and the fit reads lam^201 for its guard: 200
        # products, each formed once.
        verdict = check_consistency(ones(1.0), k_max=200)
        assert verdict.label == "StructurallyConsistent"
        assert len(products) == 200

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
            eps = structural_epsilons(lam, 8)
            if eps is None:
                continue
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


class TestStructuralFit:
    @given(st.builds(EmpathyMatrix, *([fit_entries] * 4)), st.integers(1, 30))
    @example(EmpathyMatrix(1e-170, -1e-165, 0.0, 1e-163), 3)  # squares all underflow
    @example(EmpathyMatrix(1e-160, 0.0, -0.0, 1e-160), 3)  # subnormal sum of squares
    @example(EmpathyMatrix(-0.0, 0.0, -0.0, 0.0), 2)
    @example(EmpathyMatrix(0.5, 0.5, 0.5, 0.5), 30)
    @example(EmpathyMatrix(1e150, 0.0, 0.0, 1e-150), 2)
    @settings(max_examples=300, deadline=None)
    def test_fit_matches_the_reference_exactly(self, lam, k_max):
        assert _outcome(structural_epsilons, lam, k_max) == _outcome(
            reference_structural_epsilons, lam, k_max
        )

    def test_zero_sum_of_squares_has_no_fit(self):
        assert structural_epsilons(EmpathyMatrix(1e-170, 0.0, 0.0, -1e-170), 4) is None
        assert structural_epsilons(EmpathyMatrix(-0.0, -0.0, 0.0, -0.0), 4) is None


class TestLevelsAreLabelledWithoutLevelGames:
    """A level game is built only to compute the signature of a six-fact key
    the walk has not met before, never once per level."""

    @pytest.fixture
    def built(self, monkeypatch):
        games = []
        real = hierarchy.transform

        def counting(g, lam):
            games.append((g, lam))
            return real(g, lam)

        monkeypatch.setattr(hierarchy, "transform", counting)
        return games

    @staticmethod
    def keys_met(games, lam, levels):
        keys = set()
        lam_k = lam
        for k in range(1, levels + 1):
            if k > 1:
                lam_k = lam @ lam_k
            keys.update(_fact_key(*_differences(transform(g, lam_k))) for g in games)
        return keys

    def test_check_consistency(self, built):
        verdict = check_consistency(ones(1.0), 200)
        assert verdict.levels_checked == 200
        keys = self.keys_met(default_battery(), ones(1.0), 200)
        assert len(built) == len(keys) <= len(default_battery())

    def test_analyze_hierarchy(self, built, pd):
        analysis = analyze_hierarchy(pd, ones(0.8), 200)
        assert len(analysis.levels) == 200
        assert len(built) == len(self.keys_met([pd], ones(0.8), 200)) == 1


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
        fast = _transformed_differences(g, lam)
        try:
            built = transform(g, lam)
        except ValueError:
            # A non-finite payoff makes a difference non-finite, which sends
            # the labelling to ``transform`` and its error.
            assert not math.isfinite(sum(fast))
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

    def test_complex_pair(self):
        rec = spectral_limit(EmpathyMatrix(0.0, -0.5, 0.5, 0.0), 10)
        assert rec.eigenvalues[0].imag != 0.0
        assert rec.rho == pytest.approx(0.5)
        assert rec.limit_kind is LimitKind.ZERO


class TestAnalyzeHierarchy:
    def test_levels_enumerate_matrix_powers(self, pd):
        lam = ones(0.8)
        analysis = analyze_hierarchy(pd, lam, k_max=6)
        assert [rec.k for rec in analysis.levels] == [1, 2, 3, 4, 5, 6]
        assert analysis.levels[0].lam_k == lam
        for rec in analysis.levels:
            assert max_diff(rec.lam_k, lam.power(rec.k)) < 1e-12
        assert analysis.consistent_up_to_k

    def test_last_finite_level_is_reported(self, mp):
        # Every power up to lam^308 is finite and lam^309 overflows; the walk
        # must not form a power beyond the last level it reports.
        lam = EmpathyMatrix(10.0, 0.0, 0.0, 10.0)
        analysis = analyze_hierarchy(mp, lam, k_max=308)
        assert len(analysis.levels) == 308
        assert analysis.levels[-1].lam_k == lam.power(308)

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
    ``equilibrium_signature`` call per level game: exact levels, CSV bytes
    and verdict fields, or the same ValueError text."""
    analysis = _outcome(analyze_hierarchy, g, lam, k_max)
    levels = _outcome(reference_levels, g, lam, k_max)
    if isinstance(analysis, str) or isinstance(levels, str):
        assert analysis == levels
    else:
        assert analysis.levels == levels
        assert hierarchy_csv(analysis) == hierarchy_csv(
            dataclasses.replace(analysis, levels=levels)
        )
    assert _outcome(check_consistency, lam, k_max, battery) == _outcome(
        reference_check_consistency, lam, k_max, battery
    )


# A plain discoordination game (the second) and games whose row player has
# the same difference signs but no interior root: d1 * d2 underflows, the
# root rounds to zero, or a difference overflows to inf.
ROOT_BIT_EDGE_GAMES = [
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

    @pytest.mark.parametrize("g", ROOT_BIT_EDGE_GAMES)
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
        battery = [*ROOT_BIT_EDGE_GAMES, *default_battery()]
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
            by_key.setdefault(_fact_key(*_differences(g)), set()).add(equilibrium_signature(g))
        # 3^4 sign patterns; each player's root bit can be set only when its
        # two differences share a nonzero sign (2 of 9 sign pairs), so 11
        # facts per player.
        assert len(by_key) == 11 * 11
        assert all(len(sigs) == 1 for sigs in by_key.values())
