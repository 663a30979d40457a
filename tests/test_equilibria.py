import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from empathica import (
    EmpathyMatrix,
    Game2x2,
    GameKind,
    MixedProfile,
    RegionMap,
    berge_solutions,
    classify,
    deviation_gain,
    mixed_nash,
    outcome_label,
    pareto_front,
    pure_nash,
    region_map,
    transform,
    two_population_equilibria,
)
from empathica import equilibria
from empathica.io import fixtures_dir, load_game_file, region_csv
from oracles import (
    brute_berge,
    brute_pareto,
    brute_pure_nash,
    edge_games,
    exact_interior_point,
    indifference_residual,
    pd_threshold,
    random_game,
    random_pd,
    reference_deviation_gain,
    reference_mixed_nash,
    reference_region_csv,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
games = st.builds(Game2x2, *([finite] * 8))
# Payoffs from a few small integers, so ties between cells are common.
small_int_games = st.builds(Game2x2, *([st.integers(-2, 2).map(float)] * 8))


class TestPureNash:
    def test_pd(self, pd):
        assert [p.cell for p in pure_nash(pd)] == [(2, 2)]
        assert pure_nash(pd)[0].strict

    def test_coordination(self, coord):
        assert {p.cell for p in pure_nash(coord)} == {(1, 1), (2, 2)}

    def test_matching_pennies(self, mp):
        assert pure_nash(mp) == []

    def test_weak_equilibrium_flagged(self):
        g = Game2x2(1, 0, 1, 0, 1, 0, 1, 0)
        cells = {p.cell: p.strict for p in pure_nash(g)}
        assert (1, 1) in cells and not cells[(1, 1)]

    def test_oracle_equivalence_on_1000_random_games(self):
        rng = random.Random(99)
        for _ in range(1000):
            g = random_game(rng)
            assert {p.cell for p in pure_nash(g)} == brute_pure_nash(g)


class TestMixedNash:
    @pytest.mark.parametrize("x, y", [(-0.1, 0.5), (0.5, 1.5), (math.nan, 0.5)])
    def test_profile_outside_the_unit_square_is_rejected(self, x, y):
        with pytest.raises(ValueError, match=r"profile coordinates must lie in \[0,1\]"):
            MixedProfile(x, y)

    def test_matching_pennies_center(self, mp):
        res = mixed_nash(mp)
        assert len(res.points) == 1
        assert res.points[0].x == pytest.approx(0.5)
        assert res.points[0].y == pytest.approx(0.5)

    def test_symmetric_coordination_half(self):
        g = Game2x2.symmetric(((1, 0), (0, 1)))
        res = mixed_nash(g)
        assert res.points[0].x == pytest.approx(0.5)
        assert res.points[0].y == pytest.approx(0.5)

    def test_pd_has_no_interior_point(self, pd):
        assert mixed_nash(pd).points == ()

    def test_fully_degenerate_game(self):
        res = mixed_nash(Game2x2(1, 1, 1, 1, 2, 2, 2, 2))
        assert res.degenerate

    def test_row_indifferent_continuum(self):
        # Row payoffs are constant; column strictly prefers to match.
        g = Game2x2(1, 1, 1, 1, 2, 0, 0, 2)
        res = mixed_nash(g)
        assert not res.degenerate
        assert res.points == ()
        assert res.continua
        xs = {seg[0].x for seg in res.continua if seg[0].x == seg[1].x}
        assert 0.5 in xs  # column indifferent exactly when row mixes evenly

    def test_interior_points_satisfy_indifference(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 300:
            g = random_game(rng)
            res = mixed_nash(g)
            for p in res.points:
                assert indifference_residual(g, p.x, p.y) < 1e-10
                checked += 1
            checked += 0 if res.points else 1


def _hexed(res):
    """A mixed-Nash result with every coordinate as ``float.hex``, so a zero's
    sign counts."""
    points = tuple((p.x.hex(), p.y.hex()) for p in res.points)
    continua = tuple((a.x.hex(), a.y.hex(), b.x.hex(), b.y.hex()) for a, b in res.continua)
    return (points, continua, res.degenerate)


# The bound on an interior coordinate d2 / (d1 + d2): each difference, their
# sum and the quotient round once, a relative error below 4 * 2^-53, which
# is at most 4 ulps of the float result (halving and quartering are exact).
POINT_ULPS = 4


def assert_within_ulps(got: float, exact: Fraction, ulps: int = POINT_ULPS) -> None:
    assert abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(got)), (got, float(exact))


class TestMixedNashMatchesReference:
    """``mixed_nash`` writes the flat-player continua once for both players;
    they must keep the per-player segments bit for bit.  It reports an
    interior point exactly when each player's differences share a strict
    sign, within ``POINT_ULPS`` of the exact root."""

    # A zero root keeps its sign: -0.0 here, +0.0 in the column mirror.
    @example(Game2x2(1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0))
    @example(Game2x2(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    @example(Game2x2(0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0, -0.0))
    # The column player's slope, and then its preference at x = 0, overflow.
    @example(Game2x2(0.0, 0.0, 0.0, 0.0, 1e308, 0.0, -1e308, 0.0))
    @example(Game2x2(0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1e308, -1e308))
    @example(Game2x2(0.0, -0.0, 0.0, -0.0, 1e308, -1e308, -0.0, 0.0))
    @example(Game2x2(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -9007199254740996.0, 0.0))
    @given(edge_games())
    @settings(max_examples=500)
    def test_bit_for_bit(self, g):
        got, want = mixed_nash(g), reference_mixed_nash(g)
        assert _hexed(got)[1:] == _hexed(want)[1:]
        assert len(got.points) == len(want.points)

    # d1 * d2 underflows; d1 + d2 overflows; a difference is infinite; an
    # infinite difference meets one whose quarter vanishes; the root rounds
    # to 1.
    @example(Game2x2(1e-200, 0.0, 0.0, 1e-200, 0.0, 1e-200, 1e-200, 0.0))
    @example(Game2x2(1e308, 0.0, 0.0, 1e308, 0.0, 1e308, 1e308, 0.0))
    @example(Game2x2(1e308, -1e308, -1e308, 1e308, -1e308, 1e308, 1e308, -1e308))
    @example(Game2x2(1e308, 0.0, -1e308, 5e-324, 0.0, 1.0, 1.0, 0.0))
    @example(Game2x2(5e-324, 1e308, 0.0, -1e308, 0.0, 1.0, 1.0, 0.0))
    @example(Game2x2(8.9e-16, 0.0, 0.0, 13.7, 0.0, 1.0, 1.0, 0.0))
    @given(edge_games())
    @settings(max_examples=500)
    def test_interior_point_against_exact_oracle(self, g):
        exact = exact_interior_point(g)
        points = mixed_nash(g).points
        if exact is None:
            assert points == ()
        else:
            (p,) = points
            assert_within_ulps(p.x, exact[0])
            assert_within_ulps(p.y, exact[1])

    def test_an_overflowing_slope_keeps_the_indifference_line(self):
        # At unit stakes the column player is indifferent at x = 1/2; the
        # slope 1e308 - (-1e308) overflows at these stakes, which once put
        # the line at x = 0 and dropped a segment.
        unit = mixed_nash(Game2x2(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0))
        big = mixed_nash(Game2x2(0.0, 0.0, 0.0, 0.0, 1e308, 0.0, -1e308, 0.0))
        assert big == unit
        assert big.continua[0] == (MixedProfile(0.5, 0.0), MixedProfile(0.5, 1.0))

    def test_a_preference_of_one_sign_has_no_indifference_line(self):
        # The column player prefers action 2 at both ends, by 2^53 + 4 and
        # by 1.  The slope 2^53 + 3 rounds to 2^53 + 4, which once put the
        # root at x = 1 and added a line there; relabelling the row
        # player's actions, which puts the root below 0, added none.
        res = mixed_nash(Game2x2(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -9007199254740996.0, 0.0))
        assert res.continua == ((MixedProfile(0.0, 0.0), MixedProfile(1.0, 0.0)),)

    def test_zero_root_keeps_its_sign(self):
        res = mixed_nash(Game2x2(1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0))
        assert res.continua[0][0].x.hex() == "-0x0.0p+0"


class TestDeviationGainMatchesReference:
    """``deviation_gain`` reads the actions' expected payoffs from
    ``games._payoffs``; the gain must be the written-out formula's float."""

    mix = st.sampled_from([0.0, -0.0, 1.0, 0.5]) | st.floats(min_value=0.0, max_value=1.0)

    @given(edge_games(), mix, mix)
    @settings(max_examples=500)
    def test_same_float(self, g, x, y):
        assert repr(deviation_gain(g, x, y)) == repr(reference_deviation_gain(g, x, y))


class TestBerge:
    def test_pd_unique_mutual_support(self, pd):
        assert berge_solutions(pd) == [(1, 1)]

    def test_constant_game_all_cells(self):
        g = Game2x2(1, 1, 1, 1, 1, 1, 1, 1)
        assert set(berge_solutions(g)) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_matching_pennies_empty(self, mp):
        assert berge_solutions(mp) == []
        assert brute_berge(mp) == set()

    @given(games)
    def test_agrees_with_enumeration(self, g):
        assert set(berge_solutions(g)) == brute_berge(g)

    @given(small_int_games)
    def test_cells_in_order_with_ties(self, g):
        assert berge_solutions(g) == sorted(brute_berge(g))

    # Payoff differences that overflow, and zeros of both signs.
    @example(Game2x2(1e308, -1e308, 0.0, -0.0, -1e308, 1e308, -0.0, 0.0))
    @given(edge_games())
    @settings(max_examples=500)
    def test_pure_nash_of_the_exchanged_game(self, g):
        # Exchanging the payoff matrices turns mutual support into best
        # response: the Berge cells are that game's pure equilibria.
        swapped = transform(g, EmpathyMatrix(0.0, 1.0, 1.0, 0.0))
        assert berge_solutions(g) == [e.cell for e in pure_nash(swapped)]
        assert set(berge_solutions(g)) == brute_berge(g)


class TestBergeAltruismLink:
    def test_sufficient_mutual_altruism_makes_the_berge_cell_nash(self):
        # Every strict dilemma has the mutual-support solution (1,1); above
        # a finite threshold on the equal cross-weights it also becomes a
        # pure Nash equilibrium of the transformed game.
        rng = random.Random(88)
        for _ in range(100):
            g = random_pd(rng)
            assert berge_solutions(g) == [(1, 1)]
            thr = pd_threshold(g)
            for margin in (0.05, 0.5, 5.0):
                lam = EmpathyMatrix(1, thr + margin, thr + margin, 1)
                assert (1, 1) in {p.cell for p in pure_nash(transform(g, lam))}


class TestPareto:
    def test_pd_front(self, pd):
        assert set(pareto_front(pd)) == {(1, 1), (1, 2), (2, 1)}

    def test_constant_game(self):
        g = Game2x2(1, 1, 1, 1, 1, 1, 1, 1)
        assert len(pareto_front(g)) == 4

    def test_coordination_front(self, coord):
        assert set(pareto_front(coord)) == {(1, 1)}

    @given(games)
    def test_agrees_with_enumeration(self, g):
        assert set(pareto_front(g)) == brute_pareto(g)

    @given(small_int_games)
    def test_cells_in_order_with_ties(self, g):
        assert pareto_front(g) == sorted(brute_pareto(g))


class TestScalingInvariance:
    # Entries on a coarse grid keep strict comparisons strict after the
    # affine map; denormal-scale payoffs would be absorbed by the shift.
    coarse = st.floats(min_value=-50, max_value=50, allow_nan=False).map(
        lambda v: round(v, 3)
    )

    @given(
        st.builds(Game2x2, *([coarse] * 8)),
        st.floats(min_value=0.05, max_value=20, allow_nan=False).map(lambda v: round(v, 3)),
        st.floats(min_value=-10, max_value=10, allow_nan=False).map(lambda v: round(v, 3)),
    )
    @settings(max_examples=60)
    def test_own_payoff_affine_rescaling(self, g, scale, shift):
        rescaled = Game2x2(
            scale * g.a11 + shift, scale * g.a12 + shift,
            scale * g.a21 + shift, scale * g.a22 + shift,
            scale * g.b11 + shift, scale * g.b12 + shift,
            scale * g.b21 + shift, scale * g.b22 + shift,
        )
        assert {p.cell for p in pure_nash(g)} == {p.cell for p in pure_nash(rescaled)}
        assert set(berge_solutions(g)) == set(berge_solutions(rescaled))
        m1 = mixed_nash(g)
        m2 = mixed_nash(rescaled)
        assert len(m1.points) == len(m2.points)
        for p, q in zip(m1.points, m2.points):
            assert p.x == pytest.approx(q.x, abs=1e-9)
            assert p.y == pytest.approx(q.y, abs=1e-9)


class TestTwoPopulationEquilibria:
    def test_pd_identity_reduces_to_base(self, pd):
        eqs = two_population_equilibria(pd, EmpathyMatrix.identity())
        assert eqs.pure_cells() == ((2, 2),)
        assert eqs.berge == ((1, 1),)

    def test_pd_high_mutual_altruism_selects_top_left(self, pd):
        eqs = two_population_equilibria(pd, EmpathyMatrix(1, 0.9, 0.9, 1))
        assert (1, 1) in eqs.pure_cells()

    def test_matching_pennies_mixed_sign_weights(self, mp):
        lam = EmpathyMatrix(1, -0.5, 0.5, -1)
        eqs = two_population_equilibria(mp, lam)
        assert set(eqs.pure_cells()) == {(1, 1), (2, 2)}
        assert len(eqs.mixed) == 1

    def test_every_returned_profile_passes_the_variational_inequality(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_game(rng)
            lam = EmpathyMatrix(*(rng.uniform(-1.5, 1.5) for _ in range(4)))
            played = transform(g, lam)
            eqs = two_population_equilibria(g, lam)
            for p in eqs.pure:
                i, j = p.cell
                x = 1.0 if i == 1 else 0.0
                y = 1.0 if j == 1 else 0.0
                assert deviation_gain(played, x, y) <= 1e-10
            for m in eqs.mixed:
                assert deviation_gain(played, m.x, m.y) <= 1e-8

    @pytest.mark.parametrize("stake", [1e-200, 1.0, 1e308])
    def test_matching_pennies_at_any_stakes(self, stake):
        # d1 * d2 underflows at 1e-200, and every difference overflows at
        # 1e308; the equilibrium stays at (1/2, 1/2).
        g = Game2x2.zero_sum([[stake, -stake], [-stake, stake]])
        eqs = two_population_equilibria(g, EmpathyMatrix.identity())
        assert outcome_label(eqs) == "mixed"
        assert eqs.mixed == (MixedProfile(0.5, 0.5),)

    # Nash's theorem: every game has an equilibrium.
    @example(Game2x2.zero_sum([[1e-200, -1e-200], [-1e-200, 1e-200]]), EmpathyMatrix.identity())
    @example(Game2x2.zero_sum([[1e308, -1e308], [-1e308, 1e308]]), EmpathyMatrix.identity())
    @example(Game2x2.symmetric([[0.0, 1e-200], [1e-200, 0.0]]), EmpathyMatrix.identity())
    @example(Game2x2.symmetric([[0.0, 1e308], [1e308, 0.0]]), EmpathyMatrix.identity())
    @given(
        edge_games(),
        st.builds(EmpathyMatrix, *([st.sampled_from([0.0, -0.5, 1.0, 0.25, 1e-100])] * 4)),
    )
    @settings(max_examples=500, deadline=None)
    def test_every_game_has_an_equilibrium(self, g, lam):
        try:
            eqs = two_population_equilibria(g, lam)
        except ValueError:
            return  # a transformed payoff overflows
        assert eqs.pure or eqs.mixed or eqs.mixed_continua or eqs.mixed_degenerate

    def test_class_equilibrium_count_consistency(self):
        rng = random.Random(17)
        seen = {GameKind.COORDINATION: 0, GameKind.ANTI_COORDINATION: 0,
                GameKind.DISCOORDINATION: 0}
        trials = 0
        while min(seen.values()) < 30 and trials < 20000:
            trials += 1
            g = random_game(rng)
            kind = classify(g).kind
            eqs = two_population_equilibria(g, EmpathyMatrix.identity())
            n_pure = len(eqs.pure)
            n_mixed = len(eqs.mixed)
            if kind in (GameKind.COORDINATION, GameKind.ANTI_COORDINATION):
                assert (n_pure, n_mixed) == (2, 1)
                seen[kind] += 1
            elif kind is GameKind.DISCOORDINATION:
                assert (n_pure, n_mixed) == (0, 1)
                seen[kind] += 1
            elif kind is GameKind.DOMINANT_STRATEGY:
                cls = classify(g)
                if cls.dominant_action_p1 and cls.dominant_action_p2:
                    assert (n_pure, n_mixed) == (1, 0)
        assert all(v >= 30 for v in seen.values())


class TestRegionMap:
    def test_selfish_origin_cell_is_defect_only(self, pd):
        rmap = region_map(pd, (-0.05, 0.05), (-0.05, 0.05), resolution=3)
        assert rmap.label_at(1, 1) == "22"

    def test_high_altruism_cell_is_cooperate_only(self, pd):
        rmap = region_map(pd, (0.8, 1.0), (0.8, 1.0), resolution=2)
        assert all(label == "11" for row in rmap.labels for label in row)

    def test_label_alphabet_and_determinism(self, pd):
        rmap1 = region_map(pd, (-1, 2), (-1, 2), resolution=12)
        rmap2 = region_map(pd, (-1, 2), (-1, 2), resolution=12)
        assert rmap1 == rmap2
        tokens = {"11", "12", "21", "22", "mixed"}
        for row in rmap1.labels:
            for label in row:
                assert label == "none" or set(label.split("+")) <= tokens

    def test_row_major_ordering(self, pd):
        rmap = region_map(pd, (0.0, 1.0), (2.0, 3.0), resolution=2)
        rows = list(rmap.rows())
        assert [r[:2] for r in rows] == [(0.0, 2.0), (1.0, 2.0), (0.0, 3.0), (1.0, 3.0)]

    def test_rejects_tiny_resolution(self, pd):
        with pytest.raises(ValueError):
            region_map(pd, (0, 1), (0, 1), resolution=1)


OWN_WEIGHTS = (1.0, 0.5, 0.0, -1.0)


def _exact_grid(lo, hi, n):
    """The n points from lo to hi, each interpolated exactly and rounded once."""
    lo, hi = Fraction(lo), Fraction(hi)
    return [float(lo + (hi - lo) * k / (n - 1)) for k in range(n)]


def _grid(lo, hi, n):
    step = (hi - lo) / (n - 1)
    if math.isinf(step):
        return _exact_grid(lo, hi, n)
    return [lo + k * step for k in range(n)]


def _per_cell_labels(g, l12_range, l21_range, n, l11=1.0, l22=1.0):
    """The region map by one full equilibrium analysis per cell, row-major."""
    return tuple(
        tuple(
            outcome_label(two_population_equilibria(g, EmpathyMatrix(l11, l12, l21, l22)))
            for l12 in _grid(*map(float, l12_range), n)
        )
        for l21 in _grid(*map(float, l21_range), n)
    )


def _per_cell_csv(labels, l12_range, l21_range, n):
    lines = ["l12,l21,label"]
    for l21, row in zip(_grid(*map(float, l21_range), n), labels):
        for l12, label in zip(_grid(*map(float, l12_range), n), row):
            lines.append(f"{l12!r},{l21!r},{label}")
    return "\n".join(lines) + "\n"


def assert_matches_per_cell(g, l12_range, l21_range, n, l11=1.0, l22=1.0):
    rmap = region_map(g, l12_range, l21_range, n, l11=l11, l22=l22)
    labels = _per_cell_labels(g, l12_range, l21_range, n, l11, l22)
    assert rmap.labels == labels
    assert region_csv(rmap) == _per_cell_csv(labels, l12_range, l21_range, n)


def _fixture_games():
    return [load_game_file(p)[0] for p in sorted(fixtures_dir().glob("*.json"))]


class TestRegionMapEquivalence:
    """The separable sweep labels every cell exactly as a full per-cell
    equilibrium analysis does, and writes the same CSV bytes."""

    @pytest.mark.parametrize("l11", OWN_WEIGHTS)
    @pytest.mark.parametrize("l22", OWN_WEIGHTS)
    def test_fixtures(self, l11, l22):
        games = _fixture_games()
        assert len(games) == 5
        for g in games:
            assert_matches_per_cell(g, (-1, 2), (-1, 2), 13, l11, l22)

    @pytest.mark.parametrize("grid", [61, 73])
    def test_pd_grid_points_on_switching_ratios(self, pd, grid):
        assert_matches_per_cell(pd, (-1, 2), (-1, 2), grid)

    def test_small_integer_games(self):
        # Steps of 0.25 and 0.5 land exactly on many integer payoff ratios,
        # where a player is indifferent and weak equilibria appear.
        rng = random.Random(23)
        for k in range(24):
            g = Game2x2(*(rng.randint(-3, 3) for _ in range(8)))
            l11 = OWN_WEIGHTS[k % 4]
            l22 = OWN_WEIGHTS[(k // 4) % 4]
            assert_matches_per_cell(g, (-1, 2), (-1, 2), 13, l11, l22)
            assert_matches_per_cell(g, (-2, 2), (-1, 1), 9, l22, l11)

    @pytest.mark.parametrize(
        "g",
        [
            Game2x2(0, 0, 0, 0, 0, 0, 0, 0),
            # The row player is flat for every l12; the column player only
            # cares about its own action.
            Game2x2(2, 2, 2, 2, 3, 1, 3, 1),
            # The column player is flat for every l21.
            Game2x2(1, 1, 4, 4, 0, 0, 0, 0),
            # Flat row player only where l12 == 0.
            Game2x2(2, 2, 2, 2, 3, 0, 5, 1),
            # Flat column player only where l21 == 0.
            Game2x2(3, 0, 5, 1, 1, 1, 1, 1),
        ],
    )
    @pytest.mark.parametrize("l11", OWN_WEIGHTS)
    def test_flat_players(self, g, l11):
        for l22 in OWN_WEIGHTS:
            assert_matches_per_cell(g, (-1, 1), (-1, 1), 9, l11, l22)

    @given(
        g=games,
        l11=st.sampled_from(OWN_WEIGHTS),
        l22=st.sampled_from(OWN_WEIGHTS),
        lo=st.floats(min_value=-3, max_value=0),
        width=st.floats(min_value=0.5, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_real_valued_games(self, g, l11, l22, lo, width):
        assert_matches_per_cell(g, (lo, lo + width), (lo, lo + 0.5 * width), 11, l11, l22)


def _first_error(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


class TestRegionMapErrors:
    """Invalid weights and overflowing payoffs raise the ValueError that a
    row-major walk of every cell raises first."""

    HUGE = Game2x2(1e308, 0, 5, 1, 1e308, 5, 0, 1)

    @pytest.mark.parametrize(
        "g, l12_range, l21_range, l11, field",
        [
            (HUGE, (-1, 2), (-1, 2), 1.0, "a11"),
            (HUGE, (-1, 1), (-1, 2), 0.0, "b11"),
            # Ranges whose width overflows have finite grids, so the first
            # error is an overflowing payoff, not a NaN weight.
            (Game2x2(3, 0, 5, 1, 3, 5, 0, 1), (-1e308, 1e308), (-1e308, 1e308), 1.0, "a11"),
            (Game2x2(3, 0, 5, 1, 3, 5, 0, 1), (-1, 2), (-1e308, 1e308), 1.0, "b11"),
            (Game2x2(3, 0, 5, 1, 3, 5, 0, 1), (-1, 2), (-1, 2), float("inf"), "l11"),
            # The column player overflows at l21s[0], and later row solves
            # overflow too: the first row solve must raise for the column.
            (HUGE, (-1, 2), (1, 2), 1.0, "b11"),
            (HUGE, (-1, 2), (-1e308, 1e308), 1.0, "b11"),
        ],
    )
    def test_same_error_as_the_per_cell_walk(self, g, l12_range, l21_range, l11, field):
        fast = _first_error(lambda: region_map(g, l12_range, l21_range, 12, l11=l11))
        slow = _first_error(lambda: _per_cell_labels(g, l12_range, l21_range, 12, l11=l11))
        assert fast == slow
        assert fast.startswith(f"{field} must be a finite real number")

    @pytest.mark.parametrize("end", ["-1:inf", "-inf:1", "nan:1", "-1:nan"])
    @pytest.mark.parametrize("axis", ["l12", "l21"])
    def test_a_non_finite_range_end_is_named_before_any_solve(self, axis, end, monkeypatch):
        # A grid with an infinite end holds a NaN weight (inf * 0), so the
        # error names the end that was given, and no cell is solved.
        lo, hi = map(float, end.split(":"))
        given = lo if not math.isfinite(lo) else hi
        monkeypatch.setattr(equilibria, "_transformed_differences", None)
        ranges = {"l12_range": (-1, 2), "l21_range": (-1, 2), f"{axis}_range": (lo, hi)}
        message = _first_error(lambda: region_map(self.HUGE, resolution=5, **ranges))
        assert message == f"{axis} must be a finite real number, got {given!r}"

    @pytest.mark.parametrize("l12_range, l21_range", [((2, -1), (-1, 2)), ((-1, 2), (1, 1))])
    def test_a_range_must_satisfy_lo_below_hi(self, pd, l12_range, l21_range):
        with pytest.raises(ValueError, match="ranges must satisfy lo < hi"):
            region_map(pd, l12_range, l21_range, 5)

    @pytest.mark.parametrize("axis", ["l12", "l21"])
    def test_a_reversed_range_names_its_axis_and_ends(self, pd, axis):
        ranges = {"l12_range": (-1, 2), "l21_range": (-1, 2), f"{axis}_range": (2, 1)}
        message = _first_error(lambda: region_map(pd, resolution=5, **ranges))
        assert message == f"{axis}: ranges must satisfy lo < hi, got (2.0, 1.0)"

    @pytest.mark.parametrize("l11, l22", [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0)])
    def test_overflowing_differences_of_finite_payoffs(self, l11, l22):
        # Every transformed payoff is finite, but with an own-weight of 1 a
        # player's first difference overflows to inf for cross-weights above
        # about -0.2: no error, and the labels the built games give.
        g = Game2x2(1e308, 0, -1e308, 0, 1e308, -1e308, 0, 0)
        assert_matches_per_cell(g, (-1, 0), (-1, 0), 13, l11, l22)


class TestLinspace:
    ends = st.floats(allow_nan=False, allow_infinity=False)

    def test_overflowing_width_gives_a_finite_grid(self):
        assert equilibria._linspace(-1e308, 1e308, 3) == (-1e308, 0.0, 1e308)
        assert equilibria._linspace(-1e308, 1e308, 5) == (-1e308, -5e307, 0.0, 5e307, 1e308)
        # Pins the weighted sum's rounding: with 4 points it gives the exactly
        # interpolated grid, which lo * (1 - k/3) + hi * (k/3) does not.
        assert list(equilibria._linspace(-1e308, 1e308, 4)) == _exact_grid(-1e308, 1e308, 4)
        grid = equilibria._linspace(-1.7976931348623157e308, 1.7976931348623157e308, 12)
        assert all(map(math.isfinite, grid))
        assert list(grid) == sorted(grid)
        assert grid[0] == -1.7976931348623157e308 and grid[-1] == 1.7976931348623157e308

    @given(
        st.floats(1e300, 1.7976931348623157e308),
        st.floats(1e300, 1.7976931348623157e308),
        st.integers(2, 200),
    )
    @settings(max_examples=300, deadline=None)
    def test_overflowing_width_within_three_ulps_of_the_exact_grid(self, a, b, n):
        lo, hi = -a, b
        if not math.isinf(hi - lo):
            return
        grid = equilibria._linspace(lo, hi, n)
        assert grid[0] == lo and grid[-1] == hi
        assert list(grid) == sorted(grid)
        # Two weights, two products and a sum, each rounded once: at most
        # 5 half-units in the last place of the larger end, so under 3 ulps.
        ulp = math.ulp(max(a, b))
        assert all(abs(x - y) <= 3 * ulp for x, y in zip(grid, _exact_grid(lo, hi, n)))

    @given(ends, ends, st.integers(2, 80))
    @example(-1e308, 7.9e307, 5)
    @settings(max_examples=300, deadline=None)
    def test_finite_width_grids_are_unchanged(self, lo, hi, n):
        # Wherever hi - lo is finite, the grid is lo + k * step bit for bit.
        lo, hi = min(lo, hi), max(lo, hi)
        if lo == hi or math.isinf(hi - lo):
            return
        step = (hi - lo) / (n - 1)
        expected = [lo + k * step for k in range(n)]
        assert [x.hex() for x in equilibria._linspace(lo, hi, n)] == [x.hex() for x in expected]

    def test_region_map_over_an_overflowing_range(self):
        # The row player's cross payoffs are small enough that every weight
        # of the grid gives finite payoffs.  With 9 points the weights k/8 are
        # exact, and so is the grid: it is the exactly interpolated one.
        g = Game2x2(3, 0, 5, 1, 1e-300, 2e-300, 0, 1e-300)
        assert_matches_per_cell(g, (-1e308, 1e308), (-1, 2), 9)

    @given(ends | st.sampled_from([0.0, -0.0]), ends | st.sampled_from([0.0, -0.0]),
           st.integers(2, 40))
    @example(-0.0, 1.0, 7)
    @example(-1.0, -0.0, 7)
    @settings(max_examples=300, deadline=None)
    def test_equal_ranges_give_one_grid(self, lo, hi, n):
        # Ends equal as floats, zeros of either sign, give the same bits, so
        # ``region_map`` may share one grid between equal ranges.
        lo, hi = min(lo, hi), max(lo, hi)
        if not lo < hi:
            return
        twin = [-lo if lo == 0.0 else lo, -hi if hi == 0.0 else hi]
        assert [x.hex() for x in equilibria._linspace(lo, hi, n)] == [
            x.hex() for x in equilibria._linspace(*twin, n)
        ]

    @pytest.mark.parametrize("l12_range, l21_range, shared", [
        ((-1, 2), (-1.0, 2.0), True),
        ((-0.0, 1.0), (0.0, 1.0), True),
        ((0.0, 1.0), (-0.0, 1.0), True),
        ((-1.0, -0.0), (-1.0, 0.0), True),
        ((-1.0, 2.0), (-1.0, 2.5), False),
    ])
    def test_region_map_shares_the_grid_of_equal_ranges(self, pd, l12_range, l21_range,
                                                        shared):
        rmap = region_map(pd, l12_range, l21_range, 7)
        assert (rmap.l21_values is rmap.l12_values) is shared
        # Each axis has the values, and the CSV the texts, of its own grid.
        alone = [equilibria._linspace(float(lo), float(hi), 7) for lo, hi in (l12_range, l21_range)]
        assert [[x.hex() for x in axis] for axis in (rmap.l12_values, rmap.l21_values)] == [
            [x.hex() for x in axis] for axis in alone
        ]
        assert region_csv(rmap) == reference_region_csv(RegionMap(*alone, rmap.labels))


class TestRegionMapBuildsNoGames:
    """Each solve reads the differences from the weights and payoffs; a game
    is built only where a difference is not finite."""

    @pytest.fixture
    def built(self, monkeypatch):
        games = []
        real = transform

        def counting(g, lam):
            games.append((g, lam))
            return real(g, lam)

        monkeypatch.setattr("empathica.games.transform", counting)
        return games

    @pytest.mark.parametrize("n", [2, 61])
    def test_none_on_finite_differences(self, built, pd, n):
        region_map(pd, (-1, 2), (-1, 2), n)
        assert built == []

    def test_only_where_a_difference_overflows(self, built):
        # Every payoff stays finite; the row player's d1 = (2 + l12) * 1e308
        # overflows only at l12 = 0.
        g = Game2x2(1e308, 0, -1e308, 0, 1e308, 0, 0, 0)
        rmap = region_map(g, (-1.5, 0), (-1, 0), 7)
        assert [lam.entries() for _, lam in built] == [(1.0, 0.0, -1.0, 1.0)]
        assert rmap.labels == _per_cell_labels(g, (-1.5, 0), (-1, 0), 7)


_OWN_WEIGHTS = st.sampled_from([1.0, 0.5, -1.0, 0.0, -0.0, 2.0**-1000, 1e300])
_SMALL_PAYOFFS = st.floats(-50, 50) | st.sampled_from([0.0, -0.0])
_LARGE_PAYOFFS = _SMALL_PAYOFFS | st.sampled_from([1e308, -1e308, 5e307, 1e300, -1e300, 1e-300])
# Widths stay finite, where the grids of ``_grid`` are the sweep's.
_WIDE_RANGES = st.sampled_from([(-1, 2), (-1, 0), (0, 1), (-1e300, 1e300), (-1e307, 8e307)])


class TestRegionMapReadsNearBreakpoints:
    """Each payoff difference is read only near where it changes sign; its
    sign elsewhere is certified, with the labels of a per-cell walk."""

    @pytest.mark.parametrize("n", [60, 61, 73])
    def test_a_sweep_reads_at_most_sixteen_points(self, pd, n, monkeypatch):
        # A read of one grid point gives one player's two differences; the
        # per-point sweep made 2n reads.
        real = equilibria._transformed_differences
        reads = []

        def counting(g):
            differences = real(g)

            def count(*weights):
                reads.append(weights)
                return differences(*weights)

            return count

        monkeypatch.setattr(equilibria, "_transformed_differences", counting)
        for g in [pd, *_fixture_games()]:
            reads.clear()
            region_map(g, (-1, 2), (-1, 2), n)
            assert 0 < len(reads) <= 16, (g, len(reads))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_breakpoints_within_ulps_of_grid_points(self, data):
        g, l12_range, l21_range, n, l11, l22 = data.draw(_near_breakpoint_sweeps())
        _assert_labels_or_error_match(g, l12_range, l21_range, n, l11, l22)

    @given(
        g=st.builds(Game2x2, *([_LARGE_PAYOFFS] * 8)),
        l12_range=_WIDE_RANGES,
        l21_range=_WIDE_RANGES,
        n=st.sampled_from([2, 5, 12]),
        l11=_OWN_WEIGHTS,
        l22=_OWN_WEIGHTS,
    )
    # The row player's d1 could be certified here and d2 could not.  Had
    # each pair taken its own path, d1's reads would have started at its
    # breakpoint, l12 = 0, and raised at l12 = 5e299 ("a12 ... got inf"),
    # not at the walk's first cell, l12 = -1e300 ("a12 ... got -inf").
    @example(
        g=Game2x2(-1e308, -1e308, 5e307, 0.0, 2.0, 1e300, 3.0, 2.0),
        l12_range=(-1e300, 1e300),
        l21_range=(-1, 2),
        n=5,
        l11=0.0,
        l22=1.0,
    )
    # Every point is read, so T is infinite; d1's breakpoint estimate is
    # inf / inf, NaN, and its signs come from the floats alone.
    @example(
        g=Game2x2(-1e308, 0.0, 1e308, 0.0, 1e308, 0.0, -1e308, 0.0),
        l12_range=(0, 1),
        l21_range=(0, 1),
        n=5,
        l11=1.0,
        l22=1.0,
    )
    @settings(max_examples=300, deadline=None)
    def test_some_pairs_near_overflow(self, g, l12_range, l21_range, n, l11, l22):
        _assert_labels_or_error_match(g, l12_range, l21_range, n, l11, l22)

    @pytest.mark.parametrize(
        "g, l12_range, l21_range, n",
        [
            # d1 has q == s and p == r under an infinite T: zero signs, with
            # no read.
            (Game2x2(1e308, 0, 1e308, 0, 5, 1, 5, 2), (-1, 1), (-1, 1), 9),
        ],
    )
    def test_uncertified_pairs_without_a_breakpoint(self, g, l12_range, l21_range, n):
        assert_matches_per_cell(g, l12_range, l21_range, n)

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_an_uncertified_sweep_reads_each_point_once_per_axis(self, n, monkeypatch):
        # Payoffs near the float range's end: every row point and then every
        # column point is read once, the corner cell once on each axis.
        reads = []
        real = equilibria._transformed_differences

        def counting(g):
            differences = real(g)
            return lambda *weights: reads.append(weights) or differences(*weights)

        monkeypatch.setattr(equilibria, "_transformed_differences", counting)
        region_map(Game2x2(1e308, 0, 1e308, 0, 5, 1, 5, 2), (-1, 1), (-1, 1), n)
        grid = _grid(-1.0, 1.0, n)
        assert reads == [(1.0, w, -1.0, 1.0) for w in grid] + [(1.0, -1.0, w, 1.0) for w in grid]


def _assert_labels_or_error_match(g, l12_range, l21_range, n, l11, l22):
    """The sweep gives the per-cell walk's labels, or its first error."""
    try:
        _per_cell_labels(g, l12_range, l21_range, n, l11, l22)
    except ValueError as exc:
        assert _first_error(lambda: region_map(g, l12_range, l21_range, n, l11, l22)) == str(exc)
    else:
        assert_matches_per_cell(g, l12_range, l21_range, n, l11, l22)


@st.composite
def _near_breakpoint_sweeps(draw):
    """A sweep whose row player's d1 and column player's d3 change sign
    within a few ulps of a grid point, with payoffs scaled by 2^e."""
    n = draw(st.integers(2, 25))
    lo = draw(st.floats(-3, 0))
    l12_range = (lo, lo + draw(st.floats(0.5, 4)))
    l21_range = (lo, lo + draw(st.floats(0.5, 4)))
    l11, l22 = draw(_OWN_WEIGHTS), draw(_OWN_WEIGHTS)
    a11, a12, a21, a22, b11, b12, b21, b22 = (draw(_SMALL_PAYOFFS) for _ in range(8))

    def nudged(x):
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x

    # d1 = l11*(a11 - a21) + l12*(b11 - b21) vanishes at a grid l12, and
    # d3 = l22*(b11 - b12) + l21*(a11 - a12) at a grid l21.
    if l11 != 0.0:
        w = draw(st.sampled_from(_grid(*l12_range, n)))
        a11 = nudged(a21 - w * (b11 - b21) / l11)
    if l22 != 0.0:
        w = draw(st.sampled_from(_grid(*l21_range, n)))
        b12 = nudged(b11 + w * (a11 - a12) / l22)
    payoffs = (a11, a12, a21, a22, b11, b12, b21, b22)
    # Dividing by an own weight of 2^-1000 can overflow a solved payoff.
    assume(all(map(math.isfinite, payoffs)))
    # The scaled payoffs stay below 2^1023.
    e = min(draw(st.integers(-1074, 1000)), 1023 - max(math.frexp(x)[1] for x in payoffs))
    g = Game2x2(*(math.ldexp(x, e) for x in payoffs))
    return g, l12_range, l21_range, n, l11, l22


_AXIS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
_LABEL = st.sampled_from(["11", "22", "12+21+mixed", "11+22+mixed", "mixed", "none"])


@st.composite
def region_maps(draw) -> RegionMap:
    """Hand-built maps whose label rows are often shared, by the same tuple
    or by an equal copy, and sometimes all distinct; the two axes are
    sometimes one tuple, as ``region_map`` gives for equal ranges."""
    n = draw(st.integers(1, 8))
    shared = draw(st.booleans())
    rows = n if shared else draw(st.integers(1, 8))
    pool = draw(st.lists(st.tuples(*[_LABEL] * n), min_size=1, max_size=3))
    labels = []
    for _ in range(rows):
        row = draw(st.sampled_from(pool) | st.tuples(*[_LABEL] * n))
        labels.append(tuple(list(row)) if draw(st.booleans()) else row)
    l12_values = tuple(draw(st.lists(_AXIS, min_size=n, max_size=n)))
    if shared:
        l21_values = l12_values
    else:
        l21_values = tuple(draw(st.lists(_AXIS, min_size=rows, max_size=rows)))
    return RegionMap(l12_values=l12_values, l21_values=l21_values, labels=tuple(labels))


_SHARED = (-0.0, 0.5, 2.0)


class TestRegionCsvMatchesReference:
    """Rows laid out once per distinct label row give the bytes of the
    line-per-cell writer."""

    @given(region_maps())
    @example(RegionMap((-0.0, 0.5), (-0.0, 0.0, 1.0), (("none", "11"),) * 3))
    @example(RegionMap((0.0, 1.0), (2.0,), (("22", "none"),)))
    @example(RegionMap((-1.0, -0.0, 2.0), (-0.0, 3.0), (("none",) * 3, ("11", "22", "mixed"))))
    # Axes that are one tuple are formatted once for both.
    @example(RegionMap(_SHARED, _SHARED, (("11", "none", "11"),) * 2 + (("22",) * 3,)))
    # Equal-valued axes that are two tuples, one with 0.0 where the other has
    # -0.0: each zero keeps its own text.
    @example(RegionMap((0.0, 1.5), (-0.0, 1.5), (("none", "11"),) * 2))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes(self, rmap):
        assert region_csv(rmap) == reference_region_csv(rmap)


class TestOutcomeLabel:
    def test_mixed_only(self, mp):
        eqs = two_population_equilibria(mp, EmpathyMatrix.identity())
        assert outcome_label(eqs) == "mixed"

    def test_anticoordination_band(self, pd):
        eqs = two_population_equilibria(pd, EmpathyMatrix(1, 0.5, 0.5, 1))
        assert outcome_label(eqs) == "12+21+mixed"
