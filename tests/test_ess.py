import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from empathica import (
    Constraint,
    ConstraintType,
    DiagonalReduction,
    EssKind,
    EssPoint,
    EssResult,
    Game2x2,
    constrained_best_response,
    constrained_ess,
    diagonal_reduction,
    homogeneous_payoff,
    symmetric_equilibria,
)
from oracles import (
    ess_invasion_oracle,
    grid_symmetric_equilibria,
    random_game,
    reference_constrained_ess,
)


def red_of(b1: float, b2: float) -> DiagonalReduction:
    return DiagonalReduction(b1, b2, ((b1, 0.0), (0.0, b2)))


def type1(alpha: float) -> Constraint:
    return Constraint(c1=1.0, c2=0.0, V=alpha)


def type2(alpha: float) -> Constraint:
    # c1 < c2 with (V - c2)/(c1 - c2) = alpha
    return Constraint(c1=0.0, c2=1.0, V=1.0 - alpha)


class TestHomogeneousPayoff:
    def test_selfish_limit_is_identity(self, pd):
        assert homogeneous_payoff(pd, 1.0, 0.0) == pd.row_matrix()

    def test_unit_cross_weight(self, pd):
        assert homogeneous_payoff(pd, 1.0, 1.0) == ((6.0, 5.0), (5.0, 2.0))

    def test_pure_cross_weight_transposes(self, pd):
        assert homogeneous_payoff(pd, 0.0, 1.0) == (
            (pd.a11, pd.a21),
            (pd.a12, pd.a22),
        )

    @pytest.mark.parametrize(
        "sigma, mu", [(1e308, 1e308), (1e308, -1e308), (-1e308, -1e308), (4e307, 0.0)]
    )
    def test_overflowing_entry_is_rejected(self, pd, sigma, mu):
        # Each weight is finite, but an entry of the matrix is not.
        with pytest.raises(ValueError, match="entries must be finite"):
            homogeneous_payoff(pd, sigma, mu)

    def test_largest_finite_entries_pass(self):
        g = Game2x2.symmetric(((1.0, 1.0), (-1.0, 1.0)))
        assert homogeneous_payoff(g, 1e308, 0.0) == ((1e308, 1e308), (-1e308, 1e308))


class TestDiagonalReduction:
    def test_pd_unit_weights(self):
        red = diagonal_reduction(((6.0, 5.0), (5.0, 2.0)))
        assert (red.beta1, red.beta2) == (1.0, -3.0)

    def test_diagonal_matrix_is_fixed_point(self):
        red = diagonal_reduction(((2.0, 0.0), (0.0, -1.0)))
        assert (red.beta1, red.beta2) == (2.0, -1.0)

    def test_constant_matrix_degenerates(self):
        red = diagonal_reduction(((3.0, 3.0), (3.0, 3.0)))
        assert (red.beta1, red.beta2) == (0.0, 0.0)
        assert symmetric_equilibria(red).degenerate

    @pytest.mark.parametrize(
        "a_lam",
        [
            ((1e308, 0.0), (-1e308, 0.0)),  # beta1 overflows
            ((0.0, -1e308), (0.0, 1e308)),  # beta2 overflows
        ],
    )
    def test_overflowing_difference_is_rejected(self, a_lam):
        # Every entry is finite, but a difference of two is not.
        with pytest.raises(ValueError, match="beta1 and beta2 must be finite"):
            diagonal_reduction(a_lam)

    def test_largest_finite_differences_pass(self):
        red = diagonal_reduction(((1e308, -7e307), (-7e307, 1e308)))
        assert (red.beta1, red.beta2) == (1e308 + 7e307, 1e308 + 7e307)


class TestSymmetricEquilibria:
    def test_coordination_pattern(self):
        res = symmetric_equilibria(red_of(1.0, 1.0))
        assert set(res.points) == {1.0, 0.0, 0.5}

    def test_dominance_pattern(self):
        res = symmetric_equilibria(red_of(1.0, -3.0))
        assert res.points == (1.0,)

    def test_anti_coordination_pattern(self):
        res = symmetric_equilibria(red_of(-1.0, -2.0))
        assert res.points == (2.0 / 3.0,)

    def test_degenerate(self):
        assert symmetric_equilibria(red_of(0.0, 0.0)).degenerate

    @pytest.mark.parametrize(
        "b1, b2, points",
        [
            # The root 1 / (1 + 1e-20) rounds to the corner m = 1.
            (1e-20, 1.0, (1.0, 0.0)),
            # beta1 + beta2 overflows; halving both keeps the root at 1/2.
            (1e308, 1e308, (1.0, 0.0, 0.5)),
            (-1e308, -1e308, (0.5,)),
        ],
    )
    def test_a_root_rounding_to_a_corner_is_not_listed(self, b1, b2, points):
        assert symmetric_equilibria(red_of(b1, b2)).points == points

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_points_are_distinct_equilibria(self, b1, b2):
        res = symmetric_equilibria(red_of(b1, b2))
        assert len(set(res.points)) == len(res.points)
        # A root is listed as it rounds, at a corner too.
        root = (b1 > 0.0 and b2 > 0.0) or (b1 < 0.0 and b2 < 0.0)
        for m in res.points:
            if m == 1.0:
                assert b1 >= 0.0 or root
            elif m == 0.0:
                assert b2 >= 0.0 or root
            else:
                assert 0.0 < m < 1.0 and root

    # Every symmetric game has a symmetric equilibrium; the anti-coordination
    # betas' product underflows, then their sum overflows.
    @example(-1e-200, -1e-200)
    @example(-1e308, -1e308)
    @example(-1e-300, -1e300)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_every_game_has_a_symmetric_equilibrium(self, b1, b2):
        res = symmetric_equilibria(red_of(b1, b2))
        assert res.points or (res.degenerate and b1 == b2 == 0.0)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_the_root_is_listed_near_its_exact_value(self, b1, b2):
        # Betas of one strict sign have an exact root in (0, 1); the list
        # holds a value within 4 ulps of it, a corner when it rounds to one.
        e1, e2 = Fraction(b1), Fraction(b2)
        if (e1 > 0 and e2 > 0) or (e1 < 0 and e2 < 0):
            exact = e2 / (e1 + e2)
            points = symmetric_equilibria(red_of(b1, b2)).points
            assert any(abs(Fraction(m) - exact) <= 4 * Fraction(math.ulp(m)) for m in points)

    def test_reduction_soundness_against_grid_oracle(self):
        # Reduced-form equilibria must match a grid best-response search on
        # the full matrix; near-degenerate draws are resampled since a grid
        # oracle cannot resolve them.
        rng = random.Random(2718)
        done = 0
        while done < 1000:
            g = random_game(rng)
            sigma = rng.uniform(0.25, 2.0)
            mu = rng.uniform(-1.5, 1.5)
            a_lam = homogeneous_payoff(g, sigma, mu)
            red = diagonal_reduction(a_lam)
            if min(abs(red.beta1), abs(red.beta2)) < 0.05:
                continue
            analytic = sorted(symmetric_equilibria(red).points)
            accepted = grid_symmetric_equilibria(a_lam, spacing=1e-3)
            assert len(accepted) > 0
            for point in analytic:
                assert min(abs(point - acc) for acc in accepted) <= 1.5e-3
            for acc in accepted:
                dmin = min(abs(point - acc) for point in analytic)
                if dmin <= 2.5e-3:
                    continue
                # A gain-threshold oracle accepts the whole stretch between
                # two equilibria that sit closer than its resolution; such a
                # point is within half the local gap of a true equilibrium.
                below = [p for p in analytic if p <= acc]
                above = [p for p in analytic if p >= acc]
                assert below and above
                gap = min(above) - max(below)
                assert dmin <= gap / 2.0 + 1e-9
            done += 1


class TestConstraint:
    def test_type1(self):
        con = type1(0.6)
        assert con.ctype is ConstraintType.TYPE_I
        assert con.alpha == pytest.approx(0.6)
        assert con.feasible_interval == (0.0, 0.6)

    def test_type2(self):
        con = type2(0.3)
        assert con.ctype is ConstraintType.TYPE_II
        assert con.alpha == pytest.approx(0.3)
        assert con.feasible_interval == (pytest.approx(0.3), 1.0)

    def test_unconstrained_and_empty(self):
        assert Constraint(1.0, 0.0, 2.0).ctype is ConstraintType.UNCONSTRAINED
        assert Constraint(1.0, 0.0, -0.5).ctype is ConstraintType.EMPTY
        assert Constraint(0.0, 1.0, -1.0).ctype is ConstraintType.EMPTY

    def test_equal_coefficients_rejected(self):
        with pytest.raises(ValueError, match="c1"):
            Constraint(1.0, 1.0, 0.5)

    @pytest.mark.parametrize(
        "c1, c2, v",
        [
            (1e308, -1e308, 0.0),  # c1 - c2 overflows; alpha would read 0.0
            (-1e308, 1e308, 0.0),
            (1.0, -1e308, 1e308),  # V - c2 overflows; alpha would read inf
            (1e308, -1e308, 1e308),  # both overflow; alpha would read nan
        ],
    )
    def test_overflowing_difference_rejected(self, c1, c2, v):
        with pytest.raises(ValueError, match="constraint overflows"):
            Constraint(c1, c2, v)

    def test_large_finite_coefficients_pass(self):
        con = Constraint(1e308, 0.0, 5e307)
        assert con.alpha == 0.5
        assert con.feasible_interval == (0.0, 0.5)
        # Only the quotient leaves the float range: alpha = 1e600 rounds to
        # inf, and the constraint never binds, as for the exact alpha.
        con = Constraint(1e-300, 0.0, 1e300)
        assert con.alpha == math.inf
        assert con.ctype is ConstraintType.UNCONSTRAINED

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_alpha_outside_unit_interval_never_binds(self, c1, c2, v):
        if c1 == c2:
            return
        con = Constraint(c1, c2, v)
        if not (0.0 <= con.alpha <= 1.0):
            assert con.ctype in (ConstraintType.UNCONSTRAINED, ConstraintType.EMPTY)
        if con.ctype in (ConstraintType.TYPE_I, ConstraintType.TYPE_II):
            lo, hi = con.feasible_interval
            assert 0.0 <= lo <= hi <= 1.0


class TestConstrainedBestResponse:
    def test_hawk_dove_below_indifference_point(self):
        red = red_of(-1.0, -1.0)  # indifference at 0.5
        br = constrained_best_response(red, type1(0.3), 0.2)
        assert (br.lo, br.hi) == (0.3, 0.3)

    def test_hawk_dove_at_indifference_point(self):
        red = red_of(-1.0, -1.0)
        br = constrained_best_response(red, type1(0.8), 0.5)
        assert (br.lo, br.hi) == (0.0, 0.8)
        assert not br.is_point

    def test_dominance_always_tops_out(self):
        red = red_of(1.0, -2.0)
        con = Constraint.unconstrained()
        for m in (0.1, 0.5, 0.9):
            br = constrained_best_response(red, con, m)
            assert (br.lo, br.hi) == (1.0, 1.0)

    def test_rejects_infeasible_argument(self):
        with pytest.raises(ValueError):
            constrained_best_response(red_of(1.0, 1.0), type1(0.3), 0.9)


# Beta magnitudes: small integers, whose roots are simple fractions, and
# any float from zero to past half the float range.
_BETA_SIZE = st.integers(1, 30).map(float) | st.floats(min_value=0.0, max_value=1e308)


class TestConstrainedEss:
    def test_type1_dominant_first_action_pins_boundary(self):
        res = constrained_ess(red_of(2.0, -1.0), type1(0.6))
        assert [(p.m, p.kind) for p in res.points] == [(0.6, EssKind.CONSTRAINT_BOUNDARY)]

    def test_type1_hawk_dove_interior(self):
        res = constrained_ess(red_of(-1.0, -2.0), type1(0.8))
        assert len(res.points) == 1
        assert res.points[0].m == pytest.approx(2.0 / 3.0)
        assert res.points[0].kind is EssKind.INTERIOR

    def test_unconstrained_hawk_dove_center(self):
        res = constrained_ess(red_of(-1.0, -1.0), Constraint.unconstrained())
        assert [(p.m, p.kind) for p in res.points] == [(0.5, EssKind.INTERIOR)]

    @pytest.mark.parametrize("stake", [1e-200, 1.0, 1e308])
    def test_anti_coordination_at_any_stakes(self, stake):
        # A = (0, s; s, 0) at sigma 1, mu 0: beta1 = beta2 = -s.  The ESS at
        # 1/2 is a symmetric equilibrium at every stake; beta1 * beta2
        # underflows at 1e-200 and beta1 + beta2 overflows at 1e308.
        g = Game2x2.symmetric([[0.0, stake], [stake, 0.0]])
        red = diagonal_reduction(homogeneous_payoff(g, 1.0, 0.0))
        res = constrained_ess(red, Constraint.unconstrained())
        assert [(p.m, p.kind) for p in res.points] == [(0.5, EssKind.INTERIOR)]
        assert symmetric_equilibria(red).points == (0.5,)

    @pytest.mark.parametrize(
        "a_lam, m",
        [
            # beta1 = -1e-20, beta2 = -1: the root 1 / (1 + 1e-20) rounds to 1.
            (((0.0, 1.0), (1e-20, 0.0)), 1.0),
            # beta1 = -10, beta2 = -5e-324: the root underflows to 0.
            (((0.0, 5e-324), (10.0, 0.0)), 0.0),
        ],
    )
    def test_an_interior_root_rounding_to_a_corner_is_the_ess(self, a_lam, m):
        red = diagonal_reduction(a_lam)
        res = constrained_ess(red, Constraint.unconstrained())
        assert [(p.m, p.kind) for p in res.points] == [(m, EssKind.INTERIOR)]
        assert symmetric_equilibria(red).points == (m,)

    # Roots next to a type-II bound alpha = 1/9 (listed nothing) and a
    # type-I bound alpha = 8/11 (listed the bound, which lies past the root);
    # feasible sets of the single point 0 and of the single point 1.
    @example(-2.0, -16.0, 0.11111111111111116)
    @example(-6.0, -16.0, 0.7272727272727273)
    @example(-1.0, -1.0, 0.0)
    @example(-1.0, -1.0, 1.0)
    @given(st.floats(max_value=-5e-324, allow_infinity=False),
           st.floats(max_value=-5e-324, allow_infinity=False),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_anti_coordination_has_one_ess_placed_by_the_exact_root(self, b1, b2, alpha):
        # d falls through the exact root r*, so the one ESS is lo when
        # r* <= lo, hi when r* >= hi, and the rounded root otherwise.  As
        # 0 < r* < 1, a bound it passes is never a corner.
        exact = Fraction(b2) / (Fraction(b1) + Fraction(b2))
        for con in (type1(alpha), type2(alpha)):
            lo, hi = con.feasible_interval
            points = [(p.m, p.kind) for p in constrained_ess(red_of(b1, b2), con).points]
            if lo == hi:
                # The only feasible strategy has no feasible invader.
                assert points == [(lo, EssKind.CONSTRAINT_BOUNDARY)]
            elif exact <= lo:
                assert points == [(lo, EssKind.CONSTRAINT_BOUNDARY)]
            elif exact >= hi:
                assert points == [(hi, EssKind.CONSTRAINT_BOUNDARY)]
            else:
                (m, kind), = points
                assert kind is EssKind.INTERIOR
                assert symmetric_equilibria(red_of(b1, b2)).points == (m,)

    def test_coordination_bound_within_rounding_past_the_root_is_an_ess(self):
        # beta1 = 8, beta2 = 19: the root 19/27 lies below the bound
        # alpha = 0.7037037037037037 by 1.6e-17, so d(alpha) = +4.4e-16
        # exactly, while beta1*alpha - beta2*(1 - alpha) rounds to zero.
        red = diagonal_reduction(((8.0, 0.0), (0.0, 19.0)))
        res = constrained_ess(red, Constraint(1.0, 0.0, 19 / 27))
        assert [(p.m, p.kind) for p in res.points] == [
            (0.0, EssKind.PURE_CORNER),
            (0.7037037037037037, EssKind.CONSTRAINT_BOUNDARY),
        ]

    @example((1, 1), 8.0, 19.0, 0, 0.5)
    @example((-1, -1), 2.0, 16.0, 1, 0.5)
    @example((1, -1), 0.0, 3.0, 0, 1.0)
    @example((-1, 1), 3.0, 0.0, 0, 0.0)
    @given(
        st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
        _BETA_SIZE,
        _BETA_SIZE,
        st.integers(-4, 4),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_the_exact_reference(self, signs, size1, size2, ulps, fallback):
        # Each bound sits a few ulps from the exact root, where the signs of
        # d at the bounds are closest to rounding; a root outside [0, 1]
        # leaves a bound drawn anywhere.
        b1, b2 = signs[0] * size1, signs[1] * size2
        alpha = fallback
        s = Fraction(b1) + Fraction(b2)
        if s != 0:
            near = float(Fraction(b2) / s)
            for _ in range(abs(ulps)):
                near = math.nextafter(near, math.copysign(math.inf, ulps))
            if 0.0 <= near <= 1.0:
                alpha = near
        # Both constraints give alpha itself, unrounded, as a bound.
        for con in (Constraint(1.0, 0.0, alpha), Constraint(-1.0, 0.0, -alpha)):
            lo, hi = con.feasible_interval
            exact = reference_constrained_ess(b1, b2, lo, hi)
            points = constrained_ess(red_of(b1, b2), con).points
            assert len(points) == len(exact)
            for p, e in zip(points, exact):
                if p.kind is EssKind.INTERIOR:
                    assert lo < e < hi
                    assert abs(Fraction(p.m) - e) <= 4 * Fraction(math.ulp(p.m))
                else:
                    assert p.m in (lo, hi) and Fraction(p.m) == e

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_every_unconstrained_ess_is_a_symmetric_equilibrium(self, b1, b2):
        red = red_of(b1, b2)
        points = symmetric_equilibria(red).points
        for p in constrained_ess(red, Constraint.unconstrained()).points:
            assert p.m in points

    def test_degenerate_has_no_ess(self):
        res = constrained_ess(red_of(0.0, 0.0), type1(0.5))
        assert res.degenerate and not res.exists

    def test_degenerate_rule_applies_before_the_singleton_rule(self):
        con = Constraint(1.0, 0.0, 0.0)
        assert con.feasible_interval == (0.0, 0.0)
        assert constrained_ess(red_of(0.0, 0.0), con) == EssResult((), exists=False, degenerate=True)
        assert constrained_ess(red_of(1.0, 0.0), con) == EssResult(
            (EssPoint(0.0, EssKind.CONSTRAINT_BOUNDARY),), exists=True
        )

    def test_empty_feasible_set_raises(self):
        with pytest.raises(ValueError):
            constrained_ess(red_of(1.0, 1.0), Constraint(1.0, 0.0, -0.5))

    def test_existence_on_random_generic_instances(self):
        rng = random.Random(5150)
        for _ in range(500):
            b1 = rng.uniform(-3, 3)
            b2 = rng.uniform(-3, 3)
            if b1 == 0.0 or b2 == 0.0:
                continue
            alpha = rng.uniform(0.05, 0.95)
            con = type1(alpha) if rng.random() < 0.5 else type2(alpha)
            res = constrained_ess(red_of(b1, b2), con)
            assert res.exists

    def test_fixed_point_and_invasion_resistance(self):
        rng = random.Random(6021)
        for _ in range(200):
            b1 = rng.uniform(-3, 3)
            b2 = rng.uniform(-3, 3)
            if min(abs(b1), abs(b2)) < 0.05:
                continue
            alpha = rng.uniform(0.1, 0.9)
            con = type1(alpha) if rng.random() < 0.5 else type2(alpha)
            red = red_of(b1, b2)
            res = constrained_ess(red, con)
            lo, hi = con.feasible_interval
            oracle = ess_invasion_oracle(b1, b2, lo, hi, grid_n=401)
            got = sorted(p.m for p in res.points)
            assert len(got) == len(oracle)
            for a, b in zip(got, oracle):
                assert a == pytest.approx(b, abs=5e-3)
            for p in res.points:
                assert constrained_best_response(red, con, p.m).contains(p.m)
