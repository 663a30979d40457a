import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empathica import (
    EmpathyMatrix,
    Game2x2,
    GameKind,
    InequalityVerdict,
    classify,
    dominated_actions,
    inequality_report,
    prisoners_dilemma,
    symmetry_report,
    transform,
)
from oracles import (
    brute_dominated,
    edge_games,
    pd_second_threshold,
    pd_threshold,
    random_pd,
    reference_classify,
    reference_dominated_actions,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
games = st.builds(Game2x2, *([finite] * 8))
weights = st.builds(EmpathyMatrix, *([finite] * 4))


class TestTransform:
    def test_identity_is_exact(self, pd):
        out = transform(pd, EmpathyMatrix.identity())
        assert out == pd

    @given(games)
    def test_identity_is_exact_for_random_games(self, g):
        assert transform(g, EmpathyMatrix.identity()) == g

    def test_pd_with_unit_cross_weights(self, pd):
        out = transform(pd, EmpathyMatrix(1, 1, 1, 1))
        assert out.row_matrix() == ((6.0, 5.0), (5.0, 2.0))
        assert out.col_matrix() == ((6.0, 5.0), (5.0, 2.0))

    def test_matching_pennies_cell_formulas(self, mp):
        # With b = -a the transform collapses to (l11-l12)*a and (l21-l22)*a,
        # giving equal diagonal and equal off-diagonal cells.
        l11, l12, l21, l22 = 1.0, -0.5, 0.5, -1.0
        out = transform(mp, EmpathyMatrix(l11, l12, l21, l22))
        assert out.a11 == l11 - l12 and out.b11 == -l22 + l21
        assert out.a22 == l11 - l12 and out.b22 == -l22 + l21
        assert out.a12 == -l11 + l12 and out.b12 == l22 - l21
        assert out.a21 == -l11 + l12 and out.b21 == l22 - l21

    @given(games, games, weights)
    def test_linear_in_the_game(self, g1, g2, lam):
        gsum = Game2x2(*(x + y for x, y in zip(
            (g1.a11, g1.a12, g1.a21, g1.a22, g1.b11, g1.b12, g1.b21, g1.b22),
            (g2.a11, g2.a12, g2.a21, g2.a22, g2.b11, g2.b12, g2.b21, g2.b22),
        )))
        t1 = transform(g1, lam)
        t2 = transform(g2, lam)
        ts = transform(gsum, lam)
        for name in ("a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22"):
            assert getattr(ts, name) == pytest.approx(
                getattr(t1, name) + getattr(t2, name), abs=1e-9, rel=1e-12
            )

    @given(games, st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_symmetric_cross_weight_scales_the_gap(self, g, mu):
        lam = EmpathyMatrix(1.0, mu, mu, 1.0)
        out = transform(g, lam)
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            before = g.a(i, j) - g.b(i, j)
            after = out.a(i, j) - out.b(i, j)
            assert after == pytest.approx((1.0 - mu) * before, abs=1e-10)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            Game2x2(1, 2, 3, float("nan"), 0, 0, 0, 0)
        with pytest.raises(ValueError):
            EmpathyMatrix(1, float("inf"), 0, 1)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize(
        "cls, field",
        [(Game2x2, f) for f in ("a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22")]
        + [(EmpathyMatrix, f) for f in ("l11", "l12", "l21", "l22")],
    )
    def test_non_finite_entry_message_names_the_field(self, cls, field, bad):
        values = {f.name: 1.0 for f in dataclasses.fields(cls)}
        values[field] = bad
        with pytest.raises(ValueError) as exc:
            cls(**values)
        assert str(exc.value) == f"{field} must be a finite real number, got {bad!r}"

    def test_first_non_finite_entry_in_declaration_order_is_named(self):
        with pytest.raises(ValueError) as exc:
            Game2x2(1, 2, 3, float("nan"), 0, float("-inf"), 0, 0)
        assert str(exc.value) == "a22 must be a finite real number, got nan"
        with pytest.raises(ValueError) as exc:
            EmpathyMatrix(float("inf"), 0, float("nan"), 1)
        assert str(exc.value) == "l11 must be a finite real number, got inf"


class TestClassify:
    def test_matching_pennies_is_discoordination(self, mp):
        assert classify(mp).kind is GameKind.DISCOORDINATION

    def test_mirrored_discoordination(self, mp):
        # Swap the two roles: row mismatches, column matches.
        flipped = Game2x2.from_matrices(mp.col_matrix(), mp.row_matrix())
        assert classify(flipped).kind is GameKind.DISCOORDINATION

    def test_pd_is_dominant_strategy_action_two(self, pd):
        cls = classify(pd)
        assert cls.kind is GameKind.DOMINANT_STRATEGY
        assert cls.dominant_action_p1 == 2
        assert cls.dominant_action_p2 == 2

    def test_all_zero_game_is_degenerate(self):
        cls = classify(Game2x2(0, 0, 0, 0, 0, 0, 0, 0))
        assert cls.kind is GameKind.DEGENERATE
        assert cls.degenerate_ties

    def test_coordination_and_anti(self, coord, anti):
        assert classify(coord).kind is GameKind.COORDINATION
        assert classify(anti).kind is GameKind.ANTI_COORDINATION

    def test_tie_tolerance(self):
        g = Game2x2(1.0, 0.0, 1.0 + 1e-9, 2.0, 1.0, 0.0, 0.0, 2.0)
        assert classify(g).kind is not GameKind.DEGENERATE
        assert classify(g, tie_tol=1e-6).kind is GameKind.DEGENERATE

    @pytest.mark.parametrize("tie_tol", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_rejects_a_negative_or_non_finite_tie_tolerance(self, tie_tol):
        # The row player is tied (a11 == a21); a negative or NaN tolerance
        # would skip the tie check and report a dominant action.
        g = Game2x2(1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 1.0)
        assert classify(g).kind is GameKind.DEGENERATE
        with pytest.raises(ValueError, match="tie_tol must be a finite non-negative number"):
            classify(g, tie_tol=tie_tol)

    @given(games)
    def test_total_on_random_games(self, g):
        cls = classify(g)
        assert cls.kind in GameKind

    @given(games)
    def test_class_matches_strict_comparison_patterns(self, g):
        cls = classify(g)
        diffs = (g.a11 - g.a21, g.a12 - g.a22, g.b11 - g.b12, g.b21 - g.b22)
        if any(d == 0 for d in diffs):
            assert cls.kind is GameKind.DEGENERATE
        else:
            assert cls.kind is not GameKind.DEGENERATE


class TestClassifyMatchesReference:
    """``classify`` reads ``_differences``; it must decide exactly as the
    direct payoff comparisons do."""

    @given(
        edge_games(),
        st.just(0.0) | st.floats(min_value=5e-324, max_value=1e308) | st.sampled_from([0.5, 1.0]),
    )
    @settings(max_examples=500)
    def test_same_classification(self, g, tie_tol):
        assert classify(g, tie_tol) == reference_classify(g, tie_tol)


class TestDominatedActions:
    def test_pd_action_one_strictly_dominated(self, pd):
        doms = dominated_actions(pd)
        assert {(d.player, d.action) for d in doms} == {(1, 1), (2, 1)}
        assert all(d.strict and d.dominated_by == 2 for d in doms)

    def test_matching_pennies_has_none(self, mp):
        assert dominated_actions(mp) == []

    def test_transformed_pd_between_thresholds_has_none(self, pd):
        # Between the two cross-weight thresholds (1/4 and 2/3 for this
        # instance) the transformed dilemma is anti-coordination.
        lam = EmpathyMatrix(1, 0.5, 0.5, 1)
        assert dominated_actions(transform(pd, lam)) == []
        assert classify(transform(pd, lam)).kind is GameKind.ANTI_COORDINATION

    def test_transformed_pd_with_unit_weights_flips_the_dominance(self, pd):
        # Above both thresholds the originally dominant action is itself
        # dominated; the originally dominated action survives.
        out = transform(pd, EmpathyMatrix(1, 1, 1, 1))
        doms = dominated_actions(out)
        assert {(d.player, d.action) for d in doms} == {(1, 2), (2, 2)}
        assert brute_dominated(out) == {(1, 2), (2, 2)}

    def test_survival_threshold_on_random_dilemmas(self):
        rng = random.Random(20240811)
        for _ in range(200):
            g = random_pd(rng)
            thr = pd_threshold(g)
            lam_val = thr + rng.uniform(0.01, 2.0)
            out = transform(g, EmpathyMatrix(1, lam_val, lam_val, 1))
            listed = {(d.player, d.action) for d in dominated_actions(out)}
            assert (1, 1) not in listed
            assert (2, 1) not in listed
            assert listed == brute_dominated(out)

    def test_dominance_of_action_one_below_both_thresholds(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_pd(rng)
            cap = min(pd_threshold(g), pd_second_threshold(g))
            lam_val = rng.uniform(0.0, 1.0) * cap * 0.99
            out = transform(g, EmpathyMatrix(1, lam_val, lam_val, 1))
            listed = {(d.player, d.action) for d in dominated_actions(out)}
            assert {(1, 1), (2, 1)} <= listed

    @given(games)
    def test_agrees_with_enumeration(self, g):
        listed = {(d.player, d.action) for d in dominated_actions(g)}
        assert listed == brute_dominated(g)


class TestDominatedActionsMatchReference:
    """``dominated_actions`` reads each player's ``_best_responses``; it must
    list what the direct payoff comparisons list, in the same order."""

    @given(edge_games())
    @settings(max_examples=500)
    def test_same_list(self, g):
        assert dominated_actions(g) == reference_dominated_actions(g)


class TestSymmetryReport:
    def test_identity_preserves_symmetry(self, pd):
        rep = symmetry_report(pd, EmpathyMatrix.identity())
        assert rep.before and rep.after

    def test_asymmetric_weights_break_symmetry(self, pd):
        rep = symmetry_report(pd, EmpathyMatrix(1, 0.9, 0.1, 1))
        assert rep.before and not rep.after

    @given(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
    def test_homogeneous_weights_preserve_symmetry(self, sigma, mu):
        g = prisoners_dilemma()
        rep = symmetry_report(g, EmpathyMatrix.homogeneous(sigma, mu))
        assert rep.before and rep.after

    def test_asymmetric_base_game_stays_asymmetric_flag(self, mp):
        rep = symmetry_report(mp, EmpathyMatrix.identity())
        assert not rep.before


class TestInequalityReport:
    def test_halving_cross_weight_halves_the_gap(self):
        g = Game2x2(5, 0, 0, 0, 1, 0, 0, 0)  # gap 4 at (1,1)
        rep = inequality_report(g, EmpathyMatrix(1, 0.5, 0.5, 1), (1, 1))
        assert rep.gap_before == 4
        assert rep.gap_after == pytest.approx(2)
        assert rep.verdict is InequalityVerdict.REDUCED

    def test_mutual_spite_doubles_the_gap(self):
        g = Game2x2(5, 0, 0, 0, 1, 0, 0, 0)
        rep = inequality_report(g, EmpathyMatrix(1, -1, -1, 1), (1, 1))
        assert rep.gap_after == pytest.approx(8)
        assert rep.verdict is InequalityVerdict.INCREASED

    def test_identity_leaves_gap_unchanged(self, pd):
        rep = inequality_report(pd, EmpathyMatrix.identity(), (2, 1))
        assert rep.gap_after == rep.gap_before
        assert rep.verdict is InequalityVerdict.UNCHANGED
        assert not rep.lambda_tilde_defined

    def test_lambda_tilde(self, pd):
        rep = inequality_report(pd, EmpathyMatrix(1, 0.6, 0.3, 1), (1, 2))
        assert rep.lambda_tilde_defined
        assert rep.lambda_tilde == pytest.approx(2.0)

    def test_rejects_bad_cell(self, pd):
        with pytest.raises(ValueError):
            inequality_report(pd, EmpathyMatrix.identity(), (0, 3))

    @given(games, st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]))
    @settings(max_examples=60)
    def test_gap_identity_across_cells(self, g, mu):
        lam = EmpathyMatrix(1.0, mu, mu, 1.0)
        for cell in ((1, 1), (1, 2), (2, 1), (2, 2)):
            rep = inequality_report(g, lam, cell)
            assert rep.gap_after == pytest.approx((1 - mu) * rep.gap_before, abs=1e-10)


class TestConstructors:
    def test_symmetric_builder(self):
        g = Game2x2.symmetric(((3, 0), (5, 1)))
        assert g.is_symmetric()
        assert (g.b11, g.b12, g.b21, g.b22) == (3, 5, 0, 1)

    def test_zero_sum_builder(self):
        g = Game2x2.zero_sum(((1, -1), (-1, 1)))
        assert (g.b11, g.b12, g.b21, g.b22) == (-1, 1, 1, -1)

    def test_canonical_games_have_expected_shape(self, pd, mp, coord, anti):
        assert pd.a21 > pd.a11 > pd.a22 > pd.a12
        assert mp.b11 == -mp.a11
        assert classify(coord).kind is GameKind.COORDINATION
        assert classify(anti).kind is GameKind.ANTI_COORDINATION

    def test_homogeneous_constructor(self):
        lam = EmpathyMatrix.homogeneous(0.7, -0.2)
        assert (lam.l11, lam.l22) == (0.7, 0.7)
        assert (lam.l12, lam.l21) == (-0.2, -0.2)

    def test_identity_constructor(self):
        assert EmpathyMatrix.identity() == EmpathyMatrix(1, 0, 0, 1)


class TestMatrixAlgebra:
    def test_matmul_and_power(self):
        lam = EmpathyMatrix(0.5, 1.0, 0.25, 0.5)
        assert lam.power(0) == EmpathyMatrix.identity()
        assert lam.power(1) == lam
        sq = lam @ lam
        assert lam.power(2) == sq

    def test_overflowing_power_names_the_entry(self):
        # lam^2 has l11 = 1e400, past the float range.
        with pytest.raises(ValueError, match="^l11 must be a finite real number, got inf$"):
            EmpathyMatrix(1e200, 0, 0, 1).power(2)

    def test_power_rejects_negative(self):
        with pytest.raises(ValueError):
            EmpathyMatrix.identity().power(-1)

    def test_trace_det(self):
        lam = EmpathyMatrix(2, 3, 4, 5)
        assert lam.trace() == 7
        assert lam.det() == 2 * 5 - 3 * 4
