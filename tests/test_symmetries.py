"""The model's exact symmetries, as tests.

Equilibria depend only on best-response comparisons, and ``transform`` is
linear and cellwise, so three maps of a game carry its equilibrium
structure over exactly:

* swapping the players, with Λ's roles swapped: every float expression of
  one player becomes the other's, so outputs map bit for bit;
* relabelling the row player's two actions: each difference is negated
  exactly, but a mixed coordinate p becomes 1 - p, which is not exact in
  floats, so coordinates are compared within ``RELABEL_TOL``;
* scaling every payoff by 2^k: exact while no value becomes subnormal or
  infinite, so draws where one does are discarded.

Each layer's outputs for the mapped game must equal the original outputs
mapped.  Under relabelling, ``simulate`` maps a state (p1, p2) to
(1 - p1, p2), which is rounded at every step, so the two runs drift apart
within ``relabel_drift_bounds``.
"""
from __future__ import annotations

import math
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from empathica import (
    Constraint,
    EmpathyMatrix,
    Game2x2,
    GameKind,
    LearningSchedule,
    PopulationState,
    RevisionProtocol,
    analyze_hierarchy,
    berge_solutions,
    classify,
    constrained_ess,
    diagonal_reduction,
    equilibrium_signature,
    homogeneous_payoff,
    mixed_nash,
    outcome_label,
    pareto_front,
    pure_nash,
    region_map,
    simulate,
    symmetric_equilibria,
    two_population_equilibria,
)
from oracles import edge_games

# Each of the two mixed roots lies within 4 * 2^-53 of its exact value (a
# relative error below four roundings, on a root in [0, 1]), so a coordinate
# and its relabelled image, mapped back, differ by at most 8 * 2^-53.
RELABEL_TOL = Fraction(8, 2**53)
SCALES = [-1000, -500, 500, 1000]

moderate = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
moderate_games = st.builds(Game2x2, *([moderate] * 8))
# Multiples of 2^-10 up to 50: every nonzero payoff, difference and sum stays
# normal and finite under each of ``SCALES``, so scaled draws are seldom
# discarded.
dyadic = st.integers(-50 * 2**10, 50 * 2**10).map(lambda n: n / 2**10)
dyadic_games = st.builds(Game2x2, *([dyadic] * 8))
small_int_games = st.builds(Game2x2, *([st.integers(-2, 2).map(float)] * 8))
any_games = edge_games() | moderate_games | small_int_games
weights = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 2.0, 1e-3])
lams = st.builds(EmpathyMatrix, weights, weights, weights, weights)
ranges = st.tuples(st.floats(-2.0, 1.0), st.floats(0.5, 3.0)).map(lambda t: (t[0], t[0] + t[1]))


def relabel_drift_bounds(g: Game2x2, sched: LearningSchedule, n: int) -> list[float]:
    """Bounds on max(|p1' - (1 - p1)|, |p2' - p2|) at steps 0 .. n-1 between
    a run (p1, p2) of ``g`` and a run (p1', p2) of ``relabel_game(g)`` with
    p1' = fl(1 - p1), while every lam_t * spread <= 1/2.

    In real arithmetic the two step maps agree under p1 -> 1 - p1.  Let S be
    the payoffs' spread (max - min) and M their largest magnitude.
    * Every switch rate is at most S, so with lam_t * S <= 1/2 the cap is
      lam_t, the exact step stays in the unit square, and the clamp moves no
      exact state: it only shortens a rounding error.
    * Each protocol's flow is Lipschitz in the max norm with constant 4S:
      with d = u2 - u1 (|d| <= S, |dd/dp_other| <= 2S), the replicator and
      imitation flow is -m*n*d, Smith's n*max(-d, 0) - m*max(d, 0) and
      BNN's -m^2*d or -n^2*d, and a hybrid's is a convex combination.  So
      one exact step grows a difference of states by at most 1 + 4*lam_t*S.
    * One float step is within u*(4 + 64*lam_t*M) of the exact step from
      the same state, with u = 2^-53: a few roundings of values below 2 in
      the update, and the payoffs' roundings, scaled by at most lam_t.
    So e_0 <= u/2 (one rounding of 1 - p1) and
    e_{t+1} <= (1 + 4*lam_t*S)*e_t + 2*u*(4 + 64*lam_t*M).
    """
    payoffs = astuple(g)
    spread = max(payoffs) - min(payoffs)
    size = max(map(abs, payoffs))
    u = 2.0**-53
    bounds = [u / 2]
    for t in range(n - 1):
        lam = sched.rate(t)
        assert lam * spread <= 0.5
        bounds.append((1.0 + 4.0 * lam * spread) * bounds[-1] + 2.0 * u * (4.0 + 64.0 * lam * size))
    return bounds


def swap_game(g: Game2x2) -> Game2x2:
    """The column player becomes the row player: a'_ij = b_ji, b'_ij = a_ji."""
    return Game2x2(g.b11, g.b21, g.b12, g.b22, g.a11, g.a21, g.a12, g.a22)


def swap_lam(lam: EmpathyMatrix) -> EmpathyMatrix:
    return EmpathyMatrix(lam.l22, lam.l21, lam.l12, lam.l11)


def relabel_game(g: Game2x2) -> Game2x2:
    """The row player's actions 1 and 2 trade places."""
    return Game2x2(g.a21, g.a22, g.a11, g.a12, g.b21, g.b22, g.b11, g.b12)


def scale_game(g: Game2x2, k: int) -> Game2x2:
    return Game2x2(*(math.ldexp(v, k) for v in astuple(g)))


def _normal(v: float) -> bool:
    return 2.0**-1022 <= abs(v) < math.inf


def scales_exactly(values, k: int) -> bool:
    """Every value is zero, or it and its image under 2^k are normal and
    finite."""
    return all(v == 0.0 or (_normal(v) and _normal(math.ldexp(v, k))) for v in values)


def game_values(g: Game2x2) -> list[float]:
    """The payoffs, each player's differences and their sums: every value
    the equilibrium code forms from a game's payoffs."""
    d = [g.a11 - g.a21, g.a22 - g.a12, g.b11 - g.b12, g.b22 - g.b21]
    prefs = [g.b21 - g.b22, g.b11 - g.b12, g.a12 - g.a22, g.a11 - g.a21]
    return [*astuple(g), *d, d[0] + d[1], d[2] + d[3], prefs[1] - prefs[0], prefs[3] - prefs[2]]


class Swap:
    exact = True

    @staticmethod
    def cell(c):
        return (c[1], c[0])

    @staticmethod
    def kind(k):
        return k

    @staticmethod
    def dominant(p1, p2):
        return (p2, p1)

    ties = {"a11-a21": "b11-b12", "a12-a22": "b21-b22", "b11-b12": "a11-a21", "b21-b22": "a12-a22"}

    @staticmethod
    def profile(x, y):
        return (y, x)


class Relabel:
    exact = False

    @staticmethod
    def cell(c):
        return (3 - c[0], c[1])

    @staticmethod
    def kind(k):
        swapped = {GameKind.COORDINATION: GameKind.ANTI_COORDINATION,
                   GameKind.ANTI_COORDINATION: GameKind.COORDINATION}
        return swapped.get(k, k)

    @staticmethod
    def dominant(p1, p2):
        return (3 - p1 if p1 else p1, p2)

    ties = {"a11-a21": "a11-a21", "a12-a22": "a12-a22", "b11-b12": "b21-b22", "b21-b22": "b11-b12"}

    @staticmethod
    def profile(x, y):
        return (1 - Fraction(x), Fraction(y))


class Scale:
    exact = True

    @staticmethod
    def cell(c):
        return c

    @staticmethod
    def kind(k):
        return k

    @staticmethod
    def dominant(p1, p2):
        return (p1, p2)

    ties = {t: t for t in ("a11-a21", "a12-a22", "b11-b12", "b21-b22")}

    @staticmethod
    def profile(x, y):
        return (x, y)


def map_label(label: str, m) -> str:
    parts = label.split("+")
    cells = sorted(m.cell((int(p[0]), int(p[1]))) for p in parts if p not in ("mixed", "none"))
    out = [f"{i}{j}" for i, j in cells] + [p for p in parts if p == "mixed"]
    return "+".join(out) if out else "none"


def map_signature(sig: str, m) -> str:
    cls, pure, mixed = sig.split("|")
    kind = m.kind(GameKind(cls.removeprefix("class="))).value
    cells = pure.removeprefix("pure=")
    cells = [] if cells == "-" else [(int(c[0]), int(c[1])) for c in cells.split(",")]
    mapped = ",".join(f"{i}{j}" for i, j in sorted(m.cell(c) for c in cells))
    return f"class={kind}|pure={mapped or '-'}|{mixed}"


def _hex_profile(xy) -> tuple[str, str]:
    return (float(xy[0]).hex(), float(xy[1]).hex())


def _segments(res, m=None):
    """The continua as sets of endpoint pairs, mapped by ``m`` when given,
    without segments of length at most ``RELABEL_TOL``: a root within that of
    a corner may round onto it on one side and leave no segment there."""
    out = []
    for a, b in res.continua:
        ends = sorted(
            m.profile(p.x, p.y) if m else (Fraction(p.x), Fraction(p.y)) for p in (a, b)
        )
        if max(abs(ends[0][0] - ends[1][0]), abs(ends[0][1] - ends[1][1])) > RELABEL_TOL:
            out.append(ends)
    return sorted(out)


def _close(p, q) -> bool:
    return all(abs(u - v) <= RELABEL_TOL for u, v in zip(p, q))


def assert_mixed_maps(g: Game2x2, h: Game2x2, m) -> None:
    got, want = mixed_nash(h), mixed_nash(g)
    assert got.degenerate == want.degenerate
    assert len(got.points) == len(want.points)
    if m.exact:
        assert [_hex_profile((p.x, p.y)) for p in got.points] == [
            _hex_profile(m.profile(p.x, p.y)) for p in want.points
        ]
        assert [tuple(_hex_profile((p.x, p.y)) for p in seg) for seg in got.continua] == [
            tuple(_hex_profile(m.profile(p.x, p.y)) for p in seg) for seg in want.continua
        ]
        return
    for p, q in zip(got.points, want.points):
        assert _close((Fraction(p.x), Fraction(p.y)), m.profile(q.x, q.y))
    have, need = _segments(got), _segments(want, m)
    assert len(have) == len(need)
    for s, t in zip(have, need):
        assert _close(s[0], t[0]) and _close(s[1], t[1])


def assert_layers_map(g: Game2x2, h: Game2x2, m) -> None:
    """``h`` is ``g`` under map ``m``: each equilibrium layer of ``h`` is
    that of ``g`` mapped."""
    cg, ch = classify(g), classify(h)
    assert ch.kind == m.kind(cg.kind)
    assert (ch.dominant_action_p1, ch.dominant_action_p2) == m.dominant(
        cg.dominant_action_p1, cg.dominant_action_p2
    )
    assert sorted(ch.degenerate_ties) == sorted(m.ties[t] for t in cg.degenerate_ties)
    assert sorted((p.cell, p.strict) for p in pure_nash(h)) == sorted(
        (m.cell(p.cell), p.strict) for p in pure_nash(g)
    )
    assert sorted(berge_solutions(h)) == sorted(map(m.cell, berge_solutions(g)))
    assert sorted(pareto_front(h)) == sorted(map(m.cell, pareto_front(g)))
    identity = EmpathyMatrix.identity()
    assert outcome_label(two_population_equilibria(h, identity)) == map_label(
        outcome_label(two_population_equilibria(g, identity)), m
    )
    assert equilibrium_signature(h) == map_signature(equilibrium_signature(g), m)
    assert_mixed_maps(g, h, m)


class TestPlayerSwap:
    @given(any_games)
    @settings(max_examples=400, deadline=None)
    def test_equilibrium_layers(self, g):
        assert_layers_map(g, swap_game(g), Swap)

    @given(any_games, lams)
    @settings(max_examples=200, deadline=None)
    def test_transformed_game_is_the_swapped_transform(self, g, lam):
        try:
            eqs = two_population_equilibria(g, lam)
        except ValueError:
            # A transformed payoff overflows, and so does its image.
            with pytest.raises(ValueError):
                two_population_equilibria(swap_game(g), swap_lam(lam))
            return
        swapped = two_population_equilibria(swap_game(g), swap_lam(lam))
        assert outcome_label(swapped) == map_label(outcome_label(eqs), Swap)

    @given(
        st.one_of(moderate_games, small_int_games),
        ranges,
        ranges,
        st.sampled_from([1.0, 0.5]),
        st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_region_map_with_axes_swapped(self, g, r12, r21, l11, l22):
        n = 7
        rm = region_map(g, r12, r21, n, l11=l11, l22=l22)
        sw = region_map(swap_game(g), r21, r12, n, l11=l22, l22=l11)
        assert sw.l12_values == rm.l21_values and sw.l21_values == rm.l12_values
        for i in range(n):
            for j in range(n):
                assert sw.labels[i][j] == map_label(rm.labels[j][i], Swap)

    @given(st.one_of(moderate_games, small_int_games), lams, st.integers(2, 30))
    @settings(max_examples=100, deadline=None)
    def test_hierarchy_levels(self, g, lam, k_max):
        # Weights up to 2 and payoffs up to 50 keep every level finite.
        walk = analyze_hierarchy(g, lam, k_max)
        swapped = analyze_hierarchy(swap_game(g), swap_lam(lam), k_max)
        assert len(swapped.levels) == len(walk.levels)
        for a, b in zip(swapped.levels, walk.levels):
            assert a.k == b.k
            assert a.lam_k == swap_lam(b.lam_k)
            assert a.signature == map_signature(b.signature, Swap)

    @given(
        st.one_of(moderate_games, small_int_games),
        st.sampled_from(["replicator", "smith", "bnn", "imitation", "hybrid:smith=0.5,bnn=0.5"]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from([LearningSchedule.constant(0.05), LearningSchedule.harmonic(0.5)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_simulate_bit_for_bit(self, g, proto, p1, p2, sched):
        proto = RevisionProtocol.parse(proto)
        run = simulate(PopulationState(p1, p2), proto, sched, g, 400)
        swapped = simulate(PopulationState(p2, p1), proto, sched, swap_game(g), 400)
        assert [v.hex() for v in swapped.p1] == [v.hex() for v in run.p2]
        assert [v.hex() for v in swapped.p2] == [v.hex() for v in run.p1]
        d, e = run.diagnostics, swapped.diagnostics
        assert (e.converged, e.cycle_detected, e.cycle_period_estimate) == (
            d.converged, d.cycle_detected, d.cycle_period_estimate,
        )
        if d.limit_point is not None:
            assert e.limit_point == PopulationState(d.limit_point.p2, d.limit_point.p1)


class TestRowRelabelling:
    # A coordination game turns anti-coordination; a root near a corner.
    @example(Game2x2(1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0))
    @example(Game2x2(1e-20, 0.0, 0.0, 1.0, 0.0, 1.0, 1e-20, 0.0))
    @given(any_games)
    @settings(max_examples=400, deadline=None)
    def test_equilibrium_layers(self, g):
        assert_layers_map(g, relabel_game(g), Relabel)

    @given(
        st.one_of(small_int_games, st.builds(Game2x2, *([st.floats(-2.0, 2.0)] * 8))),
        st.sampled_from(["replicator", "smith", "bnn", "imitation", "hybrid:smith=0.5,bnn=0.5"]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from([LearningSchedule.constant(0.01), LearningSchedule.harmonic(0.05)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_simulate_within_the_drift_bound(self, g, proto, p1, p2, sched):
        proto = RevisionProtocol.parse(proto)
        run = simulate(PopulationState(p1, p2), proto, sched, g, 100, detect_cycles=False)
        mapped = simulate(
            PopulationState(1.0 - p1, p2), proto, sched, relabel_game(g), 100, detect_cycles=False
        )
        n = min(len(run), len(mapped))
        for t, bound in enumerate(relabel_drift_bounds(g, sched, n)):
            assert abs(Fraction(mapped.p1[t]) - (1 - Fraction(run.p1[t]))) <= bound
            assert abs(Fraction(mapped.p2[t]) - Fraction(run.p2[t])) <= bound
        # Each run stops at the end of a window of steps whose change is
        # below a threshold; a change within the drift of the threshold may
        # close one run's window at another step, but only by converging.
        if len(run) == len(mapped):
            assert run.diagnostics.converged == mapped.diagnostics.converged
        else:
            assert (run if len(run) < len(mapped) else mapped).diagnostics.converged


class TestPowerOfTwoScaling:
    # Matching pennies and an anti-coordination game, whose d1 * d2
    # underflows when scaled by 2^-1000, and a dilemma scaled by 2^1000.
    @example(Game2x2(1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0), -1000)
    @example(Game2x2(0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0), -1000)
    @example(Game2x2(3.0, 0.0, 5.0, 1.0, 3.0, 5.0, 0.0, 1.0), 1000)
    @given(st.one_of(dyadic_games, moderate_games, small_int_games), st.sampled_from(SCALES))
    @settings(max_examples=400, deadline=None)
    def test_equilibrium_layers(self, g, k):
        h = scale_game(g, k)
        assume(scales_exactly(game_values(g), k))
        assert_layers_map(g, h, Scale)

    @example(Game2x2(0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0), -1000, 1.0, 0.0)
    @given(
        st.one_of(dyadic_games, small_int_games),
        st.sampled_from(SCALES),
        st.sampled_from([1.0, 0.5, 2.0]),
        st.sampled_from([0.0, 0.5, -0.5, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetric_equilibria_and_constrained_ess(self, g, k, sigma, mu):
        constraints = [Constraint.unconstrained(), Constraint(1.0, 0.0, 0.5), Constraint(0.0, 1.0, 0.75)]
        red = diagonal_reduction(homogeneous_payoff(g, sigma, mu))
        scaled = diagonal_reduction(homogeneous_payoff(scale_game(g, k), sigma, mu))
        b1, b2 = red.beta1, red.beta2
        # The ESS reads the preference at each end of the feasible interval.
        ends = [e for c in constraints for e in c.feasible_interval]
        values = [*red.source[0], *red.source[1], b1, b2, b1 + b2, *astuple(g)]
        values += [v for m in ends for v in (b1 * m, b2 * (1.0 - m), red.preference(m))]
        assume(scales_exactly(values, k))
        assert symmetric_equilibria(scaled) == symmetric_equilibria(red)
        for con in constraints:
            assert constrained_ess(scaled, con) == constrained_ess(red, con)
