import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empathica import (
    EmpathyMatrix,
    Game2x2,
    GameKind,
    LearningSchedule,
    PopulationState,
    RevisionProtocol,
    VectorField,
    classify,
    pure_nash,
    simulate,
    stabilization_check,
    step,
    switch_rates,
    transform,
    vector_field,
)
from empathica import dynamics
from empathica.dynamics import _detect_cycle
from empathica.io import fixtures_dir, load_game_file, phase_portrait_svg, vector_field_csv
from oracles import (
    random_game,
    reference_detect_cycle,
    reference_rates,
    reference_simulate,
    reference_vector_field,
    reference_vector_field_csv,
)

ALL_PROTOS = (
    RevisionProtocol.replicator(),
    RevisionProtocol.bnn(),
    RevisionProtocol.smith(),
    RevisionProtocol.imitation(),
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestSwitchRates:
    def test_smith_stationary_at_indifference(self, mp):
        # Both actions earn 0 at the mixed center of the unit-stakes game.
        s = PopulationState(0.5, 0.5)
        for pop in (1, 2):
            assert switch_rates(RevisionProtocol.smith(), mp, s, pop) == (0.0, 0.0)

    def test_bnn_vanishes_at_matching_pennies_center(self, mp):
        s = PopulationState(0.5, 0.5)
        for pop in (1, 2):
            assert switch_rates(RevisionProtocol.bnn(), mp, s, pop) == (0.0, 0.0)

    def test_pd_flows_toward_the_dominant_action(self, pd):
        s = PopulationState(0.7, 0.3)
        for proto in ALL_PROTOS[:3]:
            for pop in (1, 2):
                e12, e21 = switch_rates(proto, pd, s, pop)
                assert e12 > 0.0
                assert e21 == 0.0

    def test_rates_are_nonnegative_for_random_inputs(self):
        rng = random.Random(8)
        for _ in range(2000):
            g = random_game(rng)
            s = PopulationState(rng.random(), rng.random())
            proto = rng.choice(ALL_PROTOS)
            for pop in (1, 2):
                e12, e21 = switch_rates(proto, g, s, pop)
                assert e12 >= 0.0 and e21 >= 0.0

    def test_hybrid_is_the_convex_combination(self, pd):
        s = PopulationState(0.3, 0.8)
        hybrid = RevisionProtocol.hybrid(("smith", 1.0), ("bnn", 3.0))
        for pop in (1, 2):
            e = switch_rates(hybrid, pd, s, pop)
            a = switch_rates(RevisionProtocol.smith(), pd, s, pop)
            b = switch_rates(RevisionProtocol.bnn(), pd, s, pop)
            assert e[0] == pytest.approx(0.25 * a[0] + 0.75 * b[0])
            assert e[1] == pytest.approx(0.25 * a[1] + 0.75 * b[1])

    def test_hybrid_weights_must_have_a_finite_sum(self, mp):
        # Each weight is finite, but their sum is not: every member's share
        # w / total would be 0, and the run would freeze at its start.
        with pytest.raises(ValueError, match="hybrid weights must have a finite sum"):
            RevisionProtocol.hybrid(("smith", 1e308), ("bnn", 1e308))
        with pytest.raises(ValueError, match="hybrid weights must not all be zero"):
            RevisionProtocol.hybrid(("smith", 0.0), ("bnn", 0.0))
        # A weight that is not finite is named as such; a negative one too.
        for text in ("hybrid:smith=inf", "hybrid:smith=nan", "hybrid:smith=-inf,bnn=1"):
            with pytest.raises(ValueError, match="hybrid weights must be finite"):
                RevisionProtocol.parse(text)
        with pytest.raises(ValueError, match="hybrid weights must be nonnegative"):
            RevisionProtocol.parse("hybrid:smith=-1,bnn=2")
        # The largest weights whose sum is finite still split the rates evenly.
        hybrid = RevisionProtocol.hybrid(("smith", 8e307), ("bnn", 8e307))
        s = PopulationState(0.2, 0.6)
        smith = switch_rates(RevisionProtocol.smith(), mp, s, 1)
        bnn = switch_rates(RevisionProtocol.bnn(), mp, s, 1)
        assert switch_rates(hybrid, mp, s, 1) == (
            smith[0] * 0.5 + bnn[0] * 0.5,
            smith[1] * 0.5 + bnn[1] * 0.5,
        )

    def test_protocol_parsing(self):
        assert RevisionProtocol.parse("smith") == RevisionProtocol.smith()
        h = RevisionProtocol.parse("hybrid:replicator=0.5,smith=0.5")
        assert h.kind == "hybrid"
        assert h.components == (("replicator", 0.5), ("smith", 0.5))
        with pytest.raises(ValueError):
            RevisionProtocol.parse("gradient")


class TestStep:
    def test_zero_rates_leave_state_unchanged(self, mp):
        s = PopulationState(0.5, 0.5)
        out = step(s, RevisionProtocol.smith(), LearningSchedule.constant(0.1), mp)
        assert out == s

    def test_pd_moves_both_populations_down(self, pd):
        s = PopulationState(0.9, 0.9)
        out = step(s, RevisionProtocol.smith(), LearningSchedule.constant(0.1), pd)
        assert out.p1 < 0.9 and out.p2 < 0.9

    def test_corner_with_no_outflow_is_absorbing(self, pd):
        s = PopulationState(0.0, 0.0)
        out = step(s, RevisionProtocol.replicator(), LearningSchedule.constant(0.5), pd)
        assert out == s

    def test_forward_invariance_exact(self):
        # Capped updates may touch the boundary but never cross it.
        rng = random.Random(10_000)
        sched_pool = [LearningSchedule.constant(r) for r in (0.01, 0.1, 1.0, 10.0)]
        for _ in range(10_000):
            g = random_game(rng, span=10.0)
            s = PopulationState(rng.random(), rng.random())
            proto = rng.choice(ALL_PROTOS)
            out = step(s, proto, rng.choice(sched_pool), g)
            assert 0.0 <= out.p1 <= 1.0
            assert 0.0 <= out.p2 <= 1.0

    def test_pure_nash_profiles_are_fixed_points(self):
        rng = random.Random(77)
        sched = LearningSchedule.constant(0.2)
        checked = 0
        while checked < 300:
            g = random_game(rng)
            for p in pure_nash(g):
                i, j = p.cell
                s = PopulationState(1.0 if i == 1 else 0.0, 1.0 if j == 1 else 0.0)
                for proto in (RevisionProtocol.smith(), RevisionProtocol.bnn()):
                    assert step(s, proto, sched, g) == s
                checked += 1

    def test_replays_simulate_exactly(self, pd):
        # step runs simulate's kernel, so every recorded transition replays
        # bit for bit, including a hybrid's weighting and the rate cap
        # (binding at rate 25).
        protos = ALL_PROTOS + (RevisionProtocol.parse("hybrid:replicator=0.7,imitation=0.2"),)
        for proto in protos:
            for sched in (LearningSchedule.constant(0.05), LearningSchedule.constant(25.0),
                          LearningSchedule.harmonic(0.5)):
                traj = simulate(PopulationState(0.9, 0.8), proto, sched, pd, steps=200,
                                detect_cycles=False)
                for t in range(len(traj) - 1):
                    s = PopulationState(traj.p1[t], traj.p2[t])
                    nxt = step(s, proto, sched, pd, t)
                    assert (nxt.p1, nxt.p2) == (traj.p1[t + 1], traj.p2[t + 1]), (proto, sched, t)

    def test_a_replay_builds_the_hybrid_rule_once(self, mp, monkeypatch):
        # Replaying a run step by step reuses the rule while the same
        # protocol and game objects come back, and every state stays that of
        # reference_simulate, bit for bit.
        proto = RevisionProtocol.parse("hybrid:smith=0.5,bnn=0.3,imitation=0.2")
        sched = LearningSchedule.constant(0.05)
        ref = reference_simulate(PopulationState(0.9, 0.2), proto, sched, mp, 1000,
                                 detect_cycles=False)
        assert len(ref) == 1001
        built = []
        rate_rule = dynamics._rate_rule

        def counting(p, g):
            built.append(p.kind)
            return rate_rule(p, g)

        monkeypatch.setattr(dynamics, "_rate_rule", counting)
        s = PopulationState(ref.p1[0], ref.p2[0])
        for t in range(1000):
            s = step(s, proto, sched, mp, t)
            assert repr((s.p1, s.p2)) == repr((ref.p1[t + 1], ref.p2[t + 1])), t
        assert built == ["hybrid", "smith", "bnn", "imitation"]

    def test_games_differing_in_a_zero_sign_do_not_share_a_rule(self):
        # The games are equal, but their imitation shifts are -0.0 and 0.0,
        # so u2 + shift at u2 = -0.0 is -0.0 under one and 0.0 under the
        # other; a rule keyed on equality would hand one game the other's.
        proto = RevisionProtocol.imitation()
        state = PopulationState(0.5, 0.5)
        pos = Game2x2(0.0, 0.0, -0.0, -0.0, 1.0, 1.0, 1.0, 1.0)
        neg = Game2x2(-0.0, 0.0, -0.0, -0.0, 1.0, 1.0, 1.0, 1.0)
        assert pos == neg
        for game in (pos, neg, pos):
            expected = reference_rates(proto, game)(state.p1, state.p2)[:2]
            assert repr(switch_rates(proto, game, state, 1)) == repr(expected)

    def test_rejects_a_negative_step_index(self, pd):
        # At t = -3 a harmonic rate is negative, and at t = -1 it is 1/0.
        s = PopulationState(0.5, 0.5)
        for t in (-3, -1):
            with pytest.raises(ValueError, match="t must be nonnegative"):
                step(s, RevisionProtocol.replicator(), LearningSchedule.harmonic(0.5), pd, t)

    def test_harmonic_schedule_decays(self):
        sched = LearningSchedule.harmonic(0.5)
        assert sched.rate(0) == 0.5
        assert sched.rate(4) == 0.1


class TestSimulate:
    def test_pd_replicator_reaches_the_defect_corner(self, pd):
        traj = simulate(
            PopulationState(0.7, 0.6),
            RevisionProtocol.replicator(),
            LearningSchedule.constant(0.05),
            pd,
            steps=100_000,
        )
        assert traj.diagnostics.converged
        assert traj.p1[-1] == pytest.approx(0.0, abs=1e-6)
        assert traj.p2[-1] == pytest.approx(0.0, abs=1e-6)

    def test_matching_pennies_cycles_without_converging(self, mp):
        traj = simulate(
            PopulationState(0.4, 0.6),
            RevisionProtocol.replicator(),
            LearningSchedule.constant(0.01),
            mp,
            steps=100_000,
        )
        assert not traj.diagnostics.converged
        assert traj.diagnostics.cycle_detected
        assert traj.diagnostics.cycle_period_estimate > 0

    def test_cycle_breaking_empathy_converges_to_a_corner(self, mp):
        lam = EmpathyMatrix(1.0, 0.0001, 0.0001, -1.0)
        traj = simulate(
            PopulationState(0.55, 0.65),
            RevisionProtocol.replicator(),
            LearningSchedule.constant(0.02),
            transform(mp, lam),
            steps=100_000,
        )
        assert traj.diagnostics.converged
        corner_dist = min(
            max(abs(traj.p1[-1] - cx), abs(traj.p2[-1] - cy))
            for cx in (0.0, 1.0)
            for cy in (0.0, 1.0)
        )
        assert corner_dist < 1e-3

    def test_cycle_persistence_across_interior_starts(self, mp):
        rng = random.Random(1234)
        sched = LearningSchedule.constant(0.01)
        for _ in range(10):
            while True:
                x, y = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
                if abs(x - 0.5) > 0.02 or abs(y - 0.5) > 0.02:
                    break
            traj = simulate(
                PopulationState(x, y),
                RevisionProtocol.replicator(),
                sched,
                mp,
                steps=100_000,
                detect_cycles=False,
            )
            assert not traj.diagnostics.converged

    def test_convergence_on_random_stable_classes(self):
        # Coordination, anti-coordination, and dominance games all settle on
        # a pure equilibrium from interior starts under the three protocols.
        rng = random.Random(555)
        sched = LearningSchedule.constant(0.05)
        protos = (RevisionProtocol.replicator(), RevisionProtocol.bnn(), RevisionProtocol.smith())
        games_checked = 0
        while games_checked < 20:
            g = random_game(rng)
            cls = classify(g)
            kind = cls.kind
            if kind not in (GameKind.COORDINATION, GameKind.ANTI_COORDINATION,
                            GameKind.DOMINANT_STRATEGY):
                continue
            if kind is GameKind.DOMINANT_STRATEGY and not (
                cls.dominant_action_p1 and cls.dominant_action_p2
            ):
                continue
            # A payoff-margin floor bounds how slowly the most sluggish
            # protocol closes in on a corner within the step budget.
            if min(abs(g.a11 - g.a21), abs(g.a12 - g.a22),
                   abs(g.b11 - g.b12), abs(g.b21 - g.b22)) < 1.0:
                continue
            corners = []
            for p in pure_nash(g):
                i, j = p.cell
                corners.append((1.0 if i == 1 else 0.0, 1.0 if j == 1 else 0.0))
            for proto in protos:
                for _ in range(2):
                    s0 = PopulationState(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
                    traj = simulate(s0, proto, sched, g, steps=60_000, detect_cycles=False)
                    dist = min(
                        max(abs(traj.p1[-1] - cx), abs(traj.p2[-1] - cy))
                        for cx, cy in corners
                    )
                    assert dist <= 1e-3
            games_checked += 1

    def test_single_population_anti_coordination_finds_interior_ess(self, anti):
        # A symmetric game started on the diagonal stays on it, emulating one
        # population; the anti-coordination interior point attracts it.
        traj = simulate(
            PopulationState(0.9, 0.9),
            RevisionProtocol.replicator(),
            LearningSchedule.constant(0.05),
            anti,
            steps=100_000,
        )
        assert traj.p1 == traj.p2
        # beta1 = -1, beta2 = -1 for this fixture: interior rest point 0.5.
        assert traj.p1[-1] == pytest.approx(0.5, abs=1e-3)

    def test_trajectory_bookkeeping(self, pd):
        traj = simulate(
            PopulationState(0.5, 0.5),
            RevisionProtocol.smith(),
            LearningSchedule.constant(0.05),
            pd,
            steps=50,
        )
        assert traj.times == tuple(range(len(traj)))
        assert len(traj.p1) == len(traj.p2) == len(traj)
        assert traj.final.p1 == traj.p1[-1]
        assert len(traj.states) == len(traj)

    def test_rejects_zero_steps(self, pd):
        with pytest.raises(ValueError):
            simulate(PopulationState(0.5, 0.5), RevisionProtocol.smith(),
                     LearningSchedule.constant(0.1), pd, steps=0)


class TestRateOracle:
    """switch_rates and vector_field against reference_rates, which forms
    every protocol's rates for both populations from the state in one
    closure per kind: the same floats (compared by repr, so that -0.0 and
    NaN must match too), or the same error text."""

    PROTOS = ALL_PROTOS + (RevisionProtocol.parse("hybrid:smith=0.5,bnn=0.3,imitation=0.2"),)

    @staticmethod
    def games():
        rng = random.Random(1414)
        games = [random_game(rng) for _ in range(4)]
        for span in (1e300, 1e308):
            games += [Game2x2(*(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0) * span
                                for _ in range(8))) for _ in range(2)]
        for big in (1e300, 1e308):  # 1e308 overflows the rates
            games.append(Game2x2(big, -big, -big, big, -big, big, big, -big))
        return rng, games

    @pytest.mark.parametrize("proto", PROTOS, ids=lambda p: p.kind)
    def test_switch_rates(self, proto):
        rng, games = self.games()
        corners = [(x, y) for x in (0.0, 1.0) for y in (0.0, 1.0)]
        for g in games:
            ref = reference_rates(proto, g)
            for p1, p2 in corners + [(rng.random(), rng.random()) for _ in range(20)]:
                s = PopulationState(p1, p2)
                got = switch_rates(proto, g, s, 1) + switch_rates(proto, g, s, 2)
                assert repr(got) == repr(ref(p1, p2))

    @pytest.mark.parametrize("proto", PROTOS, ids=lambda p: p.kind)
    def test_vector_field_rows(self, proto):
        _, games = self.games()
        for g in games:
            for resolution in range(2, 22):
                outcomes = []
                for fn in (vector_field, reference_vector_field):
                    try:
                        outcomes.append(repr(fn(proto, g, resolution)))
                    except ValueError as exc:
                        outcomes.append("raised " + str(exc))
                assert outcomes[0] == outcomes[1]


class TestKernelOracle:
    """simulate against reference_simulate, which calls the step kernel as a
    function and runs its own loop: the same states and diagnostics bit for
    bit (compared by repr, so that NaN matches NaN), or the same error."""

    PROTOS = ALL_PROTOS + (RevisionProtocol.parse("hybrid:smith=0.5,bnn=0.3,imitation=0.2"),)
    # Rate 25 makes the cap bind; harmonic rates fall below it.
    SCHEDS = (LearningSchedule.constant(0.05), LearningSchedule.constant(25.0),
              LearningSchedule.harmonic(0.5), LearningSchedule.harmonic(25.0))

    @staticmethod
    def outcome(run, *args, **kwargs):
        try:
            traj = run(*args, **kwargs)
        except ValueError as exc:
            return "raised " + str(exc)
        return repr((traj.p1, traj.p2, traj.diagnostics))

    def assert_same(self, *args, **kwargs):
        got = self.outcome(simulate, *args, **kwargs)
        assert got == self.outcome(reference_simulate, *args, **kwargs)
        return got

    def test_every_protocol_schedule_and_corner(self, pd, mp, coord, anti):
        rng = random.Random(2024)
        huge = [Game2x2(*(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0) * 1e300
                          for _ in range(8))) for _ in range(2)]
        games = [pd, mp, coord, anti, random_game(rng), *huge]
        corners = [PopulationState(x, y) for x in (0.0, 1.0) for y in (0.0, 1.0)]
        seen = set()
        for g in games:
            for proto in self.PROTOS:
                for sched in self.SCHEDS:
                    starts = [rng.choice(corners), PopulationState(rng.random(), rng.random())]
                    for s0 in starts:
                        got = self.assert_same(s0, proto, sched, g, 300)
                        seen.add("converged=True" in got)
        assert seen == {True, False}

    def test_a_cycling_run(self, mp):
        got = self.assert_same(PopulationState(0.4, 0.6), RevisionProtocol.replicator(),
                               LearningSchedule.constant(0.05), mp, 3000)
        assert "cycle_detected=True" in got

    def test_overflowing_rates(self):
        # Payoffs of 1e308 overflow the switch rates and the reference's
        # states turn NaN: it raises, from its limit point or its cycle scan,
        # or returns the NaN states.  simulate raises one error for all.
        g = Game2x2(1e308, -1e308, -1e308, 1e308, -1e308, 1e308, 1e308, -1e308)
        for detect in (True, False):
            for proto in self.PROTOS:
                args = (PopulationState(0.3, 0.6), proto, LearningSchedule.constant(25.0), g, 50)
                ref = self.outcome(reference_simulate, *args, detect_cycles=detect)
                assert "nan" in ref.lower()
                got = self.outcome(simulate, *args, detect_cycles=detect)
                assert got.startswith(
                    "raised the switch rates overflow the float range for this game: "
                    "the state is NaN from step "
                )


class TestCycleScan:
    """simulate's cycle flags against the reference scan, which builds its own
    arc-length prefix and looks up nine cells for every state."""

    @staticmethod
    def arc_prefix(p1s, p2s):
        arc = [0.0]
        for i in range(1, len(p1s)):
            arc.append(arc[-1] + max(abs(p1s[i] - p1s[i - 1]), abs(p2s[i] - p2s[i - 1])))
        return arc

    def assert_matches_reference(self, traj, eps):
        diag = traj.diagnostics
        assert not diag.converged
        ref = reference_detect_cycle(list(traj.p1), list(traj.p2), eps)
        assert (diag.cycle_detected, diag.cycle_period_estimate) == ref
        return ref[0]

    def test_every_protocol_and_schedule(self, mp):
        protos = ALL_PROTOS + (RevisionProtocol.parse("hybrid:replicator=0.7,imitation=0.2"),)
        found = set()
        for proto in protos:
            for sched in (LearningSchedule.constant(0.05), LearningSchedule.harmonic(0.5)):
                for eps in (1e-3, 1e-2):
                    traj = simulate(PopulationState(0.3, 0.6), proto, sched, mp,
                                    steps=4000, cycle_eps=eps)
                    found.add(self.assert_matches_reference(traj, eps))
        assert found == {True, False}

    def test_random_games(self):
        # Half the games are random discoordination games (signs of matching
        # pennies, random sizes), so that both outcomes of the scan occur.
        rng = random.Random(404)
        protos = ALL_PROTOS + (RevisionProtocol.parse("hybrid:smith=0.5,bnn=0.5"),)
        found = set()
        for k in range(60):
            if k % 2:
                u = [rng.uniform(0.2, 3.0) for _ in range(8)]
                g = Game2x2(u[0], -u[1], -u[2], u[3], -u[4], u[5], u[6], -u[7])
            else:
                g = random_game(rng)
            proto = rng.choice(protos)
            sched = rng.choice((LearningSchedule.constant(rng.uniform(0.01, 2.0)),
                                LearningSchedule.harmonic(rng.uniform(0.1, 2.0))))
            eps = rng.choice((1e-3, 1e-2))
            traj = simulate(PopulationState(rng.random(), rng.random()), proto, sched, g,
                            steps=rng.choice((1, 2, 3, 30, 600, 3000)), cycle_eps=eps)
            if not traj.diagnostics.converged:
                found.add(self.assert_matches_reference(traj, eps))
        assert found == {True, False}

    def test_short_runs_take_the_too_short_branch(self, mp):
        traj = simulate(PopulationState(0.3, 0.6), RevisionProtocol.smith(),
                        LearningSchedule.constant(0.05), mp, steps=1)
        assert self.assert_matches_reference(traj, 1e-3) is False
        for n in range(4):
            p1s = [0.5] * n
            assert _detect_cycle(p1s, p1s, self.arc_prefix(p1s, p1s), 0.1) == (False, None)

    def test_oscillation_inside_one_cell(self):
        # Every state lies in cell (0, 0) and each step adds 1/16 of arc, so
        # the first state after the transient must be matched 21 steps later
        # (21/16 > 10 * eps = 1.25), by a state that never changes cell.
        eps = 0.125
        p1s = [0.0625 * (k % 2) for k in range(40)]
        p2s = [0.0] * 40
        got = _detect_cycle(p1s, p2s, self.arc_prefix(p1s, p2s), eps)
        assert got == reference_detect_cycle(p1s, p2s, eps) == (True, 21.0)

    @pytest.mark.parametrize("eps", [1e-9, 2.5, math.inf, -0.25])
    def test_extreme_and_negative_eps(self, mp, eps):
        # 2.5 and inf put the whole square in one cell, 1e-9 spreads a run
        # over about 1e9 cells per axis, and a negative eps matches nothing.
        traj = simulate(PopulationState(0.3, 0.6), RevisionProtocol.replicator(),
                        LearningSchedule.constant(0.05), mp, steps=3000, detect_cycles=False)
        flip = [float(k % 2) for k in range(60)]
        for p1s, p2s in ((list(traj.p1), list(traj.p2)), (flip, flip[::-1])):
            got = _detect_cycle(p1s, p2s, self.arc_prefix(p1s, p2s), eps)
            assert got == reference_detect_cycle(p1s, p2s, eps)

    def test_cells_a_narrow_key_would_merge(self):
        # At eps 1e-9 the row index ky runs from 0 to m = int(1 / eps).  Keyed
        # as kx * w + ky with w <= m, cells (kx, m) and (kx + 1, m - w) would
        # share a key: the step from a to b would not enter a cell, b would
        # not be filed, and the return to b would go unseen.
        eps = 1e-9
        m = int(1.0 / eps)
        kx = int(0.5 / eps)
        for w in (1, 2, 3, m // 2, m - 1, m):
            b = ((kx + 1.5) * eps, (m - w + 0.5) * eps)
            assert (int(b[0] / eps), int(b[1] / eps)) == (kx + 1, m - w)
            p1s = [0.5, b[0], 0.1, b[0]]
            p2s = [1.0, b[1], 0.1, b[1]]
            got = _detect_cycle(p1s, p2s, self.arc_prefix(p1s, p2s), eps)
            assert got == reference_detect_cycle(p1s, p2s, eps) == (True, 2.0)

    @pytest.mark.parametrize(
        "p1s, eps",
        [([0.1, 0.2, 0.3, 0.4], 0.0), ([0.1, 0.2, 0.3, 0.4], math.nan),
         ([0.1, math.nan, 0.3, 0.4], 1e-3)],
        ids=["eps-0", "eps-nan", "nan-state"],
    )
    def test_raises_as_the_reference(self, p1s, eps):
        def raised(scan, *args):
            with pytest.raises(Exception) as exc:
                scan(p1s, p1s, *args, eps)
            return (type(exc.value), str(exc.value))

        got = raised(_detect_cycle, self.arc_prefix(p1s, p1s))
        assert got == raised(reference_detect_cycle)

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)).map(
                lambda c: (c[0] / 20, c[1] / 20)
            ),
            max_size=60,
        ),
        st.sampled_from((0.05, 0.1, 0.3)),
    )
    @settings(max_examples=300)
    def test_drawn_sequences(self, states, eps):
        p1s = [x for x, _ in states]
        p2s = [y for _, y in states]
        got = _detect_cycle(p1s, p2s, self.arc_prefix(p1s, p2s), eps)
        assert got == reference_detect_cycle(p1s, p2s, eps)


class TestVectorField:
    def test_zero_game_has_zero_field(self):
        g = Game2x2(0, 0, 0, 0, 0, 0, 0, 0)
        field = vector_field(RevisionProtocol.replicator(), g, resolution=5)
        assert all(r[2] == 0.0 and r[3] == 0.0 for r in field.rows)

    def test_coordination_interior_rest_point(self, coord):
        # The mixed equilibrium of the (2,0;0,1) coordination game is at 1/3.
        field = vector_field(RevisionProtocol.replicator(), coord, resolution=4)
        rest = [r for r in field.rows if abs(r[0] - 1 / 3) < 1e-9 and abs(r[1] - 1 / 3) < 1e-9]
        assert len(rest) == 1
        assert abs(rest[0][2]) < 1e-12 and abs(rest[0][3]) < 1e-12

    def test_coordination_flow_points_to_matching_corners(self, coord):
        field = vector_field(RevisionProtocol.replicator(), coord, resolution=11)
        for p1, p2, d1, d2 in field.rows:
            if p1 > 0.5 and p2 > 0.5 and p1 < 1 and p2 < 1:
                assert d1 >= 0 and d2 >= 0
            if p1 < 1 / 3 and p2 < 1 / 3 and p1 > 0 and p2 > 0:
                assert d1 <= 0 and d2 <= 0

    def test_pd_interior_flow_is_strictly_downhill(self, pd):
        field = vector_field(RevisionProtocol.smith(), pd, resolution=9)
        for p1, p2, d1, d2 in field.rows:
            if 0 < p1 < 1 and 0 < p2 < 1:
                assert d1 < 0 and d2 < 0

    def test_grid_shape_and_order(self, pd):
        field = vector_field(RevisionProtocol.smith(), pd, resolution=3)
        assert len(field.rows) == 9
        assert [r[:2] for r in field.rows[:3]] == [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]

    def test_rejects_tiny_resolution(self, pd):
        with pytest.raises(ValueError):
            vector_field(RevisionProtocol.smith(), pd, resolution=1)

    @pytest.mark.parametrize("proto", ALL_PROTOS, ids=lambda p: p.kind)
    def test_overflowing_rates_raise(self, proto):
        g = Game2x2(1e308, -1e308, -1e308, 1e308, -1e308, 1e308, 1e308, -1e308)
        with pytest.raises(ValueError, match="switch rates overflow the float range"):
            vector_field(proto, g, resolution=3)


class TestFieldWriters:
    """``vector_field_csv`` formats each distinct coordinate once; it must
    write ``reference_vector_field_csv``'s bytes, which format every entry
    on its own, for any rows in any order."""

    ODD = (0, 1, True, False, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e308, -1e308, 0.5, -0.5, 1.0, 2)

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0), (0, -0.0), (-0.0, False)])
    def test_a_zero_keeps_its_sign(self, column, zeros):
        rows = []
        for z in zeros * 2:
            row = [0.25, 0.25, z, -z]
            row[column] = z
            rows.append(tuple(row))
        field = VectorField(2, tuple(rows))
        csv = vector_field_csv(field)
        assert csv == reference_vector_field_csv(field)
        assert [line.split(",")[column] for line in csv.splitlines()[1:]] == [
            repr(float(z)) for z in zeros * 2
        ]

    def test_ints_bools_and_extreme_floats(self):
        rows = tuple((a, b, b, a) for a in self.ODD for b in self.ODD)
        field = VectorField(len(self.ODD), rows)
        assert vector_field_csv(field) == reference_vector_field_csv(field)

    @given(st.lists(
        st.tuples(*[st.one_of(st.floats(), st.integers(-3, 3), st.booleans(),
                              st.sampled_from((0.0, -0.0, 0.1, -0.1)))] * 4),
        max_size=40,
    ))
    @settings(max_examples=200, deadline=None)
    def test_rows_off_the_grid_in_any_order(self, rows):
        field = VectorField(2, tuple(rows))
        assert vector_field_csv(field) == reference_vector_field_csv(field)

    @pytest.mark.parametrize("proto", TestRateOracle.PROTOS, ids=lambda p: p.kind)
    def test_library_fields_of_the_fixtures(self, proto):
        for path in sorted(fixtures_dir().glob("*.json")):
            game, lam = load_game_file(path)
            for g in (game, transform(game, lam)):
                for resolution in (2, 3, 21, 40):
                    field = vector_field(proto, g, resolution)
                    assert vector_field_csv(field) == reference_vector_field_csv(field)

    def test_portrait_needs_two_grid_values(self):
        with pytest.raises(ValueError, match="resolution must be at least 2"):
            phase_portrait_svg(VectorField(1, ((0.5, 0.5, 0.0, 0.0),)))


class TestStabilization:
    def test_mixed_sign_weights_stabilize_matching_pennies(self, mp):
        rep = stabilization_check(mp, EmpathyMatrix(1, -1, 1, -1))
        assert rep.stabilized
        out = transform(mp, EmpathyMatrix(1, -1, 1, -1))
        assert (out.a11, out.b11) == (2.0, 2.0)
        assert (out.a12, out.b12) == (-2.0, -2.0)
        assert (out.a21, out.b21) == (-2.0, -2.0)
        assert (out.a22, out.b22) == (2.0, 2.0)

    def test_identity_does_not_stabilize(self, mp):
        rep = stabilization_check(mp, EmpathyMatrix.identity())
        assert not rep.stabilized
        assert rep.transformed_class.kind is GameKind.DISCOORDINATION

    def test_tiny_cross_weights_with_flipped_self_weight(self, mp):
        rep = stabilization_check(mp, EmpathyMatrix(1, 0.0001, 0.0001, -1))
        assert rep.stabilized
        assert rep.transformed_class.kind is GameKind.COORDINATION

    def test_requires_discoordination(self, pd):
        with pytest.raises(ValueError):
            stabilization_check(pd, EmpathyMatrix.identity())


class TestStateValidation:
    @given(unit, unit)
    def test_valid_states_accepted(self, x, y):
        s = PopulationState(x, y)
        assert s.as_tuple() == (x, y)

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            PopulationState(-0.1, 0.5)
        with pytest.raises(ValueError):
            PopulationState(0.5, 1.5)
