"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 1 is asserted twice: once exactly as worded (marked xfail:
the wording is contradicted by direct computation even on the canonical
dilemma, see notes in the companion test and the repository notes), and once
in the provable form (the originally dominated action escapes dominance and
the cooperative cell becomes a pure equilibrium above the threshold).
"""
import random
import time
from contextlib import contextmanager

import pytest

from empathica import (
    Constraint,
    DiagonalReduction,
    EmpathyMatrix,
    LearningSchedule,
    PopulationState,
    RevisionProtocol,
    analyze_hierarchy,
    berge_solutions,
    check_consistency,
    constrained_ess,
    default_battery,
    diagonal_reduction,
    dominated_actions,
    homogeneous_payoff,
    infinitely_consistent,
    prisoners_dilemma,
    pure_nash,
    region_map,
    simulate,
    spectral_limit,
    stabilization_check,
    step,
    symmetric_equilibria,
    transform,
)
from empathica.io import load_game_file, resolve_input
from oracles import (
    brute_dominated,
    grid_symmetric_equilibria,
    pd_second_threshold,
    pd_threshold,
    random_game,
    random_pd,
)


@contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} {label}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"[acceptance] criterion {num:02d} {label}: PASS "
          f"({time.perf_counter() - t0:.2f}s)")


def fixture_game(name: str):
    return load_game_file(resolve_input(name))[0]


# --------------------------------------------------------------------------
# 1. Dominated-strategy survival
# --------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason=(
        "As worded, this criterion is unattainable: just above the survival "
        "threshold the originally dominant action is itself strictly dominated "
        "(so the dominated-action list is not empty), and just below it the "
        "game is typically anti-coordination (so action 1 is not dominated "
        "either).  Both effects occur on the canonical (3,0;5,1) dilemma.  "
        "The provable form passes in the companion test."
    ),
)
def test_criterion_1_dominated_strategy_survival_as_stated():
    with criterion(1, "dominated-strategy survival (as stated)"):
        rng = random.Random(101)
        games = [prisoners_dilemma()] + [random_pd(rng) for _ in range(200)]
        for g in games:
            thr = pd_threshold(g)
            above = transform(g, EmpathyMatrix(1, thr + 0.1, thr + 0.1, 1))
            assert dominated_actions(above) == []
            assert (1, 1) in {p.cell for p in pure_nash(above)}
            low = thr - 0.1
            if low > 0:
                below = transform(g, EmpathyMatrix(1, low, low, 1))
                listed = {(d.player, d.action) for d in dominated_actions(below)}
                assert {(1, 1), (2, 1)} <= listed


def test_criterion_1_dominated_strategy_survival():
    # Provable form: above the threshold the originally dominated action is
    # no longer dominated for either player and the cooperative cell is a
    # pure equilibrium; below it the cooperative cell is not an equilibrium
    # and action 1 stays dominated exactly when the cross weight also stays
    # below the second comparison's flip point, as enumeration confirms.
    with criterion(1, "dominated-strategy survival"):
        t0 = time.perf_counter()
        rng = random.Random(101)
        games = [prisoners_dilemma()] + [random_pd(rng) for _ in range(200)]
        for g in games:
            thr = pd_threshold(g)
            mu = thr + 0.1
            above = transform(g, EmpathyMatrix(1, mu, mu, 1))
            listed = {(d.player, d.action) for d in dominated_actions(above)}
            assert (1, 1) not in listed
            assert (2, 1) not in listed
            assert (1, 1) in {p.cell for p in pure_nash(above)}
            low = thr - 0.1
            if low > 0:
                below = transform(g, EmpathyMatrix(1, low, low, 1))
                assert (1, 1) not in {p.cell for p in pure_nash(below)}
                listed = {(d.player, d.action) for d in dominated_actions(below)}
                expect_dominated = low <= pd_second_threshold(g)
                assert ((1, 1) in listed) == expect_dominated
                assert listed == brute_dominated(below)
        assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------------------------------
# 2. Payoff-gap identity
# --------------------------------------------------------------------------

def test_criterion_2_payoff_gap_identity():
    with criterion(2, "payoff-gap identity"):
        rng = random.Random(202)
        for _ in range(1000):
            g = random_game(rng)
            for mu in (-1.0, 0.0, 0.5, 1.0, 2.0):
                out = transform(g, EmpathyMatrix(1.0, mu, mu, 1.0))
                for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
                    before = g.a(i, j) - g.b(i, j)
                    after = out.a(i, j) - out.b(i, j)
                    assert abs(after - (1.0 - mu) * before) <= 1e-12


# --------------------------------------------------------------------------
# 3. Diagonal-reduction equivalence
# --------------------------------------------------------------------------

def test_criterion_3_reduction_equivalence():
    with criterion(3, "diagonal-reduction equivalence"):
        rng = random.Random(303)
        done = 0
        while done < 1000:
            g = random_game(rng)
            sigma = rng.uniform(0.25, 2.0)
            mu = rng.uniform(-1.5, 1.5)
            a_lam = homogeneous_payoff(g, sigma, mu)
            red = diagonal_reduction(a_lam)
            # A 1e-3 grid cannot resolve near-degenerate instances.
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
                below = [p for p in analytic if p <= acc]
                above = [p for p in analytic if p >= acc]
                assert below and above
                gap = min(above) - max(below)
                assert dmin <= gap / 2.0 + 1e-9
            done += 1


# --------------------------------------------------------------------------
# 4. Constrained ESS case table
# --------------------------------------------------------------------------

def _type1(alpha: float) -> Constraint:
    return Constraint(c1=1.0, c2=0.0, V=alpha)


def _type2(alpha: float) -> Constraint:
    return Constraint(c1=0.0, c2=1.0, V=1.0 - alpha)


def _invasion_resists(b1: float, b2: float, lo: float, hi: float, m: float) -> bool:
    """Direct epsilon-invasion test against every alternative best reply."""

    def payoff(of: float, against: float) -> float:
        return of * (b1 * against) + (1.0 - of) * (b2 * (1.0 - against))

    replies = [lo + (hi - lo) * k / 400 for k in range(401)]
    best = max(payoff(x, m) for x in replies)
    if payoff(m, m) < best - 1e-12:
        return False
    alts = [x for x in replies if payoff(x, m) >= best - 1e-12 and abs(x - m) > 1e-12]
    for eps in (1e-3, 1e-2):
        for x in alts:
            mix = (1.0 - eps) * m + eps * x
            if payoff(m, mix) <= payoff(x, mix):
                return False
    return True


def test_criterion_4_constrained_ess_table():
    with criterion(4, "constrained ESS case table"):
        sign_patterns = {
            "+-": [(1, -1), (1, -2), (2, -1), (2, -2)],
            "-+": [(-1, 1), (-1, 2), (-2, 1), (-2, 2)],
            "++": [(1, 1), (1, 2), (2, 1), (2, 2)],
            "--": [(-1, -1), (-1, -2), (-2, -1), (-2, -2)],
        }
        for alpha in (0.3, 0.8):
            for ctype, make in (("I", _type1), ("II", _type2)):
                con = make(alpha)
                lo, hi = con.feasible_interval
                for pattern, betas in sign_patterns.items():
                    for b1, b2 in betas:
                        red = DiagonalReduction(float(b1), float(b2), ((b1, 0.0), (0.0, b2)))
                        got = sorted(p.m for p in constrained_ess(red, con).points)
                        x_star = b2 / (b1 + b2) if b1 + b2 != 0 else None
                        if ctype == "I":
                            if pattern == "+-":
                                expected = [alpha]
                            elif pattern == "-+":
                                expected = [0.0]
                            elif pattern == "++":
                                expected = [0.0] if alpha <= x_star else [0.0, alpha]
                            else:
                                expected = [min(x_star, alpha)]
                        else:
                            if pattern == "+-":
                                expected = [1.0]
                            elif pattern == "-+":
                                expected = [alpha]
                            elif pattern == "++":
                                expected = [1.0] if alpha >= x_star else [alpha, 1.0]
                            else:
                                expected = [max(x_star, alpha)]
                        assert got == pytest.approx(expected, abs=1e-12), (
                            f"type {ctype}, pattern {pattern}, betas ({b1},{b2}), "
                            f"alpha {alpha}: got {got}, expected {expected}"
                        )
                        # The single point each case bullet names must be
                        # among the returned points.
                        prescribed = expected[0] if len(expected) == 1 else (
                            0.0 if ctype == "I" else 1.0
                        )
                        assert any(abs(m - prescribed) <= 1e-12 for m in got)
                        for m in got:
                            assert _invasion_resists(b1, b2, lo, hi, m)


# --------------------------------------------------------------------------
# 5. Forward invariance
# --------------------------------------------------------------------------

def test_criterion_5_forward_invariance():
    with criterion(5, "forward invariance"):
        rng = random.Random(505)
        protos = (
            RevisionProtocol.replicator(),
            RevisionProtocol.bnn(),
            RevisionProtocol.smith(),
            RevisionProtocol.imitation(),
        )
        rates = [LearningSchedule.constant(r) for r in (0.01, 0.1, 1.0, 5.0, 25.0)]
        for _ in range(10_000):
            g = random_game(rng, span=10.0)
            s = PopulationState(rng.random(), rng.random())
            out = step(s, rng.choice(protos), rng.choice(rates), g)
            assert 0.0 <= out.p1 <= 1.0
            assert 0.0 <= out.p2 <= 1.0


# --------------------------------------------------------------------------
# 6. Convergence of stable classes
# --------------------------------------------------------------------------

def test_criterion_6_convergence_to_pure_equilibria():
    with criterion(6, "convergence on stable fixtures"):
        t0 = time.perf_counter()
        sched = LearningSchedule.constant(0.05)
        protos = {
            "replicator": RevisionProtocol.replicator(),
            "bnn": RevisionProtocol.bnn(),
            "smith": RevisionProtocol.smith(),
        }
        for name in ("pd", "coordination", "anti_coordination"):
            g = fixture_game(name)
            corners = [
                (1.0 if i == 1 else 0.0, 1.0 if j == 1 else 0.0)
                for (i, j) in (p.cell for p in pure_nash(g))
            ]
            for pname, proto in protos.items():
                # Seeded from a string, which hash randomization leaves
                # alone, so every run draws the same 90 starts.
                rng = random.Random(f"{name}/{pname}")
                for _ in range(10):
                    s0 = PopulationState(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
                    traj = simulate(s0, proto, sched, g, steps=100_000,
                                    detect_cycles=False)
                    dist = min(
                        max(abs(traj.p1[-1] - cx), abs(traj.p2[-1] - cy))
                        for cx, cy in corners
                    )
                    assert dist <= 1e-3, (name, pname, s0, dist)
        assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------------------
# 7. Matching-pennies cycling versus stabilization
# --------------------------------------------------------------------------

def test_criterion_7_cycling_and_stabilization():
    with criterion(7, "cycling vs stabilization"):
        mp = fixture_game("matching_pennies")
        cycling = simulate(
            PopulationState(0.4, 0.6),
            RevisionProtocol.replicator(),
            LearningSchedule.constant(0.01),
            mp,
            steps=100_000,
        )
        assert cycling.diagnostics.cycle_detected
        assert not cycling.diagnostics.converged

        game, lam = load_game_file(resolve_input("stabilizing_empathy"))
        assert lam.entries() == (1.0, 0.0001, 0.0001, -1.0)
        settled = simulate(
            PopulationState(0.55, 0.65),
            RevisionProtocol.replicator(),
            LearningSchedule.constant(0.02),
            transform(game, lam),
            steps=100_000,
        )
        assert settled.diagnostics.converged
        corner_dist = min(
            max(abs(settled.p1[-1] - cx), abs(settled.p2[-1] - cy))
            for cx in (0.0, 1.0)
            for cy in (0.0, 1.0)
        )
        assert corner_dist <= 1e-3

        rep = stabilization_check(mp, EmpathyMatrix(1, -1, 1, -1))
        assert rep.stabilized
        cells = transform(mp, EmpathyMatrix(1, -1, 1, -1))
        assert (cells.a11, cells.b11) == (2.0, 2.0)
        assert (cells.a22, cells.b22) == (2.0, 2.0)
        assert (cells.a12, cells.b12) == (-2.0, -2.0)
        assert (cells.a21, cells.b21) == (-2.0, -2.0)


# --------------------------------------------------------------------------
# 8. Mutual support
# --------------------------------------------------------------------------

def test_criterion_8_berge_and_altruism():
    with criterion(8, "mutual support"):
        pd = fixture_game("pd")
        assert berge_solutions(pd) == [(1, 1)]
        high = transform(pd, EmpathyMatrix(1, 0.9, 0.9, 1))
        assert (1, 1) in {p.cell for p in pure_nash(high)}


# --------------------------------------------------------------------------
# 9. Hierarchy consistency
# --------------------------------------------------------------------------

def test_criterion_9_hierarchy():
    with criterion(9, "hierarchy consistency"):
        pos = EmpathyMatrix.homogeneous(0.4, 0.4)  # every entry rho/2, rho=0.8
        verdict = check_consistency(pos, k_max=10)
        assert verdict.label == "StructurallyConsistent"
        for k, eps in enumerate(verdict.epsilons, start=1):
            assert abs(eps - 0.8 ** (k - 1)) <= 1e-9

        neg = EmpathyMatrix.homogeneous(-0.4, -0.4)
        verdict = check_consistency(neg, k_max=10)
        assert verdict.label == "Inconsistent"
        assert verdict.first_bad_k == 2
        assert verdict.witness == prisoners_dilemma()

        ic = infinitely_consistent(0.5, 0.25)
        sq = ic @ ic
        assert max(abs(a - b) for a, b in zip(sq.entries(), ic.entries())) < 1e-12
        for g in default_battery():
            analysis = analyze_hierarchy(g, ic, k_max=10)
            sigs = {rec.signature for rec in analysis.levels}
            assert len(sigs) == 1

        quarter = EmpathyMatrix(0.25, 0.25, 0.25, 0.25)
        rec = spectral_limit(quarter, 10)
        assert rec.limit_kind.value == "Zero"
        assert abs(rec.rho - 0.5) <= 1e-12


# --------------------------------------------------------------------------
# 10. Region map
# --------------------------------------------------------------------------

def test_criterion_10_region_map():
    with criterion(10, "region map"):
        t0 = time.perf_counter()
        pd = fixture_game("pd")
        rmap = region_map(pd, (-1.0, 2.0), (-1.0, 2.0), resolution=60)

        labels = rmap.labels
        l12s = rmap.l12_values
        l21s = rmap.l21_values

        def cells_where(pred12, pred21):
            return [
                labels[i][j]
                for i, v21 in enumerate(l21s)
                for j, v12 in enumerate(l12s)
                if pred12(v12) and pred21(v21)
            ]

        # A defect-only region around and including the selfish origin.
        origin_block = cells_where(lambda v: -0.2 <= v <= 0.2, lambda v: -0.2 <= v <= 0.2)
        assert origin_block and all(lbl == "22" for lbl in origin_block)

        # A cooperate-only region in the high-altruism quadrant.
        high_block = cells_where(lambda v: v >= 0.7, lambda v: v >= 0.7)
        assert high_block and all(lbl == "11" for lbl in high_block)

        # A mixed band separates them along the diagonal.
        diag = [labels[i][i] for i in range(len(l12s))]
        last22 = max(i for i, lbl in enumerate(diag) if lbl == "22")
        first11 = min(i for i, lbl in enumerate(diag) if lbl == "11")
        assert last22 < first11
        between = diag[last22 + 1:first11]
        assert between and all("mixed" in lbl for lbl in between)

        # Monotone boundaries: along each axis "22" presence is
        # downward-closed and "11" presence upward-closed.
        def monotone(seq, token, direction):
            flags = [token in lbl for lbl in seq]
            if direction == "up":
                first = flags.index(True) if True in flags else len(flags)
                assert all(flags[first:])
            else:
                last = (len(flags) - 1 - flags[::-1].index(True)) if True in flags else -1
                assert all(flags[: last + 1])

        for i in range(len(l21s)):
            monotone(labels[i], "11", "up")
            monotone(labels[i], "22", "down")
        for j in range(len(l12s)):
            col = [labels[i][j] for i in range(len(l21s))]
            monotone(col, "11", "up")
            monotone(col, "22", "down")

        assert time.perf_counter() - t0 < 5.0
