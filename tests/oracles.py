"""Independent brute-force oracles used to cross-check the analytic code.

Everything here works by enumeration, grid search, or direct definition
checking; none of it shares code paths with the library implementations.
The reference hierarchy walks are the exception: they call the library's
``transform`` on every level game and label it with
``reference_equilibrium_signature``, which reads the game through the
library's ``classify`` and ``mixed_nash`` and through ``exact_pure_nash``,
not through the per-player keys that ``equilibrium_signature`` reads.
``exact_pure_nash``, ``exact_equilibrium_signature`` and
``exact_outcome_label`` read nothing but the payoff comparisons
themselves, and check every reader of the library's key-pair table.
``reference_classify`` and ``reference_mixed_nash`` are the direct
payoff-subtraction forms of ``classify`` and ``mixed_nash``, each player
written out on its own, which the library must match bit for bit, apart
from the interior point: ``exact_interior_point`` places it in ``Fraction``
arithmetic, and the library's float must lie within a few ulps of it.
``reference_region_csv`` writes the region CSV one line per cell, and
``reference_vector_field_csv`` the vector-field CSV one line per row, each
entry formatted on its own.
``reference_dominated_actions`` compares each player's payoffs directly and
``reference_deviation_gain`` writes out its four expected payoffs; the
library, which reads both from ``games``, must match them exactly.
``reference_constrained_ess`` places the constrained ESS points from their
definition in ``Fraction`` arithmetic, which the library must match exactly
at the bounds and within a few ulps at the interior point.
``reference_spectral_eigenvalues`` is ``spectral_limit``'s closed form on
the unscaled entries, which the library must match bit for bit wherever
h*h - det is finite.
``reference_structural_epsilons`` is the least-squares fit that once decided
structural consistency; ``reference_structural_base`` decides it exactly,
in ``Fraction`` arithmetic on the float entries.
``reference_rates`` forms every protocol's switch rates for both
populations from the state; ``reference_simulate`` writes out the step
kernel and the loop around it on those rates, and ``reference_vector_field``
the raw flow on a grid.
``reference_canonical_json`` is the standard library's indented JSON, which
``io.canonical_json`` must match byte for byte, and
``reference_load_game_file`` reads a game file by indexing each entry and
converting it twice, as ``io.load_game_file`` once did: the two must return
the same game and weights, or raise the same ``GameFileError`` text.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from empathica import (
    Classification,
    ConsistencyVerdict,
    Diagnostics,
    DominatedAction,
    EmpathyMatrix,
    Game2x2,
    GameKind,
    LearningSchedule,
    MixedNashResult,
    MixedProfile,
    PopulationState,
    RegionMap,
    RevisionProtocol,
    Trajectory,
    VectorField,
    classify,
    default_battery,
    mixed_nash,
    transform,
)
from empathica.dynamics import _CYCLE_EPS
from empathica.hierarchy import LevelRecord
from empathica.io import GameFileError

CELLS = ((1, 1), (1, 2), (2, 1), (2, 2))


def payoff_tables(g: Game2x2) -> tuple[dict, dict]:
    """The row and the column player's payoffs keyed by cell, read from the
    record's fields."""
    return ({(1, 1): g.a11, (1, 2): g.a12, (2, 1): g.a21, (2, 2): g.a22},
            {(1, 1): g.b11, (1, 2): g.b12, (2, 1): g.b21, (2, 2): g.b22})


def brute_pure_nash(g: Game2x2) -> set[tuple[int, int]]:
    """Pure equilibria via explicit best-response tables."""
    a, b = payoff_tables(g)
    row_br = set()
    for j in (1, 2):
        best = max(a[(1, j)], a[(2, j)])
        for i in (1, 2):
            if a[(i, j)] == best:
                row_br.add((i, j))
    col_br = set()
    for i in (1, 2):
        best = max(b[(i, 1)], b[(i, 2)])
        for j in (1, 2):
            if b[(i, j)] == best:
                col_br.add((i, j))
    return row_br & col_br


def brute_dominated(g: Game2x2) -> set[tuple[int, int]]:
    """(player, action) pairs where the other action weakly dominates."""
    out = set()
    row = {1: (g.a11, g.a12), 2: (g.a21, g.a22)}
    col = {1: (g.b11, g.b21), 2: (g.b12, g.b22)}
    for player, table in ((1, row), (2, col)):
        for act in (1, 2):
            other = 3 - act
            diffs = [table[other][k] - table[act][k] for k in (0, 1)]
            if min(diffs) >= 0 and max(diffs) > 0:
                out.add((player, act))
    return out


def brute_berge(g: Game2x2) -> set[tuple[int, int]]:
    a, b = payoff_tables(g)
    out = set()
    for i, j in CELLS:
        if a[i, j] == max(a[i, 1], a[i, 2]) and b[i, j] == max(b[1, j], b[2, j]):
            out.add((i, j))
    return out


def brute_pareto(g: Game2x2) -> set[tuple[int, int]]:
    a, b = payoff_tables(g)
    out = set()
    for c in CELLS:
        dominated = any(
            d != c
            and a[d] >= a[c]
            and b[d] >= b[c]
            and (a[d] > a[c] or b[d] > b[c])
            for d in CELLS
        )
        if not dominated:
            out.add(c)
    return out


def _compare(x: float, y: float) -> int:
    return (x > y) - (x < y)


def exact_pure_nash(g: Game2x2) -> list[tuple[tuple[int, int], bool]]:
    """``pure_nash``'s (cell, strict) pairs in ``CELLS`` order, from each
    player's payoff at the cell compared with its other action's there: a
    cell where neither pays more, strict where both pay less.  No difference
    is taken, so none can overflow or round."""
    a, b = payoff_tables(g)
    out = []
    for i, j in CELLS:
        row = _compare(a[i, j], a[3 - i, j])
        col = _compare(b[i, j], b[i, 3 - j])
        if row >= 0 and col >= 0:
            out.append(((i, j), row > 0 and col > 0))
    return out


def exact_comparisons(g: Game2x2) -> tuple[int, int, int, int]:
    """Each player's two payoff comparisons as signs: a11 with a21, a22 with
    a12, b11 with b12 and b22 with b21."""
    return (_compare(g.a11, g.a21), _compare(g.a22, g.a12),
            _compare(g.b11, g.b12), _compare(g.b22, g.b21))


def exact_equilibrium_signature(g: Game2x2) -> str:
    """``equilibrium_signature`` from ``exact_comparisons`` and
    ``exact_pure_nash`` alone.  A tie makes the class degenerate; a player
    whose two signs differ has a dominant action; otherwise equal signs of
    the two players coordinate (+) or anti-coordinate (-), and unequal ones
    discoordinate.  The mixed token counts the flat players, whose two
    comparisons both tie, or is 1 when each player's two signs are equal
    and strict, which places one interior point."""
    r1, r2, c1, c2 = exact_comparisons(g)
    if 0 in (r1, r2, c1, c2):
        kind = GameKind.DEGENERATE
    elif r1 != r2 or c1 != c2:
        kind = GameKind.DOMINANT_STRATEGY
    elif r1 == c1:
        kind = GameKind.COORDINATION if r1 > 0 else GameKind.ANTI_COORDINATION
    else:
        kind = GameKind.DISCOORDINATION
    flat = (r1 == r2 == 0) + (c1 == c2 == 0)
    mixed = ("1" if r1 == r2 != 0 and c1 == c2 != 0 else "0", "0+cont", "0+deg")[flat]
    cells = ",".join(f"{i}{j}" for (i, j), _ in exact_pure_nash(g))
    return f"class={kind.value}|pure={cells or '-'}|mixed={mixed}"


def exact_outcome_label(g: Game2x2) -> str:
    """``outcome_label`` of the game's full analysis from the same
    comparisons: its pure cells, then ``mixed`` when a player is flat (a
    continuum) or each player's two signs are equal (an interior point)."""
    r1, r2, c1, c2 = exact_comparisons(g)
    parts = [f"{i}{j}" for (i, j), _ in exact_pure_nash(g)]
    if r1 == r2 == 0 or c1 == c2 == 0 or r1 == r2 and c1 == c2:
        parts.append("mixed")
    return "+".join(parts) or "none"


def indifference_residual(g: Game2x2, x: float, y: float) -> float:
    """Max violation of the two indifference equations at profile (x, y)."""
    row = abs((g.a11 * y + g.a12 * (1 - y)) - (g.a21 * y + g.a22 * (1 - y)))
    col = abs((g.b11 * x + g.b21 * (1 - x)) - (g.b12 * x + g.b22 * (1 - x)))
    return max(row, col)


def grid_symmetric_equilibria(a_lam, spacing: float = 1e-3) -> np.ndarray:
    """Grid points of [0, 1] that pass a best-response check for the
    symmetric single-population game with payoff matrix ``a_lam``.

    The best-response condition is checked pointwise: a corner must weakly
    prefer itself, and an interior point must be indifferent between the two
    actions up to the discretization allowance (the preference changes at
    slope |b1 + b2| per unit of m, so one grid step can move it by at most
    that times the spacing).
    """
    (m11, m12), (m21, m22) = a_lam
    n = int(round(1.0 / spacing)) + 1
    m = np.linspace(0.0, 1.0, n)
    pi1 = m11 * m + m12 * (1.0 - m)
    pi2 = m21 * m + m22 * (1.0 - m)
    d = pi1 - pi2
    slope = abs((m11 - m21) + (m22 - m12))
    accept = np.abs(d) <= max(1e-12, slope * spacing)
    accept[0] = d[0] <= 0.0
    accept[-1] = d[-1] >= 0.0
    return m[accept]


def ess_invasion_oracle(
    beta1: float,
    beta2: float,
    lo: float,
    hi: float,
    eps_values=(1e-3, 1e-2),
    grid_n: int = 2001,
) -> list[float]:
    """Constrained ESS points certified by the definition itself.

    Candidates are a fine grid of the feasible interval plus the exact
    corners and indifference point.  A candidate must be a best reply to
    itself, and must strictly out-earn every alternative best reply inside
    the post-invasion mix for each tested invasion size.  Each candidate is
    scored against the whole reply grid at once, as a numpy array.
    """

    def payoff(of, against):
        pi1 = beta1 * against
        pi2 = beta2 * (1.0 - against)
        return of * pi1 + (1.0 - of) * pi2

    grid = [lo + (hi - lo) * k / (grid_n - 1) for k in range(grid_n)]
    candidates = set(grid) | {lo, hi}
    s = beta1 + beta2
    if s != 0.0 and lo <= beta2 / s <= hi:
        candidates.add(beta2 / s)

    ess = []
    reply_grid = np.array(sorted(candidates))
    for m in sorted(candidates):
        earns = payoff(reply_grid, m)
        best = earns.max()
        if payoff(m, m) < best - 1e-12:
            continue
        best_replies = reply_grid[(earns >= best - 1e-12) & (reply_grid != m)]
        mixes = ((1.0 - eps) * m + eps * best_replies for eps in eps_values)
        if all((payoff(m, mix) > payoff(best_replies, mix)).all() for mix in mixes):
            ess.append(m)
    # Collapse grid-adjacent duplicates of the same point.
    out: list[float] = []
    for m in ess:
        if not out or abs(m - out[-1]) > 2.0 * (hi - lo) / (grid_n - 1):
            out.append(m)
    return out


def reference_constrained_ess(beta1: float, beta2: float, lo: float, hi: float) -> list[Fraction]:
    """Constrained ESS points of diag(beta1, beta2) on [lo, hi], ascending,
    from the definition in ``Fraction`` arithmetic on the float inputs.

    Playing y against m earns y*beta1*m + (1-y)*beta2*(1-m), so y earns
    (m - y)*d(m) less than m does against m, with d(m) = beta1*m - beta2*(1-m).
    m is an ESS when every feasible y != m earns less against m, or as much
    against m and less against itself, (m - y)*d(y) > 0.  As d is linear,
    each sign is the same for every y on one side of m, so y = lo and y = hi
    stand for all invaders, and only lo, hi and the root of d can be ESS.
    A degenerate game, beta1 = beta2 = 0, has none, also on a single point.
    """
    b1, b2, f_lo, f_hi = (Fraction(v) for v in (beta1, beta2, lo, hi))
    if b1 == 0 == b2:
        return []

    def d(m: Fraction) -> Fraction:
        return b1 * m - b2 * (1 - m)

    candidates = [f_lo, f_hi]
    if b1 + b2 != 0 and f_lo < b2 / (b1 + b2) < f_hi:
        candidates.append(b2 / (b1 + b2))
    return sorted(
        m
        for m in set(candidates)
        if all(
            (m - y) * d(m) > 0 or (m - y) * d(m) == 0 and (m - y) * d(y) > 0
            for y in (f_lo, f_hi)
            if y != m
        )
    )


def random_game(rng: random.Random, span: float = 5.0) -> Game2x2:
    return Game2x2(*(rng.uniform(-span, span) for _ in range(8)))


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_EDGE_PAYOFF = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, 5e-324, 1e308, -1e308]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def edge_games(draw) -> Game2x2:
    """Games whose payoffs tie or hold +-0.0 often, and where one player is
    often flat: its payoff does not depend on its own action, with a zero
    payoff's sign drawn separately in each of its cells."""
    a = draw(st.lists(_EDGE_PAYOFF, min_size=4, max_size=4))
    b = draw(st.lists(_EDGE_PAYOFF, min_size=4, max_size=4))
    flat = draw(st.sampled_from(["row", "column", "neither"]))
    if flat != "neither":
        p, q = draw(_EDGE_PAYOFF), draw(_EDGE_PAYOFF)
        p2, q2 = (draw(_SIGNED_ZERO) if v == 0.0 else v for v in (p, q))
        if flat == "row":
            a = [p, q, p2, q2]  # a11 = a21 and a12 = a22
        else:
            b = [p, p2, q, q2]  # b11 = b12 and b21 = b22
    return Game2x2(*a, *b)


def random_pd(rng: random.Random, span: float = 5.0, margin: float = 0.1) -> Game2x2:
    """Symmetric dilemma with a21 > a11 > a22 > a12, separated by ``margin``."""
    while True:
        vals = sorted((rng.uniform(-span, span) for _ in range(4)), reverse=True)
        if all(vals[k] - vals[k + 1] >= margin for k in range(3)):
            a21, a11, a22, a12 = vals
            return Game2x2.symmetric(((a11, a12), (a21, a22)))


def pd_threshold(g: Game2x2) -> float:
    """Cross-weight above which the originally dominated action escapes
    dominance: (a21 - a11) / (a11 - a12)."""
    return (g.a21 - g.a11) / (g.a11 - g.a12)


def pd_second_threshold(g: Game2x2) -> float:
    """Cross-weight above which the originally dominant action becomes
    dominated itself: (a22 - a12) / (a21 - a22)."""
    return (g.a22 - g.a12) / (g.a21 - g.a22)


def reference_detect_cycle(
    p1s: list[float], p2s: list[float], eps: float
) -> tuple[bool, float | None]:
    """The return-proximity cycle scan written out directly.

    It builds its own max-norm arc-length prefix from the states and looks up
    all nine neighbouring eps-cells for every post-transient state, filing a
    state only after its own lookups.  ``simulate``'s scan must report the
    same (detected, period) pair bit for bit.
    """
    n = len(p1s)
    start = n // 10
    if n - start < 3:
        return (False, None)
    arc = [0.0] * n
    acc = 0.0
    for i in range(1, n):
        acc += max(abs(p1s[i] - p1s[i - 1]), abs(p2s[i] - p2s[i - 1]))
        arc[i] = acc
    min_gap = 10.0 * eps
    episodes: dict[tuple[int, int], list[int]] = {}
    last_key: tuple[int, int] | None = None
    for i in range(start, n):
        x = p1s[i]
        y = p2s[i]
        key = (int(x / eps), int(y / eps))
        ai = arc[i]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in episodes.get((key[0] + dx, key[1] + dy), ()):
                    if ai - arc[j] > min_gap and abs(x - p1s[j]) < eps and abs(y - p2s[j]) < eps:
                        return (True, float(i - j))
        if key != last_key:
            episodes.setdefault(key, []).append(i)
            last_key = key
    return (False, None)


def reference_rates(proto: RevisionProtocol, game: Game2x2):
    """Specialized (p1, p2) -> (eta1_12, eta1_21, eta2_12, eta2_21): every
    protocol's rates for both populations, each kind in its own closure that
    forms all four expected payoffs itself.  A hybrid sums its members'
    rates, weighted, in its component order.  ``simulate``,
    ``switch_rates`` and ``vector_field`` must give these rates bit for bit.
    """
    a11, a12, a21, a22 = game.a11, game.a12, game.a21, game.a22
    b11, b12, b21, b22 = game.b11, game.b12, game.b21, game.b22
    kind = proto.kind

    if kind == "hybrid":
        total = sum(w for _, w in proto.components)
        members = [
            (reference_rates(RevisionProtocol(name), game), w / total)
            for name, w in proto.components
        ]

        def hybrid(p1: float, p2: float):
            e112 = e121 = e212 = e221 = 0.0
            for fn, w in members:
                r112, r121, r212, r221 = fn(p1, p2)
                e112 += w * r112
                e121 += w * r121
                e212 += w * r212
                e221 += w * r221
            return (e112, e121, e212, e221)

        return hybrid

    if kind == "replicator":

        def replicator(p1: float, p2: float):
            q2 = 1.0 - p2
            r1 = a11 * p2 + a12 * q2
            r2 = a21 * p2 + a22 * q2
            q1 = 1.0 - p1
            c1 = b11 * p1 + b21 * q1
            c2 = b12 * p1 + b22 * q1
            d = r2 - r1
            e112 = q1 * d if d > 0.0 else 0.0
            e121 = p1 * -d if d < 0.0 else 0.0
            d = c2 - c1
            e212 = q2 * d if d > 0.0 else 0.0
            e221 = p2 * -d if d < 0.0 else 0.0
            return (e112, e121, e212, e221)

        return replicator

    if kind == "smith":

        def smith(p1: float, p2: float):
            q2 = 1.0 - p2
            r1 = a11 * p2 + a12 * q2
            r2 = a21 * p2 + a22 * q2
            q1 = 1.0 - p1
            c1 = b11 * p1 + b21 * q1
            c2 = b12 * p1 + b22 * q1
            d = r2 - r1
            e112 = d if d > 0.0 else 0.0
            e121 = -d if d < 0.0 else 0.0
            d = c2 - c1
            e212 = d if d > 0.0 else 0.0
            e221 = -d if d < 0.0 else 0.0
            return (e112, e121, e212, e221)

        return smith

    if kind == "bnn":

        def bnn(p1: float, p2: float):
            q2 = 1.0 - p2
            r1 = a11 * p2 + a12 * q2
            r2 = a21 * p2 + a22 * q2
            q1 = 1.0 - p1
            c1 = b11 * p1 + b21 * q1
            c2 = b12 * p1 + b22 * q1
            bar = p1 * r1 + q1 * r2
            x = r2 - bar
            e112 = x if x > 0.0 else 0.0
            x = r1 - bar
            e121 = x if x > 0.0 else 0.0
            bar = p2 * c1 + q2 * c2
            x = c2 - bar
            e212 = x if x > 0.0 else 0.0
            x = c1 - bar
            e221 = x if x > 0.0 else 0.0
            return (e112, e121, e212, e221)

        return bnn

    shift = -game.min_payoff()

    def imitation(p1: float, p2: float):
        q2 = 1.0 - p2
        r1 = a11 * p2 + a12 * q2
        r2 = a21 * p2 + a22 * q2
        q1 = 1.0 - p1
        c1 = b11 * p1 + b21 * q1
        c2 = b12 * p1 + b22 * q1
        e112 = q1 * (r2 + shift)
        e121 = p1 * (r1 + shift)
        e212 = q2 * (c2 + shift)
        e221 = p2 * (c1 + shift)
        return (e112, e121, e212, e221)

    return imitation


def _reference_update(rates, p1: float, p2: float, lam: float) -> tuple[float, float]:
    """One synchronous update at scheduled rate ``lam``: the rate is capped at
    1 / max(switch rates, machine epsilon) and the new state is clamped to
    [0, 1]^2."""
    e112, e121, e212, e221 = rates(p1, p2)
    mx = e112
    for e in (e121, e212, e221):
        if e > mx:
            mx = e
    if mx < 2.220446049250313e-16:
        mx = 2.220446049250313e-16
    lam = lam if lam * mx <= 1.0 else 1.0 / mx
    n1 = p1 + lam * (1.0 - p1) * e121 - lam * p1 * e112
    n2 = p2 + lam * (1.0 - p2) * e221 - lam * p2 * e212
    n1 = 0.0 if n1 < 0.0 else 1.0 if n1 > 1.0 else n1
    n2 = 0.0 if n2 < 0.0 else 1.0 if n2 > 1.0 else n2
    return (n1, n2)


def reference_simulate(
    s0: PopulationState,
    proto: RevisionProtocol,
    sched: LearningSchedule,
    game: Game2x2,
    steps: int,
    detect_cycles: bool = True,
) -> Trajectory:
    """``simulate`` with the dynamics kernel as a function called once per
    step, its convergence test written out, and ``reference_detect_cycle``
    at the package's cell size as its cycle scan.  ``simulate`` must give the same states and
    diagnostics bit for bit, or raise the same error."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rates = reference_rates(proto, game)
    p1s = [s0.p1]
    p2s = [s0.p2]
    consecutive = 0
    converged = False
    for t in range(steps):
        lam = sched.rate(t)
        p1, p2 = p1s[-1], p2s[-1]
        n1, n2 = _reference_update(rates, p1, p2, lam)
        p1s.append(n1)
        p2s.append(n2)
        d1 = abs(n1 - p1)
        d2 = abs(n2 - p2)
        # Not max(): a NaN in d1 must give way to d2, as in simulate.
        delta = d1 if d1 > d2 else d2
        if delta < 1e-9 * lam:
            consecutive += 1
            if consecutive >= 25:
                converged = True
                break
        else:
            consecutive = 0
    cycle, period = (False, None)
    if not converged and detect_cycles:
        cycle, period = reference_detect_cycle(p1s, p2s, _CYCLE_EPS)
    diag = Diagnostics(
        converged=converged,
        limit_point=PopulationState(p1s[-1], p2s[-1]) if converged else None,
        cycle_detected=cycle,
        cycle_period_estimate=period,
    )
    return Trajectory(p1=tuple(p1s), p2=tuple(p2s), diagnostics=diag)


def reference_vector_field(proto: RevisionProtocol, game: Game2x2, resolution: int) -> VectorField:
    """``vector_field`` with ``reference_rates`` evaluated at every grid
    point; rows p2-outer, p1-inner, and the same error for a flow that is
    not finite."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    rates = reference_rates(proto, game)
    coords = [k / (resolution - 1) for k in range(resolution)]
    rows = []
    for p2 in coords:
        for p1 in coords:
            e112, e121, e212, e221 = rates(p1, p2)
            dp1 = (1.0 - p1) * e121 - p1 * e112
            dp2 = (1.0 - p2) * e221 - p2 * e212
            if not (math.isfinite(dp1) and math.isfinite(dp2)):
                raise ValueError(
                    "the switch rates overflow the float range for this game: "
                    f"the flow at ({p1!r}, {p2!r}) is not finite"
                )
            rows.append((p1, p2, dp1, dp2))
    return VectorField(resolution=resolution, rows=tuple(rows))


def reference_equilibrium_signature(g: Game2x2) -> str:
    """``equilibrium_signature`` from the full ``classify`` and
    ``mixed_nash`` results of the game and its ``exact_pure_nash`` cells."""
    cls = classify(g)
    cells = ",".join(f"{i}{j}" for (i, j), _ in exact_pure_nash(g))
    mixed = mixed_nash(g)
    mixed_tag = str(len(mixed.points))
    if mixed.continua:
        mixed_tag += "+cont"
    if mixed.degenerate:
        mixed_tag += "+deg"
    return f"class={cls.kind.value}|pure={cells or '-'}|mixed={mixed_tag}"


def reference_levels(g: Game2x2, lam: EmpathyMatrix, k_max: int) -> tuple[LevelRecord, ...]:
    """``analyze_hierarchy``'s levels with a full
    ``reference_equilibrium_signature`` call on every level game; lam^k is
    formed as ``lam @ lam^(k-1)``, on lam's entries as floats, just before
    level k is labelled.  Level 1 records ``lam`` itself."""
    levels = []
    lam_k = lam
    base = EmpathyMatrix(*map(float, lam.entries()))
    for k in range(1, k_max + 1):
        if k > 1:
            lam_k = base @ lam_k
        sig = reference_equilibrium_signature(transform(g, lam_k))
        levels.append(LevelRecord(k=k, lam_k=lam_k, signature=sig))
    return tuple(levels)


def reference_hierarchy_csv(levels: tuple[LevelRecord, ...]) -> str:
    """The hierarchy CSV written record by record: each level's k, its
    power's four entries as floats and its signature."""
    lines = ["k,l11_k,l12_k,l21_k,l22_k,eq_signature"]
    for rec in levels:
        m = rec.lam_k
        lines.append(
            f"{rec.k},{float(m.l11)!r},{float(m.l12)!r},{float(m.l21)!r},{float(m.l22)!r},"
            f"{rec.signature}"
        )
    return "\n".join(lines) + "\n"


def reference_spectral_eigenvalues(lam: EmpathyMatrix) -> tuple[tuple[complex, complex], float]:
    """The eigenvalues and spectral radius of lam from its trace and
    determinant, formed on the entries as given."""
    h = (lam.l11 + lam.l22) / 2.0
    disc = h * h - (lam.l11 * lam.l22 - lam.l12 * lam.l21)
    if disc >= 0.0:
        ev = (complex(h + math.sqrt(disc)), complex(h - math.sqrt(disc)))
    else:
        ev = (complex(h, math.sqrt(-disc)), complex(h, -math.sqrt(-disc)))
    return ev, max(abs(ev[0]), abs(ev[1]))


def reference_structural_epsilons(lam: EmpathyMatrix, k_max: int):
    """Least-squares scalars eps_k with lam^k = eps_k * lam (residual below
    1e-9, eps_k > 0), or None; every power from lam^2 to lam^(k_max+1) must
    stay within the 1e12 overflow guard."""
    base = lam.entries()
    den = sum(e * e for e in base)
    if den == 0.0:
        return None
    eps = []
    cur = lam
    for k in range(1, k_max + 2):
        if k > 1:
            cur = lam @ cur
            if max(abs(e) for e in cur.entries()) > 1e12:
                return None
        if k > k_max:
            break
        fit = sum(c * b for c, b in zip(cur.entries(), base)) / den
        residual = max(abs(c - fit * b) for c, b in zip(cur.entries(), base))
        if residual >= 1e-9 or fit <= 0.0:
            return None
        eps.append(fit)
    return tuple(eps)


def reference_structural_base(lam: EmpathyMatrix):
    """The eps > 0 with lam^k = eps^(k-1) * lam at every level, or None,
    decided exactly on the float entries: lam = c*I gives c; otherwise the
    exact det and trace must satisfy |det| <= 1e-12 * tr * min(m1, m2), m_i
    the largest entry of row i and 1e-12 the float constant exactly, and
    8*|det| <= tr^2, and then eps is the float trace, whose sign is the exact
    trace's."""
    l11, l12, l21, l22 = (Fraction(e) for e in lam.entries())
    if l12 == 0 == l21 and l11 == l22:
        eps = lam.l11
    else:
        det, tr = l11 * l22 - l12 * l21, l11 + l22
        m = min(max(abs(l11), abs(l12)), max(abs(l21), abs(l22)))
        if abs(det) > Fraction(1e-12) * tr * m or 8 * abs(det) > tr * tr:
            return None
        eps = lam.l11 + lam.l22
    return eps if eps > 0.0 else None


def reference_exact_epsilons(lam: EmpathyMatrix, k_max: int):
    """(1, eps, eps^2, ...) up to k_max as repeated products of
    ``reference_structural_base``'s eps, or None when there is none or one
    leaves the float range."""
    base = reference_structural_base(lam)
    if base is None:
        return None
    eps = [1.0]
    for _ in range(k_max - 1):
        eps.append(eps[-1] * base)
    return tuple(eps) if all(0.0 < e < math.inf for e in eps) else None


def reference_check_consistency(lam: EmpathyMatrix, k_max: int, battery=None) -> ConsistencyVerdict:
    """``check_consistency`` with a full ``reference_equilibrium_signature``
    call on every level game: levels k = 2..k_max in order, battery games in order
    within a level, stopping at the first mismatch or at the first power
    past the 1e12 guard.  lam^k is formed as ``lam @ lam^(k-1)`` on lam's
    entries as floats.  The structural fields come from
    ``reference_structural_base`` and ``reference_exact_epsilons``."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    games = default_battery() if battery is None else list(battery)
    if not games:
        raise ValueError("battery must be non-empty")
    sig1 = [reference_equilibrium_signature(transform(g, lam)) for g in games]
    witness = None
    levels_checked = 1
    guard_hit = False
    lam_k = base = EmpathyMatrix(*map(float, lam.entries()))
    for k in range(2, k_max + 1):
        lam_k = base @ lam_k
        if max(abs(e) for e in lam_k.entries()) > 1e12:
            guard_hit = True
            break
        for i, g in enumerate(games):
            sig = reference_equilibrium_signature(transform(g, lam_k))
            if sig != sig1[i]:
                witness = (k, i, sig)
                break
        levels_checked = k
        if witness is not None:
            break
    k, idx, sig_k = witness or (None, None, None)
    return ConsistencyVerdict(
        k_max=k_max,
        consistent_up_to_k=witness is None,
        first_bad_k=k,
        witness_index=idx,
        witness=None if idx is None else games[idx],
        witness_signatures=None if idx is None else (sig1[idx], sig_k),
        levels_checked=levels_checked,
        guard_hit=guard_hit,
        structurally_consistent=reference_structural_base(lam) is not None,
        epsilons=reference_exact_epsilons(lam, k_max),
    )


def reference_classify(g: Game2x2, tie_tol: float = 0.0) -> Classification:
    """``classify`` on the eight payoffs: ties first, in comparison order,
    then each player's pattern from the sign of its preference for action 1
    against each opponent action."""
    if not 0.0 <= tie_tol < float("inf"):
        raise ValueError(f"tie_tol must be a finite non-negative number, got {tie_tol!r}")
    r1, r2 = g.a11 - g.a21, g.a12 - g.a22
    c1, c2 = g.b11 - g.b12, g.b21 - g.b22
    labels = ("a11-a21", "a12-a22", "b11-b12", "b21-b22")
    ties = tuple(lab for lab, d in zip(labels, (r1, r2, c1, c2)) if abs(d) <= tie_tol)
    if ties:
        return Classification(GameKind.DEGENERATE, degenerate_ties=ties)

    def pattern(d1: float, d2: float) -> str:
        if d1 > 0 and d2 < 0:
            return "match"
        if d1 < 0 and d2 > 0:
            return "mismatch"
        return "dom1" if d1 > 0 and d2 > 0 else "dom2"

    p_row, p_col = pattern(r1, r2), pattern(c1, c2)
    doms = [{"dom1": 1, "dom2": 2}.get(p) for p in (p_row, p_col)]
    if doms != [None, None]:
        return Classification(GameKind.DOMINANT_STRATEGY, *doms)
    if p_row == p_col == "match":
        return Classification(GameKind.COORDINATION)
    if p_row == p_col == "mismatch":
        return Classification(GameKind.ANTI_COORDINATION)
    return Classification(GameKind.DISCOORDINATION)


def exact_interior_point(g: Game2x2) -> tuple[Fraction, Fraction] | None:
    """The interior mixed equilibrium (x*, y*) of ``g`` in exact arithmetic
    on its float payoffs, or None: it exists when each player's two exact
    payoff differences share a strict sign."""
    a11, a12, a21, a22, b11, b12, b21, b22 = (
        Fraction(v) for v in (g.a11, g.a12, g.a21, g.a22, g.b11, g.b12, g.b21, g.b22)
    )

    def root_of(d1, d2):
        if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
            return d2 / (d1 + d2)
        return None

    y_star, x_star = root_of(a11 - a21, a22 - a12), root_of(b11 - b12, b22 - b21)
    if x_star is None or y_star is None:
        return None
    return (x_star, y_star)


def reference_mixed_nash(g: Game2x2) -> MixedNashResult:
    """``mixed_nash`` with the row-flat and column-flat continua written out
    separately in (x, y) coordinates, and the interior point, when the exact
    differences place one, at ``exact_interior_point`` correctly rounded."""
    alpha1, alpha2 = g.a11 - g.a21, g.a22 - g.a12
    gamma1, gamma2 = g.b11 - g.b12, g.b22 - g.b21
    row_flat = alpha1 == 0.0 and alpha2 == 0.0
    col_flat = gamma1 == 0.0 and gamma2 == 0.0
    if row_flat and col_flat:
        return MixedNashResult(points=(), degenerate=True)

    def seg(x0, y0, x1, y1):
        return (MixedProfile(x0, y0), MixedProfile(x1, y1))

    if row_flat or col_flat:
        q = [0.25 * v for v in (g.b21, g.b22, g.b11, g.b12, g.a12, g.a22, g.a11, g.a21)]
        if row_flat:
            pref0, pref1 = g.b21 - g.b22, g.b11 - g.b12  # column, at x = 0, 1
            if not math.isfinite(pref1 - pref0):
                pref0, pref1 = q[0] - q[1], q[2] - q[3]
        else:
            pref0, pref1 = g.a12 - g.a22, g.a11 - g.a21  # row, at y = 0, 1
            if not math.isfinite(pref1 - pref0):
                pref0, pref1 = q[4] - q[5], q[6] - q[7]
        out = []
        slope = pref1 - pref0
        if (pref0 <= 0.0 <= pref1) or (pref1 <= 0.0 <= pref0):
            root = -pref0 / slope
            lo, hi = (0.0, 1.0) if slope > 0.0 else (1.0, 0.0)
            if row_flat:
                out.append(seg(root, 0.0, root, 1.0))
                if root > 0.0:
                    out.append(seg(0.0, lo, root, lo))
                if root < 1.0:
                    out.append(seg(root, hi, 1.0, hi))
            else:
                out.append(seg(0.0, root, 1.0, root))
                if root > 0.0:
                    out.append(seg(lo, 0.0, lo, root))
                if root < 1.0:
                    out.append(seg(hi, root, hi, 1.0))
        else:
            pinned = 1.0 if pref0 > 0.0 or pref1 > 0.0 else 0.0
            if row_flat:
                out.append(seg(0.0, pinned, 1.0, pinned))
            else:
                out.append(seg(pinned, 0.0, pinned, 1.0))
        return MixedNashResult(points=(), continua=tuple(out))

    point = exact_interior_point(g)
    if point is None:
        return MixedNashResult(points=())
    return MixedNashResult(points=(MixedProfile(x=float(point[0]), y=float(point[1])),))


def reference_region_csv(rmap: RegionMap) -> str:
    """The region CSV written one f-string per cell, in ``rmap.rows()``
    order, with every axis value in shortest round-trip form."""
    l12s = [repr(float(l12)) for l12 in rmap.l12_values]
    lines = ["l12,l21,label"]
    for l21, labels in zip(rmap.l21_values, rmap.labels):
        l21_text = repr(float(l21))
        lines.extend(f"{l12},{l21_text},{label}" for l12, label in zip(l12s, labels))
    return "\n".join(lines) + "\n"


def reference_vector_field_csv(field: VectorField) -> str:
    """The vector-field CSV written one f-string per row, in ``field.rows``
    order, with every entry converted by ``float`` and formatted by ``repr``
    on its own."""
    lines = ["p1,p2,dp1,dp2"]
    for p1, p2, d1, d2 in field.rows:
        lines.append(f"{float(p1)!r},{float(p2)!r},{float(d1)!r},{float(d2)!r}")
    return "\n".join(lines) + "\n"


def reference_dominated_actions(g: Game2x2) -> list[DominatedAction]:
    """List weakly dominated actions per player.

    Action k is weakly dominated when the other action does at least as well
    against every opponent action and strictly better against at least one;
    ``strict`` is set when it does strictly better against both.
    """
    out: list[DominatedAction] = []
    rows = {1: (g.a11, g.a12), 2: (g.a21, g.a22)}
    cols = {1: (g.b11, g.b21), 2: (g.b12, g.b22)}
    for payoffs, player in ((rows, 1), (cols, 2)):
        for action, other in ((1, 2), (2, 1)):
            pk = payoffs[action]
            po = payoffs[other]
            if po[0] >= pk[0] and po[1] >= pk[1] and (po[0] > pk[0] or po[1] > pk[1]):
                out.append(
                    DominatedAction(
                        player=player,
                        action=action,
                        dominated_by=other,
                        strict=po[0] > pk[0] and po[1] > pk[1],
                    )
                )
    return out


def reference_deviation_gain(g: Game2x2, x: float, y: float) -> float:
    """Largest payoff improvement either player could get by deviating
    unilaterally from the profile (x, y).  Zero (up to float error) exactly
    at Nash equilibria."""
    r1 = g.a11 * y + g.a12 * (1.0 - y)
    r2 = g.a21 * y + g.a22 * (1.0 - y)
    row_value = x * r1 + (1.0 - x) * r2
    c1 = g.b11 * x + g.b21 * (1.0 - x)
    c2 = g.b12 * x + g.b22 * (1.0 - x)
    col_value = y * c1 + (1.0 - y) * c2
    return max(max(r1, r2) - row_value, max(c1, c2) - col_value)


def reference_canonical_json(obj) -> str:
    """Deterministic JSON text as the standard library writes it."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _reference_number(value) -> float:
    # A JSON number only: float() also takes a numeric string or a boolean.
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _reference_matrix(obj, key: str) -> list[list[float]]:
    try:
        rows = obj[key]
        out = [[_reference_number(rows[i][j]) for j in range(2)] for i in range(2)]
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise GameFileError(f"field {key!r} must be a 2x2 numeric matrix") from exc
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise GameFileError(f"field {key!r} must be a 2x2 numeric matrix")
    return out


def reference_load_game_file(path) -> tuple[Game2x2, EmpathyMatrix]:
    """Read a game description; a missing Lambda defaults to the identity."""
    try:
        with open(path, "rb", buffering=0) as f:
            data = f.readall()
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GameFileError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise GameFileError("game file must be a JSON object")
    a = _reference_matrix(obj, "A")
    b = _reference_matrix(obj, "B")
    lam_rows = _reference_matrix(obj, "Lambda") if "Lambda" in obj else [[1.0, 0.0], [0.0, 1.0]]
    try:
        lam = EmpathyMatrix.from_rows(lam_rows)
        game = Game2x2.from_matrices(a, b)
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc
    return game, lam
