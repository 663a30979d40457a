"""Independent brute-force oracles used to cross-check the analytic code.

Everything here works by enumeration, grid search, or direct definition
checking; none of it shares code paths with the library implementations.
The reference hierarchy walks are the exception: they call the library's
``transform`` and ``equilibrium_signature`` on every level game, so they
check how the walks label, order and stop, not the signature itself.
"""
from __future__ import annotations

import random

import numpy as np

from empathica import (
    ConsistencyVerdict,
    EmpathyMatrix,
    Game2x2,
    default_battery,
    equilibrium_signature,
    transform,
)
from empathica.hierarchy import LevelRecord

CELLS = ((1, 1), (1, 2), (2, 1), (2, 2))


def brute_pure_nash(g: Game2x2) -> set[tuple[int, int]]:
    """Pure equilibria via explicit best-response tables."""
    a = {(i, j): g.a(i, j) for i, j in CELLS}
    b = {(i, j): g.b(i, j) for i, j in CELLS}
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
    out = set()
    for i, j in CELLS:
        if g.a(i, j) == max(g.a(i, 1), g.a(i, 2)) and g.b(i, j) == max(g.b(1, j), g.b(2, j)):
            out.add((i, j))
    return out


def brute_pareto(g: Game2x2) -> set[tuple[int, int]]:
    out = set()
    for c in CELLS:
        dominated = any(
            d != c
            and g.a(*d) >= g.a(*c)
            and g.b(*d) >= g.b(*c)
            and (g.a(*d) > g.a(*c) or g.b(*d) > g.b(*c))
            for d in CELLS
        )
        if not dominated:
            out.add(c)
    return out


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
    the post-invasion mix for each tested invasion size.
    """

    def payoff(of: float, against: float) -> float:
        pi1 = beta1 * against
        pi2 = beta2 * (1.0 - against)
        return of * pi1 + (1.0 - of) * pi2

    grid = [lo + (hi - lo) * k / (grid_n - 1) for k in range(grid_n)]
    candidates = set(grid) | {lo, hi}
    s = beta1 + beta2
    if s != 0.0 and lo <= beta2 / s <= hi:
        candidates.add(beta2 / s)

    ess = []
    reply_grid = sorted(candidates)
    for m in sorted(candidates):
        best = max(payoff(x, m) for x in reply_grid)
        if payoff(m, m) < best - 1e-12:
            continue
        best_replies = [x for x in reply_grid if payoff(x, m) >= best - 1e-12 and x != m]
        stable = True
        for eps in eps_values:
            for x in best_replies:
                mix = (1.0 - eps) * m + eps * x
                if payoff(m, mix) <= payoff(x, mix):
                    stable = False
                    break
            if not stable:
                break
        if stable:
            ess.append(m)
    # Collapse grid-adjacent duplicates of the same point.
    out: list[float] = []
    for m in ess:
        if not out or abs(m - out[-1]) > 2.0 * (hi - lo) / (grid_n - 1):
            out.append(m)
    return out


def random_game(rng: random.Random, span: float = 5.0) -> Game2x2:
    return Game2x2(*(rng.uniform(-span, span) for _ in range(8)))


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


def reference_levels(g: Game2x2, lam: EmpathyMatrix, k_max: int) -> tuple[LevelRecord, ...]:
    """``analyze_hierarchy``'s levels with a full ``equilibrium_signature``
    call on every level game; lam^k is formed as ``lam @ lam^(k-1)`` just
    before level k is labelled."""
    levels = []
    lam_k = lam
    for k in range(1, k_max + 1):
        if k > 1:
            lam_k = lam @ lam_k
        sig = equilibrium_signature(transform(g, lam_k))
        levels.append(LevelRecord(k=k, lam_k=lam_k, signature=sig))
    return tuple(levels)


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


def reference_check_consistency(lam: EmpathyMatrix, k_max: int, battery=None) -> ConsistencyVerdict:
    """``check_consistency`` with a full ``equilibrium_signature`` call on
    every level game: levels k = 2..k_max in order, battery games in order
    within a level, stopping at the first mismatch or at the first power
    past the 1e12 guard."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    games = default_battery() if battery is None else list(battery)
    if not games:
        raise ValueError("battery must be non-empty")
    sig1 = [equilibrium_signature(transform(g, lam)) for g in games]
    witness = None
    levels_checked = 1
    guard_hit = False
    lam_k = lam
    for k in range(2, k_max + 1):
        lam_k = lam @ lam_k
        if max(abs(e) for e in lam_k.entries()) > 1e12:
            guard_hit = True
            break
        for i, g in enumerate(games):
            sig = equilibrium_signature(transform(g, lam_k))
            if sig != sig1[i]:
                witness = (k, i, sig)
                break
        levels_checked = k
        if witness is not None:
            break
    eps = reference_structural_epsilons(lam, k_max)
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
        structurally_consistent=eps is not None,
        epsilons=eps,
    )
