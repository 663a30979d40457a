"""Multi-level empathy: powers of the weight matrix and their game effects.

The level-k game applies the k-th matrix power of the empathy weights to the
payoff vector.  An empathy structure is consistent when the equilibrium
structure of every level-k game matches the level-1 game; a game-independent
sufficient condition is that every power is a positive multiple of the
matrix itself.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import islice, tee

from .equilibria import _key_signature, _player_key
from .games import (
    EmpathyMatrix,
    Entries,
    Game2x2,
    anti_coordination_game,
    coordination_game,
    matching_pennies,
    prisoners_dilemma,
    transform,
    _differences,
    _powers,
    _transformed_differences,
)

_DIVERGENCE_GUARD = 1e12
# Spectral radii within this distance of one count as unit radius.
_UNIT_RADIUS_BAND = 1e-12
_EPS_FIT_RESIDUAL = 1e-9
_CAUCHY_TOL = 1e-12


def _overflows(m: Entries) -> bool:
    return max(map(abs, m)) > _DIVERGENCE_GUARD


_DEFAULT_BATTERY = (
    prisoners_dilemma(),
    coordination_game(),
    anti_coordination_game(),
    matching_pennies(),
)


def default_battery() -> list[Game2x2]:
    """One representative game per class, used to probe consistency."""
    return list(_DEFAULT_BATTERY)


def level_game(g: Game2x2, lam: EmpathyMatrix, k: int) -> Game2x2:
    """The game whose payoff vector is the k-th matrix power applied to the
    original payoffs; k=0 returns the original game, k=1 the transform."""
    if k < 0:
        raise ValueError("level requires k >= 0")
    return transform(g, lam.power(k))


def equilibrium_signature(g: Game2x2) -> str:
    """Canonical label of a game's equilibrium structure: pure-equilibrium
    cells, interior-mixed presence, and game class."""
    a1, a2, c1, c2 = _differences(g)
    return _key_signature(_player_key(a1, a2), _player_key(c1, c2))


def _level_signature(g: Game2x2, lam_k: Entries) -> str:
    """``equilibrium_signature(transform(g, EmpathyMatrix(*lam_k)))`` for
    finite entries ``lam_k``, without building the matrix or the level game
    where every payoff difference is finite: the differences come from
    ``_transformed_differences`` and are read only through each player's
    ``_player_key``."""
    a1, a2, c1, c2 = _transformed_differences(g, *lam_k)
    return _key_signature(_player_key(a1, a2), _player_key(c1, c2))


@dataclass(frozen=True)
class LevelRecord:
    k: int
    lam_k: EmpathyMatrix
    signature: str


class LimitKind(Enum):
    ZERO = "Zero"
    CONVERGES = "Converges"
    DIVERGES = "Diverges"
    OSCILLATES = "Oscillates"


@dataclass(frozen=True)
class SpectralRecord:
    eigenvalues: tuple[complex, complex]
    rho: float
    limit_kind: LimitKind
    limit: EmpathyMatrix | None


def spectral_limit(lam: EmpathyMatrix, k_max: int) -> SpectralRecord:
    """Eigenvalues in closed form (trace/determinant) and the behavior of the
    power sequence: Zero when the spectral radius is below one, Converges
    when successive powers become Cauchy within ``k_max``, Diverges when the
    radius exceeds one or entries blow past an overflow guard, Oscillates
    otherwise.  A radius within 1e-12 of one counts as one on both sides, so
    an idempotent profile whose computed radius rounds just below one still
    walks its powers."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    tr = lam.trace()
    det = lam.det()
    # (tr/2)^2 rather than tr^2/4: the same value, and it does not overflow
    # for a trace past 1.3e154.
    h = tr / 2.0
    disc = h * h - det
    if disc >= 0.0:
        s = math.sqrt(disc)
        ev = (complex(h + s), complex(h - s))
    else:
        s = math.sqrt(-disc)
        ev = (complex(h, s), complex(h, -s))
    rho = max(abs(ev[0]), abs(ev[1]))
    if rho < 1.0 - _UNIT_RADIUS_BAND:
        return SpectralRecord(ev, rho, LimitKind.ZERO, EmpathyMatrix(0.0, 0.0, 0.0, 0.0))
    if rho > 1.0 + _UNIT_RADIUS_BAND:
        return SpectralRecord(ev, rho, LimitKind.DIVERGES, None)
    powers = _powers(lam, k_max)
    prev = next(powers)
    for cur in powers:
        if _overflows(cur):
            return SpectralRecord(ev, rho, LimitKind.DIVERGES, None)
        diff = max(abs(a - b) for a, b in zip(cur, prev))
        if diff < _CAUCHY_TOL:
            return SpectralRecord(ev, rho, LimitKind.CONVERGES, EmpathyMatrix(*cur))
        prev = cur
    return SpectralRecord(ev, rho, LimitKind.OSCILLATES, None)


def structural_epsilons(lam: EmpathyMatrix, k_max: int) -> tuple[float, ...] | None:
    """Per-level scalars eps_k with lam^k = eps_k * lam, when they exist.

    Each eps_k is the least-squares fit of the k-th power against the matrix;
    the fit must leave a residual below 1e-9 and be strictly positive at
    every level up to ``k_max``, otherwise None is returned.
    """
    # lam^(k_max+1) is formed only for the overflow guard.
    return _fit_epsilons(lam, _powers(lam, k_max + 1), k_max)


def _fit_epsilons(
    lam: EmpathyMatrix, powers: Iterable[Entries], k_max: int
) -> tuple[float, ...] | None:
    """``structural_epsilons`` over a given walk of lam^1 ... lam^(k_max+1)."""
    # ``sum`` and ``max`` over the four entry terms in entry order, as over
    # ``entries()``, so every fit is bit for bit the reference's on every
    # Python version (``sum`` of floats is compensated from 3.12 on).
    b11, b12, b21, b22 = lam.l11, lam.l12, lam.l21, lam.l22
    den = sum((b11 * b11, b12 * b12, b21 * b21, b22 * b22))
    if den == 0.0:
        return None
    eps: list[float] = []
    for k, cur in enumerate(powers, 1):
        if k > 1 and _overflows(cur):
            return None
        if k > k_max:
            break
        c11, c12, c21, c22 = cur
        fit = sum((c11 * b11, c12 * b12, c21 * b21, c22 * b22)) / den
        residual = max(
            abs(c11 - fit * b11), abs(c12 - fit * b12), abs(c21 - fit * b21), abs(c22 - fit * b22)
        )
        if residual >= _EPS_FIT_RESIDUAL or fit <= 0.0:
            return None
        eps.append(fit)
    return tuple(eps)


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of probing an empathy structure across reasoning levels.

    ``consistent_up_to_k`` reports the battery comparison; when it fails,
    the first offending level and the probe game are recorded as a witness.
    ``levels_checked`` is the highest level whose battery signatures were
    compared (``k_max`` on a full walk, ``first_bad_k`` on a mismatch), and
    ``guard_hit`` says whether the overflow guard stopped the battery walk
    before that.  ``structurally_consistent`` reports the game-independent
    positive-scaling property with its fitted scalars.
    """

    k_max: int
    consistent_up_to_k: bool
    first_bad_k: int | None
    witness_index: int | None
    witness: Game2x2 | None
    witness_signatures: tuple[str, str] | None
    levels_checked: int
    guard_hit: bool
    structurally_consistent: bool
    epsilons: tuple[float, ...] | None

    @property
    def label(self) -> str:
        if not self.consistent_up_to_k:
            return "Inconsistent"
        if self.structurally_consistent:
            return "StructurallyConsistent"
        return "ConsistentUpToK"


def check_consistency(
    lam: EmpathyMatrix, k_max: int, battery: list[Game2x2] | None = None
) -> ConsistencyVerdict:
    """Compare the equilibrium signature of every level-k game (k = 2..k_max)
    against the level-1 game over a battery of probe games, and additionally
    run the game-independent structural test lam^k = eps_k * lam.

    The matrix powers are walked once, level by level, and every battery game
    is probed at each level in battery order; the walk stops at the first
    mismatch, so the witness is the earliest offending level and, within it,
    the first offending game.  The same walk of powers feeds the structural
    fit, so each power is formed once.  Each level is labelled straight from
    lam^k's four entries by ``_level_signature``, which builds a level game
    only where a payoff difference is not finite.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    games = default_battery() if battery is None else list(battery)
    if not games:
        raise ValueError("battery must be non-empty")

    lam_1 = lam.entries()
    probes = [(g, _level_signature(g, lam_1)) for g in games]
    witness: tuple[int, int, str] | None = None  # (k, battery index, sig_k)
    levels_checked = 1
    guard_hit = False
    # One walk to lam^(k_max+1): the battery reads up to k_max, the structural
    # fit one further for its guard.
    battery_powers, fit_powers = tee(_powers(lam, k_max + 1))
    next(battery_powers)  # level 1 is the reference
    for k, lam_k in enumerate(islice(battery_powers, k_max - 1), 2):
        if _overflows(lam_k):
            guard_hit = True
            break
        levels_checked = k
        for i, (g, sig1) in enumerate(probes):
            sig = _level_signature(g, lam_k)
            if sig != sig1:
                witness = (k, i, sig)
                break
        if witness is not None:
            break

    eps = _fit_epsilons(lam, fit_powers, k_max)
    k, idx, sig_k = witness or (None, None, None)
    return ConsistencyVerdict(
        k_max=k_max,
        consistent_up_to_k=witness is None,
        first_bad_k=k,
        witness_index=idx,
        witness=None if idx is None else games[idx],
        witness_signatures=None if idx is None else (probes[idx][1], sig_k),
        levels_checked=levels_checked,
        guard_hit=guard_hit,
        structurally_consistent=eps is not None,
        epsilons=eps,
    )


@dataclass(frozen=True)
class HierarchyAnalysis:
    """Per-level weight matrices and equilibrium signatures for one game."""

    lam: EmpathyMatrix
    k_max: int
    levels: tuple[LevelRecord, ...]
    consistent_up_to_k: bool
    spectral: SpectralRecord


def analyze_hierarchy(g: Game2x2, lam: EmpathyMatrix, k_max: int) -> HierarchyAnalysis:
    """Walk the matrix powers up to ``k_max`` for a single game, recording the
    weight matrix and equilibrium signature at each level.

    Each level is labelled straight from lam^k's four entries by
    ``_level_signature``, which builds a level game only where a payoff
    difference is not finite."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    levels = [
        LevelRecord(k, lam if k == 1 else EmpathyMatrix(*lam_k), _level_signature(g, lam_k))
        for k, lam_k in enumerate(_powers(lam, k_max), 1)
    ]
    consistent = all(rec.signature == levels[0].signature for rec in levels)
    return HierarchyAnalysis(
        lam=lam,
        k_max=k_max,
        levels=tuple(levels),
        consistent_up_to_k=consistent,
        spectral=spectral_limit(lam, k_max),
    )


def consistent_family(epsilon: float, y: float) -> list[EmpathyMatrix]:
    """Representative empathy matrices solving lam^2 = epsilon * lam.

    The diagonal entries are roots of x^2 - epsilon*x + y = 0 (their sum is
    pinned to epsilon whenever the off-diagonal entries are nonzero) and the
    off-diagonal product is y, realized canonically as l12 = sqrt(|y|),
    l21 = y / l12.  For y = 0 the off-diagonals vanish and the diagonal
    entries may be chosen independently among the roots {0, epsilon};
    epsilon times the identity is listed first.  Raises ValueError when
    epsilon^2 < 4y (no real roots).
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be positive and finite")
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    disc = epsilon * epsilon - 4.0 * y
    if disc < 0.0:
        raise ValueError("no real solution: requires epsilon^2 >= 4*y")

    out: list[EmpathyMatrix] = []
    if y == 0.0:
        out.append(EmpathyMatrix(epsilon, 0.0, 0.0, epsilon))
        out.append(EmpathyMatrix(epsilon, 0.0, 0.0, 0.0))
        out.append(EmpathyMatrix(0.0, 0.0, 0.0, epsilon))
    else:
        s = math.sqrt(disc)
        roots = ((epsilon + s) / 2.0, (epsilon - s) / 2.0)
        l12 = math.sqrt(abs(y))
        l21 = y / l12
        pairs = [(roots[0], roots[1])]
        if roots[0] != roots[1]:
            pairs.append((roots[1], roots[0]))
        for d1, d2 in pairs:
            out.append(EmpathyMatrix(d1, l12, l21, d2))
    return out


def infinitely_consistent(l11: float, l21: float) -> EmpathyMatrix:
    """The idempotent empathy profile with given first column: trace one,
    determinant zero, so every power equals the matrix itself.  The identity
    matrix (EmpathyMatrix.identity()) is the only other profile whose powers
    all preserve the equilibrium structure."""
    if l21 == 0.0:
        raise ValueError("l21 must be nonzero")
    return EmpathyMatrix(l11, l11 * (1.0 - l11) / l21, l21, 1.0 - l11)
