"""Multi-level empathy: powers of the weight matrix and their game effects.

The level-k game applies the k-th matrix power of the empathy weights to the
payoff vector.  An empathy structure is consistent when the equilibrium
structure of every level-k game matches the level-1 game; a game-independent
sufficient condition is that every power is a positive multiple of the
matrix itself.  By Cayley-Hamilton (lam^2 = tr*lam - det*I) that holds
exactly when lam = c*I with c > 0 or lam has rank one and a positive trace.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

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
    _dyadic,
    _powers,
    _transformed_differences,
)

_DIVERGENCE_GUARD = 1e12
# Spectral radii within this distance of one count as unit radius.
_UNIT_RADIUS_BAND = 1e-12
# det/tr, a rank-one lam's second eigenvalue, is zero within 1e-12 of a row.
_BAND_NUM, _BAND_DEN = (1e-12).as_integer_ratio()
_CAUCHY_TOL = 1e-12
# Below this largest |entry| of lam, h*h and det can underflow.
_UNDERFLOW_SCALE = 2.0**-511


def _overflows(m: Entries) -> bool:
    return max(map(abs, m)) > _DIVERGENCE_GUARD


def _times_pow2(x: float, e: int) -> float:
    """x * 2^e, rounded once, and +-inf past the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


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


def _eigenvalues(lam: EmpathyMatrix) -> tuple[tuple[complex, complex], float]:
    """lam's eigenvalues from its trace and determinant, and the spectral
    radius: finite exactly when h*h - det is."""
    h = lam.trace() / 2.0
    disc = h * h - lam.det()
    if disc >= 0.0:
        s = math.sqrt(disc)
        ev = (complex(h + s), complex(h - s))
    else:
        s = math.sqrt(-disc)
        ev = (complex(h, s), complex(h, -s))
    return ev, max(abs(ev[0]), abs(ev[1]))


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
    ev, rho = _eigenvalues(lam)
    largest = max(map(abs, lam.entries()))
    if not math.isfinite(rho) or largest < _UNDERFLOW_SCALE:
        # Past 1.3e154 h*h - det is inf - inf or inf, and below 2^-511 it
        # underflows.  Take the eigenvalues of lam / 2^e, whose largest entry
        # lies in [0.5, 1), and scale them back by 2^e.  Scaling up is exact.
        # Scaling down is done only where rho is not finite: there an entry
        # 2^-1000 below the largest would underflow, where the unscaled
        # products of the others are exact.
        e = math.frexp(largest)[1]
        ev, rho = _eigenvalues(EmpathyMatrix(*(math.ldexp(x, -e) for x in lam.entries())))
        rho = _times_pow2(rho, e)
        ev = tuple(complex(_times_pow2(z.real, e), _times_pow2(z.imag, e)) for z in ev)
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


def _structural_base(lam: EmpathyMatrix) -> float | None:
    """The eps > 0 with lam^k = eps^(k-1) * lam at every level, or None.

    lam = c*I gives eps = c.  Otherwise eps = tr, and the det*I term of
    lam^2 = tr*lam - det*I must vanish at every level: the second eigenvalue,
    about det/tr, is within the band of each row's largest entry m_i,
    |det| <= 1e-12 * tr * min(m1, m2), and at most a fifth of the first,
    8*|det| <= tr^2.  Both are decided exactly, on the entries as
    ``_dyadic`` integers, so nothing rounds, overflows or underflows.
    """
    l11, l12, l21, l22 = lam.l11, lam.l12, lam.l21, lam.l22
    if l12 == 0.0 == l21 and l11 == l22:
        return l11 if l11 > 0.0 else None
    x11, x12, x21, x22 = _dyadic(l11, l12, l21, l22)
    det, tr = abs(x11 * x22 - x12 * x21), x11 + x22
    m = min(max(abs(x11), abs(x12)), max(abs(x21), abs(x22)))
    if det * _BAND_DEN > _BAND_NUM * tr * m or 8 * det > tr * tr:
        return None
    eps = l11 + l22
    return eps if eps > 0.0 else None


def structural_epsilons(lam: EmpathyMatrix, k_max: int) -> tuple[float, ...] | None:
    """Per-level scalars eps_k with lam^k = eps_k * lam for k = 1..k_max: (1,
    eps, eps^2, ...) of ``_structural_base``'s eps, by repeated products.  None
    when there is no eps, or when a scalar leaves the float range."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return _epsilon_powers(_structural_base(lam), k_max)


def _epsilon_powers(eps: float | None, k_max: int) -> tuple[float, ...] | None:
    if eps is None:
        return None
    out = [1.0]
    while len(out) < k_max and 0.0 < out[-1] < math.inf:
        out.append(out[-1] * eps)
    return tuple(out) if 0.0 < out[-1] < math.inf else None


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of probing an empathy structure across reasoning levels.

    ``consistent_up_to_k`` reports the battery comparison; when it fails,
    the first offending level and the probe game are recorded as a witness.
    ``levels_checked`` is the highest level whose battery signatures were
    compared (``k_max`` on a full walk, ``first_bad_k`` on a mismatch), and
    ``guard_hit`` says whether the overflow guard stopped the battery walk
    before that.  ``structurally_consistent`` is the game-independent property
    lam^k = eps_k * lam, read from lam alone, so the same at every ``k_max``;
    ``epsilons`` are its scalars, None also when one leaves the float range.
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
    against the level-1 game over a battery of probe games, and run the
    game-independent structural test lam^k = eps_k * lam, which reads lam
    alone (``structural_epsilons``).

    The matrix powers are walked once, level by level (k_max - 1 products),
    and every battery game is probed at each level in battery order; the walk
    stops at the first mismatch, so the witness is the earliest offending
    level and, within it, the first offending game.  A level is read straight
    from lam^k's four entries through ``_transformed_differences``, which
    builds a level game only where a payoff difference is not finite, and
    each player's ``_player_key``.  A signature is looked up only for a game
    whose key pair differs from its level-1 pair: equal pairs have equal
    signatures.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    games = default_battery() if battery is None else list(battery)
    if not games:
        raise ValueError("battery must be non-empty")

    powers = _powers(lam, k_max)
    lam_1 = next(powers)  # level 1 is the reference
    probes = []  # (differences, level-1 row key, level-1 column key, level-1 signature)
    for g in games:
        differences = _transformed_differences(g)
        a1, a2, c1, c2 = differences(*lam_1)
        row1, col1 = _player_key(a1, a2), _player_key(c1, c2)
        probes.append((differences, row1, col1, _key_signature(row1, col1)))
    witness: tuple[int, int, str] | None = None  # (k, battery index, sig_k)
    levels_checked = 1
    guard_hit = False
    for k, lam_k in enumerate(powers, 2):
        if _overflows(lam_k):
            guard_hit = True
            break
        levels_checked = k
        for i, (differences, row1, col1, sig1) in enumerate(probes):
            a1, a2, c1, c2 = differences(*lam_k)
            row, col = _player_key(a1, a2), _player_key(c1, c2)
            if row != row1 or col != col1:
                sig = _key_signature(row, col)
                if sig != sig1:
                    witness = (k, i, sig)
                    break
        if witness is not None:
            break

    k, idx, sig_k = witness or (None, None, None)
    eps = _structural_base(lam)
    return ConsistencyVerdict(
        k_max=k_max,
        consistent_up_to_k=witness is None,
        first_bad_k=k,
        witness_index=idx,
        witness=None if idx is None else games[idx],
        witness_signatures=None if idx is None else (probes[idx][3], sig_k),
        levels_checked=levels_checked,
        guard_hit=guard_hit,
        structurally_consistent=eps is not None,
        epsilons=_epsilon_powers(eps, k_max),
    )


@dataclass(frozen=True)
class HierarchyAnalysis:
    """Per-level weight matrices and equilibrium signatures for one game:
    ``powers[k - 1]`` holds the entries (l11, l12, l21, l22) of lam^k and
    ``signatures[k - 1]`` the equilibrium signature of the level-k game."""

    lam: EmpathyMatrix
    k_max: int
    powers: tuple[Entries, ...]
    signatures: tuple[str, ...]
    consistent_up_to_k: bool
    spectral: SpectralRecord

    @functools.cached_property
    def levels(self) -> tuple[LevelRecord, ...]:
        """One record per level, built on first read; level 1 keeps ``lam``."""
        return tuple(
            LevelRecord(k, self.lam if k == 1 else EmpathyMatrix(*lam_k), sig)
            for k, (lam_k, sig) in enumerate(zip(self.powers, self.signatures), 1)
        )


def analyze_hierarchy(g: Game2x2, lam: EmpathyMatrix, k_max: int) -> HierarchyAnalysis:
    """Walk the matrix powers up to ``k_max`` for a single game, recording the
    weight matrix and equilibrium signature at each level.

    Each level is labelled straight from lam^k's four entries through
    ``_transformed_differences``, which builds a level game only where a
    payoff difference is not finite, and each player's ``_player_key``;
    level k is labelled before lam^(k+1) is formed.  A signature is looked
    up only for a level whose key pair differs from the previous level's:
    equal pairs have equal signatures, and consecutive levels mostly share
    theirs."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    differences = _transformed_differences(g)
    powers, signatures = [], []
    row_k = col_k = sig = None  # the last key pair looked up, and its signature
    for lam_k in _powers(lam, k_max):
        a1, a2, c1, c2 = differences(*lam_k)
        row, col = _player_key(a1, a2), _player_key(c1, c2)
        if row != row_k or col != col_k:
            row_k, col_k = row, col
            sig = _key_signature(row, col)
        signatures.append(sig)
        powers.append(lam_k)
    return HierarchyAnalysis(
        lam=lam,
        k_max=k_max,
        powers=tuple(powers),
        signatures=tuple(signatures),
        consistent_up_to_k=signatures.count(signatures[0]) == k_max,
        spectral=spectral_limit(lam, k_max),
    )


def consistent_family(epsilon: float, y: float) -> list[EmpathyMatrix]:
    """Representative empathy matrices solving lam^2 = epsilon * lam.

    The diagonal entries are the roots of x^2 - epsilon*x + y = 0, the larger
    as (epsilon + sqrt(epsilon^2 - 4y)) / 2 and the smaller as y over it, so
    neither cancels; the off-diagonal product is y, realized as
    l12 = sqrt(|y|), l21 = y / l12.  So each member's det is a few ulp of y,
    and ``structural_epsilons`` reads eps = trace, epsilon up to the roots'
    rounding.  For y = 0 the off-diagonals vanish and each diagonal entry
    is 0 or epsilon, epsilon times the identity first.  Raises ValueError
    when epsilon^2 < 4y (no real roots).
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be positive and finite")
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    disc = epsilon * epsilon - 4.0 * y
    if disc < 0.0:
        raise ValueError("no real solution: requires epsilon^2 >= 4*y")

    if y == 0.0:
        return [EmpathyMatrix(epsilon, 0.0, 0.0, epsilon), EmpathyMatrix(epsilon, 0.0, 0.0, 0.0),
                EmpathyMatrix(0.0, 0.0, 0.0, epsilon)]
    big = (epsilon + math.sqrt(disc)) / 2.0
    small = y / big
    l12 = math.sqrt(abs(y))
    l21 = y / l12
    pairs = [(big, small), (small, big)] if big != small else [(big, small)]
    return [EmpathyMatrix(d1, l12, l21, d2) for d1, d2 in pairs]


def infinitely_consistent(l11: float, l21: float) -> EmpathyMatrix:
    """The idempotent empathy profile with given first column: trace one,
    determinant zero, so every power equals the matrix itself.  In floats the
    rounding of l12 leaves det a few ulp of l11^2, within the band for
    |l11| <= 1e3, so ``structural_epsilons`` reads eps = trace (one to
    rounding); from |l11| near 3e3 on it can exceed the band (None).
    The identity matrix (EmpathyMatrix.identity()) is the only other profile
    whose powers all preserve the equilibrium structure."""
    if l21 == 0.0:
        raise ValueError("l21 must be nonzero")
    return EmpathyMatrix(l11, l11 * (1.0 - l11) / l21, l21, 1.0 - l11)
