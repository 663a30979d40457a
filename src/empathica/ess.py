"""Single-population symmetric analysis with a linear strategy constraint.

The homogeneous empathetic payoff matrix is reduced to an equivalent diagonal
form diag(beta1, beta2) whose symmetric equilibria coincide with the
original's.  Evolutionarily stable strategies are then computed on the
feasible interval carved out by a constraint c1*m + c2*(1-m) <= V.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .games import Game2x2

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


def homogeneous_payoff(g: Game2x2, sigma: float, mu: float) -> Matrix2:
    """Payoff matrix of a focal player in a well-mixed population with equal
    own-weight ``sigma`` and cross-weight ``mu``.

    Only the row player's entries of ``g`` are used; the opponent's payoff is
    the transpose.  The result is
    ((sigma+mu)*a11, sigma*a12 + mu*a21; sigma*a21 + mu*a12, (sigma+mu)*a22).
    """
    if not (math.isfinite(sigma) and math.isfinite(mu)):
        raise ValueError("sigma and mu must be finite")
    return (
        ((sigma + mu) * g.a11, sigma * g.a12 + mu * g.a21),
        (sigma * g.a21 + mu * g.a12, (sigma + mu) * g.a22),
    )


@dataclass(frozen=True)
class DiagonalReduction:
    """Differences beta1 = A11 - A21 and beta2 = A22 - A12 of a symmetric
    payoff matrix.  diag(beta1, beta2) has the same symmetric equilibria."""

    beta1: float
    beta2: float
    source: Matrix2

    def preference(self, m: float) -> float:
        """Payoff advantage of action 1 over action 2 against a population
        playing action 1 with probability m: beta1*m - beta2*(1-m)."""
        return self.beta1 * m - self.beta2 * (1.0 - m)


def diagonal_reduction(a_lam: Matrix2) -> DiagonalReduction:
    """Reduce a symmetric-population payoff matrix to its diagonal form."""
    (m11, m12), (m21, m22) = a_lam
    return DiagonalReduction(beta1=m11 - m21, beta2=m22 - m12, source=a_lam)


@dataclass(frozen=True)
class SymmetricEquilibria:
    """Symmetric Nash equilibria of the reduced game.

    ``degenerate`` means beta1 = beta2 = 0: payoffs are constant and every
    strategy is an equilibrium (none of them stable).
    """

    points: tuple[float, ...]
    degenerate: bool = False


def symmetric_equilibria(red: DiagonalReduction) -> SymmetricEquilibria:
    """All symmetric equilibria: m=1 iff beta1 >= 0, m=0 iff beta2 >= 0, and
    the interior indifference point when beta1, beta2 share a strict sign."""
    b1, b2 = red.beta1, red.beta2
    if b1 == 0.0 and b2 == 0.0:
        return SymmetricEquilibria(points=(), degenerate=True)
    points = []
    if b1 >= 0.0:
        points.append(1.0)
    if b2 >= 0.0:
        points.append(0.0)
    if b1 * b2 > 0.0:
        points.append(b2 / (b1 + b2))
    return SymmetricEquilibria(points=tuple(points))


class ConstraintType(Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    UNCONSTRAINED = "Unconstrained"
    EMPTY = "Empty"


@dataclass(frozen=True)
class Constraint:
    """Linear constraint c1*m + c2*(1-m) <= V on the probability m of action 1.

    With alpha = (V - c2)/(c1 - c2) the feasible set is [0, alpha] when
    c1 > c2 (type I, binding when alpha < 1) and [alpha, 1] when c1 < c2
    (type II, binding when alpha > 0).  c1 == c2 is rejected because the
    constraint would not depend on the strategy at all.
    """

    c1: float
    c2: float
    V: float

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "V"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.c1 == self.c2:
            raise ValueError("constraint requires c1 ≠ c2 (otherwise it is strategy-independent)")

    @classmethod
    def unconstrained(cls) -> "Constraint":
        return cls(c1=1.0, c2=0.0, V=2.0)

    @property
    def alpha(self) -> float:
        return (self.V - self.c2) / (self.c1 - self.c2)

    @property
    def ctype(self) -> ConstraintType:
        a = self.alpha
        if self.c1 > self.c2:
            if a >= 1.0:
                return ConstraintType.UNCONSTRAINED
            if a >= 0.0:
                return ConstraintType.TYPE_I
            return ConstraintType.EMPTY
        if a <= 0.0:
            return ConstraintType.UNCONSTRAINED
        if a <= 1.0:
            return ConstraintType.TYPE_II
        return ConstraintType.EMPTY

    @property
    def feasible_interval(self) -> tuple[float, float] | None:
        t = self.ctype
        if t is ConstraintType.EMPTY:
            return None
        if t is ConstraintType.UNCONSTRAINED:
            return (0.0, 1.0)
        if t is ConstraintType.TYPE_I:
            return (0.0, self.alpha)
        return (self.alpha, 1.0)


@dataclass(frozen=True)
class BestResponseSet:
    """A closed subinterval [lo, hi] of the feasible set; a point when lo == hi."""

    lo: float
    hi: float

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, m: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= m <= self.hi + tol


_SLOPE_TOL = 1e-12


def constrained_best_response(red: DiagonalReduction, con: Constraint, m: float) -> BestResponseSet:
    """Maximizers of the linear-in-own-mix payoff over the feasible interval.

    The payoff of playing x against population mix m is linear in x with
    slope preference(m), so the best response is the upper endpoint when the
    slope is positive, the lower endpoint when negative, and the whole
    feasible set at indifference.
    """
    interval = con.feasible_interval
    if interval is None:
        raise ValueError("feasible set is empty")
    lo, hi = interval
    if not (lo <= m <= hi):
        raise ValueError(f"m={m} is outside the feasible interval [{lo}, {hi}]")
    scale = max(abs(red.beta1), abs(red.beta2), 1.0)
    slope = red.preference(m)
    if slope > _SLOPE_TOL * scale:
        return BestResponseSet(hi, hi)
    if slope < -_SLOPE_TOL * scale:
        return BestResponseSet(lo, lo)
    return BestResponseSet(lo, hi)


class EssKind(Enum):
    PURE_CORNER = "PureCorner"
    INTERIOR = "Interior"
    CONSTRAINT_BOUNDARY = "ConstraintBoundary"


@dataclass(frozen=True)
class EssPoint:
    m: float
    kind: EssKind


@dataclass(frozen=True)
class EssResult:
    points: tuple[EssPoint, ...]
    exists: bool
    degenerate: bool = False

    def values(self) -> tuple[float, ...]:
        return tuple(p.m for p in self.points)


def constrained_ess(red: DiagonalReduction, con: Constraint) -> EssResult:
    """Evolutionarily stable strategies on the feasible interval [lo, hi].

    With d(m) = beta1*m - beta2*(1-m) the possible stable points are:

    * hi, when d(hi) > 0 (or d(hi) = 0 with beta1 + beta2 < 0);
    * lo, when d(lo) < 0 (or d(lo) = 0 with beta1 + beta2 < 0);
    * the interior indifference point beta2/(beta1+beta2) strictly inside
      (lo, hi), when beta1 + beta2 < 0 (both betas negative).

    This reproduces the standard sign-pattern case table: under a type-I
    constraint [0, alpha], (beta1>0, beta2<=0) gives {alpha},
    (beta1<=0, beta2>0) gives {0}, (beta1<0, beta2<0) gives
    {min(beta2/(beta1+beta2), alpha)}, and the coordination pattern
    (beta1>0, beta2>0) gives {0}, plus additionally {alpha} when
    alpha exceeds the interior indifference point (the boundary then
    resists invasion as well).  Type-II constraints [alpha, 1] mirror
    these cases.  When beta1 = beta2 = 0 the game is degenerate: every
    feasible strategy is an equilibrium but none resists invaders, so
    no ESS exists.
    """
    interval = con.feasible_interval
    if interval is None:
        raise ValueError("feasible set is empty")
    lo, hi = interval
    b1, b2 = red.beta1, red.beta2
    if b1 == 0.0 and b2 == 0.0:
        return EssResult(points=(), exists=False, degenerate=True)
    s = b1 + b2

    def kind_of(m: float) -> EssKind:
        if m == 0.0 or m == 1.0:
            return EssKind.PURE_CORNER
        if m == lo or m == hi:
            return EssKind.CONSTRAINT_BOUNDARY
        return EssKind.INTERIOR

    if lo == hi:
        # Singleton feasible set: the only feasible strategy is trivially
        # immune to (nonexistent) feasible invaders.
        return EssResult(points=(EssPoint(lo, EssKind.CONSTRAINT_BOUNDARY),), exists=True)

    points: list[EssPoint] = []
    d_hi = red.preference(hi)
    if d_hi > 0.0 or (d_hi == 0.0 and s < 0.0):
        points.append(EssPoint(hi, kind_of(hi)))
    d_lo = red.preference(lo)
    if d_lo < 0.0 or (d_lo == 0.0 and s < 0.0):
        points.append(EssPoint(lo, kind_of(lo)))
    if s < 0.0:
        m_star = b2 / s
        if lo < m_star < hi:
            points.append(EssPoint(m_star, EssKind.INTERIOR))
    points.sort(key=lambda p: p.m)
    return EssResult(points=tuple(points), exists=bool(points))
