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

from .equilibria import _interior_root
from .games import Game2x2, _dyadic

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


def homogeneous_payoff(g: Game2x2, sigma: float, mu: float) -> Matrix2:
    """Payoff matrix of a focal player in a well-mixed population with equal
    own-weight ``sigma`` and cross-weight ``mu``.

    Only the row player's entries of ``g`` are used; the opponent's payoff is
    the transpose.  The result is
    ((sigma+mu)*a11, sigma*a12 + mu*a21; sigma*a21 + mu*a12, (sigma+mu)*a22).
    ValueError is raised when an entry overflows.
    """
    if not (math.isfinite(sigma) and math.isfinite(mu)):
        raise ValueError("sigma and mu must be finite")
    a_lam = (
        ((sigma + mu) * g.a11, sigma * g.a12 + mu * g.a21),
        (sigma * g.a21 + mu * g.a12, (sigma + mu) * g.a22),
    )
    if not all(map(math.isfinite, a_lam[0] + a_lam[1])):
        raise ValueError(f"homogeneous payoff entries must be finite, got {a_lam!r}")
    return a_lam


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
    """Reduce a symmetric-population payoff matrix to its diagonal form.

    ValueError is raised when beta1 or beta2 is not finite, as when two
    finite entries of opposite sign differ by more than the float range.
    """
    (m11, m12), (m21, m22) = a_lam
    beta1, beta2 = m11 - m21, m22 - m12
    if not (math.isfinite(beta1) and math.isfinite(beta2)):
        raise ValueError(f"beta1 and beta2 must be finite, got {beta1!r} and {beta2!r}")
    return DiagonalReduction(beta1=beta1, beta2=beta2, source=a_lam)


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
    ``_interior_root``'s point unless it rounds to a corner already listed."""
    b1, b2 = red.beta1, red.beta2
    if b1 == 0.0 and b2 == 0.0:
        return SymmetricEquilibria(points=(), degenerate=True)
    points = []
    if b1 >= 0.0:
        points.append(1.0)
    if b2 >= 0.0:
        points.append(0.0)
    root = _interior_root(b1, b2)
    if root is not None and root not in points:
        points.append(root)
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
    constraint would not depend on the strategy at all, and so are
    coefficients for which c1 - c2 or V - c2 overflows.  A quotient past the
    float range is kept as an infinite alpha, which still gives the right
    feasible set.
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
        if not (math.isfinite(self.c1 - self.c2) and math.isfinite(self.V - self.c2)):
            raise ValueError("constraint overflows: c1 - c2 and V - c2 must be finite")

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


def constrained_ess(red: DiagonalReduction, con: Constraint) -> EssResult:
    """Evolutionarily stable strategies on the feasible interval [lo, hi].

    With d(m) = beta1*m - beta2*(1-m) = (beta1+beta2)*m - beta2 the stable
    points are:

    * lo, when d(lo) < 0 (or d(lo) = 0 with beta1 + beta2 < 0);
    * hi, when d(hi) > 0 (or d(hi) = 0 with beta1 + beta2 < 0);
    * when neither bound is stable and both betas are negative, the
      indifference point beta2/(beta1+beta2) as ``_interior_root`` rounds
      it: d falls through it, so it lies strictly inside (lo, hi).

    Every sign of d is decided exactly, on lo, hi and the betas as
    ``_dyadic`` integers, so a bound within rounding of the indifference
    point is placed on the side where it lies.

    This reproduces the standard sign-pattern case table: under a type-I
    constraint [0, alpha], (beta1>0, beta2<=0) gives {alpha},
    (beta1<=0, beta2>0) gives {0}, (beta1<0, beta2<0) gives
    {min(beta2/(beta1+beta2), alpha)}, and the coordination pattern
    (beta1>0, beta2>0) gives {0}, plus additionally {alpha} when
    alpha exceeds the interior indifference point (the boundary then
    resists invasion as well).  Type-II constraints [alpha, 1] mirror
    these cases.  When beta1 = beta2 = 0 the game is degenerate: every
    feasible strategy is an equilibrium but none resists invaders, so
    no ESS exists.  That rule applies first, even to a one-point feasible
    set; any other game's one feasible strategy is trivially an ESS, as it
    has no feasible invader.
    """
    interval = con.feasible_interval
    if interval is None:
        raise ValueError("feasible set is empty")
    lo, hi = interval
    b1, b2 = red.beta1, red.beta2
    if b1 == 0.0 and b2 == 0.0:
        return EssResult(points=(), exists=False, degenerate=True)
    if lo == hi:
        # Singleton feasible set: the only feasible strategy is trivially
        # immune to (nonexistent) feasible invaders.
        return EssResult(points=(EssPoint(lo, EssKind.CONSTRAINT_BOUNDARY),), exists=True)

    # 1.0 comes out as the common denominator, so each d below is the exact
    # d(m) times its square.
    x_lo, x_hi, x1, x2, one = _dyadic(lo, hi, b1, b2, 1.0)
    s = x1 + x2
    d_lo, d_hi = x_lo * s - x2 * one, x_hi * s - x2 * one
    bounds = []
    if d_lo < 0 or d_lo == 0 and s < 0:
        bounds.append(lo)
    if d_hi > 0 or d_hi == 0 and s < 0:
        bounds.append(hi)
    if not bounds and b1 < 0.0 and b2 < 0.0:
        return EssResult(points=(EssPoint(_interior_root(b1, b2), EssKind.INTERIOR),), exists=True)
    points = tuple(
        EssPoint(m, EssKind.PURE_CORNER if m == 0.0 or m == 1.0 else EssKind.CONSTRAINT_BOUNDARY)
        for m in bounds
    )
    return EssResult(points=points, exists=bool(points))
