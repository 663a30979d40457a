"""2x2 bimatrix games, empathy weight matrices, and the empathetic payoff transform.

Conventions: action 1 is Up/Left, action 2 is Down/Right.  ``a_ij`` is the row
player's payoff and ``b_ij`` the column player's payoff when the row player
plays i and the column player plays j.  Empathy weights mix a player's own
payoff (diagonal weight) with the opponent's payoff (off-diagonal weight);
negative off-diagonal weights model spite, positive ones altruism, and a
negative diagonal weight a self-abnegating player.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from enum import Enum

CELLS: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 1), (2, 2))


def _raise_first_non_finite(obj, values: tuple[float, ...]) -> None:
    """Raise ValueError naming the first field of dataclass ``obj``, in
    declaration order, whose value in ``values`` is not finite."""
    for field, value in zip(fields(obj), values):
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be a finite real number, got {value!r}")


def _dyadic(*values: float) -> tuple[int, ...]:
    """Finite floats as integers over one common power of two, the largest
    of their denominators: sums, products and comparisons of the integers
    are exact, with nothing rounding, overflowing or underflowing."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = max(d for _, d in ratios)  # every denominator is a power of two
    return tuple(n * (scale // d) for n, d in ratios)


@dataclass(frozen=True)
class Game2x2:
    """A two-player game with two actions per player and real payoffs."""

    a11: float
    a12: float
    a21: float
    a22: float
    b11: float
    b12: float
    b21: float
    b22: float

    def __post_init__(self) -> None:
        values = (self.a11, self.a12, self.a21, self.a22, self.b11, self.b12, self.b21, self.b22)
        if not all(map(math.isfinite, values)):
            _raise_first_non_finite(self, values)

    @classmethod
    def from_matrices(cls, a, b) -> "Game2x2":
        """Build from two nested 2x2 sequences (row player, column player)."""
        return cls(
            a11=float(a[0][0]), a12=float(a[0][1]), a21=float(a[1][0]), a22=float(a[1][1]),
            b11=float(b[0][0]), b12=float(b[0][1]), b21=float(b[1][0]), b22=float(b[1][1]),
        )

    @classmethod
    def symmetric(cls, a) -> "Game2x2":
        """Build a symmetric game: the column player's matrix is the transpose."""
        return cls.from_matrices(a, [[a[0][0], a[1][0]], [a[0][1], a[1][1]]])

    @classmethod
    def zero_sum(cls, a) -> "Game2x2":
        """Build a zero-sum game: the column player's matrix is the negation."""
        return cls.from_matrices(a, [[-a[0][0], -a[0][1]], [-a[1][0], -a[1][1]]])

    def a(self, i: int, j: int) -> float:
        return getattr(self, f"a{i}{j}")

    def b(self, i: int, j: int) -> float:
        return getattr(self, f"b{i}{j}")

    def row_matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.a11, self.a12), (self.a21, self.a22))

    def col_matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.b11, self.b12), (self.b21, self.b22))

    def is_symmetric(self) -> bool:
        """True iff b_ij == a_ji for every cell (exact comparison)."""
        return (
            self.b11 == self.a11
            and self.b12 == self.a21
            and self.b21 == self.a12
            and self.b22 == self.a22
        )

    def min_payoff(self) -> float:
        return min(
            self.a11, self.a12, self.a21, self.a22,
            self.b11, self.b12, self.b21, self.b22,
        )


@dataclass(frozen=True)
class EmpathyMatrix:
    """2x2 weight matrix mixing own and opponent payoffs.

    Entry ``l11``/``l22`` weighs a player's own payoff, ``l12``/``l21``
    the opponent's.  No sign restriction applies.
    """

    l11: float
    l12: float
    l21: float
    l22: float

    def __post_init__(self) -> None:
        values = (self.l11, self.l12, self.l21, self.l22)
        if not all(map(math.isfinite, values)):
            _raise_first_non_finite(self, values)

    @classmethod
    def identity(cls) -> "EmpathyMatrix":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def homogeneous(cls, sigma: float, mu: float) -> "EmpathyMatrix":
        """Equal own-weight sigma and equal cross-weight mu for both players."""
        return cls(sigma, mu, mu, sigma)

    @classmethod
    def from_rows(cls, rows) -> "EmpathyMatrix":
        return cls(float(rows[0][0]), float(rows[0][1]), float(rows[1][0]), float(rows[1][1]))

    def as_rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.l11, self.l12), (self.l21, self.l22))

    def entries(self) -> tuple[float, float, float, float]:
        return (self.l11, self.l12, self.l21, self.l22)

    def __matmul__(self, other: "EmpathyMatrix") -> "EmpathyMatrix":
        return EmpathyMatrix(
            self.l11 * other.l11 + self.l12 * other.l21,
            self.l11 * other.l12 + self.l12 * other.l22,
            self.l21 * other.l11 + self.l22 * other.l21,
            self.l21 * other.l12 + self.l22 * other.l22,
        )

    def power(self, k: int) -> "EmpathyMatrix":
        """k-th matrix power (k >= 0): the identity for k = 0, the matrix
        itself for k = 1, and otherwise the k-th power of ``_powers``, the
        walk the hierarchy reads, so bit for bit its entries."""
        if k < 0:
            raise ValueError("power requires k >= 0")
        if k < 2:
            return self if k else EmpathyMatrix.identity()
        for last in _powers(self, k):
            pass
        return EmpathyMatrix(*last)

    def trace(self) -> float:
        return self.l11 + self.l22

    def det(self) -> float:
        return self.l11 * self.l22 - self.l12 * self.l21


# The entries (l11, l12, l21, l22) of a matrix power.
Entries = tuple[float, float, float, float]


def _powers(lam: EmpathyMatrix, k_max: int) -> Iterator[Entries]:
    """Yield the entries of lam^1 ... lam^k_max, each power formed as
    ``lam @ lam^(k-1)`` with the products and sums of
    ``EmpathyMatrix.__matmul__`` in its order, so bit for bit its entries.
    The one walk of matrix powers: ``EmpathyMatrix.power`` and every
    hierarchy function read it.

    The entries are taken as floats once, before the first yield, so
    integer-valued weights walk the same rounded powers as their floats, not
    exact integer powers that outgrow the float range.  A power is formed
    only when the consumer asks for it, so a walk that stops early never
    forms a later, possibly overflowing, product.  A power with an entry
    that is not finite is built as an ``EmpathyMatrix``, which raises the
    product's own error.
    """
    cur = tuple(map(float, lam.entries()))
    yield cur
    s11, s12, s21, s22 = c11, c12, c21, c22 = cur
    for _ in range(1, k_max):
        c11, c12, c21, c22 = (
            s11 * c11 + s12 * c21,
            s11 * c12 + s12 * c22,
            s21 * c11 + s22 * c21,
            s21 * c12 + s22 * c22,
        )
        # The sum is finite only when every entry is; rare finite entries
        # whose sum overflows only cost a needless build.
        if not math.isfinite(c11 + c12 + c21 + c22):
            EmpathyMatrix(c11, c12, c21, c22)
        yield (c11, c12, c21, c22)


def transform(g: Game2x2, lam: EmpathyMatrix) -> Game2x2:
    """Apply the empathy weights to both players' payoffs, cell by cell.

    The row player's new payoff in each cell is l11*a + l12*b and the column
    player's is l22*b + l21*a.  The identity matrix leaves the game unchanged.
    """
    return Game2x2(
        a11=lam.l11 * g.a11 + lam.l12 * g.b11,
        a12=lam.l11 * g.a12 + lam.l12 * g.b12,
        a21=lam.l11 * g.a21 + lam.l12 * g.b21,
        a22=lam.l11 * g.a22 + lam.l12 * g.b22,
        b11=lam.l22 * g.b11 + lam.l21 * g.a11,
        b12=lam.l22 * g.b12 + lam.l21 * g.a12,
        b21=lam.l22 * g.b21 + lam.l21 * g.a21,
        b22=lam.l22 * g.b22 + lam.l21 * g.a22,
    )


def _differences(g: Game2x2) -> tuple[float, float, float, float]:
    """Each player's two payoff differences, the row player's (d1, d2)
    followed by the column player's: ``d1`` is the gain from action 1 over
    action 2 when the opponent plays action 1, ``d2`` the gain from action 2
    over action 1 when the opponent plays action 2."""
    return (g.a11 - g.a21, g.a22 - g.a12, g.b11 - g.b12, g.b22 - g.b21)


def _payoffs(g: Game2x2, p1: float, p2: float) -> tuple[float, float, float, float]:
    """The actions' expected payoffs against a mix: (r1, r2) of the row
    actions against column mix ``p2``, (c1, c2) of the column actions against
    row mix ``p1``.  ``simulate``'s loop writes the same expressions inline."""
    q2 = 1.0 - p2
    q1 = 1.0 - p1
    return (
        g.a11 * p2 + g.a12 * q2,
        g.a21 * p2 + g.a22 * q2,
        g.b11 * p1 + g.b21 * q1,
        g.b12 * p1 + g.b22 * q1,
    )


def _best_responses(d1: float, d2: float) -> tuple[tuple[bool, bool], tuple[bool, bool]]:
    """One player's weak best responses, from its two payoff differences
    (as in ``_differences``).

    Entry ``[own - 1][opp - 1]`` is True when action ``own`` is a weak best
    response to the opponent's action ``opp``.  For finite payoffs the sign
    of a float difference is the sign of the exact one, so this agrees with
    comparing the payoffs themselves.
    """
    return ((d1 >= 0.0, d2 <= 0.0), (d1 <= 0.0, d2 >= 0.0))


def _transformed_differences(
    g: Game2x2,
) -> Callable[[float, float, float, float], tuple[float, float, float, float]]:
    """The function of four weights (l11, l12, l21, l22) that gives
    ``_differences(transform(g, EmpathyMatrix(l11, l12, l21, l22)))`` with
    the same float expressions in the same order, so bit for bit the same
    values; ``g``'s eight payoffs are read once, here.  Where a difference
    is not finite, as a non-finite weight or transformed payoff always makes
    one, the game is built so that ``transform`` raises its own error."""
    a11, a12, a21, a22, b11, b12, b21, b22 = (
        g.a11, g.a12, g.a21, g.a22, g.b11, g.b12, g.b21, g.b22
    )

    def differences(l11: float, l12: float, l21: float, l22: float):
        d1 = (l11 * a11 + l12 * b11) - (l11 * a21 + l12 * b21)
        d2 = (l11 * a22 + l12 * b22) - (l11 * a12 + l12 * b12)
        d3 = (l22 * b11 + l21 * a11) - (l22 * b12 + l21 * a12)
        d4 = (l22 * b22 + l21 * a22) - (l22 * b21 + l21 * a21)
        # The sum is finite only when every difference is; rare finite
        # differences whose sum overflows only cost a needless build.
        if not math.isfinite(d1 + d2 + d3 + d4):
            transform(g, EmpathyMatrix(l11, l12, l21, l22))
        return (d1, d2, d3, d4)

    return differences


class GameKind(Enum):
    COORDINATION = "Coordination"
    ANTI_COORDINATION = "AntiCoordination"
    DISCOORDINATION = "Discoordination"
    DOMINANT_STRATEGY = "DominantStrategy"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class Classification:
    """Class tag plus per-player strictly dominant actions and any payoff ties."""

    kind: GameKind
    dominant_action_p1: int | None = None
    dominant_action_p2: int | None = None
    degenerate_ties: tuple[str, ...] = ()


def classify(g: Game2x2, tie_tol: float = 0.0) -> Classification:
    """Classify a 2x2 game by its eight strict best-response comparisons.

    Coordination: both players prefer to play the same action the opponent
    plays; anti-coordination: both prefer the opposite; discoordination:
    exactly one player wants to match (the matching-pennies pattern, either
    orientation); dominant-strategy: at least one player has a strictly
    dominant action.  Any comparison tied within ``tie_tol`` makes the game
    degenerate, which is checked first; ``tie_tol`` must be finite and
    non-negative, or ValueError is raised.
    """
    if not 0.0 <= tie_tol < math.inf:
        raise ValueError(f"tie_tol must be a finite non-negative number, got {tie_tol!r}")
    diffs = _differences(g)
    # One label per difference; ``abs`` ignores that two of them name the
    # negated subtraction.
    labels = ("a11-a21", "a12-a22", "b11-b12", "b21-b22")
    ties = tuple(label for label, d in zip(labels, diffs) if abs(d) <= tie_tol)
    if ties:
        return Classification(GameKind.DEGENERATE, degenerate_ties=ties)
    return _untied_class(*diffs)


def _untied_class(r1: float, r2: float, c1: float, c2: float) -> Classification:
    """``classify`` of a game with no tied comparison, from its four payoff
    differences (as in ``_differences``), of which only the signs are read."""
    # Each player with d1 > 0 prefers action 1 against action 1 and with
    # d2 > 0 action 2 against action 2: both positive is matching, both
    # negative mismatching, and unequal signs make the action it prefers
    # against action 1 strictly dominant.
    dom_row = None if (r1 > 0.0) == (r2 > 0.0) else 1 if r1 > 0.0 else 2
    dom_col = None if (c1 > 0.0) == (c2 > 0.0) else 1 if c1 > 0.0 else 2
    if dom_row is not None or dom_col is not None:
        return Classification(
            GameKind.DOMINANT_STRATEGY,
            dominant_action_p1=dom_row,
            dominant_action_p2=dom_col,
        )
    if r1 > 0.0 and c1 > 0.0:
        return Classification(GameKind.COORDINATION)
    if r1 < 0.0 and c1 < 0.0:
        return Classification(GameKind.ANTI_COORDINATION)
    return Classification(GameKind.DISCOORDINATION)


@dataclass(frozen=True)
class DominatedAction:
    player: int
    action: int
    dominated_by: int
    strict: bool


def dominated_actions(g: Game2x2) -> list[DominatedAction]:
    """List weakly dominated actions per player, from its ``_best_responses``:
    action k is dominated when the other action is a weak best response to
    every opponent action and k is not, and ``strict`` when k is a best
    response to neither."""
    out: list[DominatedAction] = []
    d1, d2, d3, d4 = _differences(g)
    for player, best in ((1, _best_responses(d1, d2)), (2, _best_responses(d3, d4))):
        for action, other in ((1, 2), (2, 1)):
            mine = best[action - 1]
            if all(best[other - 1]) and not all(mine):
                out.append(DominatedAction(player, action, other, strict=not any(mine)))
    return out


@dataclass(frozen=True)
class SymmetryReport:
    before: bool
    after: bool


def symmetry_report(g: Game2x2, lam: EmpathyMatrix) -> SymmetryReport:
    """Whether the game is symmetric before and after the empathy transform.

    Asymmetric weights (l12 != l21) generally break the symmetry of a
    symmetric game; equal cross-weights preserve it.
    """
    return SymmetryReport(before=g.is_symmetric(), after=transform(g, lam).is_symmetric())


class InequalityVerdict(Enum):
    REDUCED = "Reduced"
    INCREASED = "Increased"
    UNCHANGED = "Unchanged"


_GAP_TOL = 1e-12


@dataclass(frozen=True)
class InequalityReport:
    """Payoff gap between the players at one joint action, before and after.

    ``lambda_tilde`` is the ratio l12/l21 (None when l21 == 0, in which case
    ``lambda_tilde_defined`` is False; the verdict is still computed from the
    gaps).  For weights (1, mu; mu, 1) the transformed gap is exactly
    (1 - mu) times the original gap, so mu in (0, 2) shrinks the absolute
    gap and mu < 0 (spite) or mu > 2 widens it.

    With weights (1, l12; l21, 1), writing t = l12/l21 and a, b for the two
    players' payoffs at the cell, the classical per-cell threshold analysis
    reads: the absolute gap shrinks for t < a/b when a > b > 0, for t > a/b
    when a > b and b < 0, and for t < b/a when b > a > 0.  The published
    fourth condition repeats "a > b, b < 0" with threshold b/a, overlapping
    the second; it is reproduced here as documentation only and never
    asserted.  The report itself always states the computed gaps.
    """

    gap_before: float
    gap_after: float
    lambda_tilde: float | None
    lambda_tilde_defined: bool
    verdict: InequalityVerdict


def inequality_report(g: Game2x2, lam: EmpathyMatrix, cell: tuple[int, int]) -> InequalityReport:
    """Compare the two players' payoff gap at ``cell`` before and after transform."""
    if tuple(cell) not in CELLS:
        raise ValueError(f"cell must be one of {CELLS}, got {cell!r}")
    i, j = cell
    gp = transform(g, lam)
    gap_before = g.a(i, j) - g.b(i, j)
    gap_after = gp.a(i, j) - gp.b(i, j)
    defined = lam.l21 != 0.0
    lambda_tilde = lam.l12 / lam.l21 if defined else None
    if abs(gap_after) < abs(gap_before) - _GAP_TOL:
        verdict = InequalityVerdict.REDUCED
    elif abs(gap_after) > abs(gap_before) + _GAP_TOL:
        verdict = InequalityVerdict.INCREASED
    else:
        verdict = InequalityVerdict.UNCHANGED
    return InequalityReport(
        gap_before=gap_before,
        gap_after=gap_after,
        lambda_tilde=lambda_tilde,
        lambda_tilde_defined=defined,
        verdict=verdict,
    )


def prisoners_dilemma() -> Game2x2:
    """Symmetric dilemma with ordering a21 > a11 > a22 > a12 (3, 0; 5, 1)."""
    return Game2x2.symmetric(((3.0, 0.0), (5.0, 1.0)))


def matching_pennies() -> Game2x2:
    """Zero-sum matcher-vs-mismatcher game with unit stakes."""
    return Game2x2.zero_sum(((1.0, -1.0), (-1.0, 1.0)))


def coordination_game() -> Game2x2:
    """Symmetric coordination game with payoffs (2, 0; 0, 1)."""
    return Game2x2.symmetric(((2.0, 0.0), (0.0, 1.0)))


def anti_coordination_game() -> Game2x2:
    """Symmetric anti-coordination (hawk-dove style) game (0, 3; 1, 2)."""
    return Game2x2.symmetric(((0.0, 3.0), (1.0, 2.0)))
