"""Equilibrium analysis for 2x2 bimatrix games.

Pure and mixed Nash equilibria, Berge (mutual support) solutions, the Pareto
front over joint actions, solutions of empathy-transformed games, and region
maps over the two cross-empathy weights.
"""
from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass

from .games import (
    CELLS,
    EmpathyMatrix,
    Game2x2,
    GameKind,
    _best_responses,
    _differences,
    _payoffs,
    _transformed_differences,
    _untied_class,
    transform,
)

Cell = tuple[int, int]
PlayerKey = tuple[int, int]


@dataclass(frozen=True)
class PureEquilibrium:
    cell: Cell
    strict: bool


@dataclass(frozen=True)
class MixedProfile:
    """Probabilities placed on action 1 by the row (x) and column (y) player."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"profile coordinates must lie in [0,1], got {self}")


@dataclass(frozen=True)
class MixedNashResult:
    """Interior indifference points plus any equilibrium continua.

    ``continua`` holds segment endpoints for one-dimensional equilibrium
    families that arise when a player is indifferent everywhere;
    ``degenerate`` is set when both players are, making every profile an
    equilibrium.
    """

    points: tuple[MixedProfile, ...]
    continua: tuple[tuple[MixedProfile, MixedProfile], ...] = ()
    degenerate: bool = False


@dataclass(frozen=True)
class EquilibriumSet:
    pure: tuple[PureEquilibrium, ...]
    mixed: tuple[MixedProfile, ...]
    mixed_continua: tuple[tuple[MixedProfile, MixedProfile], ...]
    mixed_degenerate: bool
    berge: tuple[Cell, ...]
    pareto_front: tuple[Cell, ...]

    def pure_cells(self) -> tuple[Cell, ...]:
        return tuple(p.cell for p in self.pure)

    @property
    def has_mixed(self) -> bool:
        return bool(self.mixed) or bool(self.mixed_continua) or self.mixed_degenerate


def _interior_root(d1: float, d2: float) -> float | None:
    """``d2 / (d1 + d2)``, the opponent's mix at which a player with finite
    payoff differences ``d1``, ``d2`` is indifferent, as it rounds, when they
    share a strict sign, which puts the exact root in (0, 1); else None."""
    if not (d1 > 0.0 and d2 > 0.0 or d1 < 0.0 and d2 < 0.0):
        return None
    if math.isinf(d1 + d2):
        # Both are past half the float range, so halving them is exact.
        d1, d2 = 0.5 * d1, 0.5 * d2
    return d2 / (d1 + d2)


def _player_key(d1: float, d2: float) -> PlayerKey:
    """What an equilibrium label reads of one player with payoff differences
    ``d1``, ``d2`` (as in ``_best_responses``): their signs, which fix its
    best responses, its class pattern, whether it is indifferent everywhere
    and whether it has an interior indifference point."""
    return ((d1 > 0.0) - (d1 < 0.0), (d2 > 0.0) - (d2 < 0.0))


def _pure_equilibria(row, col) -> list[PureEquilibrium]:
    """The pure equilibria, the cells where each player's action is a weak
    best response to the other's, from both players' ``_best_responses``."""
    out = []
    for (i, j) in CELLS:
        if row[i - 1][j - 1] and col[j - 1][i - 1]:
            # Strict when neither deviation is a best response as well.
            strict = not row[2 - i][j - 1] and not col[2 - j][i - 1]
            out.append(PureEquilibrium(cell=(i, j), strict=strict))
    return out


def pure_nash(g: Game2x2) -> list[PureEquilibrium]:
    """Joint actions where no player gains by a unilateral deviation.

    Weak equilibria (deviation ties) are included with ``strict=False``.
    """
    alpha1, alpha2, gamma1, gamma2 = _differences(g)
    return _pure_equilibria(_best_responses(alpha1, alpha2), _best_responses(gamma1, gamma2))


def _segment(x0: float, y0: float, x1: float, y1: float) -> tuple[MixedProfile, MixedProfile]:
    return (MixedProfile(x0, y0), MixedProfile(x1, y1))


def mixed_nash(g: Game2x2) -> MixedNashResult:
    """Solve the two indifference conditions for mixed equilibria.

    The row player is indifferent when the opponent mixes at
    y* = (a22 - a12) / ((a11 - a21) + (a22 - a12)) and symmetrically
    x* = (b22 - b21) / ((b11 - b12) + (b22 - b21)) for the column player;
    a strictly interior profile exists when each player's two differences
    share a strict sign, which puts its ratio inside (0, 1).
    A player whose two payoff differences both vanish is indifferent
    everywhere, producing equilibrium continua instead of points.
    """
    alpha1, alpha2, gamma1, gamma2 = _differences(g)
    row_flat = alpha1 == 0.0 and alpha2 == 0.0
    col_flat = gamma1 == 0.0 and gamma2 == 0.0

    if row_flat and col_flat:
        return MixedNashResult(points=(), degenerate=True)

    if row_flat or col_flat:
        # The other player's preference for action 1 is linear in the flat
        # player's mix u, from pref0 at u = 0 to pref1 at u = 1; the flat
        # player is unconstrained.  Segments are built as (u, v) with v the
        # other player's mix.  The preferences are payoff subtractions, not
        # negated differences: the sign of a zero root reaches the output.
        if row_flat:
            pref0, pref1 = g.b21 - g.b22, g.b11 - g.b12
        else:
            pref0, pref1 = g.a12 - g.a22, g.a11 - g.a21
        if math.isinf(pref1 - pref0):
            # The payoffs times 0.25, exact for normal payoffs, keep the
            # continua and bring the slope within the float range.
            return mixed_nash(Game2x2(*(0.25 * v for v in astuple(g))))
        slope = pref1 - pref0
        if not (pref0 > 0.0 and pref1 > 0.0 or pref0 < 0.0 and pref1 < 0.0):
            # The preference changes sign: where the other player strictly
            # prefers an action, the flat player is free and v is pinned; at
            # the root the other player is indifferent too.
            root = -pref0 / slope
            lo_side, hi_side = (0.0, 1.0) if slope > 0.0 else (1.0, 0.0)
            segments = [(root, 0.0, root, 1.0)]
            if root > 0.0:
                segments.append((0.0, lo_side, root, lo_side))
            if root < 1.0:
                segments.append((root, hi_side, 1.0, hi_side))
        else:
            # Constant-sign preference: the other player pins one pure action
            # and the flat player ranges over the whole interval.
            v = 1.0 if pref0 > 0.0 or pref1 > 0.0 else 0.0
            segments = [(0.0, v, 1.0, v)]
        continua = tuple(
            _segment(u0, v0, u1, v1) if row_flat else _segment(v0, u0, v1, u1)
            for u0, v0, u1, v1 in segments
        )
        return MixedNashResult(points=(), continua=continua)

    y_star = _interior_root(alpha1, alpha2)
    x_star = _interior_root(gamma1, gamma2)
    if x_star is None or y_star is None:
        return MixedNashResult(points=())
    if math.isinf(alpha1 + alpha2) or math.isinf(gamma1 + gamma2):
        # An infinite difference keeps its sign, not its size: the root comes
        # from the payoffs times 0.25, exact for normal payoffs, or is the
        # corner it rounds to where a quarter difference vanishes.
        q1, q2, q3, q4 = _differences(Game2x2(*(0.25 * v for v in astuple(g))))
        if math.isinf(alpha1 + alpha2):
            y_star = _interior_root(q1, q2) or float(q1 == 0.0)
        if math.isinf(gamma1 + gamma2):
            x_star = _interior_root(q3, q4) or float(q3 == 0.0)
    return MixedNashResult(points=(MixedProfile(x=x_star, y=y_star),))


def _cell_payoffs(g: Game2x2) -> dict[Cell, tuple[float, float]]:
    """(row payoff, column payoff) of every cell, keyed in ``CELLS`` order."""
    return {
        (1, 1): (g.a11, g.b11),
        (1, 2): (g.a12, g.b12),
        (2, 1): (g.a21, g.b21),
        (2, 2): (g.a22, g.b22),
    }


def berge_solutions(g: Game2x2) -> list[Cell]:
    """Joint actions where each player's payoff is maximal over the
    *opponent's* choices: mutual support rather than self-interest.  They are
    the pure equilibria of the game with the two payoff matrices exchanged,
    ``transform(g, EmpathyMatrix(0, 1, 1, 0))``."""
    row = _best_responses(g.b11 - g.b21, g.b22 - g.b12)
    col = _best_responses(g.a11 - g.a12, g.a22 - g.a21)
    return [e.cell for e in _pure_equilibria(row, col)]


def pareto_front(g: Game2x2) -> list[Cell]:
    """Joint actions not Pareto-dominated by any other joint action.

    A cell is removed when some other cell is at least as good for both
    players and strictly better for one.
    """
    pay = _cell_payoffs(g)
    return [
        c
        for c, (a, b) in pay.items()
        if not any(
            da >= a and db >= b and (da > a or db > b) for da, db in pay.values()
        )
    ]


def two_population_equilibria(g: Game2x2, lam: EmpathyMatrix) -> EquilibriumSet:
    """Full equilibrium analysis of the empathy-transformed game.

    Every returned pure or mixed profile satisfies the best-response
    variational inequality for the transformed payoffs (no unilateral
    deviation improves either player's expected payoff).
    """
    gp = transform(g, lam)
    mixed = mixed_nash(gp)
    return EquilibriumSet(
        pure=tuple(pure_nash(gp)),
        mixed=mixed.points,
        mixed_continua=mixed.continua,
        mixed_degenerate=mixed.degenerate,
        berge=tuple(berge_solutions(gp)),
        pareto_front=tuple(pareto_front(gp)),
    )


def deviation_gain(g: Game2x2, x: float, y: float) -> float:
    """Largest payoff improvement either player could get by deviating
    unilaterally from the profile (x, y).  Zero (up to float error) exactly
    at Nash equilibria.  The actions' expected payoffs are ``_payoffs``."""
    r1, r2, c1, c2 = _payoffs(g, x, y)
    row_value = x * r1 + (1.0 - x) * r2
    col_value = y * c1 + (1.0 - y) * c2
    return max(max(r1, r2) - row_value, max(c1, c2) - col_value)


def outcome_label(eqs: EquilibriumSet) -> str:
    """Canonical label of an equilibrium configuration.

    Pure cells are listed in lexicographic order as two-digit tokens joined
    by '+', with a trailing 'mixed' token when any interior mixed equilibrium
    or continuum is present, e.g. "22", "11+22+mixed", "mixed".
    """
    return _label(eqs.pure_cells(), eqs.has_mixed)


def _label(cells, mixed: bool) -> str:
    parts = [f"{i}{j}" for (i, j) in sorted(cells)]
    if mixed:
        parts.append("mixed")
    return "+".join(parts) if parts else "none"


def _key_mixed(row: PlayerKey, col: PlayerKey) -> str:
    """The mixed token of ``equilibrium_signature`` for any game with these
    ``_player_key``s: ``mixed_nash`` is degenerate when both players are flat
    (both differences zero), yields continua when one is, else one point when
    each player's two signs are equal and nonzero."""
    row_flat = row[0] == row[1] == 0
    col_flat = col[0] == col[1] == 0
    if row_flat and col_flat:
        return "0+deg"
    if row_flat or col_flat:
        return "0+cont"
    return "1" if row[0] == row[1] and col[0] == col[1] else "0"


def _key_cells(row: PlayerKey, col: PlayerKey) -> list[Cell]:
    """``pure_nash``'s cells for any game with these ``_player_key``s."""
    pure = _pure_equilibria(_best_responses(row[0], row[1]), _best_responses(col[0], col[1]))
    return [p.cell for p in pure]


# A player has 9 keys, so each key-pair cache holds at most 81 entries.
@functools.cache
def _key_label(row: PlayerKey, col: PlayerKey) -> str:
    """``outcome_label`` of any game with these ``_player_key``s."""
    return _label(_key_cells(row, col), _key_mixed(row, col) != "0")


@functools.cache
def _key_signature(row: PlayerKey, col: PlayerKey) -> str:
    """``equilibrium_signature`` of any game with these ``_player_key``s;
    ``classify`` (with no tie tolerance) reads only the difference signs."""
    (r1, r2), (c1, c2) = row, col
    cls = _untied_class(r1, r2, c1, c2).kind if r1 and r2 and c1 and c2 else GameKind.DEGENERATE
    cells = ",".join(f"{i}{j}" for i, j in _key_cells(row, col))
    return f"class={cls.value}|pure={cells or '-'}|mixed={_key_mixed(row, col)}"


@dataclass(frozen=True)
class RegionMap:
    """Grid of equilibrium-outcome labels over the two cross-empathy weights.

    ``labels[i][j]`` is the outcome at l21 = l21_values[i], l12 = l12_values[j].
    """

    l12_values: tuple[float, ...]
    l21_values: tuple[float, ...]
    labels: tuple[tuple[str, ...], ...]

    def label_at(self, i21: int, i12: int) -> str:
        return self.labels[i21][i12]

    def rows(self):
        """Row-major (l21 outer, l12 inner) iteration of (l12, l21, label)."""
        for i21, l21 in enumerate(self.l21_values):
            for i12, l12 in enumerate(self.l12_values):
                yield (l12, l21, self.labels[i21][i12])


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    step = (hi - lo) / (n - 1)
    if math.isinf(step):
        # hi - lo overflows, so lo and hi have opposite signs and a weighted
        # sum of the two cannot overflow.
        return tuple(lo * ((n - 1 - k) / (n - 1)) + hi * (k / (n - 1)) for k in range(n))
    return tuple(lo + k * step for k in range(n))


def region_map(
    g: Game2x2,
    l12_range: tuple[float, float],
    l21_range: tuple[float, float],
    resolution: int,
    l11: float = 1.0,
    l22: float = 1.0,
) -> RegionMap:
    """Sweep the two cross-empathy weights over a grid and label each cell
    with the equilibrium outcome of the transformed game.

    The row player's transformed payoffs depend only on (l11, l12) and the
    column player's only on (l22, l21), and ``outcome_label`` reads only each
    player's ``_player_key``.  So the sweep makes n row solves and n column
    solves, then fills the n^2 cells from ``_key_label``; each label equals
    ``outcome_label(two_population_equilibria(g, EmpathyMatrix(l11, l12, l21,
    l22)))`` exactly.  A solve reads the payoff differences straight from the
    four weights and the eight payoffs with ``_transformed_differences``,
    which builds the game only where a difference is not finite.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    l12_range = (float(l12_range[0]), float(l12_range[1]))
    l21_range = (float(l21_range[0]), float(l21_range[1]))
    for name, (lo, hi) in (("l12", l12_range), ("l21", l21_range)):
        # A grid with a non-finite end holds a weight that is not finite
        # (inf * 0 is NaN), so the end the caller gave is named.
        for end in (lo, hi):
            if not math.isfinite(end):
                raise ValueError(f"{name} must be a finite real number, got {end!r}")
        if not lo < hi:
            raise ValueError("ranges must satisfy lo < hi")
    l12s = _linspace(*l12_range, resolution)
    l21s = _linspace(*l21_range, resolution)

    # Each solve reads the four differences of the game at one grid cell,
    # pairing its value with the first value of the other axis.  That game
    # is built only where a difference is not finite, so an invalid weight
    # or an overflowing payoff raises at the same cell, with the same
    # message, as a row-major walk of every cell would.
    differences = _transformed_differences(g)
    row_keys = [_player_key(*differences(l11, l12, l21s[0], l22)[:2]) for l12 in l12s]
    col_keys = [_player_key(*differences(l11, l12s[0], l21, l22)[2:]) for l21 in l21s]
    # A label depends only on the (row key, column key) pair, so each
    # distinct pair is looked up once, and a row of the map depends only on
    # its column key.
    rows: dict[PlayerKey, tuple[str, ...]] = {}
    for col in set(col_keys):
        by_row = {row: _key_label(row, col) for row in set(row_keys)}
        rows[col] = tuple(map(by_row.__getitem__, row_keys))
    return RegionMap(
        l12_values=l12s, l21_values=l21s, labels=tuple(rows[ck] for ck in col_keys)
    )
