"""Equilibrium analysis for 2x2 bimatrix games.

Pure and mixed Nash equilibria, Berge (mutual support) solutions, the Pareto
front over joint actions, solutions of empathy-transformed games, and region
maps over the two cross-empathy weights.
"""
from __future__ import annotations

import bisect
import itertools
import math

from .games import (
    CELLS,
    EmpathyMatrix,
    Game2x2,
    GameKind,
    _Record,
    _best_responses,
    _cell_payoffs,
    _differences,
    _payoffs,
    _transformed_differences,
    _untied_class,
    transform,
)

Cell = tuple[int, int]
PlayerKey = tuple[int, int]


class PureEquilibrium(_Record):
    """A pure Nash equilibrium at ``cell`` (row action, column action);
    ``strict`` when neither player has another best response there."""

    cell: Cell
    strict: bool


class MixedProfile(_Record):
    """Probabilities placed on action 1 by the row (x) and column (y) player."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"profile coordinates must lie in [0,1], got {self}")


class MixedNashResult(_Record):
    """Interior indifference points plus any equilibrium continua.

    ``continua`` holds segment endpoints for one-dimensional equilibrium
    families that arise when a player is indifferent everywhere;
    ``degenerate`` is set when both players are, making every profile an
    equilibrium.
    """

    points: tuple[MixedProfile, ...]
    continua: tuple[tuple[MixedProfile, MixedProfile], ...] = ()
    degenerate: bool = False


class EquilibriumSet(_Record):
    """Every solution of one game: the pure equilibria, the interior mixed
    equilibria and continua of ``mixed_nash``, whether every profile is one
    (``mixed_degenerate``), the Berge solutions and the Pareto front, each
    as cells (row action, column action)."""

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


def pure_nash(g: Game2x2) -> list[PureEquilibrium]:
    """Joint actions where no player gains by a unilateral deviation.

    Weak equilibria (deviation ties) are included with ``strict=False``;
    the records are shared by every game with the same ``_player_key``s.
    """
    alpha1, alpha2, gamma1, gamma2 = _differences(g)
    return list(_KEY_PAIRS[_player_key(alpha1, alpha2), _player_key(gamma1, gamma2)].pure)


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
            return mixed_nash(Game2x2(*(0.25 * v for v in g.payoffs())))
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
        q1, q2, q3, q4 = _differences(Game2x2(*(0.25 * v for v in g.payoffs())))
        if math.isinf(alpha1 + alpha2):
            y_star = _interior_root(q1, q2) or float(q1 == 0.0)
        if math.isinf(gamma1 + gamma2):
            x_star = _interior_root(q3, q4) or float(q3 == 0.0)
    return MixedNashResult(points=(MixedProfile(x=x_star, y=y_star),))


def berge_solutions(g: Game2x2) -> list[Cell]:
    """Joint actions where each player's payoff is maximal over the
    *opponent's* choices: mutual support rather than self-interest.  They are
    the pure equilibria of the game with the two payoff matrices exchanged,
    ``transform(g, EmpathyMatrix(0, 1, 1, 0))``."""
    row = _player_key(g.b11 - g.b21, g.b22 - g.b12)
    col = _player_key(g.a11 - g.a12, g.a22 - g.a21)
    return [e.cell for e in _KEY_PAIRS[row, col].pure]


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


class _KeyPair(_Record):
    """What every game with one pair of ``_player_key``s shares: its
    ``outcome_label``, ``equilibrium_signature`` and ``pure_nash`` records."""

    label: str
    signature: str
    pure: tuple[PureEquilibrium, ...]


class _KeyPairTable(dict):
    """``(row key, column key) -> _KeyPair``, each entry built on its first
    lookup.  A player has 9 keys, so the table holds at most 81 entries."""

    def __missing__(self, pair: tuple[PlayerKey, PlayerKey]) -> _KeyPair:
        row, col = pair
        # The cells where each player's action is a weak best response to
        # the other's, strict where neither deviation is one as well.
        br_row, br_col = _best_responses(*row), _best_responses(*col)
        pure = tuple(
            PureEquilibrium((i, j), not br_row[2 - i][j - 1] and not br_col[2 - j][i - 1])
            for i, j in CELLS if br_row[i - 1][j - 1] and br_col[j - 1][i - 1]
        )
        # ``mixed_nash`` is degenerate when both players are flat (both
        # differences zero), yields continua when one is, else one point
        # when each player's two signs are equal and nonzero.
        row_flat, col_flat = row == (0, 0), col == (0, 0)
        if row_flat or col_flat:
            mixed = "0+deg" if row_flat and col_flat else "0+cont"
        else:
            mixed = "1" if row[0] == row[1] and col[0] == col[1] else "0"
        # ``classify``, with no tie tolerance, reads only the signs.
        (r1, r2), (c1, c2) = row, col
        cls = _untied_class(r1, r2, c1, c2).kind if r1 and r2 and c1 and c2 else GameKind.DEGENERATE
        cells = [p.cell for p in pure]
        names = ",".join(f"{i}{j}" for i, j in cells)
        entry = self[pair] = _KeyPair(
            label=_label(cells, mixed != "0"),
            signature=f"class={cls.value}|pure={names or '-'}|mixed={mixed}",
            pure=pure,
        )
        return entry


_KEY_PAIRS = _KeyPairTable()


class RegionMap(_Record):
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
    # Both branches give grids that never decrease, which ``_axis_signs``
    # relies on.  Rounding is monotone, so with step >= 0 neither k * step
    # nor lo plus it decreases with k; and with lo < 0 < hi neither weighted
    # term below decreases with k, nor does their rounded sum.
    step = (hi - lo) / (n - 1)
    if math.isinf(step):
        # hi - lo overflows, so lo and hi have opposite signs and a weighted
        # sum of the two cannot overflow.
        return tuple(lo * ((n - 1 - k) / (n - 1)) + hi * (k / (n - 1)) for k in range(n))
    return tuple([lo + k * step for k in range(n)])


# Where a pair's T (see ``_axis_signs``) is below this, every transformed
# payoff and difference on its axis is finite, far from overflowing.
_CERTIFIED_TOTAL = 2.0**1000


def _axis_signs(read, i: int, grid: tuple[float, ...], c, p, r, q, s, t: float) -> list[int]:
    """The sign of D(w) = (c*p + w*q) - (c*r + w*s) at each point of
    ``grid``, where ``read(k)[i]`` is the float of D at ``grid[k]`` that
    ``_transformed_differences`` gives.  It is read only near D's
    breakpoint; elsewhere the sign is certified.  ``t`` is T below, as
    rounded, at the grid's larger |w|, and under ``_CERTIFIED_TOTAL``; or it
    is infinite, and then every point is read and every sign is its float's.

    The exact E(w) = c*(p - r) + w*(q - s) is monotone along the grid (which
    never decreases): rising where q > s, falling where q < s.  The float is
    fl(X - Y), with X = fl(fl(c*p) + fl(w*q)) and Y = fl(fl(c*r) + fl(w*s)),
    so it has the sign of X - Y.  A product rounds as x*y*(1 + d) + e and a
    sum as (x + y)*(1 + d'), with |d|, |d'| <= u = 2^-53, |e| <= eta =
    2^-1075 and d*e = 0, so
        |X - (c*p + w*q)| <= u*(|c*p| + |w*q|) + 2*eta
                             + u*((1 + u)*(|c*p| + |w*q|) + 2*eta),
    and with Y alike
        |X - Y - E| <= B = (2u + u^2)*T + 4*(1 + u)*eta,
    where T = |c*p| + |w*q| + |c*r| + |w*s| is largest at the grid's larger
    |w|.  From t, which falls short of T by at most a relative 4u and 4*eta,
    the threshold h = 3*(2^-52*t + 2^-1073) exceeds 2B.  So where a float is
    beyond h in E's direction, E is beyond B there and, being monotone, at
    every grid point past it, whose floats then all have E's sign.

    The walk starts from the estimated breakpoint and goes outwards, each
    way until a float is beyond h; a wrong estimate costs evaluations, never
    a sign.  With q == s, E is constant: where p == r or c == 0 both sides
    are the same float expression, so every sign is 0; otherwise one float
    beyond h certifies the whole axis, or every point is read.
    """
    n = len(grid)
    h = 3.0 * (2.0**-52 * t + 2.0**-1073)
    if q == s:
        if p == r or c == 0.0:
            return [0] * n
        d = read(0)[i]
        if abs(d) > h:
            return [(d > 0.0) - (d < 0.0)] * n
        return [(d > 0.0) - (d < 0.0) for d in (read(k)[i] for k in range(n))]
    up = 1 if q > s else -1
    # q - s is not zero.  With a finite t, c*r and c*p are under T, so the
    # estimate is finite; with an infinite one it may be infinite or NaN,
    # which puts k0 at 0 or n, and both walks still read every point.
    k0 = bisect.bisect_left(grid, (c * r - c * p) / (q - s))
    signs = [-up] * k0 + [up] * (n - k0)
    for k in range(k0, n):
        d = read(k)[i]
        if up * d > h:
            break
        signs[k] = (d > 0.0) - (d < 0.0)
    for k in range(k0 - 1, -1, -1):
        d = read(k)[i]
        if -up * d > h:
            break
        signs[k] = (d > 0.0) - (d < 0.0)
    return signs


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
    player's ``_player_key``, the signs of its two payoff differences.  Each
    difference is affine along its own player's axis, so ``_axis_signs``
    reads it only near its breakpoint and certifies its sign elsewhere; the
    sweep then fills the n^2 cells from ``_KEY_PAIRS``.  Each label equals
    ``outcome_label(two_population_equilibria(g, EmpathyMatrix(l11, l12, l21,
    l22)))`` exactly.  A difference is read straight from the four weights
    and the eight payoffs with ``_transformed_differences``, which builds the
    game only where a difference is not finite.  Where a payoff or weight is
    large enough that one might not be, every grid point is read first, once
    and in order, so that the first error is the one a row-major walk of
    every cell raises, and ``_axis_signs`` takes each sign from its float.
    Where the two ranges are equal as floats, the map's ``l12_values`` and
    ``l21_values`` are one tuple.
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
            raise ValueError(f"{name}: ranges must satisfy lo < hi, got {(lo, hi)!r}")
    l12s = _linspace(*l12_range, resolution)
    # Equal ranges give bit-identical grids, so the two axes share one tuple.
    l21s = l12s if l21_range == l12_range else _linspace(*l21_range, resolution)

    # Each read gives the four differences of the game at one grid cell,
    # pairing its value with the first value of the other axis.
    differences = _transformed_differences(g)
    # The four (difference, axis) pairs as (c, p, r, q, s) of
    # ``_axis_signs``: the row player's d1, d2 along l12 at own weight l11,
    # and the column player's d3, d4 along l21 at own weight l22.
    pairs = (
        (l11, g.a11, g.a21, g.b11, g.b21),
        (l11, g.a22, g.a12, g.b22, g.b12),
        (l22, g.b11, g.b12, g.a11, g.a12),
        (l22, g.b22, g.b21, g.a22, g.a21),
    )
    grids = (l12s, l12s, l21s, l21s)
    # Each pair's T of ``_axis_signs``, at its grid's larger |w|.
    totals = []
    for (c, p, r, q, s), grid in zip(pairs, grids):
        w = max(abs(grid[0]), abs(grid[-1]))
        totals.append(abs(c * p) + abs(w * q) + abs(c * r) + abs(w * s))
    if all(t < _CERTIFIED_TOTAL for t in totals):
        # No difference on either axis can leave the float range, so no
        # cell raises, and each sign is read only near its breakpoint.
        reads = (
            lambda k: differences(l11, l12s[k], l21s[0], l22),
            lambda k: differences(l11, l12s[0], l21s[k], l22),
        )
    else:
        # Every point is read once, in order.  The game is built only where
        # a difference is not finite, so an invalid weight or an overflowing
        # payoff raises at the same cell, with the same message, as a
        # row-major walk of every cell would.  An infinite T takes every
        # sign from its float.
        reads = (
            [differences(l11, l12, l21s[0], l22) for l12 in l12s].__getitem__,
            [differences(l11, l12s[0], l21, l22) for l21 in l21s].__getitem__,
        )
        totals = [math.inf] * 4
    d1, d2, d3, d4 = (
        _axis_signs(reads[i // 2], i, grids[i], *pairs[i], totals[i]) for i in range(4)
    )
    # A label depends only on the (row key, column key) pair, and a row of
    # the map only on its column key: each is filled run by run of equal
    # keys, one lookup per run.
    row_runs = [(key, len(list(run))) for key, run in itertools.groupby(zip(d1, d2))]
    labels: tuple[tuple[str, ...], ...] = ()
    for col_key, run in itertools.groupby(zip(d3, d4)):
        cells: list[str] = []
        for key, m in row_runs:
            cells += [_KEY_PAIRS[key, col_key].label] * m
        labels += (tuple(cells),) * len(list(run))
    return RegionMap(l12_values=l12s, l21_values=l21s, labels=labels)
