"""Equilibrium analysis for 2x2 bimatrix games.

Pure and mixed Nash equilibria, Berge (mutual support) solutions, the Pareto
front over joint actions, solutions of empathy-transformed games, and region
maps over the two cross-empathy weights.
"""
from __future__ import annotations

from dataclasses import dataclass

from .games import CELLS, EmpathyMatrix, Game2x2, transform

Cell = tuple[int, int]


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


def _best_responses(d1: float, d2: float) -> tuple[tuple[bool, bool], tuple[bool, bool]]:
    """One player's weak best responses, from its two payoff differences.

    ``d1`` is the player's gain from action 1 over action 2 when the opponent
    plays action 1, ``d2`` its gain from action 2 over action 1 when the
    opponent plays action 2.  Entry ``[own - 1][opp - 1]`` is True when action
    ``own`` is a weak best response to the opponent's action ``opp``.  For
    finite payoffs the sign of a float difference is the sign of the exact
    one, so this agrees with comparing the payoffs themselves.
    """
    return ((d1 >= 0.0, d2 <= 0.0), (d1 <= 0.0, d2 >= 0.0))


def _interior_root(d1: float, d2: float) -> float | None:
    """The opponent's probability of action 1 at which a player with payoff
    differences ``d1``, ``d2`` (as in ``_best_responses``) is indifferent,
    when it lies strictly inside (0, 1); otherwise None."""
    if d1 * d2 > 0.0:
        root = d2 / (d1 + d2)
        if 0.0 < root < 1.0:
            return root
    return None


def _differences(g: Game2x2) -> tuple[float, float, float, float]:
    """The row player's (d1, d2) followed by the column player's."""
    return (g.a11 - g.a21, g.a22 - g.a12, g.b11 - g.b12, g.b22 - g.b21)


def pure_nash(g: Game2x2) -> list[PureEquilibrium]:
    """Joint actions where no player gains by a unilateral deviation.

    Weak equilibria (deviation ties) are included with ``strict=False``.
    """
    alpha1, alpha2, gamma1, gamma2 = _differences(g)
    row = _best_responses(alpha1, alpha2)
    col = _best_responses(gamma1, gamma2)
    out = []
    for (i, j) in CELLS:
        if row[i - 1][j - 1] and col[j - 1][i - 1]:
            # Strict when neither deviation is a best response as well.
            strict = not row[2 - i][j - 1] and not col[2 - j][i - 1]
            out.append(PureEquilibrium(cell=(i, j), strict=strict))
    return out


def _segment(x0: float, y0: float, x1: float, y1: float) -> tuple[MixedProfile, MixedProfile]:
    return (MixedProfile(x0, y0), MixedProfile(x1, y1))


def mixed_nash(g: Game2x2) -> MixedNashResult:
    """Solve the two indifference conditions for mixed equilibria.

    The row player is indifferent when the opponent mixes at
    y* = (a22 - a12) / ((a11 - a21) + (a22 - a12)) and symmetrically
    x* = (b22 - b21) / ((b11 - b12) + (b22 - b21)) for the column player;
    a strictly interior profile exists when both ratios lie in (0, 1).
    A player whose two payoff differences both vanish is indifferent
    everywhere, producing equilibrium continua instead of points.
    """
    alpha1, alpha2, gamma1, gamma2 = _differences(g)
    row_flat = alpha1 == 0.0 and alpha2 == 0.0
    col_flat = gamma1 == 0.0 and gamma2 == 0.0

    if row_flat and col_flat:
        return MixedNashResult(points=(), degenerate=True)

    if row_flat or col_flat:
        # The non-flat player's preference for action 1 is linear in the
        # opponent's mix; the flat player is unconstrained.
        if row_flat:
            # Column prefers action 1 against row mix x iff pref(x) > 0.
            pref0 = g.b21 - g.b22  # at x = 0
            pref1 = g.b11 - g.b12  # at x = 1
        else:
            # Row prefers action 1 against column mix y iff pref(y) > 0.
            pref0 = g.a12 - g.a22  # at y = 0
            pref1 = g.a11 - g.a21  # at y = 1
        continua: list[tuple[MixedProfile, MixedProfile]] = []
        slope = pref1 - pref0
        root = -pref0 / slope if slope != 0.0 else None
        if root is not None and 0.0 <= root <= 1.0:
            # Where the non-flat player strictly prefers an action, the flat
            # player is free and the other coordinate is pinned; at the root
            # the non-flat player is indifferent too.
            lo_side, hi_side = (0.0, 1.0) if slope > 0.0 else (1.0, 0.0)
            if row_flat:
                continua.append(_segment(root, 0.0, root, 1.0))
                if root > 0.0:
                    continua.append(_segment(0.0, lo_side, root, lo_side))
                if root < 1.0:
                    continua.append(_segment(root, hi_side, 1.0, hi_side))
            else:
                continua.append(_segment(0.0, root, 1.0, root))
                if root > 0.0:
                    continua.append(_segment(lo_side, 0.0, lo_side, root))
                if root < 1.0:
                    continua.append(_segment(hi_side, root, hi_side, 1.0))
        else:
            # Constant-sign preference: the non-flat player pins one pure
            # action and the flat player ranges over the whole interval.
            prefers_one = pref0 > 0.0 or pref1 > 0.0
            if row_flat:
                y_fixed = 1.0 if prefers_one else 0.0
                continua.append(_segment(0.0, y_fixed, 1.0, y_fixed))
            else:
                x_fixed = 1.0 if prefers_one else 0.0
                continua.append(_segment(x_fixed, 0.0, x_fixed, 1.0))
        return MixedNashResult(points=(), continua=tuple(continua))

    y_star = _interior_root(alpha1, alpha2)
    x_star = _interior_root(gamma1, gamma2)
    if x_star is None or y_star is None:
        return MixedNashResult(points=())
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
    *opponent's* choices: mutual support rather than self-interest."""
    pay = _cell_payoffs(g)
    return [
        (i, j)
        for (i, j), (a, b) in pay.items()
        if a >= pay[(i, 3 - j)][0] and b >= pay[(3 - i, j)][1]
    ]


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
    at Nash equilibria."""
    r1 = g.a11 * y + g.a12 * (1.0 - y)
    r2 = g.a21 * y + g.a22 * (1.0 - y)
    row_value = x * r1 + (1.0 - x) * r2
    c1 = g.b11 * x + g.b21 * (1.0 - x)
    c2 = g.b12 * x + g.b22 * (1.0 - x)
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


@dataclass(frozen=True)
class RegionMap:
    """Grid of equilibrium-outcome labels over the two cross-empathy weights.

    ``labels[i][j]`` is the outcome at l21 = l21_values[i], l12 = l12_values[j].
    """

    l12_values: tuple[float, ...]
    l21_values: tuple[float, ...]
    labels: tuple[tuple[str, ...], ...]

    @property
    def resolution(self) -> int:
        return len(self.l12_values)

    def label_at(self, i21: int, i12: int) -> str:
        return self.labels[i21][i12]

    def rows(self):
        """Row-major (l21 outer, l12 inner) iteration of (l12, l21, label)."""
        for i21, l21 in enumerate(self.l21_values):
            for i12, l12 in enumerate(self.l12_values):
                yield (l12, l21, self.labels[i21][i12])


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    if n == 1:
        return (lo,)
    step = (hi - lo) / (n - 1)
    return tuple(lo + k * step for k in range(n))


_Facts = tuple[frozenset[Cell], bool, bool]


def _player_facts(gp: Game2x2, column: bool) -> _Facts:
    """What ``outcome_label`` reads of one player of a transformed game: the
    cells where it best responds, whether it is indifferent everywhere (which
    makes some mixed profile an equilibrium), and whether it has an interior
    indifference point."""
    alpha1, alpha2, gamma1, gamma2 = _differences(gp)
    d1, d2 = (gamma1, gamma2) if column else (alpha1, alpha2)
    br = _best_responses(d1, d2)
    cells = frozenset(
        (opp, own) if column else (own, opp)
        for own in (1, 2)
        for opp in (1, 2)
        if br[own - 1][opp - 1]
    )
    return (cells, d1 == 0.0 and d2 == 0.0, _interior_root(d1, d2) is not None)


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
    column player's only on (l22, l21), and ``outcome_label`` reads three
    facts per player: its weak best responses, whether it is indifferent
    everywhere, and whether it has an interior indifference point.  So the
    sweep makes n row solves and n column solves, then fills the n^2 cells by
    lookup; each label equals ``outcome_label(two_population_equilibria(g,
    EmpathyMatrix(l11, l12, l21, l22)))`` exactly.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    for lo, hi in (l12_range, l21_range):
        if not (float(lo) < float(hi)):
            raise ValueError("ranges must satisfy lo < hi")
    l12s = _linspace(float(l12_range[0]), float(l12_range[1]), resolution)
    l21s = _linspace(float(l21_range[0]), float(l21_range[1]), resolution)
    # Each solve transforms the game at one grid cell, pairing its value with
    # the first value of the other axis, so an invalid weight or an
    # overflowing payoff raises at the same cell, with the same message, as a
    # row-major walk of every cell would.
    row_facts = [
        _player_facts(transform(g, EmpathyMatrix(l11, l12, l21s[0], l22)), column=False)
        for l12 in l12s
    ]
    col_facts = [
        _player_facts(transform(g, EmpathyMatrix(l11, l12s[0], l21, l22)), column=True)
        for l21 in l21s
    ]
    # A label depends only on the (row facts, column facts) pair, so each
    # distinct pair is labelled once, and a row of the map depends only on
    # its column facts.
    rows: dict[_Facts, tuple[str, ...]] = {}
    for c_cells, c_flat, c_root in set(col_facts):
        by_row = {
            (r_cells, r_flat, r_root): _label(
                r_cells & c_cells, r_flat or c_flat or (r_root and c_root)
            )
            for r_cells, r_flat, r_root in set(row_facts)
        }
        rows[c_cells, c_flat, c_root] = tuple(by_row[rf] for rf in row_facts)
    return RegionMap(
        l12_values=l12s, l21_values=l21s, labels=tuple(rows[cf] for cf in col_facts)
    )
