"""Discrete-time evolutionary dynamics for two populations on 2x2 games.

Each population revises between its two actions at nonnegative switch rates
determined by a revision protocol, and the state updates as

    m' = m + rate_t * (1 - m) * eta_in - rate_t * m * eta_out,

with the learning rate capped per step so the state never leaves [0, 1]^2.
That kernel (cap, update, clamp) is written once, in ``simulate``'s loop.
Each step forms the four expected payoffs once and calls one rate rule per
population, built once per run for the protocol's kind and reused while the
same protocol and game come back (``step`` replaying a run); a constant
schedule's rate is read once per run.
Population 1 plays the row role against population 2's mix, and vice versa.

Supported protocols (pi_a is the expected payoff of action a against the
opponent population's current mix, pi_bar the population average):

* replicator (pairwise proportional imitation): eta_ab = m_b * max(pi_b - pi_a, 0)
* bnn:        eta_ab = max(pi_b - pi_bar, 0)
* smith:      eta_ab = max(pi_b - pi_a, 0)
* imitation:  eta_ab = m_b * (pi_b + K) with K = -min payoff entry of the game
* hybrid:     convex combination of the above
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .games import Classification, EmpathyMatrix, Game2x2, GameKind, _payoffs, classify, transform

_PROTOCOL_KINDS = ("replicator", "bnn", "smith", "imitation")
_RATE_FLOOR = 2.220446049250313e-16  # machine epsilon floor for the step cap
_CONV_TOL = 1e-9  # a step is still when its change is below this times its rate
_WINDOW = 25  # consecutive still steps that declare convergence
_RATES_OVERFLOW = "the switch rates overflow the float range for this game"


@dataclass(frozen=True)
class PopulationState:
    """Mass each population places on action 1."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")

    def as_tuple(self) -> tuple[float, float]:
        return (self.p1, self.p2)


@dataclass(frozen=True)
class RevisionProtocol:
    """A named switch-rate rule, or a weighted hybrid of several."""

    kind: str
    components: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "hybrid":
            if not self.components:
                raise ValueError("hybrid protocol needs at least one component")
            for name, w in self.components:
                if name not in _PROTOCOL_KINDS:
                    raise ValueError(f"unknown protocol component {name!r}")
                if not math.isfinite(w):
                    raise ValueError("hybrid weights must be finite")
                if w < 0.0:
                    raise ValueError("hybrid weights must be nonnegative")
            total = sum(w for _, w in self.components)
            if total <= 0.0:
                raise ValueError("hybrid weights must not all be zero")
            if not math.isfinite(total):  # every share w / total would be 0
                raise ValueError("hybrid weights must have a finite sum")
        elif self.kind not in _PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol {self.kind!r}")

    @classmethod
    def replicator(cls) -> "RevisionProtocol":
        return cls("replicator")

    @classmethod
    def bnn(cls) -> "RevisionProtocol":
        return cls("bnn")

    @classmethod
    def smith(cls) -> "RevisionProtocol":
        return cls("smith")

    @classmethod
    def imitation(cls) -> "RevisionProtocol":
        return cls("imitation")

    @classmethod
    def hybrid(cls, *components: tuple[str, float]) -> "RevisionProtocol":
        return cls("hybrid", tuple(components))

    @classmethod
    def parse(cls, text: str) -> "RevisionProtocol":
        """Parse 'replicator', 'smith', ... or 'hybrid:smith=0.5,bnn=0.5'."""
        text = text.strip()
        if not text.startswith("hybrid"):
            return cls(text)
        _, _, spec = text.partition(":")
        comps = []
        for chunk in filter(None, spec.split(",")):
            name, _, w = chunk.partition("=")
            comps.append((name.strip(), float(w) if w else 1.0))
        return cls.hybrid(*comps)


@dataclass(frozen=True)
class LearningSchedule:
    """Learning-rate sequence: constant, or harmonically decaying base/(t+1).

    The scheduled rate is additionally capped inside each step at
    1 / max(switch rates, machine epsilon) so updates stay in the simplex.
    """

    kind: str
    base: float

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "harmonic"):
            raise ValueError(f"unknown schedule {self.kind!r}")
        if not (math.isfinite(self.base) and self.base >= 0.0):
            raise ValueError("learning rate must be nonnegative and finite")

    @classmethod
    def constant(cls, rate: float) -> "LearningSchedule":
        return cls("constant", rate)

    @classmethod
    def harmonic(cls, base: float) -> "LearningSchedule":
        return cls("harmonic", base)

    def rate(self, t: int) -> float:
        if self.kind == "constant":
            return self.base
        return self.base / (t + 1.0)


def switch_rates(
    proto: RevisionProtocol, game: Game2x2, state: PopulationState, pop: int
) -> tuple[float, float]:
    """Nonnegative switch rates (eta_12, eta_21) for one population.

    Evaluates the rate rule and the payoff expressions of ``simulate``'s
    kernel, so the values are exactly those a simulation step uses.
    """
    if pop not in (1, 2):
        raise ValueError("pop must be 1 or 2")
    r1, r2, c1, c2 = _payoffs(game, state.p1, state.p2)
    m, u1, u2 = (state.p1, r1, r2) if pop == 1 else (state.p2, c1, c2)
    return _rule_for(proto, game)(m, 1.0 - m, u1, u2)


def step(
    state: PopulationState,
    proto: RevisionProtocol,
    sched: LearningSchedule,
    game: Game2x2,
    t: int = 0,
) -> PopulationState:
    """One synchronous update of both populations; never leaves [0, 1]^2.

    Runs one iteration of ``simulate``'s loop at the rate scheduled for step
    ``t`` (ValueError if negative), so it replays a trajectory exactly.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    once = LearningSchedule.constant(sched.rate(t))
    return simulate(state, proto, once, game, 1, detect_cycles=False).final


@dataclass(frozen=True)
class Diagnostics:
    converged: bool
    limit_point: PopulationState | None
    cycle_detected: bool
    cycle_period_estimate: float | None


@dataclass(frozen=True)
class Trajectory:
    """States of a simulation run, one per step, plus convergence diagnostics.

    Coordinates are stored as parallel tuples; ``times`` and ``states`` are
    derived from them on demand.
    """

    p1: tuple[float, ...]
    p2: tuple[float, ...]
    diagnostics: Diagnostics

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(range(len(self.p1)))

    @property
    def states(self) -> list[PopulationState]:
        return [PopulationState(a, b) for a, b in zip(self.p1, self.p2)]

    @property
    def final(self) -> PopulationState:
        return PopulationState(self.p1[-1], self.p2[-1])

    def __len__(self) -> int:
        return len(self.p1)


_last_rule: tuple = (None, None, None)  # (protocol, game, rule) of the last _rule_for


def _rule_for(proto: RevisionProtocol, game: Game2x2):
    """``_rate_rule(proto, game)``, reused while the same protocol and game
    objects come back, as when ``step`` replays a trajectory.

    A one-entry memo keyed on identity, so games that differ only in the
    sign of a zero never share a rule.  It holds both objects, so neither
    id can pass to another object while it is the key.
    """
    global _last_rule
    last_proto, last_game, rule = _last_rule
    if last_proto is not proto or last_game is not game:
        rule = _rate_rule(proto, game)
        _last_rule = (proto, game, rule)
    return rule


def _rate_rule(proto: RevisionProtocol, game: Game2x2):
    """Specialized (m, n, u1, u2) -> (eta_12, eta_21) for one population:
    ``m`` is its mass on action 1, ``n = 1 - m``, and ``u1``, ``u2`` are its
    actions' expected payoffs against the other population's mix.

    The one place where each protocol's rates and the hybrid weighting are
    written; ``simulate`` (and so ``step``), ``switch_rates`` and
    ``vector_field`` take it through ``_rule_for`` and call it once per
    population.  The protocol is dispatched here, once: each kind gets its
    own rule, so a call runs no test of the kind.  A hybrid sums its members' rates, weighted, in its
    component order.
    """
    kind = proto.kind

    if kind == "hybrid":
        total = sum(w for _, w in proto.components)
        members = [
            (_rate_rule(RevisionProtocol(name), game), w / total)
            for name, w in proto.components
        ]

        def hybrid(m: float, n: float, u1: float, u2: float):
            e12 = e21 = 0.0
            for rule, w in members:
                r12, r21 = rule(m, n, u1, u2)
                e12 += w * r12
                e21 += w * r21
            return (e12, e21)

        return hybrid

    if kind == "replicator":

        def replicator(m: float, n: float, u1: float, u2: float):
            d = u2 - u1
            return (n * d if d > 0.0 else 0.0, m * -d if d < 0.0 else 0.0)

        return replicator

    if kind == "smith":

        def smith(m: float, n: float, u1: float, u2: float):
            d = u2 - u1
            return (d if d > 0.0 else 0.0, -d if d < 0.0 else 0.0)

        return smith

    if kind == "bnn":

        def bnn(m: float, n: float, u1: float, u2: float):
            bar = m * u1 + n * u2
            x = u2 - bar
            y = u1 - bar
            return (x if x > 0.0 else 0.0, y if y > 0.0 else 0.0)

        return bnn

    shift = -game.min_payoff()

    def imitation(m: float, n: float, u1: float, u2: float):
        return (n * (u2 + shift), m * (u1 + shift))

    return imitation


def _detect_cycle(
    p1s: list[float], p2s: list[float], arc: list[float], eps: float
) -> tuple[bool, float | None]:
    """Return-proximity test: a post-transient state re-enters an eps-ball of
    an earlier state with at least 10*eps of arc length in between.

    ``arc[i]`` is the max-norm arc length from the first state to state i,
    the running sum of the per-step changes ``simulate`` computes for its
    convergence test.  Earlier states are filed by eps-cell, one entry each
    time the scan enters a cell; the candidates from the 3x3 neighbourhood
    are gathered again only when the cell changes, since the files change
    only then.  State i is filed before the gathering, but it never matches
    itself: its arc gap to itself is 0.

    Cell (kx, ky) is filed under the integer kx * width + ky.  States lie in
    [0, 1], so |ky| <= int(1 / |eps|) and every ky a neighbourhood reaches
    fits in ``width`` consecutive integers: no two cells there share a key.
    """
    n = len(p1s)
    start = n // 10
    if n - start < 3:
        return (False, None)
    # An eps of 0 or NaN raises here as x / eps would below.  1/|eps|
    # overflows only for a subnormal eps, where |ky| <= int(float max).
    width = int(min(1.0 / abs(eps), sys.float_info.max)) + 3
    around = [dx * width + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    min_gap = 10.0 * eps
    episodes: dict[int, list[int]] = {}
    last_key: int | None = None
    candidates: list[int] = []
    for i in range(start, n):
        x = p1s[i]
        y = p2s[i]
        key = int(x / eps) * width + int(y / eps)
        if key != last_key:
            episodes.setdefault(key, []).append(i)
            last_key = key
            candidates = [j for off in around for j in episodes.get(key + off, ())]
        ai = arc[i]
        for j in candidates:
            if ai - arc[j] > min_gap and abs(x - p1s[j]) < eps and abs(y - p2s[j]) < eps:
                return (True, float(i - j))
    return (False, None)


def simulate(
    s0: PopulationState,
    proto: RevisionProtocol,
    sched: LearningSchedule,
    game: Game2x2,
    steps: int,
    detect_cycles: bool = True,
    cycle_eps: float = 1e-3,
) -> Trajectory:
    """Iterate the dynamics for ``steps`` updates or until convergence.

    Convergence is declared when the max-norm state change stays below
    _CONV_TOL * scheduled rate for _WINDOW consecutive steps.  When the run
    does not converge and ``detect_cycles`` is set, a return-proximity scan
    (ignoring the first 10% of the run as transient) reports cycling.  The
    scan measures arc length by the running sum of the same max-norm state
    changes the convergence test reads, kept as a prefix list by the loop.
    Switch rates past the float range turn the state NaN (a zero cap times
    an infinite rate), and the run raises ValueError.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rule = _rule_for(proto, game)
    a11, a12, a21, a22 = game.a11, game.a12, game.a21, game.a22
    b11, b12, b21, b22 = game.b11, game.b12, game.b21, game.b22
    # A constant schedule's rate, and so the convergence threshold, is read
    # once; a harmonic one is read per step.
    varying = sched.kind != "constant"
    rate_of = sched.rate
    lam = rate_of(0)
    still = _CONV_TOL * lam
    p1 = s0.p1
    p2 = s0.p2
    p1s = [p1]
    p2s = [p2]
    arc = [0.0]
    append1 = p1s.append
    append2 = p2s.append
    append_arc = arc.append
    acc = 0.0
    consecutive = 0
    converged = False
    for t in range(steps):
        if varying:
            lam = rate_of(t)
            still = _CONV_TOL * lam
        q1 = 1.0 - p1
        q2 = 1.0 - p2
        e112, e121 = rule(p1, q1, a11 * p2 + a12 * q2, a21 * p2 + a22 * q2)
        e212, e221 = rule(p2, q2, b11 * p1 + b21 * q1, b12 * p1 + b22 * q1)
        # Compared inline: the builtin max() costs about a third more per step.
        mx = e112
        if e121 > mx:
            mx = e121
        if e212 > mx:
            mx = e212
        if e221 > mx:
            mx = e221
        if mx < _RATE_FLOOR:
            mx = _RATE_FLOOR
        cap = lam if lam * mx <= 1.0 else 1.0 / mx
        n1 = p1 + cap * q1 * e121 - cap * p1 * e112
        n2 = p2 + cap * q2 * e221 - cap * p2 * e212
        n1 = 0.0 if n1 < 0.0 else 1.0 if n1 > 1.0 else n1
        n2 = 0.0 if n2 < 0.0 else 1.0 if n2 > 1.0 else n2
        d1 = n1 - p1
        if d1 < 0.0:
            d1 = -d1
        d2 = n2 - p2
        if d2 < 0.0:
            d2 = -d2
        delta = d1 if d1 > d2 else d2
        p1 = n1
        p2 = n2
        append1(p1)
        append2(p2)
        acc += delta
        append_arc(acc)
        if delta < still:
            consecutive += 1
            if consecutive >= _WINDOW:
                converged = True
                break
        else:
            consecutive = 0

    # A NaN coordinate stays NaN, so the final state shows any overflow.
    if p1 != p1 or p2 != p2:
        t = next(i for i, (x, y) in enumerate(zip(p1s, p2s)) if x != x or y != y)
        raise ValueError(f"{_RATES_OVERFLOW}: the state is NaN from step {t}")
    cycle = False
    period: float | None = None
    if not converged and detect_cycles:
        cycle, period = _detect_cycle(p1s, p2s, arc, cycle_eps)
    diag = Diagnostics(
        converged=converged,
        limit_point=PopulationState(p1, p2) if converged else None,
        cycle_detected=cycle,
        cycle_period_estimate=period,
    )
    return Trajectory(p1=tuple(p1s), p2=tuple(p2s), diagnostics=diag)


@dataclass(frozen=True)
class VectorField:
    """Raw one-step flow (unit rate, uncapped) on a uniform state grid."""

    resolution: int
    rows: tuple[tuple[float, float, float, float], ...]  # (p1, p2, dp1, dp2)


def vector_field(proto: RevisionProtocol, game: Game2x2, resolution: int) -> VectorField:
    """Evaluate the raw flow (1-p)*eta_in - p*eta_out on a uniform grid.

    Rows are ordered p2-outer, p1-inner.  Overflowing rates raise ValueError.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    rule = _rule_for(proto, game)
    coords = [k / (resolution - 1) for k in range(resolution)]
    # Row payoffs depend on p2 alone and column payoffs on p1 alone, so each
    # grid value's payoffs are formed once, for both axes, and each column's
    # (p1, 1 - p1, column payoffs) once, for every row.
    pays = [_payoffs(game, v, v) for v in coords]
    cols = [(p1, 1.0 - p1, c1, c2) for p1, (_, _, c1, c2) in zip(coords, pays)]
    rows = []
    for p2, (r1, r2, _, _) in zip(coords, pays):
        q2 = 1.0 - p2
        for p1, q1, c1, c2 in cols:
            e112, e121 = rule(p1, q1, r1, r2)
            e212, e221 = rule(p2, q2, c1, c2)
            dp1 = q1 * e121 - p1 * e112
            dp2 = q2 * e221 - p2 * e212
            if not (math.isfinite(dp1) and math.isfinite(dp2)):
                raise ValueError(f"{_RATES_OVERFLOW}: the flow at ({p1!r}, {p2!r}) is not finite")
            rows.append((p1, p2, dp1, dp2))
    return VectorField(resolution=resolution, rows=tuple(rows))


@dataclass(frozen=True)
class StabilizationReport:
    transformed_class: Classification
    stabilized: bool


def stabilization_check(g: Game2x2, lam: EmpathyMatrix) -> StabilizationReport:
    """Whether an empathy structure removes the instability of a
    discoordination game by moving it into a class with stable pure equilibria.

    Raises ValueError when ``g`` is not a discoordination game.
    """
    base = classify(g)
    if base.kind is not GameKind.DISCOORDINATION:
        raise ValueError("stabilization_check requires a discoordination game")
    after = classify(transform(g, lam))
    stabilized = after.kind in (
        GameKind.COORDINATION,
        GameKind.ANTI_COORDINATION,
        GameKind.DOMINANT_STRATEGY,
    )
    return StabilizationReport(transformed_class=after, stabilized=stabilized)
