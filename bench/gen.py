"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, inputs_dir, fixtures_dir, tiny)`` writes game
files under ``inputs_dir/games`` and returns one *pass*, the list of op specs
the worker repeats until its time is up, and the known-defect *probe*, ops the
worker runs once, untimed.  Apart from copies of the bundled
fixtures, everything comes from ``random.Random`` seeded with the workload
and seed, and from this module's own arithmetic, never from the library, so
a change to the library cannot change its own inputs.  The proportions of op
kinds, grids, protocols and hierarchy depths in a pass are fixed; the seed
chooses the games, weights, starts and the order of the ops.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("region-sweep", "long-dynamics", "query-mix")

# Grid schedule of region-sweep: the CLI default 60, plus grids whose step
# over the default range -1:2 (1/20, 1/21, 1/24) puts grid points on the
# small-integer ratios where integer games switch region.
SWEEP_GRIDS = (60, 61, 60, 61, 64, 73)
SWEEP_GRIDS_TINY = (6, 7, 6, 7, 8, 9)

PROTOCOLS = (
    "replicator",
    "bnn",
    "smith",
    "imitation",
    "hybrid:replicator=0.5,smith=0.3,bnn=0.2",
)

LAMBDA_KINDS = ("general", "consistent_family", "infinitely_consistent")
# Hierarchy queries of the measured pass walk these kinds; idempotent
# (infinitely_consistent) profiles go to the known-defect probe instead.
HIERARCHY_LAMBDA_KINDS = ("general", "consistent_family")
PROBE_IDEMPOTENT = 10  # idempotent hierarchy walks per depth in the probe
# A hierarchy level whose transformed payoffs come this close to the float
# range is a walk that may overflow: it goes to the probe.
OVERFLOW_MARGIN = 1e300

# query-mix: op kind -> count per 100 ops; hierarchy is split by k_max.  A
# pass holds QUERY_REPEAT times these counts, so that each kind is sampled
# over many games and weights.
# The counts put op_p50_ms inside the cheap single-shot queries and
# op_p90_ms inside the middle-sized hierarchy walks (k_max 50 on consistent
# weights, k_max 200 on general ones), away from the gaps between kinds.
QUERY_MIX = (
    ("solve", 24),
    ("classify", 16),
    ("ess", 16),
    ("hierarchy:10", 4),
    ("hierarchy:50", 12),
    ("hierarchy:200", 6),
    ("stabilization", 10),
    ("field", 4),
    ("simulate", 8),
)
QUERY_REPEAT = 10
KMAX_TINY = {10: 3, 50: 5, 200: 8}


def prefs(a, b):
    """Row player's preference for action 1 against column action 1 and 2,
    and the column player's against row action 1 and 2."""
    return (a[0][0] - a[1][0], a[0][1] - a[1][1], b[0][0] - b[0][1], b[1][0] - b[1][1])


def is_discoordination(a, b) -> bool:
    r1, r2, c1, c2 = prefs(a, b)
    row_match = r1 > 0 > r2
    row_mismatch = r1 < 0 < r2
    col_match = c1 > 0 > c2
    col_mismatch = c1 < 0 < c2
    return (row_match and col_mismatch) or (row_mismatch and col_match)


def is_coordination(a, b) -> bool:
    r1, r2, c1, c2 = prefs(a, b)
    return r1 > 0 > r2 and c1 > 0 > c2


def lam_apply(a, b, lam):
    """The empathy transform, written out independently of the library."""
    (l11, l12), (l21, l22) = lam
    ta = [[l11 * a[i][j] + l12 * b[i][j] for j in range(2)] for i in range(2)]
    tb = [[l22 * b[i][j] + l21 * a[i][j] for j in range(2)] for i in range(2)]
    return ta, tb


def matmul(p, q):
    (a, b), (c, d) = p
    (e, f), (g, h) = q
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def powers_overflow(lam, a, b, k_max: int) -> bool:
    """Whether some lam^k, k <= k_max, applied to the payoffs (a, b) comes
    within OVERFLOW_MARGIN of the float range."""
    big = 2.0 * max(1.0, *(abs(v) for m in (a, b) for row in m for v in row))
    power = lam
    for _ in range(k_max):
        if not all(abs(v) * big < OVERFLOW_MARGIN for row in power for v in row):
            return True
        power = matmul(lam, power)
    return False


def int_game(rng):
    return tuple([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)] for _ in range(2))


def real_game(rng):
    return tuple([[rng.uniform(-5.0, 5.0) for _ in range(2)] for _ in range(2)] for _ in range(2))


def game_where(rng, pred):
    while True:
        a, b = int_game(rng)
        if pred(a, b):
            return a, b


def draw_lambda(rng, kind):
    """One Lambda of the given kind as ((l11, l12), (l21, l22))."""
    if kind == "general":
        # Entry magnitudes spread over 0.3..100, so some powers overflow
        # before k = 200 as real inputs do.
        scale = 10.0 ** rng.uniform(-0.5, 2.0)
        return tuple(tuple(scale * rng.uniform(-1.0, 1.0) for _ in range(2)) for _ in range(2))
    if kind == "consistent_family":
        # lam^2 = eps*lam: diagonal roots of x^2 - eps*x + y, l12*l21 = y.
        eps = rng.uniform(0.5, 1.5)
        y = rng.uniform(-1.0, eps * eps / 4.0)
        s = math.sqrt(eps * eps - 4.0 * y)
        d1, d2 = (eps + s) / 2.0, (eps - s) / 2.0
        if rng.random() < 0.5:
            d1, d2 = d2, d1
        l12 = math.sqrt(abs(y))
        return ((d1, l12), (y / l12, d2))
    # Idempotent profile with first column (l11, l21): trace 1, det 0.
    l11 = rng.uniform(-3.0, 3.0)
    l21 = rng.uniform(0.05, 3.0) * rng.choice((-1.0, 1.0))
    return ((l11, l11 * (1.0 - l11) / l21), (l21, 1.0 - l11))


class _Writer:
    """Writes game files named g000.json, g001.json, ... under inputs/games,
    and copies bundled fixtures there byte for byte."""

    def __init__(self, inputs_dir: Path, fixtures_dir: Path):
        self.root = inputs_dir
        self.fixtures_dir = fixtures_dir
        (inputs_dir / "games").mkdir(parents=True, exist_ok=True)
        self.count = 0

    def _next(self, text: str) -> str:
        name = f"games/g{self.count:03d}.json"
        self.count += 1
        (self.root / name).write_text(text)
        return name

    def game(self, a, b, lam=None) -> str:
        obj = {"A": a, "B": b}
        if lam is not None:
            obj["Lambda"] = [list(row) for row in lam]
        return self._next(json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def fixture(self, name: str) -> str:
        return self._next((self.fixtures_dir / f"{name}.json").read_text())

    def fixtures(self) -> list[str]:
        return [self.fixture(p.stem) for p in sorted(self.fixtures_dir.glob("*.json"))]


def _region_sweep(rng, w: _Writer, tiny: bool):
    # Every grid sweeps three fixtures (in rotation) plus 8 integer and 7
    # real-valued games of its own: 108 distinct sweeps, each grid size
    # averaged over many games.
    fixtures = w.fixtures()
    ops = []
    for g, n in enumerate(SWEEP_GRIDS_TINY if tiny else SWEEP_GRIDS):
        games = [(fixtures[(3 * g + k) % len(fixtures)], "fixture") for k in range(3)]
        games += [(w.game(*int_game(rng)), "int") for _ in range(8)]
        games += [(w.game(*real_game(rng)), "real") for _ in range(7)]
        for path, origin in games:
            if origin == "real":
                lo12, lo21 = rng.uniform(-2.0, 0.0), rng.uniform(-2.0, 0.0)
                r12 = [lo12, lo12 + rng.uniform(1.5, 4.0)]
                r21 = [lo21, lo21 + rng.uniform(1.5, 4.0)]
            else:
                r12, r21 = [-1.0, 2.0], [-1.0, 2.0]
            sample = [[rng.randrange(n), rng.randrange(n)] for _ in range(16)]
            ops.append({"kind": "sweep", "input": path, "grid": n, "l12": r12, "l21": r21,
                        "sample": sample})
    return ops


def _simulate_spec(rng, path, protocol, schedule, steps):
    rate = rng.uniform(0.005, 0.02) if schedule == "constant" else rng.uniform(0.2, 1.0)
    return {"kind": "simulate", "input": path, "protocol": protocol, "schedule": schedule,
            "rate": rate, "start": [rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)],
            "steps": steps, "replay_from": rng.randrange(steps // 2)}


def _long_dynamics(rng, w: _Writer, tiny: bool):
    # Constant-rate runs mostly cycle, so the cycle scan stops early;
    # harmonic-rate runs drift without a detectable cycle, so the scan covers
    # the whole run.  Per protocol 8 constant and 12 harmonic runs (100 in
    # all): the median op then falls inside one kind instead of between two.
    def mild_lambda(a, b):
        # Mild empathy that keeps the game a discoordination game.
        while True:
            lam = ((1.0, rng.uniform(-0.2, 0.2)), (rng.uniform(-0.2, 0.2), 1.0))
            if is_discoordination(*lam_apply(a, b, lam)):
                return lam

    pennies = w.fixture("matching_pennies")
    steps = 300 if tiny else 20000
    ops = []
    for proto in PROTOCOLS:
        for i, schedule in enumerate(("constant",) * 8 + ("harmonic",) * 12):
            if i % 4 == 0:
                game = pennies
            else:
                a, b = game_where(rng, is_discoordination)
                game = w.game(a, b, mild_lambda(a, b))
            ops.append(_simulate_spec(rng, game, proto, schedule, steps))
    return ops


def _query(rng, w: _Writer, kind: str, i: int, tiny: bool, probe: list):
    """The i-th op of its kind.  Categorical choices (game type, Lambda kind,
    protocol) rotate with i, so every pass holds them in fixed proportions.
    A hierarchy walk drawn with weights whose powers may overflow is moved to
    ``probe``, and the slot is drawn again."""
    if kind == "stabilization":
        a, b = game_where(rng, is_discoordination)
        lam = draw_lambda(rng, LAMBDA_KINDS[i % 2])
        return {"kind": kind, "input": w.game(a, b, lam)}
    if kind == "simulate":
        a, b = game_where(rng, is_coordination)
        spec = _simulate_spec(rng, w.game(a, b), PROTOCOLS[i % 3], "constant",
                              300 if tiny else 2000)
        spec["rate"] = rng.uniform(0.05, 0.2)
        return spec
    a, b = int_game(rng) if i % 2 == 0 else real_game(rng)
    if kind == "ess":
        sigma, mu = rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0)
        c1, c2 = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        # V between the two costs keeps the feasible interval non-empty.
        v = min(c1, c2) + rng.uniform(0.0, 1.2) * abs(c1 - c2)
        return {"kind": kind, "input": w.game(a, b), "sigma": sigma, "mu": mu,
                "c1": c1, "c2": c2, "V": v}
    if kind.startswith("hierarchy"):
        k = int(kind.partition(":")[2])
        kmax = KMAX_TINY[k] if tiny else k
        lam_kind = HIERARCHY_LAMBDA_KINDS[(i // 2) % 2]
        while True:
            lam = draw_lambda(rng, lam_kind)
            spec = _hierarchy_spec(w, a, b, lam, lam_kind, kmax)
            if not powers_overflow(lam, a, b, kmax):
                return spec
            probe.append(spec)
    lam_kind = LAMBDA_KINDS[(i // 2) % 3]
    spec = {"kind": kind, "input": w.game(a, b, draw_lambda(rng, lam_kind)),
            "lambda_kind": lam_kind}
    if kind == "classify":
        spec["cell"] = [rng.randint(1, 2), rng.randint(1, 2)]
    elif kind == "field":
        spec["protocol"] = PROTOCOLS[i % len(PROTOCOLS)]
        spec["grid"] = 5 if tiny else 21
    return spec


def _hierarchy_spec(w: _Writer, a, b, lam, lam_kind: str, kmax: int) -> dict:
    return {"kind": "hierarchy", "input": w.game(a, b, lam), "lambda_kind": lam_kind,
            "kmax": kmax}


def _query_mix(rng, w: _Writer, tiny: bool, probe: list):
    ops = [_query(rng, w, kind, i, tiny, probe)
           for kind, count in QUERY_MIX for i in range(QUERY_REPEAT * count)]
    for k in (10, 50, 200):
        for i in range(PROBE_IDEMPOTENT):
            a, b = int_game(rng) if i % 2 == 0 else real_game(rng)
            lam = draw_lambda(rng, "infinitely_consistent")
            probe.append(_hierarchy_spec(w, a, b, lam, "infinitely_consistent",
                                         KMAX_TINY[k] if tiny else k))
    return ops


def generate(
    workload: str, seed: int, inputs_dir: Path, fixtures_dir: Path, tiny: bool = False
) -> tuple[list[dict], list[dict]]:
    """(pass, probe): the ops the worker times, and the known-defect probe,
    ops on inputs of the kinds that meet a known library defect, which the
    worker runs once, untimed.  Only query-mix has a probe."""
    rng = random.Random(f"{workload}/{seed}")
    writer, probe = _Writer(inputs_dir, fixtures_dir), []
    if workload == "query-mix":
        ops = _query_mix(rng, writer, tiny, probe)
    else:
        build = {"region-sweep": _region_sweep, "long-dynamics": _long_dynamics}[workload]
        ops = build(rng, writer, tiny)
    rng.shuffle(ops)
    for i, op in enumerate(ops + probe):
        op["id"] = i
    return ops, probe
