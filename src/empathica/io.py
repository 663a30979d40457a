"""File formats: JSON game descriptions, CSV exports, and SVG phase portraits.

A game file is a JSON object {"A": [[..]], "B": [[..]], "Lambda": [[..]]}
holding the row player's matrix, the column player's matrix, and (optionally)
the empathy weight matrix; numbers are IEEE-754 doubles.  All writers emit
deterministic bytes for identical inputs: floats are serialized with
shortest round-trip formatting and JSON keys are sorted.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

from .dynamics import Trajectory, VectorField
from .equilibria import EquilibriumSet, RegionMap
from .games import EmpathyMatrix, Game2x2
from .hierarchy import HierarchyAnalysis

FIXTURES_ENV = "EMPATHICA_FIXTURES"


class GameFileError(Exception):
    """The input file is missing, malformed, or not a valid game description."""


def fixtures_dir() -> Path:
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def resolve_input(name_or_path: str) -> Path:
    """Interpret an --input value as a path, or as a bundled fixture name."""
    p = Path(name_or_path)
    if p.exists():
        return p
    candidate = fixtures_dir() / (name_or_path if name_or_path.endswith(".json") else name_or_path + ".json")
    if candidate.exists():
        return candidate
    raise GameFileError(f"no such game file or fixture: {name_or_path}")


def _number(value) -> float:
    # float(True) is 1.0, but a JSON boolean is not a number.
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _matrix(obj, key: str) -> list[list[float]]:
    try:
        rows = obj[key]
        out = [[_number(rows[i][j]) for j in range(2)] for i in range(2)]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise GameFileError(f"field {key!r} must be a 2x2 numeric matrix") from exc
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise GameFileError(f"field {key!r} must be a 2x2 numeric matrix")
    return out


def load_game_file(path: str | Path) -> tuple[Game2x2, EmpathyMatrix]:
    """Read a game description; a missing Lambda defaults to the identity."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise GameFileError("game file must be a JSON object")
    a = _matrix(obj, "A")
    b = _matrix(obj, "B")
    lam_rows = _matrix(obj, "Lambda") if "Lambda" in obj else [[1.0, 0.0], [0.0, 1.0]]
    try:
        lam = EmpathyMatrix.from_rows(lam_rows)
        game = Game2x2.from_matrices(a, b)
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc
    return game, lam


def game_file_dict(g: Game2x2, lam: EmpathyMatrix) -> dict:
    return {
        "A": [[g.a11, g.a12], [g.a21, g.a22]],
        "B": [[g.b11, g.b12], [g.b21, g.b22]],
        "Lambda": [[lam.l11, lam.l12], [lam.l21, lam.l22]],
    }


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _f(v: float) -> str:
    return repr(float(v))


def trajectory_csv(traj: Trajectory) -> str:
    lines = ["t,p1,p2"]
    for t, x, y in zip(traj.times, traj.p1, traj.p2):
        lines.append(f"{t},{_f(x)},{_f(y)}")
    return "\n".join(lines) + "\n"


def vector_field_csv(field: VectorField) -> str:
    lines = ["p1,p2,dp1,dp2"]
    for p1, p2, d1, d2 in field.rows:
        lines.append(f"{_f(p1)},{_f(p2)},{_f(d1)},{_f(d2)}")
    return "\n".join(lines) + "\n"


def region_csv(rmap: RegionMap) -> str:
    """Rows in ``rmap.rows()`` order; each axis value is formatted once."""
    l12s = [_f(l12) for l12 in rmap.l12_values]
    lines = ["l12,l21,label"]
    for l21, labels in zip(rmap.l21_values, rmap.labels):
        l21_text = _f(l21)
        lines.extend(f"{l12},{l21_text},{label}" for l12, label in zip(l12s, labels))
    return "\n".join(lines) + "\n"


def hierarchy_csv(analysis: HierarchyAnalysis) -> str:
    lines = ["k,l11_k,l12_k,l21_k,l22_k,eq_signature"]
    for rec in analysis.levels:
        m = rec.lam_k
        lines.append(
            f"{rec.k},{_f(m.l11)},{_f(m.l12)},{_f(m.l21)},{_f(m.l22)},{rec.signature}"
        )
    return "\n".join(lines) + "\n"


def equilibrium_set_dict(eqs: EquilibriumSet) -> dict:
    return {
        "pure": [list(p.cell) for p in eqs.pure],
        "pure_strict": [p.strict for p in eqs.pure],
        "mixed": [[m.x, m.y] for m in eqs.mixed],
        "mixed_continua": [
            [[seg[0].x, seg[0].y], [seg[1].x, seg[1].y]] for seg in eqs.mixed_continua
        ],
        "mixed_degenerate": eqs.mixed_degenerate,
        "berge": [list(c) for c in eqs.berge],
        "pareto_front": [list(c) for c in eqs.pareto_front],
    }


def phase_portrait_svg(
    field: VectorField,
    trajectories: tuple[Trajectory, ...] = (),
    size: int = 600,
    margin: int = 40,
) -> str:
    """Minimal standalone SVG: flow arrows on the unit square plus optional
    trajectory polylines.  Arrow lengths are normalized to the grid spacing."""
    span = size - 2 * margin

    def sx(x: float) -> float:
        return margin + x * span

    def sy(y: float) -> float:
        return size - margin - y * span  # y grows upward

    max_norm = max((max(abs(r[2]), abs(r[3])) for r in field.rows), default=0.0)
    spacing = span / (field.resolution - 1)
    scale = 0.45 * spacing / max_norm if max_norm > 0 else 0.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for p1, p2, d1, d2 in field.rows:
        x0, y0 = sx(p1), sy(p2)
        x1, y1 = x0 + d1 * scale, y0 - d2 * scale
        parts.append(
            f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
            'stroke="#555" stroke-width="1"/>'
        )
        parts.append(f'<circle cx="{x1:.2f}" cy="{y1:.2f}" r="1.4" fill="#555"/>')
    colors = ("#c0392b", "#2b6cc0", "#2c9c4a", "#8e44ad")
    for i, traj in enumerate(trajectories):
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(traj.p1, traj.p2)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{colors[i % len(colors)]}" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
