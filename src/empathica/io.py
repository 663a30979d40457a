"""File formats: JSON game descriptions, CSV exports, and SVG phase portraits.

A game file is a JSON object {"A": [[..]], "B": [[..]], "Lambda": [[..]]}
holding the row player's matrix, the column player's matrix, and (optionally)
the empathy weight matrix; numbers are IEEE-754 doubles.  A game file is JSON
in UTF-8, UTF-16 or UTF-32, and every output is UTF-8, whatever the locale.
All writers emit deterministic bytes for identical inputs: floats are
serialized with shortest round-trip formatting and JSON keys are sorted.
JSON reports are written by this module's own emitter, ``canonical_json``,
byte-identical to ``json.dumps(obj, indent=2, sort_keys=True,
allow_nan=False)`` plus a newline; their keys must be str.
"""
from __future__ import annotations

import itertools
import json
import operator
import os
from pathlib import Path

from .games import EmpathyMatrix, Game2x2

# The other layers only name types in annotations, so io imports none of them
# at run time.  A plain constant stands in for typing.TYPE_CHECKING, which type
# checkers read the same way, so that io loads no module for it.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .dynamics import Trajectory, VectorField
    from .equilibria import EquilibriumSet, RegionMap
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
    # os.path.exists is False for a path that cannot be looked up at all (a
    # name too long, say), where Path.exists raises before Python 3.12.
    p = Path(name_or_path)
    if os.path.exists(p):
        return p
    candidate = fixtures_dir() / (name_or_path if name_or_path.endswith(".json") else name_or_path + ".json")
    if os.path.exists(candidate):
        return candidate
    raise GameFileError(f"no such game file or fixture: {name_or_path}")


_NUMBER = (int, float)


def _matrix(obj, key: str) -> tuple[float, float, float, float]:
    """The entries of ``obj[key]``, a 2x2 matrix of JSON numbers, row by row."""
    try:
        (a, b), (c, d) = obj[key]
        # A JSON number only: float() also takes a numeric string or a boolean.
        if not (type(a) in _NUMBER and type(b) in _NUMBER and type(c) in _NUMBER
                and type(d) in _NUMBER):
            raise TypeError(f"expected numbers, got {[[a, b], [c, d]]!r}")
        return float(a), float(b), float(c), float(d)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GameFileError(f"field {key!r} must be a 2x2 numeric matrix") from exc


def load_game_file(path: str | Path) -> tuple[Game2x2, EmpathyMatrix]:
    """Read a game description; a missing Lambda defaults to the identity."""
    try:
        with open(path, "rb", buffering=0) as f:
            data = f.readall()
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc
    try:
        # json.loads detects UTF-8, UTF-16 and UTF-32 from the bytes.
        obj = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GameFileError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise GameFileError("game file must be a JSON object")
    a = _matrix(obj, "A")
    b = _matrix(obj, "B")
    lam_entries = _matrix(obj, "Lambda") if "Lambda" in obj else (1.0, 0.0, 0.0, 1.0)
    try:
        lam = EmpathyMatrix(*lam_entries)
        game = Game2x2(*a, *b)
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc
    return game, lam


def game_file_dict(g: Game2x2, lam: EmpathyMatrix) -> dict:
    return {
        "A": [[g.a11, g.a12], [g.a21, g.a22]],
        "B": [[g.b11, g.b12], [g.b21, g.b22]],
        "Lambda": [[lam.l11, lam.l12], [lam.l21, lam.l22]],
    }


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline.

    The text is ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``
    plus a newline, written directly: json's indented form runs its
    pure-Python encoder.  Values are tested in json's order (str, None, True,
    False, int, float, list or tuple, dict) and anything else raises
    TypeError.  Every key must be a str, else TypeError.  A float that is not
    finite has no JSON form, so it raises ValueError instead of being written
    as ``Infinity`` or ``NaN``.
    """
    out: list[str] = []
    _emit(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(o, out: list[str], newline: str) -> None:
    """Append the JSON text of ``o`` to ``out``; ``newline`` is the line
    break and indent of the line ``o`` starts on."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if not -_INF < o < _INF:
            raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
        out.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _emit(v, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        for k in o:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + _encode_str(k) + ": ")
            _emit(o[k], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, replacing what the file held.

    The text is encoded before the file is opened, so a text that cannot be
    encoded leaves the file as it was.  The file is opened, written and
    closed on a raw descriptor; its parent directories are made only when
    the open finds one missing.
    """
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def trajectory_csv(traj: Trajectory) -> str:
    lines = ["t,p1,p2"]
    lines += [
        f"{t},{x!r},{y!r}"
        for t, x, y in zip(range(len(traj)), map(float, traj.p1), map(float, traj.p2))
    ]
    return "\n".join(lines) + "\n"


class _Reprs(dict):
    """``repr`` of each float, formatted on first lookup.  Two equal nonzero
    floats have the same bits, so one text serves both; 0.0 == -0.0, so a
    zero is formatted at every lookup and keeps its sign."""

    def __missing__(self, f: float) -> str:
        text = repr(f)
        if f:
            self[f] = text
        return text


def vector_field_csv(field: VectorField) -> str:
    """Rows in ``field.rows`` order, every entry as its float's ``repr``.

    A grid's coordinate columns repeat a few values, so each distinct
    coordinate is formatted once (``_Reprs``); the flow columns are
    formatted per row.
    """
    coord = _Reprs()
    lines = ["p1,p2,dp1,dp2"]
    lines += [
        f"{coord[float(p1)]},{coord[float(p2)]},{float(d1)!r},{float(d2)!r}"
        for p1, p2, d1, d2 in field.rows
    ]
    return "\n".join(lines) + "\n"


def region_csv(rmap: RegionMap) -> str:
    """Rows in ``rmap.rows()`` order; each axis value is formatted once, and
    a grid that both axes share (``l21_values is l12_values``, as
    ``region_map`` gives for equal ranges) is formatted once for both.

    The lines of one map row differ from those of another only in their
    l21 text, so each run of equal label rows is laid out once, as the
    pieces ``l12_0``, ``label_0 + "\\n" + l12_1``, ..., ``label_-1``, and
    every map row of the run is those pieces joined by its ``,l21,``.
    """
    l12s = [repr(float(l12)) for l12 in rmap.l12_values]
    # Not an equality test: 0.0 == -0.0, but the two have different texts.
    if rmap.l21_values is rmap.l12_values:
        l21s = iter(l12s)
    else:
        l21s = (repr(float(l21)) for l21 in rmap.l21_values)
    heads = ["\n" + l12 for l12 in l12s[1:]]
    lines = ["l12,l21,label"]
    for labels, run in itertools.groupby(rmap.labels):
        pieces = [l12s[0], *map(operator.add, labels, heads), labels[-1]]
        # ``run`` comes first, so that its end takes no l21 from the next run.
        lines += [f",{l21},".join(pieces) for _, l21 in zip(run, l21s)]
    lines.append("")
    return "\n".join(lines)


def hierarchy_csv(analysis: HierarchyAnalysis) -> str:
    """One row per level, from the analysis' power entries and signatures."""
    lines = ["k,l11_k,l12_k,l21_k,l22_k,eq_signature"]
    lines += [
        f"{k},{l11!r},{l12!r},{l21!r},{l22!r},{sig}"
        for k, (l11, l12, l21, l22), sig in zip(
            itertools.count(1), analysis.powers, analysis.signatures
        )
    ]
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


_SVG_SIZE = 600  # portrait width and height
_SVG_MARGIN = 40  # blank border around the unit square


def phase_portrait_svg(field: VectorField, trajectories: tuple[Trajectory, ...] = ()) -> str:
    """Minimal standalone SVG: flow arrows on the unit square plus optional
    trajectory polylines.  Arrow lengths are normalized to the grid spacing,
    so ``field.resolution`` must be at least 2, as ``vector_field`` requires."""
    if field.resolution < 2:
        raise ValueError("resolution must be at least 2")
    span = _SVG_SIZE - 2 * _SVG_MARGIN

    def sx(x: float) -> float:
        return _SVG_MARGIN + x * span

    def sy(y: float) -> float:
        return _SVG_SIZE - _SVG_MARGIN - y * span  # y grows upward

    max_norm = max((max(abs(r[2]), abs(r[3])) for r in field.rows), default=0.0)
    spacing = span / (field.resolution - 1)
    scale = 0.45 * spacing / max_norm if max_norm > 0 else 0.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
        f'<rect x="{_SVG_MARGIN}" y="{_SVG_MARGIN}" width="{span}" height="{span}" '
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
