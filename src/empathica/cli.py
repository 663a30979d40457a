"""Command-line interface.

Commands: transform, classify, solve, ess, simulate, field, sweep, hierarchy.
Exit codes: 0 on success, 1 when the input file cannot be parsed, 2 when a
precondition is violated (bad numeric options, empty feasible set, ...) or an
output cannot be written.
JSON reports go to --out or stdout; grid and trajectory outputs are CSV, with
sibling files (diagnostics JSON, optional SVG) derived from the --out stem.
An --out whose suffix is a sibling's (``simulate --out r.json``) is exit 2,
with nothing written.  A command that cannot write one of its files removes
those it already wrote.
"""
from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

from . import dynamics, equilibria, ess, hierarchy, io
from .games import EmpathyMatrix, classify, transform


def _lambda_from(args, file_lam: EmpathyMatrix) -> EmpathyMatrix:
    if getattr(args, "lam", None) is not None:
        l11, l12, l21, l22 = args.lam
        return EmpathyMatrix(l11, l12, l21, l22)
    return file_lam


def _load(args):
    path = io.resolve_input(args.input)
    game, file_lam = io.load_game_file(path)
    return game, _lambda_from(args, file_lam)


def _write_outputs(outputs: list[tuple[Path, str]]) -> None:
    """Write a command's formed (path, text) outputs in order; when one cannot
    be written, remove those already written, so no partial output is left.

    Raises ValueError, writing nothing, when two outputs share a path (an
    --out that already carries a sibling's suffix), since the later would
    overwrite the earlier.
    """
    paths = [path for path, _ in outputs]
    for k, path in enumerate(paths):
        if path in paths[:k]:
            raise ValueError(f"two outputs would be written to {path}; give --out another suffix")
    for k, (path, text) in enumerate(outputs):
        try:
            io.write_text(path, text)
        except OSError:
            for written, _ in outputs[:k]:
                written.unlink(missing_ok=True)
            raise


def _emit_json(args, obj) -> None:
    text = io.canonical_json(obj)
    if args.out:
        io.write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"range must look like lo:hi, got {text!r}")
    return (float(lo), float(hi))


def cmd_transform(args) -> int:
    game, lam = _load(args)
    out = transform(game, lam)
    _emit_json(args, io.game_file_dict(out, EmpathyMatrix.identity()))
    return 0


def cmd_classify(args) -> int:
    game, lam = _load(args)
    played = transform(game, lam)
    cls = classify(played, tie_tol=args.tie_tol)
    _emit_json(
        args,
        {
            "class": cls.kind.value,
            "dominant_action_p1": cls.dominant_action_p1,
            "dominant_action_p2": cls.dominant_action_p2,
            "degenerate_ties": list(cls.degenerate_ties),
        },
    )
    return 0


def cmd_solve(args) -> int:
    game, lam = _load(args)
    eqs = equilibria.two_population_equilibria(game, lam)
    report = io.equilibrium_set_dict(eqs)
    report["label"] = equilibria.outcome_label(eqs)
    _emit_json(args, report)
    return 0


def cmd_ess(args) -> int:
    game, _ = _load(args)
    a_lam = ess.homogeneous_payoff(game, args.sigma, args.mu)
    red = ess.diagonal_reduction(a_lam)
    given = [v is not None for v in (args.c1, args.c2, args.V)]
    if any(given) and not all(given):
        raise ValueError("--c1, --c2 and --V must be given together")
    con = (
        ess.Constraint(args.c1, args.c2, args.V)
        if all(given)
        else ess.Constraint.unconstrained()
    )
    if con.feasible_interval is None:
        raise ValueError("the constraint makes every strategy infeasible")
    result = ess.constrained_ess(red, con)
    sym = ess.symmetric_equilibria(red)
    _emit_json(
        args,
        {
            "payoff_matrix": [list(row) for row in a_lam],
            "beta1": red.beta1,
            "beta2": red.beta2,
            "constraint_type": con.ctype.value,
            # An alpha past the float range has no JSON form; the feasible
            # interval still holds the answer.
            "alpha": con.alpha if math.isfinite(con.alpha) else None,
            "feasible": list(con.feasible_interval),
            "ess_points": [p.m for p in result.points],
            "ess_kinds": [p.kind.value for p in result.points],
            "exists": result.exists,
            "degenerate": result.degenerate,
            "symmetric_equilibria": list(sym.points),
            "symmetric_degenerate": sym.degenerate,
        },
    )
    return 0


def _out_path(args, default_name: str) -> Path:
    return Path(args.out) if args.out else Path(default_name)


def cmd_simulate(args) -> int:
    game, lam = _load(args)
    played = transform(game, lam)
    proto = dynamics.RevisionProtocol.parse(args.protocol)
    sched = dynamics.LearningSchedule(args.schedule, args.rate)
    if args.start is not None:
        s0 = dynamics.PopulationState(args.start[0], args.start[1])
    else:
        rng = random.Random(args.seed)
        s0 = dynamics.PopulationState(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
    traj = dynamics.simulate(s0, proto, sched, played, steps=args.steps)
    out = _out_path(args, "trajectory.csv")
    diag = traj.diagnostics
    diag_obj = {
        "converged": diag.converged,
        "limit_point": list(diag.limit_point.as_tuple()) if diag.limit_point else None,
        "cycle_detected": diag.cycle_detected,
        "cycle_period_estimate": diag.cycle_period_estimate,
        "steps_run": len(traj) - 1,
        "start": [s0.p1, s0.p2],
        "final": [traj.p1[-1], traj.p2[-1]],
    }
    outputs = [
        (out, io.trajectory_csv(traj)),
        (out.with_suffix(".json"), io.canonical_json(diag_obj)),
    ]
    if args.svg:
        field = dynamics.vector_field(proto, played, resolution=21)
        outputs.append((out.with_suffix(".svg"), io.phase_portrait_svg(field, (traj,))))
    _write_outputs(outputs)
    return 0


def cmd_field(args) -> int:
    game, lam = _load(args)
    played = transform(game, lam)
    proto = dynamics.RevisionProtocol.parse(args.protocol)
    field = dynamics.vector_field(proto, played, resolution=args.grid)
    out = _out_path(args, "field.csv")
    outputs = [(out, io.vector_field_csv(field))]
    if args.svg:
        outputs.append((out.with_suffix(".svg"), io.phase_portrait_svg(field)))
    _write_outputs(outputs)
    return 0


def cmd_sweep(args) -> int:
    game, _ = _load(args)
    rmap = equilibria.region_map(
        game,
        l12_range=args.range_l12,
        l21_range=args.range_l21,
        resolution=args.grid,
    )
    out = _out_path(args, "region.csv")
    io.write_text(out, io.region_csv(rmap))
    return 0


def cmd_hierarchy(args) -> int:
    game, lam = _load(args)
    analysis = hierarchy.analyze_hierarchy(game, lam, k_max=args.kmax)
    verdict = hierarchy.check_consistency(lam, k_max=args.kmax)
    out = _out_path(args, "hierarchy.csv")
    spectral = analysis.spectral
    verdict_obj = {
        "verdict": verdict.label,
        "consistent_up_to_k": verdict.consistent_up_to_k,
        "first_bad_k": verdict.first_bad_k,
        "witness_index": verdict.witness_index,
        "witness_signatures": list(verdict.witness_signatures or ()) or None,
        "levels_checked": verdict.levels_checked,
        "guard_hit": verdict.guard_hit,
        "structurally_consistent": verdict.structurally_consistent,
        "epsilons": list(verdict.epsilons) if verdict.epsilons else None,
        "spectral": {
            "eigenvalues": [[e.real, e.imag] for e in spectral.eigenvalues],
            "rho": spectral.rho,
            "limit": spectral.limit_kind.value,
        },
        "game_consistent_up_to_k": analysis.consistent_up_to_k,
    }
    _write_outputs([
        (out, io.hierarchy_csv(analysis)),
        (out.with_suffix(".json"), io.canonical_json(verdict_obj)),
    ])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="empathica",
        description="Analyze empathy-weighted 2x2 bimatrix games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_lambda=True):
        p.add_argument("--input", required=True, help="game JSON file or bundled fixture name")
        p.add_argument("--out", default=None, help="output path (stdout for JSON reports)")
        if needs_lambda:
            p.add_argument(
                "--lambda", dest="lam", nargs=4, type=float, default=None,
                metavar=("L11", "L12", "L21", "L22"),
                help="empathy weights overriding the input file",
            )

    p = sub.add_parser("transform", help="write the empathy-transformed game")
    common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("classify", help="classify the (transformed) game")
    common(p)
    p.add_argument("--tie-tol", type=float, default=0.0)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("solve", help="pure/mixed Nash, Berge, and Pareto analysis")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("ess", help="constrained ESS of the homogeneous-population game")
    common(p, needs_lambda=False)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--V", type=float, default=None)
    p.set_defaults(fn=cmd_ess)

    p = sub.add_parser("simulate", help="run the evolutionary dynamics")
    common(p)
    p.add_argument("--protocol", default="replicator")
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--schedule", choices=("constant", "harmonic"), default="constant")
    p.add_argument("--start", nargs=2, type=float, default=None, metavar=("P1", "P2"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("field", help="vector field of the dynamics")
    common(p)
    p.add_argument("--protocol", default="replicator")
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("sweep", help="region map over the cross-empathy weights")
    common(p, needs_lambda=False)
    p.add_argument("--range-l12", type=_parse_range, default=(-1.0, 2.0))
    p.add_argument("--range-l21", type=_parse_range, default=(-1.0, 2.0))
    p.add_argument("--grid", type=int, default=60)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("hierarchy", help="multi-level consistency analysis")
    common(p)
    p.add_argument("--kmax", type=int, default=10)
    p.set_defaults(fn=cmd_hierarchy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except io.GameFileError as exc:
        print(f"empathica: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"empathica: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Input files are read by io.load_game_file, which reports its own
        # errors, so an OSError here comes from writing an output.
        print(f"empathica: cannot write: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
