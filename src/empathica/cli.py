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
Each command imports its layer when it runs, so a run loads only ``io``,
``games`` and that layer with what it imports.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from . import io
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
    # argparse prints an ArgumentTypeError's own text; for any other error
    # it prints this function's name.
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    try:
        return (float(lo), float(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"range ends must be numbers, got {text!r}") from None


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
    from . import equilibria

    game, lam = _load(args)
    eqs = equilibria.two_population_equilibria(game, lam)
    report = io.equilibrium_set_dict(eqs)
    report["label"] = equilibria.outcome_label(eqs)
    _emit_json(args, report)
    return 0


def cmd_ess(args) -> int:
    from . import ess

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
    from . import dynamics

    game, lam = _load(args)
    played = transform(game, lam)
    proto = dynamics.RevisionProtocol.parse(args.protocol)
    sched = dynamics.LearningSchedule(args.schedule, args.rate)
    if args.start is not None:
        s0 = dynamics.PopulationState(args.start[0], args.start[1])
    else:
        import random

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
    from . import dynamics

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
    from . import equilibria

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
    from . import hierarchy

    game, lam = _load(args)
    if args.kmax < 2:
        raise ValueError("k_max must be at least 2")
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


_DIGITS = r"\d(?:_?\d)*"
# A negative number in any of float's decimal forms: -1, -0.5, -.5, -1.,
# -1e-3, -2E-1, -1_000.  -inf and -nan stay option strings.
_NEGATIVE_NUMBER = re.compile(
    rf"-(?:{_DIGITS}\.?(?:{_DIGITS})?|\.{_DIGITS})(?:[eE][+-]?{_DIGITS})?\Z"
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the subparsers it makes, that read a negative
    number in any decimal form as a value.  Before Python 3.14, argparse's
    own pattern takes ``-1e-3`` for an option string, so ``--lambda 1 -1e-3
    0 1`` would find one weight too few."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="empathica",
        description="Analyze empathy-weighted 2x2 bimatrix games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_lambda=True, out="JSON report path (default: stdout)"):
        p.add_argument("--input", required=True, help="game JSON file or bundled fixture name")
        p.add_argument("--out", default=None, help=out)
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
    p.add_argument("--tie-tol", type=float, default=0.0,
                   help="best-response comparisons within this of zero are ties and make the "
                   "game degenerate; finite and nonnegative (default: %(default)s)")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("solve", help="pure/mixed Nash, Berge, and Pareto analysis")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("ess", help="constrained ESS of the homogeneous-population game")
    common(p, needs_lambda=False)
    p.add_argument("--sigma", type=float, required=True,
                   help="each player's weight on its own payoff; finite (required)")
    p.add_argument("--mu", type=float, required=True,
                   help="each player's weight on the opponent's payoff; finite (required)")
    p.add_argument("--c1", type=float, default=None,
                   help="coefficient c1 of the constraint c1*m + c2*(1-m) <= V on the mass m "
                   "on action 1; --c1, --c2 and --V are given together, with c1 != c2 "
                   "(default: none, every strategy is feasible)")
    p.add_argument("--c2", type=float, default=None,
                   help="coefficient c2 of the constraint (see --c1)")
    p.add_argument("--V", type=float, default=None, help="bound V of the constraint (see --c1)")
    p.set_defaults(fn=cmd_ess)

    def protocol(p):
        p.add_argument(
            "--protocol", default="replicator",
            help="revision protocol: a kind (replicator, bnn, smith or imitation), or a "
            "weighted mix hybrid:kind=w,... such as hybrid:smith=0.5,bnn=0.5, where a "
            "kind without =w weighs 1 (default: %(default)s)",
        )

    p = sub.add_parser("simulate", help="run the evolutionary dynamics")
    common(p, out="trajectory CSV path (default: trajectory.csv); the diagnostics JSON "
           "and the --svg portrait take its stem")
    protocol(p)
    p.add_argument("--steps", type=int, default=10000,
                   help="updates to run at most; a run that converges stops early "
                   "(default: %(default)s)")
    p.add_argument("--rate", type=float, default=0.05,
                   help="learning rate; each step caps it at 1 / (largest switch rate), "
                   "so the state stays in [0, 1]^2 (default: %(default)s)")
    p.add_argument("--schedule", choices=("constant", "harmonic"), default="constant",
                   help="constant: --rate at every step; harmonic: --rate / (t + 1) at "
                   "step t (default: %(default)s)")
    p.add_argument("--start", nargs=2, type=float, default=None, metavar=("P1", "P2"),
                   help="each population's starting mass on action 1 (default: drawn "
                   "uniformly from [0.05, 0.95] with --seed)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the drawn start when --start is not given "
                   "(default: %(default)s)")
    p.add_argument("--svg", action="store_true",
                   help="also write a phase portrait with the trajectory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("field", help="vector field of the dynamics")
    common(p, out="field CSV path (default: field.csv); the --svg portrait takes its stem")
    protocol(p)
    p.add_argument("--grid", type=int, default=21,
                   help="grid values per axis, at least 2 (default: %(default)s)")
    p.add_argument("--svg", action="store_true",
                   help="also write a phase portrait")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("sweep", help="region map over the cross-empathy weights")
    common(p, needs_lambda=False, out="region CSV path (default: region.csv)")
    for weight in ("l12", "l21"):
        p.add_argument(f"--range-{weight}", type=_parse_range, default=(-1.0, 2.0),
                       metavar="LO:HI",
                       help=f"finite range of the cross weight {weight} swept, with lo < hi; "
                       f"give a negative lo as --range-{weight}=-1:2 (default: -1:2)")
    p.add_argument("--grid", type=int, default=60,
                   help="grid values per axis, at least 2 (default: %(default)s)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("hierarchy", help="multi-level consistency analysis")
    common(p, out="per-level CSV path (default: hierarchy.csv); the verdict JSON takes "
           "its stem")
    p.add_argument("--kmax", type=int, default=10,
                   help="deepest level k of the powers of the empathy matrix checked, at "
                   "least 2 (default: %(default)s)")
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
