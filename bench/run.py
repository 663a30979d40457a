"""Seeded end-to-end benchmark of empathica.

    python3 bench/run.py --workload region-sweep --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from ``--seed`` under ``.bench_work/``, times
the set-up of fresh interpreters, runs the workload in one more interpreter
(``worker.py``) and prints a report followed, as the last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics, measured untraced, with
op times on the CPU clock, all times at reference speed (``speed.py``); with
``--trace 1`` they are the per-layer metrics of a traced run.  The full
record of the run (platform, revision, counters, digest, failures by defect)
goes to ``.bench_results/``.  Exits non-zero, without a result, when the run
cannot be made.  ``bench/README.md`` explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11  # fresh interpreters timed per run, after one warm-up
SETUP_SPEED_SAMPLES = 5  # host-speed samples before each of them and after the last
MIN_OPS = 100  # distinct ops per run, so that op_p90_ms has ten beyond it
DEADLINE_S = 170.0  # the whole run, set-up included

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "work/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Library functions with per-layer metrics (calls, busy_share, failed).
LAYER_FUNCTIONS = (
    "equilibria.region_map",
    "equilibria.two_population_equilibria",
    "games.transform",
    "games.classify",
    "ess.constrained_ess",
    "hierarchy.analyze_hierarchy",
    "hierarchy.check_consistency",
    "dynamics.simulate",
    "dynamics.vector_field",
    "dynamics.stabilization_check",
    "io.load_game_file",
    "io.region_csv",
    "io.trajectory_csv",
    "io.canonical_json",
    "io.write_text",
)
LAYER_EXTRAS = {
    "equilibria.region_map.cells": "count",
    "hierarchy.analyze_hierarchy.levels": "count",
    "dynamics.simulate.steps": "count",
    "dynamics.simulate.steps_ratio": "ratio",
    "dynamics.simulate.cycles_detected": "count",
    "dynamics.simulate.converged": "count",
    "io.region_csv.bytes": "B",
    "io.trajectory_csv.bytes": "B",
    "io.write_text.bytes": "B",
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.glue_share": "ratio",
}
PER_LAYER = {
    **{f"{fn}.{stat}": unit for fn in LAYER_FUNCTIONS
       for stat, unit in (("calls", "count"), ("busy_share", "ratio"), ("failed", "count"))},
    **LAYER_EXTRAS,
}
UNIT_OF_WORK = {"region-sweep": "cells", "long-dynamics": "steps", "query-mix": "queries"}


class BenchError(Exception):
    """The run could not be made; reported on stderr with a non-zero exit."""


def worker_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run ``worker.py`` in a fresh interpreter; returns (spawn time, stdout)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return t_spawn, proc.stdout


def setup_phases(t_spawn: float, stamps: dict) -> dict:
    if Path(stamps["empathica"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported empathica from {stamps['empathica']}, not from {SRC}")
    return {
        "interpreter_s": stamps["start"] - t_spawn,
        "import_s": stamps["imported"] - stamps["start"],
        "inputs_s": stamps["loaded"] - stamps["imported"],
        "total_s": stamps["loaded"] - t_spawn,
    }


def measure_setup(work: Path, deadline: float) -> tuple[list[dict], list[float]]:
    """Set-up phases of fresh interpreters, and the chunk times of the speed
    samples taken between them."""
    samples, chunks = [], []
    for i in range(SETUP_SAMPLES + 1):
        chunks += [speed.sample()[1] for _ in range(SETUP_SPEED_SAMPLES)]
        t_spawn, out = spawn([str(work), "--setup-only"], deadline)
        phases = setup_phases(t_spawn, json.loads(out))
        if i:  # the first start compiles bytecode caches; users pay that once
            samples.append(phases)
    chunks += [speed.sample()[1] for _ in range(SETUP_SPEED_SAMPLES)]
    return samples, chunks


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "empathica").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def op_times(records: list[list]) -> dict[int, tuple[float, float, int]]:
    """Each distinct op's median run: op id -> (CPU seconds at reference
    speed, wall seconds, units).  An op repeats in every pass with the same
    inputs and outputs."""
    runs: dict[int, list] = {}
    for op_id, seconds, units, _, ref_seconds in records:
        runs.setdefault(op_id, []).append((ref_seconds, seconds, units))
    return {op_id: (statistics.median(r[0] for r in rs), statistics.median(r[1] for r in rs),
                    rs[0][2]) for op_id, rs in runs.items()}


def timing_metrics(times: list[float], units: int) -> dict:
    return {
        "units_per_s": units / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def end_to_end(setup: list[dict], setup_chunks: list[float],
               ops: dict[int, tuple[float, float, int]], result: dict) -> tuple[dict, dict]:
    """The end-to-end metrics at reference speed, and the timed ones as
    measured on the wall clock, for the report."""
    units = sum(u for _, _, u in ops.values())
    setup_s = statistics.median(s["total_s"] for s in setup)
    metrics = {
        "setup_s": setup_s * speed.CHUNK_REF_S / statistics.median(setup_chunks),
        **timing_metrics([t for t, _, _ in ops.values()], units),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }
    return metrics, {"setup_s": setup_s, **timing_metrics([t for _, t, _ in ops.values()], units)}


def per_layer(setup: list[dict], result: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced run's spans, plus a detail table of
    every traced function: calls, busy (self) seconds, items, failures."""
    spans = [json.loads(line) for line in Path(result["spans"]).read_text().splitlines()]
    child_time: dict[int, float] = {}
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    table: dict[str, dict] = {}
    wall = glue = 0.0
    for sid, parent, _, name, start, end, _ in spans:
        busy = end - start - child_time.get(sid, 0.0)
        if parent is None:
            wall += end - start
            glue += busy
            continue
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += busy
    items, failed = result["layer_items"], result["layer_failed"]
    for name, row in table.items():
        row["busy_share"] = row["busy_s"] / wall
        row["failed"] = failed.get(name, 0)
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        row = table.get(fn, {})
        metrics[f"{fn}.calls"] = row.get("calls", 0)
        metrics[f"{fn}.busy_share"] = row.get("busy_share", 0.0)
        metrics[f"{fn}.failed"] = failed.get(fn, 0)
    steps = items.get("dynamics.simulate.items", 0)
    requested = items.get("dynamics.simulate.requested", 0)
    metrics.update({
        "equilibria.region_map.cells": items.get("equilibria.region_map.items", 0),
        "hierarchy.analyze_hierarchy.levels": items.get("hierarchy.analyze_hierarchy.items", 0),
        "dynamics.simulate.steps": steps,
        "dynamics.simulate.steps_ratio": steps / requested if requested else 0.0,
        "dynamics.simulate.cycles_detected": items.get("dynamics.simulate.cycles_detected", 0),
        "dynamics.simulate.converged": items.get("dynamics.simulate.converged", 0),
        "io.region_csv.bytes": items.get("io.region_csv.bytes", 0),
        "io.trajectory_csv.bytes": items.get("io.trajectory_csv.bytes", 0),
        "io.write_text.bytes": items.get("io.write_text.bytes", 0),
        "setup.interpreter_s": statistics.median(s["interpreter_s"] for s in setup),
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.inputs_s": statistics.median(s["inputs_s"] for s in setup),
        "trace.overhead_ratio": result["timing"]["traced_wall_s"]
        / result["timing"]["untraced_wall_s"],
        "trace.glue_share": glue / wall,
    })
    for name, key, scale, unit in (
        ("equilibria.region_map", "equilibria.region_map.items", 1e6, "us_per_cell"),
        ("dynamics.simulate", "dynamics.simulate.items", 1e9, "ns_per_step"),
    ):
        if items.get(key) and name in table:
            table[name][unit] = table[name]["busy_s"] * scale / items[key]
    return metrics, table


def report(args, result: dict, metrics: dict, wall: dict | None, table: dict | None,
           setup: list[dict]) -> None:
    """Human-readable lines printed before the result line."""
    timing = result["timing"]
    total = result["total_counters"]
    attempted, failed = total.get("ops", 0), total.get("failed", 0)
    print(f"empathica benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"  measured {timing['wall_s']:.2f} s: {attempted} ops, {timing['passes']:.2f} passes "
          f"of {result['pass_counters'].get('ops', 0)}")
    if wall is not None:
        chunks = timing["chunk_s"]
        q = statistics.quantiles(chunks, n=4) if len(chunks) > 1 else chunks * 3
        print(f"  host speed: calibration chunk {statistics.median(chunks) * 1e3:.3f} ms "
              f"(quartiles {q[0] * 1e3:.3f}-{q[2] * 1e3:.3f}, {len(chunks)} samples), "
              f"reference {speed.CHUNK_REF_S * 1e3:.3f} ms")
        work = UNIT_OF_WORK[args.workload]
        n = len(op_times(result["records"]))
        runs = f"median run of each of {n} ops ({timing['passes']:.1f} runs per op)"
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "units_per_s": f"{work} per second, {runs}",
            "op_p50_ms": runs,
            "op_p90_ms": f"{runs}, {n - n * 9 // 10} beyond",
        }
        print(f"  {'metric':<14} {'reference':>14} {'wall clock':>14}  "
              "(reference: at reference speed, ops on the CPU clock)")
        for name, unit in END_TO_END.items():
            print(f"  {name:<14} {metrics[name]:>14.6g} {wall.get(name, metrics[name]):>14.6g} "
                  f"{unit:<7} {notes.get(name, '')}")
    print(f"  {'error_rate':<14} {failed / attempted:>14.6g} {'ratio':<7} "
          f"{failed} failed of {attempted} attempted ops")
    probe = result["probe_counters"]
    if probe:
        print(f"  known-defect probe, untimed: {probe.get('failed', 0)} failed of "
              f"{probe['ops']} ops ({probe.get('failed', 0) / probe['ops']:.4g})")
    for counters in (total, probe):
        for key in sorted(counters):
            if key.startswith("defect."):
                defect = key[len("defect."):]
                print(f"    {defect:<26} {counters[key]:>6}  "
                      f"{result['known_defects'].get(defect, '')}")
    if table is not None:
        print(f"  {'layer':<40} {'calls':>8} {'busy_s':>10} {'share':>7} {'failed':>6}  per item")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["busy_s"]):
            extra = " ".join(f"{k}={v:.4g}" for k, v in row.items()
                             if k in ("us_per_cell", "ns_per_step"))
            print(f"  {name:<40} {row['calls']:>8} {row['busy_s']:>10.4f} "
                  f"{row['busy_share']:>7.3f} {row['failed']:>6}  {extra}")
        print(f"  {'benchmark glue (op span self time)':<40} {'':>8} "
              f"{metrics['trace.glue_share'] * result['timing']['traced_wall_s']:>10.4f} "
              f"{metrics['trace.glue_share']:>7.3f}")
        print(f"  trace.overhead_ratio {metrics['trace.overhead_ratio']:.4f} "
              "(traced op time / untraced op time, same ops)")
    pc = result["pass_counters"]
    print("  first pass: " + " ".join(f"{k}={pc[k]}" for k in sorted(pc)))
    print(f"  output digest (first pass and probe): {result['digest']}")
    for u in result["unexpected"]:
        print(f"  UNEXPECTED op {u['op']} ({u['kind']}) in {u['function']}: {u['reason']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink grids, step counts and depths (for the self-tests)")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "empathica" / "__init__.py").is_file():
        print(f"run.py: no empathica package under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    try:
        work.mkdir(parents=True)
        specs, probe = gen.generate(args.workload, args.seed, work / "inputs",
                                    SRC / "empathica" / "fixtures", args.tiny)
        (work / "manifest.json").write_text(
            json.dumps({"workload": args.workload, "ops": specs, "probe": probe}))
        setup, setup_chunks = measure_setup(work, deadline)
        if len(specs) < MIN_OPS:
            raise BenchError(f"a pass has {len(specs)} ops, fewer than {MIN_OPS}")
        worker_args = [str(work), "--seconds", str(args.seconds),
                       "--result", str(work / "result.json")]
        if args.trace:
            worker_args += ["--trace", "--spans", str(results / f"{tag}-spans.jsonl")]
        t_spawn, _ = spawn(worker_args, deadline)
        result = json.loads((work / "result.json").read_text())
        workload_setup = setup_phases(t_spawn, result["stamps"])
    except (BenchError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        (metrics, table), wall = per_layer(setup, result), None
        units = PER_LAYER
    else:
        (metrics, wall), table = (
            end_to_end(setup, setup_chunks, op_times(result["records"]), result), None)
        units = END_TO_END
    total = result["total_counters"]
    line = {
        "correct": not result["unexpected"],
        "attempted": total.get("ops", 0),
        "failed": total.get("failed", 0),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "setup_samples": setup,
        "setup_chunk_s": setup_chunks,
        "workload_setup": workload_setup,
        "timing": result["timing"],
        "pass_counters": result["pass_counters"],
        "total_counters": total,
        "probe_counters": result["probe_counters"],
        "digest": result["digest"],
        "op_samples": len(op_times(result["records"])),
        "wall_clock": wall,
        "known_defects": result["known_defects"],
        "unexpected": result["unexpected"],
        "layers": table,
        "result": line,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(args, result, metrics, wall, table, setup)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
