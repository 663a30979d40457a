import inspect
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from empathica import (
    EmpathyMatrix,
    LearningSchedule,
    PopulationState,
    RevisionProtocol,
    anti_coordination_game,
    coordination_game,
    matching_pennies,
    prisoners_dilemma,
    region_map,
    simulate,
    transform,
    vector_field,
)
from empathica.io import phase_portrait_svg, region_csv, trajectory_csv

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_pd_region_sweep_writes_the_library_csv(tmp_path):
    out = tmp_path / "pd_region.csv"
    run_script("pd_region_sweep.py", "--grid", 12, "--out", out)
    assert out.read_text() == region_csv(region_map(prisoners_dilemma(), (-1, 2), (-1, 2), 12))


def test_mp_cycling_demo_writes_the_library_trajectories(tmp_path):
    run_script("mp_cycling_demo.py", "--steps", 3000, "--outdir", tmp_path)
    mp = matching_pennies()
    proto = RevisionProtocol.replicator()
    cycling = simulate(PopulationState(0.4, 0.6), proto, LearningSchedule.constant(0.01),
                       mp, steps=3000)
    settled = simulate(PopulationState(0.55, 0.65), proto, LearningSchedule.constant(0.02),
                       transform(mp, EmpathyMatrix(1.0, 0.0001, 0.0001, -1.0)), steps=3000)
    assert (tmp_path / "mp_cycling.csv").read_bytes() == trajectory_csv(cycling).encode()
    assert (tmp_path / "mp_stabilized.csv").read_bytes() == trajectory_csv(settled).encode()


def test_phase_portraits_write_the_library_svgs(tmp_path):
    run_script("phase_portraits.py", "--grid", 5, "--trajectories", 2, "--steps", 300,
               "--outdir", tmp_path)
    proto = RevisionProtocol.replicator()
    sched = LearningSchedule.constant(0.02)
    rng = random.Random(7)
    games = {
        "coordination": coordination_game(),
        "anti_coordination": anti_coordination_game(),
        "pd": prisoners_dilemma(),
        "matching_pennies": matching_pennies(),
    }
    for name, g in games.items():
        trajs = tuple(
            simulate(PopulationState(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)),
                     proto, sched, g, steps=300, detect_cycles=False)
            for _ in range(2)
        )
        svg = phase_portrait_svg(vector_field(proto, g, resolution=5), trajs)
        assert (tmp_path / f"portrait_{name}.svg").read_bytes() == svg.encode()


def test_line_coverage_lists_every_line_no_test_runs(tmp_path):
    # One test that builds the prisoner's dilemma: every line of that
    # function runs, its ``def`` line too, and cli is never imported.
    test = tmp_path / "test_one.py"
    test.write_text("from empathica import prisoners_dilemma\n\n\n"
                    "def test_pd():\n    prisoners_dilemma()\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "line_coverage.py"), "-q", "-p", "no:cacheprovider", str(test)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    listed = dict(
        line.split(": ", 1) for line in proc.stdout.splitlines()
        if line.startswith("src/empathica/")
    )
    script = runpy.run_path(str(ROOT / "scripts" / "line_coverage.py"))
    cli = ROOT / "src" / "empathica" / "cli.py"
    for n in script["executable_lines"](cli):
        assert listed.pop(f"src/empathica/cli.py:{n}") == "NOT RUN"
    source, first = inspect.getsourcelines(prisoners_dilemma)
    ran = {f"src/empathica/games.py:{n}" for n in range(first, first + len(source))}
    assert ran.isdisjoint(listed)
    for n in (27, 28, 29):
        assert listed[f"src/empathica/io.py:{n}"].startswith("allowed: annotation-only import")


def test_line_coverage_wants_a_reason_for_each_allowed_line(tmp_path):
    allowlist = tmp_path / "allow.txt"
    allowlist.write_text("# a comment\nio.py:27  # no reason\n")
    script = runpy.run_path(str(ROOT / "scripts" / "line_coverage.py"))
    with pytest.raises(SystemExit) as exc:
        script["read_allowlist"](allowlist)
    assert str(exc.value) == f"{allowlist}:2: want 'FILE:LINE reason', got 'io.py:27'"
