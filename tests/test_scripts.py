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
    assert set(listed.values()) == {"NOT RUN"}
    script = runpy.run_path(str(ROOT / "scripts" / "line_coverage.py"))
    cli = ROOT / "src" / "empathica" / "cli.py"
    for n in script["executable_lines"](cli):
        assert listed.pop(f"src/empathica/cli.py:{n}") == "NOT RUN"
    source, first = inspect.getsourcelines(prisoners_dilemma)
    ran = {f"src/empathica/games.py:{n}" for n in range(first, first + len(source))}
    assert ran.isdisjoint(listed)
    assert f"{len(listed) + len(script['executable_lines'](cli))} lines never ran" in proc.stdout


def test_line_coverage_exempts_only_type_checking_bodies(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import typing\n"
        "TYPE_CHECKING = False\n"
        "if TYPE_CHECKING:\n"
        "    import json\n"
        "    import os\n"
        "else:\n"
        "    json = None\n"
        "if typing.TYPE_CHECKING:\n"
        "    from pathlib import (\n"
        "        Path,\n"
        "    )\n"
        "if json:\n"
        "    import sys\n"
    )
    script = runpy.run_path(str(ROOT / "scripts" / "line_coverage.py"))
    assert sorted(script["executable_lines"](source)) == [1, 2, 3, 7, 8, 12, 13]
    # ``io``'s own annotation-only imports are the package's only exemption.
    io_source = ROOT / "src" / "empathica" / "io.py"
    text = io_source.read_text(encoding="utf-8").splitlines()
    start = text.index("if TYPE_CHECKING:") + 1
    imports = {start + 1, start + 2, start + 3}
    assert all(text[n - 1].startswith("    from .") for n in imports)
    assert imports.isdisjoint(script["executable_lines"](io_source))
    assert start in script["executable_lines"](io_source)
