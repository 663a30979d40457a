import os
import subprocess
import sys
from pathlib import Path

from empathica import prisoners_dilemma, region_map
from empathica.io import region_csv

ROOT = Path(__file__).resolve().parents[1]


def test_pd_region_sweep_writes_the_library_csv(tmp_path):
    out = tmp_path / "pd_region.csv"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pd_region_sweep.py"),
         "--grid", "12", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == region_csv(region_map(prisoners_dilemma(), (-1, 2), (-1, 2), 12))
