"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

Each workload runs at a tiny size (``--tiny``, one second) twice with one
seed.  Every metric BENCHMARK.json names must be printed with its unit, and
the first-pass counters and the output digest must repeat exactly.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int, seed: int = 7):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload: str, trace: int, seed: int = 7) -> dict:
    path = ROOT / ".bench_results" / f"{workload}-seed{seed}-trace{trace}-tiny.json"
    return json.loads(path.read_text())


def assert_metrics(line: dict, declared: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    for m in line["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_counters_repeat(workload):
    runs = []
    for _ in range(2):
        line = result_line(bench(ROOT, workload, 0))
        assert_metrics(line, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in line["metrics"].values())
        runs.append(record(workload, 0))
    assert runs[0]["pass_counters"] == runs[1]["pass_counters"]
    assert runs[0]["probe_counters"] == runs[1]["probe_counters"]
    assert runs[0]["digest"] == runs[1]["digest"]
    assert runs[0]["pass_counters"]["ops"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    result_line(bench(ROOT, workload, 0))
    line = result_line(bench(ROOT, workload, 1))
    assert_metrics(line, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    shares = [v for name, v in metrics.items() if name.endswith(".busy_share")]
    assert sum(shares) + metrics["trace.glue_share"] <= 1.0 + 1e-9
    assert record(workload, 1)["digest"] == record(workload, 0)["digest"]


def test_known_defect_probe_runs_apart_from_the_pass():
    line = result_line(bench(ROOT, "query-mix", 0))
    rec = record("query-mix", 0)
    assert rec["probe_counters"]["ops"] >= 30
    assert line["attempted"] == rec["total_counters"]["ops"]
    assert "defect.unexpected" not in rec["probe_counters"]


def test_other_seed_changes_the_inputs():
    result_line(bench(ROOT, "query-mix", 0, seed=8))
    assert record("query-mix", 0, seed=8)["digest"] != record("query-mix", 0)["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
