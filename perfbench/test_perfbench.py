"""Tests of the benchmark itself, on tiny inputs (--smoke).

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts the benchmark derives from the program's work; they must not depend
# on timing, so a traced run repeats them exactly at one seed
EXACT_COUNTS = ("mis.nodes_total", "threshold.decisions_per_trial",
                "threshold.searches", "removal.center_set_candidates")


def run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)


def result(root: Path, workload: str, trace: int) -> dict:
    proc = run(root, workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(ROOT, workload, 1) for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "sparse-ekr":
        assert first["metrics"]["mis.nodes_total"]["value"] > 0
        assert first["metrics"]["threshold.decisions_per_trial"]["value"] == 3
    if workload == "removal-report":
        assert first["metrics"]["removal.center_set_candidates"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    res = result(ROOT, "superstar-census", 0)
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
