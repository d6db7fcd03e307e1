"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs every workload at its smallest size, untraced and traced, and
checks that each metric declared in ``BENCHMARK.json`` is emitted with
its unit; that one injected failing sweep cell raises ``failed_frac``;
and that the command prints no result when the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench" / "selftest"


@pytest.fixture(autouse=True)
def _pinned_env(monkeypatch):
    for name in run.PINNED_ENV:
        monkeypatch.delenv(name, raising=False)


def _smoke(workload: str, trace: bool, **kwargs) -> workloads.Outcome:
    return workloads.run_workload(
        workload, seed=0, seconds=0, trace=trace, size_name="smoke",
        work_dir=WORK, **kwargs,
    )


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_declared_metrics_match_the_code():
    assert workloads.END_TO_END == _declared("end_to_end")
    assert workloads.PER_LAYER == _declared("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    outcome = _smoke(workload, trace=False)
    assert outcome.failed == 0, outcome.problems
    assert set(outcome.metrics) == set(workloads.END_TO_END)
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    outcome = _smoke(workload, trace=True)
    assert outcome.failed == 0, outcome.problems
    metrics = outcome.metrics
    assert set(metrics) == set(workloads.PER_LAYER)
    assert metrics["failed_frac"] == 0
    assert 0 < metrics["trace.self_sum_s"] <= metrics["trace.wall_s"] + 1e-6


def test_injected_failing_cell_raises_failed_frac(monkeypatch):
    monkeypatch.setenv("REPRO_DEMO_FAULTS", "1")
    outcome = _smoke("sweep-cells", trace=True, inject_fault=True)
    assert outcome.failed > 0
    assert outcome.metrics["failed_frac"] > 0
    assert any("faulty-demo" in problem for problem in outcome.problems)


def test_command_prints_one_result_line():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tsn-gated-line",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert {name: m["unit"] for name, m in last["metrics"].items()} == (
        workloads.END_TO_END
    )


def test_command_fails_without_the_program():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fig6-fabric",
             "--seed", "1", "--seconds", "10", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
