"""The benchmark's own tests: its checks can fail and its counts repeat.

Run from the repository root (not part of the tier-1 suite)::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deep-queue", "paper-sweep", "serve-mixed", "conservative-sleep")


def bench(*args: str, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180, check=False,
    )


def result_line(completed: subprocess.CompletedProcess) -> dict | None:
    lines = completed.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and "correct" in doc else None


def test_benchmark_json_names_the_metrics_the_command_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _moves) in run.PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expectation_fails_the_run(workload):
    completed = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--corrupt")
    assert completed.returncode != 0
    doc = result_line(completed)
    assert doc is not None and doc["correct"] is False
    assert "check FAIL" in completed.stdout


def test_serve_mixed_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = bench("--workload", "serve-mixed", "--seed", "3", "--seconds", "1")
    assert completed.returncode == 0, completed.stderr
    doc = result_line(completed)
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_counts_repeat_exactly_across_runs():
    counts = (
        "workloads.jobs", "scheduling.events", "scheduling.peak_queue_depth",
        "core.reduced_ratio", "serialize.bytes_per_job", "serve.simulations_run",
        "serve.deduped_submissions", "serve.cache_hits",
    )
    runs = []
    for _ in range(2):
        completed = bench("--workload", "serve-mixed", "--seed", "5", "--seconds", "1",
                          "--trace", "1")
        assert completed.returncode == 0, completed.stderr
        runs.append({name: result_line(completed)["metrics"][name]["value"] for name in counts})
    assert runs[0] == runs[1]


def test_refuses_environment_that_changes_the_code_path():
    env = dict(os.environ, REPRO_ENGINE="reference")
    completed = bench("--workload", "serve-mixed", "--seed", "1", "--seconds", "1", env=env)
    assert completed.returncode != 0
    assert result_line(completed) is None


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for workload in WORKLOADS:
        completed = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                          cwd=tmp_path)
        assert completed.returncode != 0
        assert result_line(completed) is None
