"""Smoke self-test of the benchmark harness.

Runs one scaled-down unit of every workload, untraced and traced, and
asserts that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that the output checks pass, and that computed counts repeat
between two traced runs of one seed. Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.config import (  # noqa: E402
    CompensationConfig, EvalConfig, PipelineConfig, RLConfig, TrainConfig,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_pipeline_config() -> PipelineConfig:
    return PipelineConfig(
        sigma=0.5,
        train=TrainConfig(epochs=1, lr=3e-3, beta=1.0, seed=0),
        compensation=CompensationConfig(epochs=1, lr=3e-3, seed=0),
        rl=RLConfig(episodes=1, overhead_limits=(0.06,), seed=0),
        eval=EvalConfig(n_samples=4, search_samples=2, seed=7, max_candidates=1),
    )


@pytest.fixture
def tiny(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "SIGMAS", (0.5,))
    monkeypatch.setattr(workloads, "SWEEP_SAMPLES", 4)
    monkeypatch.setattr(workloads, "ANALOG_SAMPLES", 4)
    monkeypatch.setattr(workloads, "CHUNK", 4)
    monkeypatch.setattr(workloads, "TRAIN_EPOCHS", 1)
    monkeypatch.setattr(workloads, "pipeline_config", _tiny_pipeline_config)


def _assert_metrics(result: dict, declared: list) -> None:
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = result["metrics"]
    assert sorted(emitted) == sorted(m["name"] for m in declared)
    for metric in declared:
        value = emitted[metric["name"]]
        assert value["unit"] == metric["unit"], metric["name"]
        assert isinstance(value["value"], (int, float)), metric["name"]


def test_benchmark_json_workloads_exist() -> None:
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_emitted(name: str, tiny: None, tmp_path: Path) -> None:
    env, details, result = run.run(name, seed=3, seconds=0, trace=False,
                                   workdir=tmp_path)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert env["plan"]["backend"] in ("vectorized", "pool", "loop")
    assert details["units"] == 1

    counts = []
    for _ in range(2):
        _, _, traced = run.run(name, seed=3, seconds=0, trace=True, workdir=tmp_path)
        _assert_metrics(traced, SPEC["per_layer"])
        metrics = traced["metrics"]
        assert metrics["trace.coverage_frac"]["value"] >= 0.9
        counts.append({k: metrics[k]["value"] for k in run.COMPUTED_UNITS})
    assert counts[0] == counts[1]
    assert (tmp_path / f"trace-{name}-seed3.json").exists()
    assert (tmp_path / f"layers-{name}-seed3.txt").exists()


def test_tail_is_never_below_the_90th_percentile() -> None:
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail(list(range(1, 11)))[0] == 9
    assert run.tail(list(range(200)))[0] == 189  # ten points beyond it


def test_repeat_check_keeps_the_first_record(tmp_path: Path) -> None:
    assert run.repeat_check(tmp_path, "k", {"outputs": "a"}) == []
    assert run.repeat_check(tmp_path, "k", {"outputs": "b"}) != []
    assert run.repeat_check(tmp_path, "k", {"outputs": "b"}) != []
    assert run.repeat_check(tmp_path, "k", {"outputs": "a", "counts": 1}) == []


def test_stop_children_leaves_no_child() -> None:
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert sleeper.pid in run.child_pids()
    run.stop_children()
    assert run.child_pids() == []
