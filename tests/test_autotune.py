"""Measured plan autotuning: cost model, persistence, bitwise neutrality.

The clock is injected (reprolint DET001 — the engine never reads wall
time itself), so every test drives the tuner with a deterministic fake
counter and asserts on the *decisions*, not on real timings.
"""

import dataclasses
import itertools
import json
import os

import pytest

from repro.evaluation import autotune_plan, build_plan, execute
from repro.evaluation.autotune import (
    COST_MODEL_VERSION,
    _workload_key,
    load_cost_model,
    save_cost_model,
)
from repro.utils.cache import default_autotune_cache, user_cache_dir
from repro.variation import LogNormalVariation


def _fake_clock():
    """A strictly increasing deterministic seconds counter."""
    counter = itertools.count()
    return lambda: float(next(counter))


class TestCostModelStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "autotune.json"
        entries = {"k": {"per_image_draw": {"loop": 1e-6}}}
        save_cost_model(path, entries)
        assert load_cost_model(path) == entries
        raw = json.loads(path.read_text())
        assert raw["version"] == COST_MODEL_VERSION

    def test_missing_file_is_empty(self, tmp_path):
        assert load_cost_model(tmp_path / "nope.json") == {}

    def test_stale_version_is_empty(self, tmp_path):
        path = tmp_path / "autotune.json"
        path.write_text(json.dumps({"version": -1, "entries": {"k": {}}}))
        assert load_cost_model(path) == {}

    def test_corrupt_file_is_empty(self, tmp_path):
        path = tmp_path / "autotune.json"
        path.write_text("{not json")
        assert load_cost_model(path) == {}


class TestCacheDirs:
    def test_user_cache_dir_honors_xdg(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert user_cache_dir() == tmp_path / "xdg" / "repro"
        assert default_autotune_cache() == (
            tmp_path / "xdg" / "repro" / "autotune.json"
        )


class TestAutotunePlan:
    def test_measures_and_persists(self, mlp, blob_dataset, tmp_path):
        cache = tmp_path / "autotune.json"
        plan = autotune_plan(
            mlp, blob_dataset, LogNormalVariation(0.5),
            n_samples=8, seed=11, clock=_fake_clock(), cache_path=cache,
        )
        assert plan.backend_reason and "autotuned" in plan.backend_reason
        assert "measured now" in plan.backend_reason
        entries = load_cost_model(cache)
        key = _workload_key(mlp, blob_dataset, "float64")
        assert key in entries
        assert "loop" in entries[key]["per_image_draw"]
        # Sample-aware model: the vectorized probe ran and pinned the
        # stacked-execution knobs.
        assert "vectorized" in entries[key]["per_image_draw"]
        assert entries[key]["chunk_samples"] >= 1

    def test_cached_entry_needs_no_clock(self, mlp, blob_dataset, tmp_path):
        cache = tmp_path / "autotune.json"
        autotune_plan(
            mlp, blob_dataset, LogNormalVariation(0.5),
            n_samples=8, seed=11, clock=_fake_clock(), cache_path=cache,
        )
        plan = autotune_plan(
            mlp, blob_dataset, LogNormalVariation(0.5),
            n_samples=8, seed=11, cache_path=cache,  # no clock: pure lookup
        )
        assert plan.backend_reason and "cost model" in plan.backend_reason
        assert "measured now" not in plan.backend_reason

    def test_no_clock_no_cache_heuristic(self, mlp, blob_dataset):
        plan = autotune_plan(
            mlp, blob_dataset, LogNormalVariation(0.5), n_samples=8, seed=11
        )
        assert plan.backend_reason and "heuristic" in plan.backend_reason
        # MLP is sample-aware: the heuristic rides the vectorized engine.
        assert plan.backend == "vectorized"

    def test_tuned_plan_is_bitwise_neutral(self, mlp, blob_dataset, tmp_path):
        variation = LogNormalVariation(0.5)
        baseline_plan = build_plan(
            mlp, blob_dataset, variation, n_samples=8, seed=11,
            vectorized=False,
        )
        baseline = execute(baseline_plan, mlp, blob_dataset)
        tuned = autotune_plan(
            mlp, blob_dataset, variation, n_samples=8, seed=11,
            clock=_fake_clock(), cache_path=tmp_path / "autotune.json",
        )
        assert execute(tuned, mlp, blob_dataset) == baseline

    def test_dtype_keys_are_separate(self, mlp, blob_dataset, tmp_path):
        cache = tmp_path / "autotune.json"
        autotune_plan(
            mlp, blob_dataset, LogNormalVariation(0.5),
            n_samples=8, seed=11, clock=_fake_clock(), cache_path=cache,
        )
        plan32 = autotune_plan(
            mlp, blob_dataset, LogNormalVariation(0.5),
            n_samples=8, seed=11, dtype="float32",
            clock=_fake_clock(), cache_path=cache,
        )
        assert plan32.dtype == "float32"
        entries = load_cost_model(cache)
        assert _workload_key(mlp, blob_dataset, "float64") in entries
        assert _workload_key(mlp, blob_dataset, "float32") in entries

    def test_restores_training_mode(self, mlp, blob_dataset, tmp_path):
        mlp.train()
        autotune_plan(
            mlp, blob_dataset, LogNormalVariation(0.5),
            n_samples=8, seed=11, clock=_fake_clock(),
            cache_path=tmp_path / "autotune.json",
        )
        assert mlp.training

    def test_adaptive_knobs_survive_tuning(self, mlp, blob_dataset):
        plan = autotune_plan(
            mlp, blob_dataset, LogNormalVariation(0.5),
            n_samples=32, seed=11, tolerance=0.02, min_samples=4,
        )
        assert plan.stopping is not None


#: Logical arguments a tuned plan must carry through unchanged.
_LOGICAL = dict(batch_size=64, tolerance=0.05, min_samples=4,
                ci_confidence=0.9, ci_method="wilson")


def _without_reason(plan):
    return dataclasses.replace(plan, backend_reason=None)


class TestPlanEquivalence:
    """Tuning picks only execution knobs: a tuned plan is field-for-field
    the ``build_plan`` of those knobs plus the caller's logical arguments
    (only the ``backend_reason`` wording is the tuner's own)."""

    @pytest.mark.parametrize("fastest", ["loop", "vectorized", "pool"])
    def test_cost_model_plan(self, mlp, blob_dataset, tmp_path, fastest):
        mlp.eval()
        rates = {"loop": 1e-5, "vectorized": 1e-5, "pool": 1e-5}
        rates[fastest] = 1e-7
        cache = tmp_path / "autotune.json"
        save_cost_model(cache, {_workload_key(mlp, blob_dataset, "float64"): {
            "chunk_samples": 4, "data_block": 32, "n_workers": 2,
            "pool_startup": 0.0, "per_image_draw": rates,
        }})
        variation = LogNormalVariation(0.5)
        plan = autotune_plan(mlp, blob_dataset, variation, n_samples=12,
                             seed=11, cache_path=cache, **_LOGICAL)
        expected = build_plan(
            mlp, blob_dataset, variation, n_samples=12, seed=11,
            vectorized=fastest == "vectorized",
            n_workers=2 if fastest == "pool" else 0,
            chunk_samples=4, data_block=32, **_LOGICAL,
        )
        assert plan.backend == fastest
        assert _without_reason(plan) == _without_reason(expected)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("sample_aware", [True, False],
                             ids=["sample-aware", "softmax"])
    def test_heuristic_plan(self, mlp, blob_dataset, monkeypatch, cpus,
                            sample_aware):
        import repro.nn as nn

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        model = mlp if sample_aware else nn.Sequential(
            nn.Flatten(), nn.Linear(4, 3, seed=0), nn.Softmax(axis=1))
        model.eval()
        variation = LogNormalVariation(0.5)
        plan = autotune_plan(model, blob_dataset, variation, n_samples=12,
                             seed=11, **_LOGICAL)
        if sample_aware:
            knobs = dict(vectorized=True)
        elif cpus >= 2:
            knobs = dict(n_workers=min(cpus, 4))
        else:
            knobs = {}
        expected = build_plan(model, blob_dataset, variation, n_samples=12,
                              seed=11, **knobs, **_LOGICAL)
        assert _without_reason(plan) == _without_reason(expected)
        if sample_aware:
            assert plan.n_workers == 0
