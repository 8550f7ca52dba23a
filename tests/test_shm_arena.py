"""ShmArena lifecycle + pool-transport leak guarantees.

The shm transport's contract (repro.evaluation.executor): the parent
creates exactly one segment per pool run and unlinks it in a ``finally``
— so no code path (clean exit, worker SIGKILL, adaptive early-stop
cancellation) may strand a segment in ``/dev/shm``. These tests scan the
actual tmpfs before and after each scenario.
"""

import os
import signal

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.evaluation import MonteCarloEvaluator, ShmArena, build_plan, execute
from repro.models import MLP
from repro.variation import LogNormalVariation


def _segments():
    """Names currently present in the POSIX shm tmpfs."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


class TestShmArenaUnit:
    def test_round_trip_and_alignment(self):
        specs = {
            "a": ("float64", (3, 5)),
            "b": ("int64", (7,)),
            "c": ("float32", (2, 2, 2)),
        }
        with ShmArena.create(specs) as arena:
            assert sorted(arena.keys()) == ["a", "b", "c"]
            for key, (dtype, shape) in specs.items():
                view = arena.array(key)
                assert view.dtype == np.dtype(dtype)
                assert view.shape == shape
                # Zero-initialized, cache-line aligned.
                assert not view.any()
                offset = arena.manifest["entries"][key][0]
                assert offset % ShmArena.ALIGN == 0
            arena.array("a")[...] = np.arange(15.0).reshape(3, 5)
            assert arena.array("a")[2, 4] == 14.0

    def test_attach_sees_creator_writes(self):
        with ShmArena.create({"x": ("float64", (4,))}) as arena:
            arena.array("x")[...] = [1.0, 2.0, 3.0, 4.0]
            attached = ShmArena.attach(arena.manifest)
            try:
                np.testing.assert_array_equal(
                    attached.array("x"), [1.0, 2.0, 3.0, 4.0]
                )
                # Shared pages, not a copy.
                attached.array("x")[0] = 9.0
                assert arena.array("x")[0] == 9.0
            finally:
                attached.close()

    def test_attacher_close_does_not_unlink(self):
        arena = ShmArena.create({"x": ("float64", (2,))})
        try:
            attached = ShmArena.attach(arena.manifest)
            attached.close()
            attached.unlink()  # non-owner: must be a no-op
            fresh = ShmArena.attach(arena.manifest)  # still mapped
            fresh.close()
        finally:
            arena.close()
            arena.unlink()

    def test_unlink_idempotent_and_removes_segment(self):
        arena = ShmArena.create({"x": ("float64", (2,))})
        name = arena.name.lstrip("/")
        assert name in _segments()
        arena.close()
        arena.unlink()
        arena.unlink()  # second unlink must not raise
        assert name not in _segments()

    def test_empty_specs(self):
        with ShmArena.create({}) as arena:
            assert arena.keys() == []

    def test_context_manager_cleans_up(self):
        with ShmArena.create({"x": ("float32", (8,))}) as arena:
            name = arena.name.lstrip("/")
            assert name in _segments()
        assert name not in _segments()


@pytest.fixture()
def pool_plan_inputs(blob_dataset):
    model = MLP(4, [8], 3, flatten_input=True, seed=0)
    return model, blob_dataset, LogNormalVariation(0.5)


class TestTransportLeaks:
    def test_clean_pool_run_leaves_no_segment(self, pool_plan_inputs):
        model, data, variation = pool_plan_inputs
        before = _segments()
        plan = build_plan(
            model, data, variation, n_samples=6, seed=3,
            n_workers=2, chunk_samples=3,
        )
        assert plan.backend == "pool"
        execute(plan, model, data)
        assert _segments() == before

    def test_float32_pool_run_leaves_no_segment(self, pool_plan_inputs):
        model, data, variation = pool_plan_inputs
        before = _segments()
        plan = build_plan(
            model, data, variation, n_samples=6, seed=3,
            n_workers=2, chunk_samples=3, dtype="float32",
        )
        execute(plan, model, data)
        assert _segments() == before

    def test_worker_crash_unlinks_segment(self, blob_dataset):
        model = _CrashingMLP(4, [8], 3, flatten_input=True, seed=0)
        before = _segments()
        plan = build_plan(
            model, blob_dataset, LogNormalVariation(0.5),
            n_samples=6, seed=3, n_workers=2, chunk_samples=3,
        )
        assert plan.backend == "pool"
        with pytest.raises(BrokenProcessPool):
            execute(plan, model, blob_dataset)
        assert _segments() == before

    def test_adaptive_early_stop_leaves_no_segment(self, pool_plan_inputs):
        model, data, variation = pool_plan_inputs
        before = _segments()
        # A huge tolerance stops after the minimum draws, cancelling the
        # still-queued chunks — the cancellation path must unlink too.
        ev = MonteCarloEvaluator(
            data, n_samples=64, seed=3, vectorized=False, n_workers=2,
            chunk_samples=2, tolerance=0.49, min_samples=2,
        )
        result = ev.evaluate(model, variation)
        assert result.n_samples_used < 64
        assert _segments() == before


class _CrashingMLP(MLP):
    """Dies with SIGKILL on first forward — only workers run forward in a
    pool evaluation, so this simulates a hard worker crash mid-task."""

    def forward(self, x):  # pragma: no cover - runs in the worker
        os.kill(os.getpid(), signal.SIGKILL)
