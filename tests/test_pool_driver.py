"""The pool as a chunk step of the one evaluation driver.

Pool plans run through ``IncrementalEvaluation`` like every other
backend: a run resumed from a stored prefix dispatches only the unstored
chunks, through one pool, and every way out of the driver's scope — an
interrupted run, a raising ``on_chunk`` hook — shuts the pool down and
unlinks its shared-memory arena.
"""

import contextlib
import os

import pytest

from repro.evaluation import build_plan, execute, executor
from repro.evaluation.executor import IncrementalEvaluation
from repro.variation import LogNormalVariation


def _segments():
    """Names currently present in the POSIX shm tmpfs."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


@pytest.fixture()
def pool_plan(mlp, blob_dataset):
    mlp.eval()
    plan = build_plan(mlp, blob_dataset, LogNormalVariation(0.5),
                      n_samples=8, seed=5, n_workers=2, chunk_samples=2)
    assert plan.backend == "pool"
    return plan


@pytest.fixture()
def pool_opens(monkeypatch):
    """Records the ``max_workers`` of every pool the executor opens."""
    opened = []
    real = executor._pool

    @contextlib.contextmanager
    def counting(*args, **kwargs):
        opened.append(kwargs["max_workers"])
        with real(*args, **kwargs) as pool:
            yield pool

    monkeypatch.setattr(executor, "_pool", counting)
    return opened


class TestPoolResume:
    def test_resumed_pool_run_is_bitwise_the_uninterrupted_one(
        self, pool_plan, mlp, blob_dataset, pool_opens
    ):
        before = _segments()
        full = execute(pool_plan, mlp, blob_dataset)

        # An interrupted run: two chunks persisted, then the scope exits
        # with the rest of the schedule still queued.
        stored = []
        interrupted = IncrementalEvaluation(
            pool_plan, mlp, blob_dataset,
            on_chunk=lambda i, s, t, a: stored.extend(a),
        )
        with interrupted:
            interrupted.run_chunk()
            interrupted.run_chunk()
        assert stored == full.accuracies[:4]

        del pool_opens[:]
        seen = []
        resumed = IncrementalEvaluation(
            pool_plan, mlp, blob_dataset,
            on_chunk=lambda i, s, t, a: seen.append((i, s, t)),
        )
        resumed.resume(stored)
        with resumed:
            while not resumed.done:
                resumed.run_chunk()
        assert resumed.result().accuracies == full.accuracies
        assert pool_opens == [2]
        assert seen == [(2, 4, 6), (3, 6, 8)]
        assert _segments() == before

    def test_last_chunk_resume_opens_one_worker(
        self, pool_plan, mlp, blob_dataset, pool_opens
    ):
        full = execute(pool_plan, mlp, blob_dataset)
        del pool_opens[:]
        resumed = IncrementalEvaluation(pool_plan, mlp, blob_dataset)
        resumed.resume(full.accuracies[:6])
        with resumed:
            resumed.run_chunk()
        assert resumed.done
        assert resumed.result().accuracies == full.accuracies
        assert pool_opens == [1]


class TestPoolScopeExit:
    def test_raising_hook_propagates_and_unlinks(
        self, pool_plan, mlp, blob_dataset
    ):
        before = _segments()

        class HookFailed(Exception):
            pass

        def hook(index, start, stop, accs):
            if index == 1:
                raise HookFailed(index)

        with pytest.raises(HookFailed):
            execute(pool_plan, mlp, blob_dataset, on_chunk=hook)
        assert _segments() == before
