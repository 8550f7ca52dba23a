"""The four benchmark workloads, driven through the program's public API.

All four use LeNet5 on ``synth_mnist`` (the paper's LeNet5-MNIST pair,
320 eval images) and generate load from this one process; the pool uses
at most two workers. Each workload exposes:

- ``setup()`` — data synthesis, checkpoint training, ``analogize`` and a
  warm-up evaluation. The harness times it several times and reports the
  median as ``setup_s``; the warm-up keeps the slow first sweep out of
  the timed region.
- ``run_unit(tracer)`` — one unit of timed work (a σ sweep, or one
  ``CorrectNet.run``) returning a :class:`Unit`. ``tracer`` is ``None``
  on untraced runs; when given, the workload opens the trace-id scopes
  the library wrappers cannot see.
- ``checks(units)`` — output checks, run outside the timed region; each
  returns ``(checks attempted, failure messages)``.

The workload seed feeds model initialisation, training order and the
Monte-Carlo seed schedule of the sweeps; the program sees only the
generated inputs.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.core import CorrectNet
from repro.core.config import (
    CompensationConfig, EvalConfig, PipelineConfig, RLConfig, TrainConfig,
)
from repro.core.training import Trainer
from repro.data import synth_mnist
from repro.evaluation import executor
from repro.evaluation.montecarlo import MCResult, MonteCarloEvaluator
from repro.hardware import ADC, DAC, analogize
from repro import models
from repro.optim.optimizers import Adam
from repro.store.db import ResultStore
from repro.store import jobs, query, runner
from repro.store.jobs import JobRequest
from repro.variation import LogNormalVariation
from repro.variation.spec import to_dict as spec_to_dict

SIGMAS = (0.1, 0.2, 0.3, 0.4, 0.5)
SWEEP_SAMPLES = 48  # draws per σ point on the weight-domain sweeps
ANALOG_SAMPLES = 16  # one stacked chunk per analog σ point
CHUNK = 16  # the planner's default stacked chunk
WARMUP_ANALOG_SAMPLES = 4
POOL_WORKERS = 2
TRAIN_EPOCHS = 3  # ~95% eval accuracy; throughput does not depend on it
SWEEP_KEY = "perfbench"


@dataclass
class Unit:
    """What one unit of timed work did."""

    wall_s: float
    point_s: List[float]
    draws: int
    operations: int
    failed: List[str] = field(default_factory=list)
    outputs: Any = None


def derived_seeds(seed: int, n: int) -> List[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def train_lenet(train, model_seed: int, train_seed: int):
    model = models.build_model("lenet5", train, seed=model_seed)
    trainer = Trainer(model, Adam(list(model.parameters()), lr=3e-3), seed=train_seed)
    trainer.fit(train, epochs=TRAIN_EPOCHS, batch_size=32)
    model.eval()
    return model


@contextlib.contextmanager
def timed_evaluations() -> Iterator[List[Tuple[float, int]]]:
    """Record ``(seconds, draws)`` of every ``MonteCarloEvaluator.evaluate``.

    A class-level shim, so evaluations made inside the program (the
    pipeline builds its own evaluators) are timed too. It costs two clock
    reads per call, so it stays on in untraced runs.
    """
    records: List[Tuple[float, int]] = []
    original = MonteCarloEvaluator.__dict__["evaluate"]

    def evaluate(self: MonteCarloEvaluator, *args: Any, **kwargs: Any) -> MCResult:
        start = time.perf_counter()
        result = original(self, *args, **kwargs)
        records.append((time.perf_counter() - start, len(result.accuracies)))
        return result

    MonteCarloEvaluator.evaluate = evaluate  # type: ignore[method-assign]
    try:
        yield records
    finally:
        MonteCarloEvaluator.evaluate = original  # type: ignore[method-assign]


def _scope(tracer, name: str):
    return tracer.span(name, boundary=True) if tracer is not None else contextlib.nullcontext()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.model_seed, self.train_seed, self.eval_seed = derived_seeds(seed, 3)

    def setup(self) -> None:
        raise NotImplementedError

    def plan_info(self) -> Dict[str, Any]:
        raise NotImplementedError

    def run_unit(self, tracer) -> Unit:
        raise NotImplementedError

    def checks(self, units: List[Unit]) -> Tuple[int, List[str]]:
        raise NotImplementedError

    def traced_models(self) -> List[Any]:
        """Models built during setup, named for the per-layer table."""
        return []


class SweepStore(Workload):
    """A named σ sweep through a fresh result store, drained in-process."""

    name = "sweep-store"

    def setup(self) -> None:
        train, test = synth_mnist()
        model = train_lenet(train, self.model_seed, self.train_seed)
        self.checkpoint = str(self.workdir / f"lenet5-{self.seed}.npz")
        model.save(self.checkpoint)
        self.requests = [
            JobRequest(
                model="lenet5",
                dataset="synth_mnist",
                variation=spec_to_dict(LogNormalVariation(sigma)),
                n_samples=SWEEP_SAMPLES,
                seed=self.eval_seed,
                model_seed=self.model_seed,
                checkpoint=self.checkpoint,
                sweep_key=SWEEP_KEY,
                sweep_param=sigma,
            )
            for sigma in SIGMAS
        ]
        warm = jobs.materialize(replace(self.requests[-1], n_samples=CHUNK))
        executor.execute(warm.plan, warm.model, warm.dataset)
        # The client's spot check: one draw per worker of the last point
        # through the shm pool, so the pool layer is measured on this
        # workload too (``sweep-pool`` alone is too unsteady to gate).
        self.spot = jobs.materialize(replace(self.requests[-1], n_samples=POOL_WORKERS))
        self.pool = MonteCarloEvaluator(self.spot.dataset, n_samples=POOL_WORKERS,
                                        seed=self.eval_seed, n_workers=POOL_WORKERS)
        self.pool.evaluate(self.spot.model, LogNormalVariation(SIGMAS[-1]))

    def plan_info(self) -> Dict[str, Any]:
        plan = jobs.materialize(self.requests[0]).plan
        return {"backend": plan.backend, "backend_reason": plan.backend_reason,
                "chunk_samples": plan.chunk_samples, "dtype": plan.dtype}

    def _fresh_store(self) -> ResultStore:
        path = self.workdir / f"store-{self.seed}.sqlite"
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        return ResultStore(str(path))

    def run_unit(self, tracer) -> Unit:
        owner = "perfbench-runner"
        failed: List[str] = []
        latencies: List[float] = []
        with self._fresh_store() as store:
            start = time.perf_counter()
            for request in self.requests:
                with _scope(tracer, "store.submit_point"):
                    job = jobs.materialize(request)
                    store.submit(job.fingerprint, job.request.to_dict(),
                                 sweep_key=request.sweep_key,
                                 sweep_param=request.sweep_param)
            while True:
                with _scope(tracer, "store.run_point"):
                    claimed_at = time.perf_counter()
                    row = store.claim(owner, lease_seconds=600.0)
                    if row is None:
                        break
                    outcome = runner.run_job(store, row, owner=owner, lease_seconds=600.0)
                    latencies.append(time.perf_counter() - claimed_at)
                if outcome.status != "done":
                    failed.append(f"job {outcome.fingerprint[:12]} {outcome.status}: "
                                  f"{outcome.error}")
            with _scope(tracer, "store.query_sweep"):
                points = query.sweep_points(store, SWEEP_KEY)
            hits = 0
            for request in self.requests:
                with _scope(tracer, "store.resubmit_point"):
                    job = jobs.materialize(request)
                    hits += store.submit(job.fingerprint, job.request.to_dict(),
                                         sweep_key=request.sweep_key,
                                         sweep_param=request.sweep_param).cache_hit
            spot = self.pool.evaluate(self.spot.model, LogNormalVariation(SIGMAS[-1]))
            wall = time.perf_counter() - start
        if hits != len(self.requests):
            failed.append(f"resubmit returned {hits}/{len(self.requests)} cache hits")
        results = {p.sweep_param: None if p.result is None else p.result.accuracies
                   for p in points}
        draws = sum(len(a or []) for a in results.values()) + len(spot.accuracies)
        return Unit(wall, latencies, draws,
                    operations=2 * len(self.requests) + 1, failed=failed,
                    outputs={"results": results, "hits": hits,
                             "resubmits": len(self.requests),
                             "pool": spot.accuracies})

    def checks(self, units: List[Unit]) -> Tuple[int, List[str]]:
        failures: List[str] = []
        direct = {}
        for request in self.requests:
            job = jobs.materialize(request)
            direct[request.sweep_param] = executor.execute(job.plan, job.model, job.dataset).accuracies
        for index, unit in enumerate(units):
            if unit.outputs["results"] != direct:
                failures.append(f"unit {index}: stored sweep differs from direct execute")
            # Paired seeds: draw i is the same whatever S and backend.
            if unit.outputs["pool"] != direct[SIGMAS[-1]][:POOL_WORKERS]:
                failures.append(f"unit {index}: pool spot check differs from the "
                                f"stored point")
        return 2 * len(units), failures


class EvaluatorSweep(Workload):
    """A σ sweep through ``MonteCarloEvaluator.sweep_sigma``; a point is
    one ``evaluate`` call. Subclasses set ``model`` and ``evaluator``."""

    model: Any
    evaluator: MonteCarloEvaluator

    def traced_models(self) -> List[Any]:
        return [self.model]

    def run_unit(self, tracer) -> Unit:
        with timed_evaluations() as records:
            start = time.perf_counter()
            results = self.evaluator.sweep_sigma(
                self.model, LogNormalVariation(SIGMAS[-1]), SIGMAS)
            wall = time.perf_counter() - start
        return Unit(wall, [t for t, _ in records], sum(n for _, n in records),
                    operations=len(SIGMAS),
                    outputs=[r.accuracies for r in results])


class SweepPool(EvaluatorSweep):
    """The same checkpoint, grid and S through the two-worker shm pool."""

    name = "sweep-pool"

    def setup(self) -> None:
        train, self.test = synth_mnist()
        self.model = train_lenet(train, self.model_seed, self.train_seed)
        self.evaluator = MonteCarloEvaluator(
            self.test, n_samples=SWEEP_SAMPLES, seed=self.eval_seed,
            n_workers=POOL_WORKERS,
        )
        self.evaluator.evaluate(self.model, LogNormalVariation(SIGMAS[-1]),
                                max_samples=CHUNK)

    def plan_info(self) -> Dict[str, Any]:
        plan = self.evaluator.plan(self.model, LogNormalVariation(SIGMAS[-1]))
        return {"backend": plan.backend, "backend_reason": plan.backend_reason,
                "chunk_samples": plan.chunk_samples, "n_workers": plan.n_workers,
                "transport": plan.transport, "dtype": plan.dtype}

    def checks(self, units: List[Unit]) -> Tuple[int, List[str]]:
        reference = MonteCarloEvaluator(
            self.test, n_samples=SWEEP_SAMPLES, seed=self.eval_seed, vectorized=True,
        ).sweep_sigma(self.model, LogNormalVariation(SIGMAS[-1]), SIGMAS)
        expected = [r.accuracies for r in reference]
        failures = [f"unit {i}: pool accuracies differ from in-process vectorized"
                    for i, unit in enumerate(units) if unit.outputs != expected]
        return len(units), failures


class Analog(EvaluatorSweep):
    """The checkpoint deployed on tiled crossbars, swept in-process."""

    name = "analog"

    def setup(self) -> None:
        train, self.test = synth_mnist()
        self.model = train_lenet(train, self.model_seed, self.train_seed)
        analogize(self.model, tile_size=64, dac=DAC(6), adc=ADC(8),
                  read_noise_sigma=0.002, seed=self.eval_seed)
        self.evaluator = MonteCarloEvaluator(
            self.test, n_samples=ANALOG_SAMPLES, seed=self.eval_seed, vectorized=True,
        )
        self.evaluator.evaluate(self.model, LogNormalVariation(SIGMAS[-1]),
                                max_samples=WARMUP_ANALOG_SAMPLES)

    def plan_info(self) -> Dict[str, Any]:
        plan = self.evaluator.plan(self.model, LogNormalVariation(SIGMAS[-1]))
        return {"backend": plan.backend, "backend_reason": plan.backend_reason,
                "chunk_samples": plan.chunk_samples, "domain": plan.domain,
                "dtype": plan.dtype}

    def checks(self, units: List[Unit]) -> Tuple[int, List[str]]:
        loop = MonteCarloEvaluator(
            self.test, n_samples=CHUNK, seed=self.eval_seed, vectorized=False,
        ).evaluate(self.model, LogNormalVariation(SIGMAS[0]))
        failures = [f"unit {i}: analog vectorized first chunk differs from loop"
                    for i, unit in enumerate(units)
                    if unit.outputs[0][:CHUNK] != loop.accuracies]
        return len(units), failures


def pipeline_config() -> PipelineConfig:
    """The ``examples/full_pipeline.py --tiny`` configuration, scaled down
    (6/3 training epochs instead of 15/6, 2 RL episodes instead of 4) so a
    run holds several pipelines and reports their median. Compensation
    still lifts the degraded accuracy at this scale."""
    return PipelineConfig(
        sigma=0.5,
        train=TrainConfig(epochs=6, lr=3e-3, beta=1.0, seed=0),
        compensation=CompensationConfig(epochs=3, lr=3e-3, seed=0),
        rl=RLConfig(episodes=2, overhead_limits=(0.06,), seed=0),
        eval=EvalConfig(n_samples=10, search_samples=4, seed=7, max_candidates=3),
    )


class Pipeline(Workload):
    """One full ``CorrectNet.run``: training, selection, RL search, compensation.

    The pipeline's amount of work depends on what it finds (the candidate
    layers and the plans the search tries), so seeded inputs would change
    the work between seeds. It therefore runs the example's fixed inputs
    and the workload seed does not reach it.
    """

    name = "pipeline"

    def setup(self) -> None:
        self.train, self.test = synth_mnist()
        warm = models.build_model("lenet5", self.train, seed=0)
        Trainer(warm, Adam(list(warm.parameters()), lr=3e-3), seed=0).fit(
            self.train, epochs=1, batch_size=32)

    def _final_evaluator(self) -> MonteCarloEvaluator:
        cfg = pipeline_config().eval
        return MonteCarloEvaluator(self.test, n_samples=cfg.n_samples, seed=cfg.seed,
                                   vectorized=cfg.vectorized, n_workers=cfg.n_workers,
                                   sample_chunk=cfg.chunk_samples, dtype=cfg.dtype)

    def plan_info(self) -> Dict[str, Any]:
        model = models.build_model("lenet5", self.train, seed=0)
        plan = self._final_evaluator().plan(model.eval(), LogNormalVariation(0.5))
        return {"backend": plan.backend, "backend_reason": plan.backend_reason,
                "chunk_samples": plan.chunk_samples, "dtype": plan.dtype}

    def run_unit(self, tracer) -> Unit:
        with timed_evaluations() as records:
            start = time.perf_counter()
            model = models.build_model("lenet5", self.train, seed=0)
            if tracer is not None:
                tracer.register_model(model)
            result = CorrectNet(model, self.train, self.test, pipeline_config()).run()
            wall = time.perf_counter() - start
        outputs = {
            "original": result.original_accuracy,
            "degraded": result.degraded.accuracies,
            "corrected": result.corrected.accuracies,
            "candidates": list(result.candidates),
            "plan": repr(result.plan),
        }
        self._last_model = result.model
        # A point is the whole run: its eight evaluations differ in model and
        # draw count, so their latencies mix three populations.
        return Unit(wall, [wall], sum(n for _, n in records),
                    operations=1, outputs=outputs)

    def checks(self, units: List[Unit]) -> Tuple[int, List[str]]:
        # More than one unit on traced runs; across runs the repeat file
        # compares outputs (see run.py).
        failures = [f"unit {i}: pipeline outputs differ from unit 0"
                    for i, unit in enumerate(units[1:], 1)
                    if unit.outputs != units[0].outputs]
        rerun = self._final_evaluator().evaluate(self._last_model, LogNormalVariation(0.5))
        if rerun.accuracies != units[-1].outputs["corrected"]:
            failures.append("corrected model does not reproduce its reported accuracy")
        return len(units), failures


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    cls.name: cls for cls in (SweepStore, SweepPool, Analog, Pipeline)
}


def outputs_digest(units: List[Unit]) -> str:
    """Stable text form of a unit's outputs, for cross-run comparison."""
    return json.dumps(units[0].outputs, sort_keys=True, default=repr)
