"""Span tracer that wraps the program's public functions from outside.

Nothing under ``src/`` knows about this module. :func:`install` replaces
each instrumented function or method with a wrapper that records a span
(name, start, end, parent span, trace id) into a :class:`Tracer`, and
returns an undo callable that puts every original back. Module-level
functions are rebound wherever the package imported them by name,
including registry dicts (``repro.store.jobs.DATASET_FACTORIES``), so a
``from x import f`` caller sees the wrapper too.

Spans are kept in memory and written out by :meth:`Tracer.write` when
the run ends: a Chrome trace-event file (load it in ``chrome://tracing``
or Perfetto) and a per-layer self-time table. A span's self time is its
duration minus the time its child spans cover.

Pool workers fork with the wrappers installed, but the spans they record
stay in the child processes; only parent-side layers are reported.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

# Span tuple fields.
NAME, START, END, SPAN_ID, PARENT, TRACE_ID, ATTRS = range(7)

ROOT = "trace.root"


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._next_trace = 0
        self.layer_names: "weakref.WeakKeyDictionary[Any, str]" = (
            weakref.WeakKeyDictionary()
        )

    def new_trace_id(self) -> int:
        self._next_trace += 1
        return self._next_trace

    def open(self, name: str, boundary: bool = False) -> list:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            trace_id = self.new_trace_id()
        elif boundary and parent[TRACE_ID] == self._stack[0][TRACE_ID]:
            # A σ point or pipeline stage directly under the root starts
            # its own trace; nested boundaries stay in the enclosing one.
            trace_id = self.new_trace_id()
        else:
            trace_id = parent[TRACE_ID]
        span = [name, time.perf_counter(), 0.0, len(self.spans),
                None if parent is None else parent[SPAN_ID], trace_id, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    def span(self, name: str, boundary: bool = False) -> "_SpanScope":
        return _SpanScope(self, name, boundary)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def register_model(self, model: Any) -> None:
        """Name every module of ``model`` by its ``module_walk`` path."""
        from repro.nn.graph import module_walk

        for name, module in module_walk(model, into_digital=True):
            if name:
                self.layer_names[module] = name

    # -- reduction -----------------------------------------------------
    def self_times(self) -> List[float]:
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def table(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"self_s", "total_s", "calls"}}``."""
        rows: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        for span, own in zip(self.spans, self.self_times()):
            row = rows[span[NAME]]
            row["self_s"] += own
            row["total_s"] += span[END] - span[START]
            row["calls"] += 1
        return dict(rows)

    def durations(self, name: str) -> List[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def coverage(self) -> float:
        """Share of the root spans' wall covered by non-root self time."""
        own = self.self_times()
        root_wall = sum(s[END] - s[START] for s in self.spans if s[NAME] == ROOT)
        layered = sum(o for s, o in zip(self.spans, own) if s[NAME] != ROOT)
        return layered / root_wall if root_wall > 0 else 0.0

    def write(self, trace_path: Path, table_path: Path) -> None:
        """Chrome trace-event JSON plus the per-layer self-time table."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        events = [
            {
                "name": s[NAME],
                "cat": s[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": (s[START] - t0) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": s[SPAN_ID], "parent": s[PARENT],
                         "trace_id": s[TRACE_ID], **(s[ATTRS] or {})},
            }
            for s in self.spans
        ]
        trace_path.write_text(json.dumps({"traceEvents": events}))
        rows = sorted(self.table().items(), key=lambda kv: -kv[1]["self_s"])
        lines = [f"{'span':<32} {'self_s':>10} {'total_s':>10} {'calls':>8}"]
        lines += [
            f"{name:<32} {row['self_s']:>10.4f} {row['total_s']:>10.4f} "
            f"{int(row['calls']):>8}"
            for name, row in rows
        ]
        lines.append(f"coverage (non-root self / root wall): {self.coverage():.4f}")
        table_path.write_text("\n".join(lines) + "\n")


class _SpanScope:
    def __init__(self, tracer: Tracer, name: str, boundary: bool) -> None:
        self._tracer, self._name, self._boundary = tracer, name, boundary

    def __enter__(self) -> list:
        self._span = self._tracer.open(self._name, self._boundary)
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._tracer.close(self._span)


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------
Hook = Callable[[Tracer, list, tuple, dict, Any], None]
Namer = Callable[[Tracer, tuple], str]


def _spanned(
    tracer: Tracer,
    fn: Callable,
    name: "str | Namer",
    boundary: bool = False,
    hook: Optional[Hook] = None,
) -> Callable:
    """``fn`` wrapped in a span; ``hook`` sees the span, args and result."""
    namer = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open(namer(tracer, args) if namer else name, boundary)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            hook(tracer, span, args, kwargs, result)
        return result

    return wrapper


def _counted(tracer: Tracer, fn: Callable, key: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


class _Patches:
    """Applied replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(cls, attr, replacement)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def function(self, fn: Callable, make: Callable[[Callable], Callable]) -> None:
        """Rebind ``fn`` everywhere the package holds a reference to it."""
        wrapper = make(fn)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is fn:
                    namespace[key] = wrapper
                    self._undo.append(functools.partial(namespace.__setitem__, key, fn))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dict_key, item in list(value.items()):
                        if item is fn:
                            value[dict_key] = wrapper
                            self._undo.append(
                                functools.partial(value.__setitem__, dict_key, fn)
                            )

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- hooks that compute counts from observed shapes (labelled "computed") ----
def _macs_per_output(module: Any) -> int:
    if hasattr(module, "in_features"):
        return int(module.in_features)
    kh, kw = module.kernel_size
    return int(module.in_channels) * int(kh) * int(kw)


def _layer_name(tracer: Tracer, args: tuple) -> str:
    module = args[0]
    name = tracer.layer_names.get(module)
    return f"nn.{name}" if name else f"nn.{type(module).__name__}"


def _forward_hook(tracer: Tracer, span: list, args: tuple, kwargs: dict, out: Any) -> None:
    tracer.count(f"{span[NAME]}.macs", out.data.size * _macs_per_output(args[0]))


def _mvm_hook(tracer: Tracer, span: list, args: tuple, kwargs: dict, out: Any) -> None:
    tile, x = args[0], np.asarray(args[1])
    rows, cols = tile.shape
    lead = max(x.shape[0] if x.ndim == 3 else 1, tile.n_stacked or 1)
    batch = 1 if x.ndim == 1 else x.shape[-2]
    tracer.count("hardware.mvm_macs", lead * batch * rows * cols)


def _draw_hook(tracer: Tracer, span: list, args: tuple, kwargs: dict, out: Any) -> None:
    stacks = out if out is not None else args[2]  # stack_into fills args[2]
    tracer.count("variation.elems_drawn", sum(a.size for a in stacks.values()))
    tracer.count("variation.bytes_drawn", sum(a.nbytes for a in stacks.values()))


def _arena_hook(tracer: Tracer, span: list, args: tuple, kwargs: dict, out: Any) -> None:
    specs = args[1]
    tracer.count(
        "executor.arena_bytes",
        sum(np.dtype(dt).itemsize * int(np.prod(shape)) for dt, shape in specs.values()),
    )


def _backend_hook(tracer: Tracer, span: list, args: tuple, kwargs: dict, out: Any) -> None:
    span[ATTRS] = {"backend": args[0].backend}


def _model_hook(tracer: Tracer, span: list, args: tuple, kwargs: dict, out: Any) -> None:
    tracer.register_model(out)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every instrumented boundary; returns the undo callable."""
    from repro.autograd.tensor import Tensor
    from repro.compensation.trainer import CompensationTrainer
    from repro.core.pipeline import CorrectNet
    from repro.core.training import Trainer
    from repro.data import synthetic
    from repro.evaluation import executor, montecarlo, plan
    from repro.hardware import crossbar, tiling
    from repro.lipschitz.regularizer import OrthogonalityRegularizer
    from repro.models import registry
    from repro.nn import layers
    from repro.optim import optimizers
    from repro.rl.agent import ReinforceAgent
    from repro.rl.env import CompensationEnv
    from repro.store import db, fingerprint, jobs, query
    from repro.variation.injector import VariationInjector

    # The package re-exports a function named ``analog_layers``.
    analog_layers = importlib.import_module("repro.hardware.analog_layers")
    p = _Patches()

    def span(name: "str | Namer", boundary: bool = False,
             hook: Optional[Hook] = None) -> Callable[[Callable], Callable]:
        return lambda fn: _spanned(tracer, fn, name, boundary, hook)

    def count(key: str) -> Callable[[Callable], Callable]:
        return lambda fn: _counted(tracer, fn, key)

    # data
    for factory in (synthetic.synth_mnist, synthetic.synth_cifar10,
                    synthetic.synth_cifar100):
        p.function(factory, span("data.synth"))
    # models: name layers so nn spans carry their module_walk path
    p.function(registry.build_model, span("models.build", hook=_model_hook))
    p.function(analog_layers.analogize, span("hardware.analogize", hook=_model_hook))
    # store
    p.function(jobs.materialize, span("store.materialize"))
    for fn in (fingerprint.canonical_json, fingerprint.weights_digest,
               fingerprint.dataset_digest, fingerprint.fingerprint_payload,
               fingerprint.plan_fingerprint):
        p.function(fn, span("store.fingerprint"))
    p.function(query.sweep_points, span("store.query"))
    for attr in ("submit", "claim", "put_chunk", "finalize"):
        p.method(db.ResultStore, attr, span(f"store.{attr}"))
    # evaluation
    p.function(plan.build_plan, span("plan.build"))
    p.function(executor.execute, span("executor.execute", hook=_backend_hook))
    p.method(executor.IncrementalEvaluation, "run_chunk", span("executor.chunk"))
    p.method(executor.ShmArena, "create", span("executor.arena_create", hook=_arena_hook))
    p.function(executor._pool, count("executor.pool_spawns"))
    p.method(montecarlo.MonteCarloEvaluator, "evaluate",
             span("mc.evaluate", boundary=True))
    # variation
    for attr in ("sample", "stack_for", "stack_into"):
        p.method(VariationInjector, attr, span("variation.draw", hook=_draw_hook))
    # nn
    for cls in (layers.Linear, layers.Conv2d, analog_layers.AnalogLinear,
                analog_layers.AnalogConv2d):
        p.method(cls, "forward", span(_layer_name, hook=_forward_hook))
    for cls in (layers.ReLU, layers.Tanh, layers.Sigmoid):
        p.method(cls, "forward", span("nn.act"))
    for cls in (layers.AvgPool2d, layers.MaxPool2d):
        p.method(cls, "forward", span("nn.pool"))
    p.method(layers.Flatten, "forward", span("nn.flatten"))
    # hardware
    for attr in ("program", "program_batch"):
        p.method(tiling.TiledCrossbarArray, attr, span("hardware.program"))
    for attr in ("seed_read_noise", "seed_read_noise_batch"):
        p.method(tiling.TiledCrossbarArray, attr, span("hardware.read_seed"))
    p.method(crossbar.Crossbar, "mvm", span("hardware.mvm", hook=_mvm_hook))
    # core
    p.method(Tensor, "backward", span("autograd.backward"))
    p.method(Trainer, "fit", span("training.fit"))
    p.method(Trainer, "_train_batch", count("training.batches"))
    p.method(OrthogonalityRegularizer, "penalty", span("lipschitz.penalty"))
    for cls in (optimizers.SGD, optimizers.Adam, optimizers.RMSprop):
        p.method(cls, "step", span("optim.step"))
    for attr, name in (("fit_base", "pipeline.fit_base"),
                       ("find_candidates", "pipeline.find_candidates"),
                       ("search", "pipeline.search"),
                       ("finalize", "pipeline.finalize"),
                       ("_full_evaluate", "pipeline.eval")):
        p.method(CorrectNet, attr, span(name, boundary=True))
    # rl, compensation
    p.method(ReinforceAgent, "update", count("rl.episodes"))
    p.method(CompensationEnv, "step", span("rl.env_step"))
    p.method(CompensationTrainer, "fit", span("compensation.fit"))
    return p.undo


def iter_spans(tracer: Tracer, name: str) -> Iterator[Tuple[list, float]]:
    """``(span, self time)`` for every span called ``name``."""
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span[NAME] == name:
            yield span, own
