"""Executing an :class:`~repro.evaluation.plan.EvalPlan`.

One driver, :class:`IncrementalEvaluation`, runs every plan; what used to
distinguish the six Monte-Carlo engine bodies (plain vs analog, each
times three backends) is now a **model adapter**: the one object that
knows how to apply a draw (or a stacked chunk of draws) to the model and
how to restore the model afterwards.

- :class:`WeightAdapter` — weight-domain models (plain, compensated). A
  draw is :meth:`VariationInjector.applied`; a chunk is ``stack_for`` +
  ``applied_stack`` (sample-stacked parameter arrays). The targets are
  the weighted layers the plan's spec does not resolve to ``none`` — the
  spec is the only thing that says which layers vary. Restoration is
  per-application: the injector puts nominal values back on context exit.
- :class:`AnalogAdapter` — crossbar-deployed models. A draw programs every
  analog layer from the draw's stream (one tile-programming spawn plus,
  when the array models read noise, one read-noise spawn, in traversal
  order); a chunk programs stacked conductance planes via
  ``program_batch``/``seed_read_noise_batch`` on the same streams.
  Restoration is run-scoped: ``preserved_programming`` snapshots the
  deployed chip state around the whole evaluation.

Both adapters consume exactly one logical draw per (sample, target) from
the plan's seed schedule, in the same order — that single fact is the
entire cross-backend bitwise contract, and it is now stated (and tested)
once instead of per engine.

Every backend evaluates the same unit of work — one chunk of the plan's
chunk schedule — through :class:`_ChunkStep`: nominal replication when
nothing is subject to variation, the stacked kernels when
``plan.stacked``, the per-draw reference loop otherwise. The driver sees
one of two chunk steps of the same shape, ``(start, stop) ->
accuracies`` plus a run scope: :class:`_ChunkStep` itself in-process, or
:class:`_PoolStep`, which runs it in worker processes.

The pool has one transport. The parent places the dataset and every
nominal parameter plane in one POSIX shared-memory segment
(:class:`ShmArena`) and ships workers its manifest plus a model pickle
whose parameter arrays were swapped for empty stubs; workers attach the
segment zero-copy instead of deserializing. On its first call the pool
step submits one ``(start, stop)`` task per remaining chunk, in schedule
order, and returns results strictly in order — so
``MCResult.accuracies[i]`` is stream ``i``'s draw on every backend, the
``on_chunk`` hook and the stopping rule see exactly the prefixes the
in-process backends show them, and a resumed evaluation dispatches from
its first unstored chunk. Workers re-derive their rng streams from the
plan's seed schedule (``spawn_rngs`` is deterministic), so task payloads
are O(1). The parent owns the segment and unlinks it when the step's run
scope exits, so normal exit, worker crash, a raising hook and adaptive
cancellation all leave ``/dev/shm`` clean.

Eval dtype: a ``dtype="float32"`` plan evaluates a float32 *rounding* of
the model — every parameter, buffer and image cast exactly once at run
scope (:func:`_dtype_scope` in-process, permanently on the worker's
private copy in the pool) — while draws keep being generated in float64
from the float32-rounded nominal and cast once
(:meth:`VariationInjector._draw`). Stream consumption depends only on
shapes, so the seed schedule is dtype-invariant and the bitwise pairing
contract holds *per dtype* across all three backends.

Sequential (adaptive) stopping: when the plan carries a ``stopping``
rule, it is re-checked on the prefix of draws after each chunk — at
chunk boundaries only, in seed-schedule order, on every backend — and
evaluation halts once it is satisfied; the pool cancels the chunks still
queued. The decision points and the per-draw state are identical
everywhere, so the stop point is engine-invariant and an adaptive run's
draws are a bitwise prefix of the fixed-S run on the same seed.
"""

from __future__ import annotations

import collections
import contextlib
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np
import numpy.typing as npt

from repro.data.dataset import ArrayDataset
from repro.evaluation.metrics import accuracy
from repro.evaluation.plan import EvalPlan
from repro.evaluation.vectorized import stacked_accuracies
from repro.hardware.analog_layers import (
    analog_layers,
    preserved_programming,
)
from repro.nn.module import Module
from repro.variation.injector import VariationInjector
from repro.variation.models import VariationModel

if TYPE_CHECKING:
    from repro.evaluation.montecarlo import MCResult


# ---------------------------------------------------------------------------
# Model adapters
# ---------------------------------------------------------------------------
class WeightAdapter:
    """Apply draws by perturbing ``Parameter.data`` through the injector."""

    def __init__(
        self, model: Module, variation: VariationModel, dtype: str = "float64"
    ) -> None:
        self.model = model
        self.injector = VariationInjector(model, variation, dtype=dtype)

    @property
    def has_targets(self) -> bool:
        """False when nothing is subject to variation (e.g. a ``LayerMap``
        resolving every layer to ``none``): every draw then sees nominal
        weights."""
        return bool(self.injector.target_parameters())

    def run_context(self) -> ContextManager[None]:
        """Weight restoration is per-application, so nothing run-scoped."""
        return contextlib.nullcontext()

    def apply_draw(self, rng: np.random.Generator) -> ContextManager[object]:
        return self.injector.applied(rng)

    @contextlib.contextmanager
    def apply_chunk(self, rngs: Sequence[np.random.Generator]) -> Iterator[None]:
        with self.injector.applied_stack(self.injector.stack_for(rngs)):
            yield


class AnalogAdapter:
    """Apply draws by (re)programming the crossbar arrays.

    Per-layer spec resolution mirrors ``analogize``: the layer's qualified
    name and its position among the analog layers (the weighted-layer
    index of the pre-conversion model when the whole model was converted)
    feed ``variation.model_for``, so ``LayerMap`` scenarios target the
    same layers in the analog and weight-domain protocols. Layers whose
    arrays model no read noise skip the read-seeding spawn — consistently,
    keeping per-stream consumption identical in every backend.
    """

    def __init__(self, model: Module, variation: VariationModel) -> None:
        self.model = model
        layers = analog_layers(model)
        self.resolved = [
            (
                layer,
                variation.model_for(name, index, len(layers)),
                layer.models_read_noise,
            )
            for index, (name, layer) in enumerate(layers)
        ]

    has_targets = True  # an analog model always has arrays to program

    def run_context(self) -> ContextManager[object]:
        """Snapshot the deployed chip state around the whole run."""
        return preserved_programming(self.model)

    @contextlib.contextmanager
    def apply_draw(self, rng: np.random.Generator) -> Iterator[None]:
        for layer, spec, seeds_read in self.resolved:
            layer.program(spec, rng)
            if seeds_read:
                layer.seed_read_noise(rng)
        yield

    @contextlib.contextmanager
    def apply_chunk(self, rngs: Sequence[np.random.Generator]) -> Iterator[None]:
        for layer, spec, seeds_read in self.resolved:
            layer.program_batch(spec, rngs)
            if seeds_read:
                layer.seed_read_noise_batch(rngs)
        yield


#: What the backends program against: the one seam between "how a draw is
#: applied" and "how draws are scheduled".
ModelAdapter = Union[WeightAdapter, AnalogAdapter]


def make_adapter(model: Module, plan: EvalPlan) -> ModelAdapter:
    """The adapter matching the plan's domain, bound to ``model``."""
    if plan.domain == "analog":
        return AnalogAdapter(model, plan.variation)
    return WeightAdapter(model, plan.variation, plan.dtype)


# ---------------------------------------------------------------------------
# Eval dtype
# ---------------------------------------------------------------------------
def _cast_model(model: Module, dtype: str) -> List[Tuple[Any, ...]]:
    """Cast every parameter and buffer of ``model`` to ``dtype``, once.

    Goes around the float64 coercion in ``Parameter``/``set_buffer`` by
    assigning directly (the registration plumbing stays intact — only the
    array contents change dtype). Returns the restore list
    :func:`_dtype_scope` unwinds; pool workers discard it (the cast is
    permanent on their private copy). Shared parameters/modules are cast
    exactly once.
    """
    saved: List[Tuple[Any, ...]] = []
    seen: set[int] = set()
    for module in model.modules():
        if id(module) in seen:
            continue
        seen.add(id(module))
        for param in module._parameters.values():
            if id(param) in seen:
                continue
            seen.add(id(param))
            saved.append(("param", param, param.data))
            param.data = param.data.astype(dtype)
        for name, buf in list(module._buffers.items()):
            saved.append(("buffer", module, name, buf))
            cast_buf = buf.astype(dtype)
            module._buffers[name] = cast_buf
            object.__setattr__(module, name, cast_buf)
    return saved


@contextlib.contextmanager
def _dtype_scope(model: Module, dtype: str) -> Iterator[None]:
    """Run scope of the eval dtype policy: cast the model once, restore on
    exit. ``float64`` is a no-op (the model already is). Nesting is safe
    (inner scopes re-cast already-cast arrays; restore unwinds in reverse),
    which is what lets ``evaluate_grid`` hold many incremental evaluations
    of one model open at once."""
    if dtype == "float64":
        yield
        return
    saved = _cast_model(model, dtype)
    try:
        yield
    finally:
        for entry in reversed(saved):
            if entry[0] == "param":
                _, param, data = entry
                param.data = data
            else:
                _, module, name, buf = entry
                module._buffers[name] = buf
                object.__setattr__(module, name, buf)


def _cast_dataset(dataset: ArrayDataset, dtype: str) -> ArrayDataset:
    """The dataset in the eval dtype — a cast copy of the images when the
    policy asks for one, the dataset itself otherwise (labels are class
    indices, never cast)."""
    if dtype == "float64" or dataset.images.dtype == np.dtype(dtype):
        return dataset
    return ArrayDataset.from_views(dataset.images.astype(dtype), dataset.labels)


# ---------------------------------------------------------------------------
# The chunk step
# ---------------------------------------------------------------------------
class _ChunkStep:
    """The one per-chunk step every backend runs.

    Evaluates draws ``[start, stop)`` of the plan's seed schedule against
    ``model``/``dataset`` (both already in the eval dtype):

    - nominal replication when nothing is subject to variation (a
      deterministic plan, or a spec resolving every layer to ``none``)
      — one nominal accuracy, computed once and repeated for every draw;
    - the stacked kernels over the whole span when ``plan.stacked`` —
      one pass per data block for all its draws;
    - otherwise the per-draw reference loop, one full sweep per draw.

    Spans are slices of the one stream list, so pairing is structural:
    draw ``i`` consumes stream ``i`` wherever chunk boundaries fall and
    whichever process runs the step.
    """

    def __init__(
        self, plan: EvalPlan, model: Module, dataset: ArrayDataset
    ) -> None:
        self.plan = plan
        self.model = model
        self.dataset = dataset
        self.adapter: ModelAdapter = make_adapter(model, plan)
        self.rngs: List[np.random.Generator] = (
            [] if plan.deterministic else plan.draw_rngs()
        )
        self._nominal: Optional[float] = None

    @contextlib.contextmanager
    def run_context(self) -> Iterator[None]:
        """In-process run scope: the eval-dtype cast, then the adapter's
        restoration scope (pool workers cast once, at initialization)."""
        with _dtype_scope(self.model, self.plan.dtype):
            with self.adapter.run_context():
                yield

    def __call__(self, start: int, stop: int) -> List[float]:
        plan = self.plan
        if plan.deterministic or not self.adapter.has_targets:
            if self._nominal is None:
                self._nominal = accuracy(
                    self.model, self.dataset, plan.batch_size
                )
            return [self._nominal] * (stop - start)
        run = _stacked_accuracies if plan.stacked else _loop_accuracies
        return run(
            self.model, self.dataset, self.adapter, plan, self.rngs[start:stop]
        )


def _loop_accuracies(
    model: Module,
    dataset: ArrayDataset,
    adapter: ModelAdapter,
    plan: EvalPlan,
    rngs: Sequence[np.random.Generator],
) -> List[float]:
    """Reference execution: one full forward sweep per draw."""
    accs: List[float] = []
    for rng in rngs:
        with adapter.apply_draw(rng):
            accs.append(accuracy(model, dataset, plan.loop_batch))
    return accs


def _stacked_accuracies(
    model: Module,
    dataset: ArrayDataset,
    adapter: ModelAdapter,
    plan: EvalPlan,
    rngs: Sequence[np.random.Generator],
) -> List[float]:
    """Stacked execution: every draw of ``rngs`` (one chunk) installed at
    once, one pass per data block."""
    with adapter.apply_chunk(rngs):
        stacked = stacked_accuracies(
            model, dataset, len(rngs), plan.data_block
        )
    return [float(a) for a in stacked]


# ---------------------------------------------------------------------------
# The pool: shared-memory transport and workers
# ---------------------------------------------------------------------------
class ShmArena:
    """Many named numpy arrays in one POSIX shared-memory segment.

    The parent :meth:`create`\\ s the arena from ``{key: (dtype, shape)}``
    specs, fills the arrays through :meth:`array` views, and ships the
    picklable :attr:`manifest` (segment name + per-key offset/dtype/shape)
    to workers, which :meth:`attach` and map the same physical pages —
    transport cost is O(1) in the array sizes. Ownership is explicit: only
    the creating side :meth:`unlink`\\ s (always, in a ``finally``), so a
    worker that crashes mid-task can never strand a segment; attachers
    just :meth:`close`. Offsets are 64-byte aligned so every view is
    cache-line (and SIMD) aligned.
    """

    ALIGN = 64

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: Dict[str, Any],
        owner: bool,
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self._owner = owner

    @classmethod
    def create(cls, specs: Dict[str, Tuple[str, Tuple[int, ...]]]) -> "ShmArena":
        """Allocate a segment laid out for ``specs``; contents start zeroed."""
        entries: Dict[str, Tuple[int, str, Tuple[int, ...]]] = {}
        offset = 0
        for key, (dtype, shape) in specs.items():
            offset = -(-offset // cls.ALIGN) * cls.ALIGN
            entries[key] = (offset, dtype, tuple(shape))
            offset += int(np.dtype(dtype).itemsize * int(np.prod(shape or (1,))))
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        return cls(shm, {"name": shm.name, "entries": entries}, owner=True)

    @classmethod
    def attach(cls, manifest: Dict[str, Any]) -> "ShmArena":
        """Map an existing arena from its manifest (worker side)."""
        return cls(
            shared_memory.SharedMemory(name=manifest["name"]), manifest, owner=False
        )

    @property
    def name(self) -> str:
        return cast(str, self.manifest["name"])

    def keys(self) -> List[str]:
        return list(self.manifest["entries"])

    def array(self, key: str) -> npt.NDArray[Any]:
        """A zero-copy view of entry ``key``; valid until :meth:`close`."""
        offset, dtype, shape = self.manifest["entries"][key]
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=offset)

    def close(self) -> None:
        """Drop this process's mapping (views must be dead)."""
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment system-wide; owner-only, idempotent."""
        if not self._owner:
            return
        self._owner = False
        self._shm.unlink()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        self.unlink()


def _stripped_payload(model: Module, plan: EvalPlan) -> bytes:
    """The workers' pickle: ``(model, plan)`` with every parameter
    array swapped for an empty stub (weight domain — workers re-point the
    parameters at the arena's nominal planes by name). Analog models are
    pickled whole: workers *program* their crossbar state per draw, so each
    needs a private mutable copy; only the dataset rides the arena.
    """
    if plan.domain == "analog":
        return pickle.dumps((model, plan))
    saved: List[Tuple[Any, npt.NDArray[Any]]] = []
    try:
        for _, param in model.named_parameters():
            saved.append((param, param.data))
            param.data = np.empty((0,), dtype=np.float64)
        return pickle.dumps((model, plan))
    finally:
        for param, data in saved:
            param.data = data


#: Per-worker state installed by :func:`_init_worker` — the initializer
#: runs once per worker process, so the model and the arena mapping cross
#: the IPC boundary once per worker instead of per task.
_POOL_STATE: Dict[str, Any] = {}


def _init_worker(payload: bytes, manifest: Dict[str, Any]) -> None:
    """Attach the arena and build this worker's chunk step on it.

    The worker's dataset images and nominal parameter planes are views of
    the parent's segment — nothing is copied. Both are read-only by
    contract: the injector *replaces* ``Parameter.data`` references
    (never writes in place) and restores them, so many workers safely
    share one mapping. Buffers arrive through the pickle in float64 and
    are cast here for float32 plans (tiny: batch-norm statistics). The
    arena mapping lives as long as the worker; the parent owns the unlink.
    """
    arena = ShmArena.attach(manifest)
    model, plan = cast(
        Tuple[Module, EvalPlan], pickle.loads(payload)  # noqa: S301 - own bytes
    )
    if plan.dtype != "float64":
        _cast_model(model, plan.dtype)
    if plan.domain == "weight":
        for name, param in model.named_parameters():
            param.data = arena.array(f"param:{name}")
    dataset = ArrayDataset.from_views(
        arena.array("images"), arena.array("labels")
    )
    _POOL_STATE["arena"] = arena
    _POOL_STATE["step"] = _ChunkStep(plan, model, dataset)


def _pool_span(start: int, stop: int) -> List[float]:
    """Evaluate one chunk ``[start, stop)`` in a worker (the task body)."""
    step = cast(_ChunkStep, _POOL_STATE["step"])
    with step.adapter.run_context():
        return step(start, stop)


@contextlib.contextmanager
def _pool(
    plan: EvalPlan, model: Module, dataset: ArrayDataset, max_workers: int
) -> Iterator[ProcessPoolExecutor]:
    """A worker pool attached to a fresh arena; cleaned up (shutdown,
    then unlink) however the body exits.

    Arena contents, floating entries in the plan's eval dtype: ``images``
    / ``labels`` (the dataset, cast once by the parent) and, in the
    weight domain, ``param:<name>`` (every parameter's nominal plane).
    Leaving the arena's context unlinks the one and only segment, whether
    the pool exits cleanly, a worker SIGKILLs, or an adaptive rule
    cancels in-flight chunks.
    """
    params = list(model.named_parameters()) if plan.domain == "weight" else []
    specs: Dict[str, Tuple[str, Tuple[int, ...]]] = {
        "images": (plan.dtype, tuple(dataset.images.shape)),
        "labels": (str(dataset.labels.dtype), tuple(dataset.labels.shape)),
    }
    for name, param in params:
        specs[f"param:{name}"] = (plan.dtype, tuple(param.data.shape))
    with ShmArena.create(specs) as arena:
        arena.array("images")[...] = dataset.images
        arena.array("labels")[...] = dataset.labels
        for name, param in params:
            arena.array(f"param:{name}")[...] = param.data
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(_stripped_payload(model, plan), arena.manifest),
        ) as pool:
            yield pool


class _PoolStep:
    """The pool's chunk step: :class:`_ChunkStep` run in worker processes.

    The first call opens :func:`_pool` and submits every chunk from
    ``start`` on (after a ``resume``: the first unstored one), in schedule
    order; each call returns the next result, strictly in order. The
    parent never builds a chunk step, casts the model or runs a forward
    pass. ``ProcessPoolExecutor`` holds at most ``max_workers + 1`` calls
    past cancellation, and the run scope cancels the rest before the pool
    shuts down, however it exits.
    """

    def __init__(
        self,
        plan: EvalPlan,
        model: Module,
        dataset: ArrayDataset,
        bounds: Sequence[Tuple[int, int]],
    ) -> None:
        self.plan = plan
        self.model = model
        self.dataset = dataset
        self.bounds = bounds
        self.scope = contextlib.ExitStack()
        self._pending: Deque["Future[List[float]]"] = collections.deque()

    def run_context(self) -> ContextManager[object]:
        """Shuts the pool down (if it opened) and unlinks its arena."""
        return self.scope

    def __call__(self, start: int, stop: int) -> List[float]:
        if not self._pending:  # first call: nothing submitted yet
            spans = [span for span in self.bounds if span[0] >= start]
            pool = self.scope.enter_context(
                _pool(
                    self.plan, self.model, self.dataset,
                    max_workers=min(self.plan.n_workers, len(spans)),
                )
            )
            # Unwinds first: cancels the queued chunks that leaving
            # ``_pool`` would otherwise wait out.
            self.scope.callback(pool.shutdown, cancel_futures=True)
            self._pending.extend(pool.submit(_pool_span, *span) for span in spans)
        return self._pending.popleft().result()


#: Per-chunk emit hook: called with ``(chunk_index, start, stop, chunk_accs)``
#: right after a chunk's draws land (before the stopping rule is consulted).
#: The result-store runner persists chunks through this seam; anything else
#: that wants streaming progress (progress bars, live dashboards) can too.
ChunkHook = Callable[[int, int, int, Sequence[float]], None]


class IncrementalEvaluation:
    """Resumable chunk-by-chunk execution of one plan, on every backend.

    The one driver: holds the plan's chunk bounds, evaluates one chunk
    per :meth:`run_chunk` call through the plan's chunk step (in-process
    :class:`_ChunkStep`, or :class:`_PoolStep` for a pool plan), and
    consults the plan's stopping rule on the accumulated prefix after
    every chunk.
    Satisfies the :class:`~repro.evaluation.sequential.SequentialPoint`
    protocol, so the sweep-level allocator can interleave chunks across
    many of these against one shared budget — each instance's draws stay a
    contiguous prefix of its own schedule regardless of interleaving.

    ``on_chunk`` is the per-chunk emit hook (see :data:`ChunkHook`);
    :meth:`resume` replays a previously-emitted prefix so an interrupted
    evaluation continues exactly where it stopped — because chunk content
    is a pure function of (plan, seed schedule), the resumed run is
    bitwise-identical to an uninterrupted one, including where an adaptive
    rule would have stopped it.

    Use as a context manager: entry opens the step's run scope (eval-dtype
    cast plus weight restoration / analog chip-state snapshot in-process;
    the pool and its arena for a pool plan), exit closes it.
    """

    def __init__(
        self,
        plan: EvalPlan,
        model: Module,
        dataset: ArrayDataset,
        on_chunk: Optional[ChunkHook] = None,
    ) -> None:
        self.plan = plan
        self.on_chunk = on_chunk
        self.accuracies: List[float] = []
        # A deterministic plan's one nominal draw is the entire schedule.
        self._bounds = ((0, 1),) if plan.deterministic else plan.chunks()
        self._step: Union[_ChunkStep, _PoolStep] = (
            _PoolStep(plan, model, dataset, self._bounds)
            if plan.backend == "pool" and not plan.deterministic
            else _ChunkStep(plan, model, _cast_dataset(dataset, plan.dtype))
        )
        self._next = 0
        self._stopped = False
        self._scope = contextlib.ExitStack()

    @property
    def done(self) -> bool:
        """True once the rule fired or the seed schedule is exhausted."""
        return self._stopped or self._next >= len(self._bounds)

    def resume(self, prefix: Sequence[float]) -> None:
        """Install a previously-evaluated draw prefix and skip its chunks.

        ``prefix`` must be the accuracies an earlier run of the *same*
        plan emitted, chunk-aligned (an interrupted run only ever persists
        whole chunks through ``on_chunk``). The stopping rule is replayed
        at every stored chunk boundary — the identical decision points the
        original run used — so a prefix that already satisfies the rule
        marks the evaluation done, and a prefix extending past where the
        rule fires is rejected as corrupt rather than silently truncated.
        Must be called before any :meth:`run_chunk`.
        """
        if self._next or self.accuracies:
            raise RuntimeError("resume() must precede any run_chunk()")
        consumed = 0
        while consumed < len(prefix):
            if self._next >= len(self._bounds) or self._stopped:
                raise ValueError(
                    f"stored prefix of {len(prefix)} draws extends past "
                    "the plan's schedule or its stop point"
                )
            start, stop = self._bounds[self._next]
            if len(prefix) - consumed < stop - start:
                raise ValueError(
                    f"stored prefix of {len(prefix)} draws is not aligned "
                    f"to the plan's chunk schedule (chunk {self._next} "
                    f"covers draws [{start}, {stop}))"
                )
            self.accuracies.extend(
                float(a) for a in prefix[consumed : consumed + (stop - start)]
            )
            consumed += stop - start
            self._next += 1
            rule = self.plan.stopping
            if rule is not None and rule.satisfied(self.accuracies):
                self._stopped = True

    def __enter__(self) -> "IncrementalEvaluation":
        self._scope.enter_context(self._step.run_context())
        return self

    def __exit__(self, *exc: object) -> None:
        self._scope.close()

    def run_chunk(self) -> int:
        """Evaluate the next chunk; returns the number of draws consumed.

        A no-op returning 0 when :attr:`done`. Stopping is re-checked on
        the full prefix after the chunk lands — the same decision points
        as every other backend, so the stop draw count is engine-invariant.
        """
        if self.done:
            return 0
        index = self._next
        start, stop = self._bounds[index]
        self._next += 1
        self.accuracies.extend(self._step(start, stop))
        if self.on_chunk is not None:
            self.on_chunk(index, start, stop, self.accuracies[start - stop :])
        rule = self.plan.stopping
        if rule is not None and rule.satisfied(self.accuracies):
            self._stopped = True
        return stop - start

    def result(self) -> "MCResult":
        """The draws evaluated so far, wrapped for this plan.

        ``stopped_early`` is structural: fewer draws than the cap means a
        rule (or a sweep budget) cut the schedule short. Deterministic
        plans report their single nominal draw without the flag, and the
        result carries the stopping rule's CI settings so
        ``ci_low``/``ci_high`` are computed the same way the stop decision
        was made.
        """
        from repro.evaluation.montecarlo import MCResult

        plan, accuracies, rule = self.plan, self.accuracies, self.plan.stopping
        return MCResult(
            accuracies,
            stopped_early=not plan.deterministic and len(accuracies) < plan.n_samples,
            confidence=0.95 if rule is None else rule.confidence,
            ci_method="clt" if rule is None else rule.method,
        )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def execute(
    plan: EvalPlan,
    model: Module,
    dataset: ArrayDataset,
    on_chunk: Optional[ChunkHook] = None,
) -> "MCResult":
    """Run ``plan`` against ``model``/``dataset``; returns an ``MCResult``.

    The model must be in the mode the plan was built against (the
    evaluator forces eval mode around both calls). Deterministic plans —
    no variation to sample, no read noise — short-circuit to a single
    nominal evaluation. Plans carrying a stopping rule run chunk-by-chunk
    and may halt before the ``n_samples`` cap (``MCResult.stopped_early``).

    ``on_chunk`` streams each chunk's draws to the caller as it lands, in
    schedule order and from this process on every backend (the result
    store persists restart points through it).
    """
    evaluation = IncrementalEvaluation(plan, model, dataset, on_chunk=on_chunk)
    with evaluation:
        while not evaluation.done:
            evaluation.run_chunk()
    return evaluation.result()
