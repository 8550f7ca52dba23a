"""CorrectNet reproduction benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-store --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``sweep-store``, ``sweep-pool``,
``analog``, ``pipeline``. A run sets up several times (median reported
as ``setup_s``), then repeats whole units of work — a σ sweep, or one
``CorrectNet.run`` — until the kept units add up to ``--seconds``, then
runs the output checks outside the timed region. The details line
records the hypervisor's CPU steal share during each unit. Earlier
stdout lines carry the environment record and run details; the last
line is the result object
``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``):

- ``setup_s`` — median set-up time: data synthesis, checkpoint training,
  ``analogize`` and a warm-up evaluation.
- ``draws_per_s`` — Monte-Carlo draws completed per second of timed
  wall (one draw is one pass over the 320-image split).
- ``point_s_p50`` / ``point_s_tail`` — latency of one σ point (store:
  claim to finalize of one job; otherwise one ``evaluate`` call). On
  ``pipeline`` a point is one whole ``CorrectNet.run``. The tail is the
  highest percentile with at least ten points beyond it, but never below
  the 90th (nearest rank), so a run of few points reports one of its
  slowest; its rank and point count are printed on the details line.
- ``pipeline_s`` — median wall time of one unit: one ``CorrectNet.run``
  on ``pipeline``, one whole σ sweep elsewhere.
- ``peak_rss_mb`` — peak RSS of this process plus that of its largest
  child, read after set-up and the first timed unit (it grows with every
  further unit, and the number of units depends on speed).
- ``success_rate`` — share of attempted operations and output checks
  that succeeded (the contract's ``attempted``/``failed`` fields carry
  the counts).

``--trace 1`` additionally runs one unit with every instrumented layer
wrapped (``tracing.py``) and prints the per-layer metrics instead: self
times, call counts, and counts computed from observed shapes (unit
``computed_*``), which must repeat exactly between runs of one seed. The
Chrome trace and the self-time table are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import tracing
from environment import environment

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
LENET_LAYERS = ("net.0", "net.3", "net.7", "net.9", "net.11")
TAIL_BEYOND = 10
TAIL_FLOOR = 0.9
CHILD_GRACE_S = 5.0

E2E_UNITS = {
    "setup_s": "s",
    "draws_per_s": "draws/s",
    "point_s_p50": "s",
    "point_s_tail": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Computed counts: deterministic for a seed and checked across runs.
COMPUTED_UNITS = {
    "plan.build_calls": "computed_count",
    "variation.elems_drawn": "computed_elems",
    "variation.bytes_drawn": "computed_B",
    "executor.arena_bytes": "computed_B",
    "hardware.mvm_macs": "computed_MAC",
    "rl.episodes": "computed_count",
    **{f"nn.{layer}.macs": "computed_MAC" for layer in LENET_LAYERS},
}

PER_LAYER_UNITS = {
    "data.synth_s": "s", "data.synth_calls": "count",
    "store.materialize_s": "s", "store.materialize_calls": "count",
    "store.submit_s": "s", "store.claim_s": "s", "store.put_chunk_s": "s",
    "store.put_chunk_calls": "count", "store.finalize_s": "s",
    "store.query_s": "s", "store.fingerprint_s": "s",
    "store.cache_hit_ratio": "ratio",
    "plan.build_s": "s", "executor.execute_s": "s", "executor.chunks": "count",
    "executor.chunk_s_p50": "s", "executor.chunk_s_p90": "s",
    "mc.evaluate_s": "s", "mc.evaluate_calls": "count",
    "executor.pool_spawns": "count", "executor.arena_create_s": "s",
    "executor.pool_wait_s": "s",
    "variation.draw_s": "s", "variation.draw_calls": "count",
    **{f"nn.{layer}.forward_s": "s" for layer in LENET_LAYERS},
    **{f"nn.{layer}.gflops": "GFLOP/s" for layer in LENET_LAYERS},
    "nn.act_s": "s", "nn.pool_s": "s", "nn.flatten_s": "s",
    "hardware.program_s": "s", "hardware.program_calls": "count",
    "hardware.read_seed_s": "s", "hardware.mvm_s": "s",
    "hardware.mvm_calls": "count", "hardware.mvm_gflops": "GFLOP/s",
    "training.fit_s": "s", "training.batches": "count", "autograd.backward_s": "s",
    "lipschitz.penalty_s": "s", "lipschitz.penalty_calls": "count",
    "optim.step_s": "s", "pipeline.fit_base_s": "s",
    "pipeline.find_candidates_s": "s", "pipeline.search_s": "s",
    "pipeline.finalize_s": "s", "pipeline.eval_s": "s",
    "rl.env_step_s": "s", "rl.env_step_calls": "count",
    "compensation.fit_s": "s", "compensation.fit_calls": "count",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
    **COMPUTED_UNITS,
}

# Per-layer metric -> span whose self time (``_s``) or call count it reads.
_SELF_TIME = {
    "data.synth_s": "data.synth", "store.materialize_s": "store.materialize",
    "store.submit_s": "store.submit", "store.claim_s": "store.claim",
    "store.put_chunk_s": "store.put_chunk", "store.finalize_s": "store.finalize",
    "store.query_s": "store.query", "store.fingerprint_s": "store.fingerprint",
    "plan.build_s": "plan.build", "executor.execute_s": "executor.execute",
    "mc.evaluate_s": "mc.evaluate", "executor.arena_create_s": "executor.arena_create",
    "variation.draw_s": "variation.draw", "nn.act_s": "nn.act",
    "nn.pool_s": "nn.pool", "nn.flatten_s": "nn.flatten",
    "hardware.program_s": "hardware.program", "hardware.read_seed_s": "hardware.read_seed",
    "hardware.mvm_s": "hardware.mvm", "training.fit_s": "training.fit",
    "autograd.backward_s": "autograd.backward",
    "lipschitz.penalty_s": "lipschitz.penalty", "optim.step_s": "optim.step",
    "pipeline.fit_base_s": "pipeline.fit_base",
    "pipeline.find_candidates_s": "pipeline.find_candidates",
    "pipeline.search_s": "pipeline.search", "pipeline.finalize_s": "pipeline.finalize",
    "pipeline.eval_s": "pipeline.eval", "rl.env_step_s": "rl.env_step",
    "compensation.fit_s": "compensation.fit",
    **{f"nn.{layer}.forward_s": f"nn.{layer}" for layer in LENET_LAYERS},
}
_CALLS = {
    "data.synth_calls": "data.synth", "store.materialize_calls": "store.materialize",
    "store.put_chunk_calls": "store.put_chunk", "plan.build_calls": "plan.build",
    "executor.chunks": "executor.chunk", "mc.evaluate_calls": "mc.evaluate",
    "variation.draw_calls": "variation.draw", "hardware.program_calls": "hardware.program",
    "hardware.mvm_calls": "hardware.mvm", "lipschitz.penalty_calls": "lipschitz.penalty",
    "rl.env_step_calls": "rl.env_step", "compensation.fit_calls": "compensation.fit",
}
_COUNTERS = ("executor.pool_spawns", "executor.arena_bytes", "variation.elems_drawn",
             "variation.bytes_drawn", "hardware.mvm_macs", "training.batches",
             "rl.episodes", *(f"nn.{layer}.macs" for layer in LENET_LAYERS))


def tail(points: List[float]) -> Tuple[float, float, int]:
    """(value, percentile rank, n): highest percentile with >= 10 points
    beyond it, or the 90th (nearest rank) if that is higher."""
    ordered = sorted(points)
    n = len(ordered)
    index = max(0, n - 1 - TAIL_BEYOND, math.ceil(TAIL_FLOOR * n) - 1)
    rank = 100.0 * index / (n - 1) if n > 1 else 0.0
    return ordered[index], rank, n


def cpu_ticks() -> List[int]:
    """Aggregate CPU tick counters from ``/proc/stat`` (empty if absent)."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU ticks the hypervisor stole between two readings."""
    if len(before) < 8 or len(after) < 8:
        return None
    deltas = [a - b for a, b in zip(after, before)]
    return deltas[7] / sum(deltas) if sum(deltas) else None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def per_layer_metrics(tracer, traced_unit, untraced_unit_s: float,
                      workload_name: str) -> Dict[str, float]:
    table = tracer.table()
    values: Dict[str, float] = {}
    for metric, span in _SELF_TIME.items():
        values[metric] = table.get(span, {}).get("self_s", 0.0)
    for metric, span in _CALLS.items():
        values[metric] = table.get(span, {}).get("calls", 0)
    for key in _COUNTERS:
        values[key] = tracer.counts.get(key, 0)
    chunks = tracer.durations("executor.chunk")
    values["executor.chunk_s_p50"] = percentile(chunks, 0.5)
    values["executor.chunk_s_p90"] = percentile(chunks, 0.9)
    values["executor.pool_wait_s"] = sum(
        own for span, own in tracing.iter_spans(tracer, "executor.execute")
        if (span[tracing.ATTRS] or {}).get("backend") == "pool")
    for layer in LENET_LAYERS:
        seconds = values[f"nn.{layer}.forward_s"]
        macs = values[f"nn.{layer}.macs"]
        values[f"nn.{layer}.gflops"] = 2e-9 * macs / seconds if seconds else 0.0
    seconds = values["hardware.mvm_s"]
    values["hardware.mvm_gflops"] = (2e-9 * values["hardware.mvm_macs"] / seconds
                                     if seconds else 0.0)
    outputs = traced_unit.outputs
    values["store.cache_hit_ratio"] = (
        outputs["hits"] / outputs["resubmits"] if workload_name == "sweep-store" else 0.0)
    traced_wall = sum(tracer.durations(tracing.ROOT))
    values["trace.overhead_frac"] = (traced_wall - untraced_unit_s) / untraced_unit_s
    values["trace.coverage_frac"] = tracer.coverage()
    return values


def source_digest(env: Dict[str, Any]) -> str:
    """Digest of what decides a run's outputs: the program and benchmark
    sources, numpy and the BLAS build."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    blas = env["blas"]
    digest.update(f"{env['numpy']} {blas['name']} {blas['version']}".encode())
    return digest.hexdigest()[:16]


def repeat_check(workdir: Path, key: str, record: Dict[str, Any]) -> List[str]:
    """Compare ``record`` with what the first run of the same program,
    workload and seed stored. Fields are stored once and never
    overwritten, so every later disagreement is reported."""
    path = workdir / f"repeat-{key}.json"
    previous: Dict[str, Any] = json.loads(path.read_text()) if path.exists() else {}
    failures = [
        f"{field} differ from an earlier run of the same seed"
        for field, value in record.items()
        if field in previous and previous[field] != value
    ]
    path.write_text(json.dumps({**record, **previous}, sort_keys=True))
    return failures


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns (environment, details, result object)."""
    import workloads  # imports the program, so ``src`` must be on sys.path

    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    env = environment(ROOT, workload.plan_info())
    env["source_digest"] = source_digest(env)

    units: List[Any] = []
    steals: List[Optional[float]] = []
    rss_mb = 0.0
    while not units or sum(unit.wall_s for unit in units) < seconds:
        before = cpu_ticks()
        units.append(workload.run_unit(None))
        steals.append(steal_share(before, cpu_ticks()))
        rss_mb = rss_mb or peak_rss_mb()
    timed_wall = sum(unit.wall_s for unit in units)

    tracer = None
    all_units = list(units)
    if trace:
        tracer = tracing.Tracer()
        for model in workload.traced_models():
            tracer.register_model(model)
        undo = tracing.install(tracer)
        try:
            with tracer.span(tracing.ROOT):
                traced_unit = workload.run_unit(tracer)
        finally:
            undo()
        all_units.append(traced_unit)

    checks, failures = workload.checks(all_units)
    for unit in all_units:
        failures.extend(unit.failed)
    repeat: Dict[str, Any] = {"outputs": workloads.outputs_digest(units)}
    per_layer: Optional[Dict[str, float]] = None
    if tracer is not None:
        per_layer = per_layer_metrics(tracer, traced_unit, timed_wall / len(units),
                                      workload_name)
        repeat["computed_counts"] = {k: per_layer[k] for k in COMPUTED_UNITS}
        stem = f"{workload_name}-seed{seed}"
        tracer.write(workdir / f"trace-{stem}.json", workdir / f"layers-{stem}.txt")
    failures.extend(repeat_check(
        workdir, f"{workload_name}-seed{seed}-{env['source_digest']}", repeat))
    attempted = sum(unit.operations for unit in all_units) + checks + 1
    failed = len(failures)

    points = [p for unit in units for p in unit.point_s]
    tail_value, tail_rank, tail_n = tail(points)
    if per_layer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "draws_per_s": sum(unit.draws for unit in units) / timed_wall,
            "point_s_p50": statistics.median(points),
            "point_s_tail": tail_value,
            "pipeline_s": statistics.median(unit.wall_s for unit in units),
            "peak_rss_mb": rss_mb,
            "success_rate": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}
    else:
        metrics = {k: {"value": per_layer[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    details = {
        "workload": workload_name,
        "seed": seed,
        "setup_s_each": setup_times,
        "units": len(units),
        "unit_wall_s": [unit.wall_s for unit in units],
        "points": len(points),
        "steal_share": steals,
        "point_s_tail_rank": tail_rank,
        "point_s_tail_n": tail_n,
        "failures": failures,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return env, details, result


def child_pids() -> List[int]:
    """Pids of this process's live and unreaped children (Linux ``/proc``)."""
    pids: List[int] = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(pid) for pid in children.read_text().split())
        except OSError:
            continue
    return sorted(set(pids))


def _reap(pid: int, deadline: float) -> bool:
    """Wait for child ``pid`` until ``deadline``; True once it has ended."""
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done or time.monotonic() >= deadline:
            return bool(done)
        time.sleep(0.01)


def stop_children() -> None:
    """Stop every child process and wait until each has ended.

    The shm pool's ``SharedMemory`` segments start multiprocessing's
    resource tracker, a child that otherwise outlives this process until
    it notices the closed pipe. It is stopped the way multiprocessing
    stops it (close the pipe, wait); any other child gets SIGTERM, then
    SIGKILL after a grace period.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = child_pids()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        deadline = time.monotonic() + CHILD_GRACE_S
        if all([_reap(pid, deadline) for pid in pids]):
            return


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-store", "sweep-pool", "analog", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError:
        repro = None
    if repro is None or not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cannot import the program from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    try:
        env, details, result = run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), workdir)
    except Exception:  # a harness error: report it, print no result
        traceback.print_exc()
        return 1
    finally:
        stop_children()
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
