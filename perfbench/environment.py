"""The environment record printed with every benchmark run.

BLAS threads are reported, never pinned: forked pool workers inherit the
parent's OpenBLAS thread count, and that oversubscription is part of
what ``sweep-pool`` measures.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

# Thread-count getters of the OpenBLAS builds numpy ships or links.
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loaded_blas_paths() -> List[str]:
    """Shared objects mapped into this process whose file name says BLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = set()
    for line in maps.splitlines():
        path = line.split()[-1] if len(line.split()) >= 6 else ""
        name = os.path.basename(path).lower()
        if "blas" in name and ".so" in name:
            paths.add(path)
    return sorted(paths)


def blas_threads() -> Optional[int]:
    """Live OpenBLAS thread count, or ``None`` if no getter is found."""
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def blas_info() -> Dict[str, Any]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "threads": blas_threads(),
        "env": {key: os.environ[key] for key in _BLAS_ENV if key in os.environ},
    }


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from ``.git`` (``None`` outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path, plan_info: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "dtype": plan_info.get("dtype"),
        "plan": plan_info,
        "git_commit": git_commit(root),
    }
