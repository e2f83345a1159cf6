"""Runtime control of the loaded OpenBLAS's thread count.

NumPy links OpenBLAS (``scipy_openblas64_`` in the wheels, plain
``openblas`` in distribution builds) but exposes no way to resize its thread
pool.  This module finds the loaded library through ``/proc/self/maps`` and
calls its ``*_set_num_threads`` / ``*_get_num_threads`` entry points through
:mod:`ctypes`.  On a host without such a BLAS (another vendor, another OS)
every call is a reported no-op: :func:`num_threads` and
:func:`set_num_threads` return ``None``.

The entry points are resolved once per process and cached; a worker forked
from a parent that already resolved them inherits the cache.

:func:`worker_budget` is the per-worker rule the process pool applies
(:mod:`repro.distrib.pool`): ``max(1, min(parent_threads, usable_cpus //
strength))``.  It never raises the count the calling process runs with, so
a user's explicit ``OPENBLAS_NUM_THREADS`` is an upper bound.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np  # noqa: F401 - loads the BLAS this module looks for

__all__ = [
    "num_threads",
    "set_num_threads",
    "threads",
    "usable_cpus",
    "worker_budget",
]

#: ``(setter, getter)`` symbol pairs, most specific build first
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _entry() -> tuple[object, object] | None:
    """``(setter, getter)`` of the loaded OpenBLAS, or ``None``."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted(
        {
            line.split()[-1]
            for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        }
    )
    handles = []
    for path in libraries:
        try:
            handles.append(ctypes.CDLL(path))
        except OSError:
            continue
    # symbol order first: with SciPy loaded, its own 32-bit-index OpenBLAS
    # sits beside NumPy's ILP64 one and must not be the copy resized
    for set_name, get_name in _SYMBOLS:
        for handle in handles:
            setter = getattr(handle, set_name, None)
            getter = getattr(handle, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return setter, getter
    return None


def num_threads() -> int | None:
    """The thread count the BLAS runs with now; ``None`` without control."""
    entry = _entry()
    return None if entry is None else int(entry[1]())


def set_num_threads(n: int) -> int | None:
    """Run the BLAS with ``n`` threads; returns the count now in effect."""
    if n < 1:
        raise ValueError(f"a BLAS needs at least one thread, got {n}")
    entry = _entry()
    if entry is None:
        return None
    entry[0](int(n))
    return int(entry[1]())


@contextmanager
def threads(n: int) -> Iterator[int | None]:
    """Run the enclosed block with ``n`` BLAS threads, then restore."""
    previous = num_threads()
    try:
        yield set_num_threads(n)
    finally:
        if previous is not None:
            set_num_threads(previous)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def worker_budget(strength: int) -> int | None:
    """BLAS threads for each of ``strength`` workers sharing this host.

    ``max(1, min(parent_threads, usable_cpus // strength))``, where
    ``parent_threads`` is what the calling process runs with now; ``None``
    when the BLAS offers no thread control.
    """
    parent = num_threads()
    if parent is None:
        return None
    return max(1, min(parent, usable_cpus() // max(1, strength)))
