"""The one owner of parallelism: an order-preserving map over ``jobs`` threads.

numpy's GELU, softmax and layernorm run on one core, so only item-level
workers can use more. OpenBLAS keeps a thread team of its own, and workers
that each call a multithreaded GEMM oversubscribe the cores. While a pool
runs, OpenBLAS therefore gets cores ÷ workers threads, and the caller's
count comes back when the pool ends. One worker runs on the caller's thread
and leaves OpenBLAS as it is.

The thread count is process-wide, so pools are meant to be started from one
thread at a time, as the CLI does.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

# numpy wheels bundle OpenBLAS under a "scipy_" prefix; system builds export
# the plain names. The "64_" forms are the ILP64 interface.
_SYMBOL_PREFIXES = ("scipy_openblas", "openblas")
_SYMBOL_SUFFIXES = ("64_", "")


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) for the OpenBLAS that numpy links, or None without one.

    Symbols resolve through numpy's own extension module: dlsym also
    searches its dependencies, so this finds numpy's BLAS and not another
    copy loaded into the process, such as the one scipy bundles, which a
    caller may import although fragreel does not.
    """
    from numpy._core import _multiarray_umath as umath

    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None when it cannot be read."""
    api = _openblas()
    return None if api is None else int(api[0]())


def worker_plan(jobs: int, n_items: int) -> tuple[int, int | None]:
    """(workers, OpenBLAS threads per worker) for ``n_items`` under ``jobs``.

    A single worker keeps the caller's OpenBLAS count. The count is None
    when OpenBLAS cannot be reached, and then nothing is pinned.
    """
    workers = max(1, min(jobs, n_items))
    if workers == 1 or _openblas() is None:
        return workers, blas_threads()
    return workers, max(1, _cores() // workers)


def _cores() -> int:
    """The cores this process may run on; the machine's count where the
    affinity cannot be read (Windows, macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _blas_pinned(threads: int):
    get, set_ = _openblas()
    before = get()
    set_(threads)
    try:
        yield
    finally:
        set_(before)


def map_ordered(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]`` on up to ``jobs`` threads, in input order."""
    items = list(items)
    workers, per_worker = worker_plan(jobs, len(items))
    if workers == 1:
        return [fn(x) for x in items]
    pinned = nullcontext() if per_worker is None else _blas_pinned(per_worker)
    with pinned, ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
