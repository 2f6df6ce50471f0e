"""One BLAS thread for the length of a job.

OpenBLAS splits a matrix product over its threads, and the split decides
the order in which the product's terms are summed, so the thread count
can move the last bit of a GEMM — and, through training, of every
trained weight.  OpenBLAS defaults to the host's core count (or
``$OPENBLAS_NUM_THREADS``), so the same job could give different bytes
on hosts with different core counts, or under different settings.

:func:`one_blas_thread` pins the count to 1 for the length of a job:
``run_scoped`` (every ``ExperimentEngine``, ``ZooBuilder`` and
``NetworkCampaign`` run), ``NetworkSession.run``, ``ber_sweep`` and
``Trainer.fit`` run under it.  Pool workers fork inside the job, so
they inherit the count of 1 and never call the setter: a setter call in
a forked worker rebuilds OpenBLAS's thread pool there, and its fresh
threads spin.  The core the pin frees goes to the optimizer's chunked
sweep (:mod:`repro.nn.optim`).

Without OpenBLAS (another BLAS, or a platform without
``/proc/self/maps``) the pin does nothing, and artifacts keep the
thread-count dependence of that BLAS.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

import numpy  # noqa: F401  (loads the BLAS that _openblas looks up)

__all__ = ["one_blas_thread"]

#: (getter, setter) symbol pairs, in lookup order: numpy's bundled
#: scipy-openblas build, then plain OpenBLAS with 64- and 32-bit ints.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

#: Guards ``_depth`` and ``_restore``: jobs run from several threads of
#: one process share one pin.
_lock = threading.Lock()
#: Jobs of this process now inside :func:`one_blas_thread`.
_depth = 0
#: The count to restore when the outermost job leaves; ``None`` when
#: the count was already 1 and no setter was called.
_restore: "int | None" = None


@functools.cache
def _openblas():
    """``(get, set)`` of the OpenBLAS this process loaded, or ``None``.

    Looked up on the first job, never at import: the library's path is
    read from ``/proc/self/maps``.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the block at one OpenBLAS thread, then restore the count.

    Only the outermost block of a process reads the count, and it calls
    the setter only when the count is not already 1, so nested blocks
    and pool workers forked inside a job never touch OpenBLAS.  A no-op
    without OpenBLAS.
    """
    global _depth, _restore
    with _lock:
        if _depth == 0:
            api = _openblas()
            previous = None if api is None else int(api[0]())
            _restore = previous if previous not in (None, 1) else None
            if _restore is not None:
                api[1](1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _restore is not None:
                _openblas()[1](_restore)
                _restore = None
