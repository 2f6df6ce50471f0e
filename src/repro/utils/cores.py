"""The one rule for how many cores a job's helper threads may use.

A job computes at one BLAS thread (:func:`repro.utils.blas.one_blas_thread`),
so the process's other cores are free for threads the job starts itself:
the optimizer's sweep chunks and the backward's weight-gradient helper
(:func:`repro.nn.optim.sweep_threads`), and the zoo builder's checkpoint
loaders (:meth:`repro.core.zoo_builder.ZooBuilder.build`).  Each asks
:func:`job_cores` and then applies its own size threshold, so a host,
an affinity mask or a pool worker changes all of them alike.
"""

from __future__ import annotations

import multiprocessing
import os

__all__ = ["job_cores"]


def job_cores() -> int:
    """Cores a job's helper threads may use; 1 means start none.

    The cores this process may run on (``os.sched_getaffinity``), or 1
    in a pool worker, whose pool already runs a process per core.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1
