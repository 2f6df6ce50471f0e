"""The single sanctioned reader for ``$REPRO_RUNTIME_*`` knobs.

Every environment read in the runtime routes through :func:`read_knob`
so ambient process state has exactly one auditable entry point — the
``REP-ENV-READ`` lint rule (see ``docs/static-analysis.md``) enforces
that no other module touches ``os.environ``.  The module is
deliberately dependency-free: it is imported from deep inside the
``repro.runtime`` package (and lazily from ``repro.obs.trace``, which
sits *below* the runtime in the import graph), so it must never import
anything that could re-enter the package cycle.

Knob constants live here and are re-exported from their historical
homes (``executor.WORKERS_ENV`` etc.) so existing imports keep working.
"""

from __future__ import annotations

import os

__all__ = [
    "WORKERS_ENV",
    "FAULTS_ENV",
    "CACHE_ENV",
    "CHECKPOINTS_ENV",
    "TRACE_ENV",
    "KNOWN_KNOBS",
    "read_knob",
    "knob_snapshot",
]

#: Worker-pool size used when no explicit ``n_workers`` is passed.
WORKERS_ENV = "REPRO_RUNTIME_WORKERS"
#: Fault-injection plan grammar (see ``runtime/faults.py``).
FAULTS_ENV = "REPRO_RUNTIME_FAULTS"
#: Result-cache root override.
CACHE_ENV = "REPRO_RUNTIME_CACHE"
#: Checkpoint-store root override.
CHECKPOINTS_ENV = "REPRO_RUNTIME_CHECKPOINTS"
#: Trace output directory; setting it traces every engine run.
TRACE_ENV = "REPRO_RUNTIME_TRACE"

#: Every runtime knob, for documentation and diagnostics.
KNOWN_KNOBS = (
    WORKERS_ENV,
    FAULTS_ENV,
    CACHE_ENV,
    CHECKPOINTS_ENV,
    TRACE_ENV,
)


def read_knob(name: str, default: "str | None" = None) -> "str | None":
    """Read one environment knob (the only sanctioned environ access)."""
    return os.environ.get(name, default)


def knob_snapshot() -> "dict[str, str]":
    """The currently-set runtime knobs (for health/diagnostic reports)."""
    out: dict[str, str] = {}
    for name in KNOWN_KNOBS:
        value = read_knob(name)
        if value is not None:
            out[name] = value
    return out
