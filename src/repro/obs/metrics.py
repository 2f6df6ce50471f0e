"""The process-local telemetry registry: counters and timers.

Every run-telemetry number the runtime produces lives here, once:

- **counters** — :func:`count` adds to a named total (``cache.hits``,
  ``executor.retries``, ``store.quarantined``, ``executor.messages``);
- **timers** — :func:`profiled` wraps a function so each call adds one
  call and its wall time to a named timer (``link.measure_ber``,
  ``trainer.fit``, ``sampler.collect_session``).

Both are always on, traced or not, and each event is counted where it
happens, once.  A pool worker empties its registry with :func:`drain`
after every chunk and ships that delta back with the chunk's results;
the coordinator folds it in once with :func:`merge`, so a process's
registry covers the work its workers did for it.  A
:class:`~repro.obs.trace.Tracer` takes a :func:`snapshot` when it is
created and exports what the registry gained :func:`since` then as its
``metrics`` record.

Counters and timers are plain sums, so deltas subtract and merge
exactly.  Nothing here ever feeds a result byte.  Standard library
only: ``repro.obs`` and ``repro.lint`` load without NumPy.
"""

from __future__ import annotations

import functools
import threading
import time

__all__ = ["count", "drain", "merge", "profiled", "since", "snapshot"]

#: One lock for both tables: callers that share the registry across
#: their own threads update them concurrently.
_LOCK = threading.Lock()
_COUNTERS: "dict[str, int]" = {}
#: Timer name -> ``[calls, total_s]``.
_TIMERS: "dict[str, list]" = {}


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` (created at zero)."""
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + n


def _time(name: str, elapsed_s: float) -> None:
    with _LOCK:
        # Telemetry only: timers never feed task result bytes, so
        # cross-call registry state cannot violate bit-identity.
        # repro: allow[REP-PURE-TASK]
        entry = _TIMERS.get(name)
        if entry is None:
            _TIMERS[name] = [1, elapsed_s]
        else:
            entry[0] += 1
            entry[1] += elapsed_s


def profiled(name: str):
    """Decorator: time each call of the wrapped function as timer ``name``.

    A call that raises is timed too: the time a failure burned is what a
    post-mortem needs.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _time(name, time.perf_counter() - start)

        return wrapper

    return decorate


def _export() -> dict:
    return {
        "counters": dict(sorted(_COUNTERS.items())),
        "timers": {
            name: {"calls": calls, "total_s": total_s}
            for name, (calls, total_s) in sorted(_TIMERS.items())
        },
    }


def snapshot() -> dict:
    """The registry, names sorted.

    ``{"counters": {name: total}, "timers": {name: {"calls": n,
    "total_s": seconds}}}``.
    """
    with _LOCK:
        return _export()


def since(base: dict) -> dict:
    """What the registry gained after ``base`` (a :func:`snapshot`).

    Same layout as :func:`snapshot`; names that did not move are left
    out, so a delta lists only what happened in between.
    """
    now = snapshot()
    counters = {}
    for name, value in now["counters"].items():
        gained = value - base["counters"].get(name, 0)
        if gained:
            counters[name] = gained
    timers = {}
    for name, entry in now["timers"].items():
        held = base["timers"].get(name, {"calls": 0, "total_s": 0.0})
        if entry["calls"] != held["calls"]:
            timers[name] = {
                "calls": entry["calls"] - held["calls"],
                "total_s": entry["total_s"] - held["total_s"],
            }
    return {"counters": counters, "timers": timers}


def drain() -> dict:
    """:func:`snapshot` the registry and clear it, in one step.

    A pool worker drains once when it starts (dropping what the fork
    copied from the coordinator) and after every chunk, so each chunk
    ships exactly what the worker counted for it.
    """
    with _LOCK:
        out = _export()
        _COUNTERS.clear()
        _TIMERS.clear()
    return out


def merge(delta: dict) -> None:
    """Fold a :func:`drain` or :func:`since` delta into this registry."""
    with _LOCK:
        for name, n in delta["counters"].items():
            _COUNTERS[name] = _COUNTERS.get(name, 0) + n
        for name, entry in delta["timers"].items():
            held = _TIMERS.setdefault(name, [0, 0.0])
            held[0] += entry["calls"]
            held[1] += entry["total_s"]
