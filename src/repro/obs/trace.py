"""Run-scoped span tracing for the runtime engine.

A :class:`Tracer` records **spans** — named, nested intervals measured
with monotonic timestamps — for one engine run: engine run → plan →
execute → dispatch → per-task execute, plus store get/put, retries,
backoff, and pool rebuilds.  Workers record their own task-execute
spans locally and ship them back piggybacked on the executor's outcome
tuples, so coordinator and worker telemetry merge into a single
timeline.

Determinism contract: the span *tree* is content-derived.  A span's id
is a short hash of ``(parent_id, name, occurrence_index)`` — never a
pid, never a timestamp — so two runs of the same configuration produce
the same span set, the same tree, and the same ids; only the recorded
timestamps (and the pid *attributes* used to lay out worker lanes)
vary.  Telemetry lives entirely outside the result artifacts:
manifests are byte-identical with tracing on or off.

Each thread nests its spans on a stack of its own, so a span opened on
a helper thread never takes another thread's open span as its parent.
A thread that works for its caller opens its first span with the
caller's span as ``parent`` and a ``fixed_id`` its caller derives in
plan order (as the zoo builder's checkpoint loaders do); spans nested
inside it then number their occurrences under a parent only that
thread uses, so their ids do not depend on which thread finished first.

Cost contract: spans cost next to nothing when disabled.  Library
instrumentation points call :func:`current_tracer` — one module-global
read and a ``None`` check — and record no span when no tracer is
installed.  Counters and timers are not spans: they go to the
always-on registry of :mod:`repro.obs.metrics`.

Activation (mirrors :mod:`repro.runtime.faults`):

- pass ``trace=<dir>`` (or a :class:`Tracer`) to ``ExperimentEngine``,
  ``ZooBuilder``, or ``NetworkCampaign``;
- set ``$REPRO_RUNTIME_TRACE=<dir>`` to trace every engine run in the
  process;
- or :func:`install_tracer` one explicitly (tests do this).

Timestamps are ``time.perf_counter`` readings relative to the trace
epoch.  Worker processes are forked from the coordinator, so their
clock shares the same base and the merged timeline is coherent; on
platforms without fork the worker lanes are still internally
consistent but may be offset from the coordinator's.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import since, snapshot

__all__ = [
    "TRACE_ENV",
    "Span",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "span_id",
    "tracer_for_run",
]

#: Environment variable naming a directory to write traces into.
TRACE_ENV = "REPRO_RUNTIME_TRACE"

#: Length of the hex span ids (48 bits: collision-safe for any real run).
_ID_HEX = 12

#: Id of every root span's implicit parent.
ROOT_PARENT = ""


def span_id(parent: str, name: str, index: int) -> str:
    """Content-derived span id: hash of (parent id, name, occurrence).

    Pure function of the span's position in the tree — two runs of the
    same configuration assign identical ids, whatever the worker count
    or wall clock, and a worker can derive its task span's id from the
    coordinator-provided parent without any shared counter.
    """
    text = f"{parent}|{name}|{index}"
    return hashlib.sha256(text.encode()).hexdigest()[:_ID_HEX]


@dataclass
class Span:
    """One recorded interval (see module docstring for the id contract)."""

    span_id: str
    parent_id: str
    name: str
    category: str
    start_s: float
    end_s: float = 0.0
    pid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pid": self.pid,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects one run's spans (see module docstring).

    Counters and timers are not the tracer's: they live in the process
    registry of :mod:`repro.obs.metrics` and count whether or not a
    tracer is installed.  The tracer remembers the registry's state when
    it is created, and :meth:`metrics` reports what it gained since.

    Parameters
    ----------
    name:
        The root label (``"engine:fig09"``, ``"campaign:network-scale"``).
    out_dir:
        Directory the owning engine writes the trace into at run end
        (``None`` = in-memory only; export explicitly via
        :func:`repro.obs.export.write_trace`).
    epoch:
        ``perf_counter`` origin for timestamps; workers receive the
        coordinator's epoch so the merged timeline is coherent.
    """

    def __init__(
        self,
        name: str = "run",
        out_dir: "str | os.PathLike | None" = None,
        epoch: "float | None" = None,
    ) -> None:
        self.name = name
        self.out_dir = None if out_dir is None else str(out_dir)
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.pid = os.getpid()
        self.spans: "list[Span]" = []
        self._registry_base = snapshot()
        #: Each thread's stack of open span ids (see the module docstring).
        self._local = threading.local()
        self._counts: "dict[tuple[str, str], int]" = {}
        self._lock = threading.RLock()

    # -- span recording ----------------------------------------------------------

    def now(self) -> float:
        """Seconds since the trace epoch (monotonic)."""
        return time.perf_counter() - self.epoch

    def _stack(self) -> "list[str]":
        """The calling thread's stack of open span ids."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> str:
        """Id of this thread's innermost open span (root parent if none)."""
        stack = self._stack()
        return stack[-1] if stack else ROOT_PARENT

    def _next_id(self, parent: str, name: str) -> str:
        with self._lock:
            key = (parent, name)
            index = self._counts.get(key, 0)
            self._counts[key] = index + 1
        return span_id(parent, name, index)

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "run",
        parent: "str | None" = None,
        fixed_id: "str | None" = None,
        **attrs,
    ):
        """Record the enclosed block as a span (nests via this thread's stack).

        ``parent``/``fixed_id`` override the stack-derived tree — the
        executor uses them to give task spans *logical* parents (the
        run's execute phase) rather than transport-dependent ones, so
        the tree does not change shape with the worker count, and the
        zoo builder to root each checkpoint load's spans under its
        caller's span whichever thread runs the load.
        """
        parent_id = self.current_span_id() if parent is None else parent
        sid = fixed_id or self._next_id(parent_id, name)
        entry = Span(
            span_id=sid,
            parent_id=parent_id,
            name=name,
            category=category,
            start_s=self.now(),
            pid=self.pid,
            attrs=dict(attrs),
        )
        stack = self._stack()
        stack.append(sid)
        try:
            yield entry
        finally:
            stack.pop()
            entry.end_s = self.now()
            with self._lock:
                self.spans.append(entry)

    def event(self, name: str, category: str = "run", **attrs) -> None:
        """Record an instantaneous marker (a zero-duration span)."""
        parent = self.current_span_id()
        sid = self._next_id(parent, name)
        now = self.now()
        with self._lock:
            self.spans.append(
                Span(
                    span_id=sid,
                    parent_id=parent,
                    name=name,
                    category=category,
                    start_s=now,
                    end_s=now,
                    pid=self.pid,
                    attrs=dict(attrs),
                )
            )

    # -- worker telemetry merge --------------------------------------------------

    def absorb(self, span_dicts) -> None:
        """Merge spans recorded in a worker process (already id-assigned)."""
        with self._lock:
            for payload in span_dicts:
                self.spans.append(
                    Span(
                        span_id=payload["id"],
                        parent_id=payload["parent"],
                        name=payload["name"],
                        category=payload["cat"],
                        start_s=payload["start_s"],
                        end_s=payload["end_s"],
                        pid=payload["pid"],
                        attrs=dict(payload["attrs"]),
                    )
                )

    def export_spans(self) -> "list[dict]":
        """The recorded spans as JSON-able dicts (IPC and exporters)."""
        with self._lock:
            return [span.to_dict() for span in self.spans]

    def metrics(self) -> dict:
        """What the registry counted and timed since this tracer was made."""
        return since(self._registry_base)


#: The process-wide tracer instrumentation points consult.  ``None``
#: (the steady state) is the module flag that makes every disabled-path
#: check a single global read.
_ACTIVE: "Tracer | None" = None


def current_tracer() -> "Tracer | None":
    """The installed tracer, or ``None`` (the near-zero disabled path)."""
    return _ACTIVE


def install_tracer(tracer: "Tracer | None") -> "Tracer | None":
    """Install ``tracer`` process-wide; returns the previous one.

    The engines install their run's tracer for the run's duration so
    store get/put instrumentation (which happens far from any engine
    kwarg) lands in the same timeline, then restore the previous value.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def tracer_for_run(trace, name: str) -> "tuple[Tracer | None, bool]":
    """Resolve a run's ``trace=`` kwarg into ``(tracer, owned)``.

    Resolution order: an explicit value wins (``False`` disables even
    under ``$REPRO_RUNTIME_TRACE``; a :class:`Tracer` is used as-is and
    the caller exports it; a path creates an owned tracer written there
    at run end), then an already-installed tracer (a campaign's nested
    zoo build joins the campaign's timeline instead of starting its
    own), then the environment variable.  ``owned=True`` means the
    engine created the tracer and must write it out when the run ends.
    """
    if trace is False:
        return None, False
    if isinstance(trace, Tracer):
        return trace, False
    if trace is not None:
        return Tracer(name=name, out_dir=trace), True
    if _ACTIVE is not None:
        return _ACTIVE, False
    # Lazy import: repro.runtime.__init__ -> engine -> this module, so a
    # module-level knobs import would re-enter a partially-initialised
    # package when repro.obs.trace is imported first.
    from repro.runtime.knobs import read_knob

    configured = read_knob(TRACE_ENV)
    if configured:
        return Tracer(name=name, out_dir=configured), True
    return None, False
