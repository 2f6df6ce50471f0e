"""Task execution: fault-tolerant worker pools with a serial fallback.

A :class:`Task` names a *pure* function (an importable ``"module:name"``
string, or a picklable callable) and the parameters it receives as a
single mapping.  Because tasks are pure and fully seeded, the result of
:func:`run_tasks` is bit-identical whatever the worker count — the pool
only changes wall time, never values.  The same purity powers the
fault-tolerance contract: a failed attempt can always be retried (and a
crashed worker's chunk replayed) with byte-identical results, so chaos
costs retries, never bytes.

Tasks are independent: a run is one wave.  Sequential logic that reacts
to a measurement (a SplitBeam STA's adaptive controller walking its
ladder round by round) runs *inside* one task — see
:func:`repro.runtime.tasks.network_chain` — so the task, not the round,
is the unit of dispatch, retry, fault injection and failure.

Sharding: tasks carrying the same ``shard`` label are executed by the
same worker in plan order, so per-process memoization (e.g. one worker
building one dataset that several tasks reuse) stays effective.

Dispatch economics: shard chunks are *packed* into a small bounded
number of messages (at most 4 per worker, keeping the pool's dynamic
balancing effective), so a hundred small independent tasks cost a
handful of IPC round-trips instead of a hundred.  Packing is a pure
transport decision: results are byte-identical for any worker count.
A task's parameters travel inline, whatever their size — pickled into
its message by the pool, or passed as they are in process — so they
reach the task function through one path at every worker count, and
the task stays a pure function of them.

Fault tolerance (see :mod:`repro.runtime.faults` for injection):

- every failed attempt is retried up to :attr:`RetryPolicy.retries`
  times with deterministic exponential backoff; the remote traceback is
  captured as a string in the worker and carried on
  :attr:`TaskExecutionError.remote_traceback`;
- a worker hard-crash (``os._exit``, OOM kill, segfault) breaks the
  pool; the coordinator salvages every chunk that already completed,
  rebuilds the pool, and replays only the in-flight chunks' unfinished
  tasks;
- a chunk that overruns its per-task timeout budget is treated the same
  way (pool killed + rebuilt, unfinished tasks replayed);
- after :attr:`RetryPolicy.max_pool_failures` consecutive pool
  failures the run degrades to the deterministic in-process executor
  for its remainder;
- everything is tallied in a :class:`RunHealth` object the engines
  thread into their run statistics, and counted in the telemetry
  registry (:mod:`repro.obs.metrics`) as ``executor.<field>``.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import pickle
import time
import traceback
import warnings
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ReproError
from repro.obs import metrics
from repro.obs.trace import current_tracer, span_id
from repro.runtime import knobs
from repro.runtime.faults import FaultPlan, InjectedFaultError, active_plan

__all__ = [
    "Task",
    "TaskExecutionError",
    "RetryPolicy",
    "RunHealth",
    "run_tasks",
    "resolve_worker_count",
]

#: Environment variable consulted when ``n_workers`` is not given
#: (canonical home: :mod:`repro.runtime.knobs`; re-exported here).
WORKERS_ENV = knobs.WORKERS_ENV


class TaskExecutionError(ReproError):
    """A task failed in the executor after exhausting its retries.

    ``remote_traceback`` carries the formatted traceback captured where
    the failure actually happened — inside a worker process, where the
    live exception object (and its ``__cause__`` chain) would not
    survive pickling back to the coordinator.
    """

    def __init__(
        self,
        message: str,
        task_id: "str | None" = None,
        remote_traceback: "str | None" = None,
        injected: bool = False,
    ) -> None:
        super().__init__(message)
        self.task_id = task_id
        self.remote_traceback = remote_traceback
        self.injected = injected

    def __reduce__(self):
        # Exception.__reduce__ would replay __init__ with args only,
        # dropping the remote traceback across pickling — the very
        # debuggability this class exists to preserve.
        return (
            type(self),
            (self.args[0], self.task_id, self.remote_traceback, self.injected),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry / timeout knobs for one :func:`run_tasks` call.

    Parameters
    ----------
    retries:
        Failed attempts each task may absorb beyond its first try.
    timeout_s:
        Per-task timeout budget; a packed chunk's budget is
        ``timeout_s * len(chunk)``.  ``None`` disables timeouts.  Only
        the pool path can preempt a stuck task — the in-process
        executor cannot interrupt itself and ignores this knob.
    backoff_s:
        Base of the deterministic exponential backoff before a retry:
        ``backoff_s * 2**(failures - 1)``, capped at 2^6, where
        ``failures`` counts the task's own failed attempts (in the pool,
        the most any task of the dispatch round has failed); no jitter,
        so runs with identical failures sleep identically.
    max_pool_failures:
        Consecutive pool crashes/timeouts tolerated before the run
        degrades to the in-process executor.
    """

    retries: int = 2
    timeout_s: "float | None" = None
    backoff_s: float = 0.05
    max_pool_failures: int = 3

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if self.backoff_s < 0:
            raise ConfigurationError("backoff_s must be >= 0")
        if self.max_pool_failures < 1:
            raise ConfigurationError("max_pool_failures must be >= 1")


DEFAULT_POLICY = RetryPolicy()


@dataclass
class RunHealth:
    """Fault-tolerance statistics for one executor run.

    The engines attach :meth:`to_dict` to their run statistics (and,
    opt-in, to JSON manifests).  Counter semantics: ``task_errors``
    counts failed *attempts*, ``retries`` counts re-dispatches that
    followed them, ``worker_crashes``/``timeouts`` count pool-level
    failures, ``pool_rebuilds``/``serial_fallbacks`` the recoveries.
    ``injected_faults`` counts the fault plan's faults whose effect was
    observed: an injected error, a delay that ran, and one per pool
    crash or timeout in a dispatch round that scheduled a crash or
    delay.
    ``failed`` lists tasks that exhausted their retries (collect-error
    mode).  Every counter moves through :meth:`bump`, which counts the
    same amount in the telemetry registry.
    """

    retries: int = 0
    task_errors: int = 0
    injected_faults: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    fallback_reason: "str | None" = None
    failed: "list[dict]" = field(default_factory=list)

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` and to registry ``executor.<name>``."""
        setattr(self, name, getattr(self, name) + n)
        metrics.count(f"executor.{name}", n)

    def to_dict(self) -> dict:
        """JSON-able summary (failure lists sorted for stable output)."""
        return {
            "retries": self.retries,
            "task_errors": self.task_errors,
            "injected_faults": self.injected_faults,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "pool_rebuilds": self.pool_rebuilds,
            "serial_fallbacks": self.serial_fallbacks,
            "fallback_reason": self.fallback_reason,
            "failed": sorted(self.failed, key=lambda row: row["task"]),
        }


@dataclass(frozen=True)
class Task:
    """One pure, independent unit of work.

    Parameters
    ----------
    task_id:
        Unique name; the result dict and fault plans use it.
    fn:
        ``"module:callable"`` or a picklable callable taking one mapping.
    params:
        The argument mapping.
    shard:
        Optional affinity label: tasks sharing a shard run serially on
        one worker, preserving plan order.
    """

    task_id: str
    fn: "str | Callable[[Mapping], object]"
    params: Mapping | None = None
    shard: str | None = None


def resolve_worker_count(n_workers: "int | None") -> int:
    """Effective worker count: explicit value, else $REPRO_RUNTIME_WORKERS, else 1."""
    if n_workers is None:
        raw = knobs.read_knob(WORKERS_ENV, "1")
        try:
            n_workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    return int(n_workers)


def _call(fn, params: Mapping | None):
    if isinstance(fn, str):
        module_name, _, attr = fn.partition(":")
        if not module_name or not attr:
            raise ConfigurationError(
                f"task fn must be 'module:callable', got {fn!r}"
            )
        fn = getattr(importlib.import_module(module_name), attr)
    return fn(dict(params or {}))


def _error_summary(exc: BaseException) -> str:
    """One stable line describing ``exc`` (class + message, no paths)."""
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def _run_chunk(message):
    """Worker entry point: run one packed chunk serially, in plan order.

    ``message`` is ``(fault_plan, trace_ctx, [(task_id, fn, params,
    attempt), ...])``.

    Failures never raise across the process boundary: each task yields
    an outcome tuple — ``("ok", task_id, result)`` or ``("error",
    task_id, formatted_traceback, summary, injected)`` — so one task's
    exception cannot take down its chunk-mates, and the original
    traceback travels as a plain string that survives pickling.

    The return value is ``(outcomes, telemetry, spans)``: ``telemetry``
    is this worker's registry delta for the chunk (:func:`~repro.obs.
    metrics.drain`; always shipped — without it, worker-side counters
    and timers are lost when the pool exits), and ``spans`` are
    per-task execute spans recorded when ``trace_ctx = (epoch,
    execute_parent_id)`` is set.  Span ids derive from the
    coordinator-supplied logical parent via :func:`~repro.obs.trace.
    span_id`, so the merged tree is identical whatever the worker count;
    timestamps use the coordinator's ``perf_counter`` epoch, which
    forked workers share.
    """
    plan, trace_ctx, items = message
    out = []
    spans = []
    pid = os.getpid()
    for task_id, fn, params, attempt in items:
        start = time.perf_counter()
        try:
            if plan is not None:
                plan.apply_task_faults(task_id, attempt, in_worker=True)
            out.append(("ok", task_id, _call(fn, params)))
        except Exception as exc:
            out.append(
                (
                    "error",
                    task_id,
                    traceback.format_exc(),
                    _error_summary(exc),
                    isinstance(exc, InjectedFaultError),
                )
            )
        if trace_ctx is not None:
            epoch, parent = trace_ctx
            name = f"task:{task_id}"
            spans.append(
                {
                    "type": "span",
                    "id": span_id(parent, name, attempt),
                    "parent": parent,
                    "name": name,
                    "cat": "task",
                    "start_s": start - epoch,
                    "end_s": time.perf_counter() - epoch,
                    "pid": pid,
                    "attrs": {"task": task_id, "attempt": attempt},
                }
            )
    return out, metrics.drain(), spans


def _check_ids(tasks: Sequence[Task]) -> None:
    """Reject duplicate task ids (results and fault plans key on them)."""
    seen: set[str] = set()
    for task in tasks:
        if task.task_id in seen:
            raise ConfigurationError(f"duplicate task id {task.task_id!r}")
        seen.add(task.task_id)


def _make_pool(n_workers: int) -> ProcessPoolExecutor:
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context = multiprocessing.get_context(method)
    # Each worker drains once at start: a forked worker's registry holds
    # the coordinator's counts, which must not ship back a second time.
    return ProcessPoolExecutor(
        max_workers=n_workers, mp_context=context, initializer=metrics.drain
    )


#: Messages per worker a packed wave may use.  1 would minimize IPC but
#: lose all dynamic load balancing (two expensive tasks round-robined
#: into one group serialize while other workers idle); a small
#: oversubscription keeps the pool's work-stealing effective while a
#: 100-task wave still costs ~4*workers messages instead of 100.
_PACK_OVERSUBSCRIPTION = 4


def _pack_wave(wave, wave_params, n_workers: int, attempts=None):
    """Pack a wave's shard chunks into at most ``4 * n_workers`` messages.

    Tasks sharing a shard stay contiguous (one worker, plan order);
    singleton chunks round-robin across the messages in plan order, so
    a caller that lists its heaviest tasks first spreads them over the
    messages.  Purely a transport decision.  Each packed item carries
    the task's dispatch-attempt index so the (deterministic) fault plan
    can count occurrences without any cross-process state.
    """
    chunks: dict = {}
    for task in wave:
        key = task.shard if task.shard is not None else ("", task.task_id)
        chunks.setdefault(key, []).append(task)
    n_groups = min(n_workers * _PACK_OVERSUBSCRIPTION, len(chunks))
    groups: list = [[] for _ in range(n_groups)]
    for index, chunk in enumerate(chunks.values()):
        groups[index % len(groups)].extend(chunk)
    return [
        [
            (
                t.task_id,
                t.fn,
                wave_params[t.task_id],
                0 if attempts is None else attempts.get(t.task_id, 0),
            )
            for t in group
        ]
        for group in groups
        if group
    ]


class _Execution:
    """Coordinator-side state for one :func:`run_tasks` call."""

    def __init__(
        self,
        n_workers: int,
        on_result,
        policy: RetryPolicy,
        health: RunHealth,
        plan: "FaultPlan | None",
        collect_errors: bool,
    ) -> None:
        self.n_workers = n_workers
        self.on_result = on_result
        self.policy = policy
        self.health = health
        self.plan = plan
        self.collect_errors = collect_errors
        self.results: dict = {}
        self.attempts: "dict[str, int]" = {}  # dispatches (fault occurrences)
        self.failures: "dict[str, int]" = {}  # observed failed attempts
        #: Crash/delay rule kinds the current pool round scheduled, by
        #: task, until an outcome or a pool failure shows their effect.
        self.round_faults: "dict[str, list[str]]" = {}
        self.pool_failures = 0
        self.serial_only = False
        self._pool: "ProcessPoolExecutor | None" = None
        self.tracer = current_tracer()
        # Task spans parent to the run's execute-phase span — a *logical*
        # parent, independent of which dispatch round or chunk the
        # transport happened to place the task in — so the span tree's
        # shape is identical whatever the worker count.
        self._task_parent = ""

    # -- tracing -----------------------------------------------------------------

    def _maybe_span(self, name: str, category: str = "executor", **attrs):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, category, **attrs)

    def _task_span(self, task: Task, attempt: int):
        """Coordinator-side task span, id-compatible with the worker's."""
        if self.tracer is None:
            return nullcontext()
        name = f"task:{task.task_id}"
        return self.tracer.span(
            name,
            "task",
            parent=self._task_parent,
            fixed_id=span_id(self._task_parent, name, attempt),
            task=task.task_id,
            attempt=attempt,
        )

    # -- shared bookkeeping ------------------------------------------------------

    def _complete(self, task_id: str, result) -> None:
        self.results[task_id] = result
        if self.on_result is not None:
            self.on_result(task_id, result)

    def _final_failure(
        self, task_id: str, remote_traceback: str, summary: str
    ) -> None:
        if not self.collect_errors:
            raise TaskExecutionError(
                f"task {task_id!r} failed after "
                f"{self.failures.get(task_id, 1)} attempt(s): {summary}\n"
                f"{remote_traceback}",
                task_id=task_id,
                remote_traceback=remote_traceback,
            )
        self.health.failed.append({"task": task_id, "summary": summary})

    def _record_error(self, task_id: str, injected: bool) -> bool:
        """Count one failed attempt; True when the task may retry."""
        self.health.bump("task_errors")
        if injected:
            self.health.bump("injected_faults")
        self.failures[task_id] = self.failures.get(task_id, 0) + 1
        if self.failures[task_id] <= self.policy.retries:
            self.health.bump("retries")
            if self.tracer is not None:
                self.tracer.event("retry", "executor", task=task_id)
            return True
        return False

    def _backoff(self, failures: int) -> None:
        """Sleep before retrying after a task's ``failures``-th failure."""
        if self.policy.backoff_s <= 0:
            return
        delay = self.policy.backoff_s * (2 ** min(failures - 1, 6))
        if self.tracer is not None:
            with self.tracer.span("backoff", "executor", seconds=delay):
                time.sleep(delay)
        else:
            time.sleep(delay)

    def _dispatch_attempt(self, task_id: str) -> int:
        """The attempt index of the next dispatch; advances the counter."""
        attempt = self.attempts.get(task_id, 0)
        self.attempts[task_id] = attempt + 1
        return attempt

    def _scheduled(self, task_id: str, attempt: int, kinds) -> "list[str]":
        """Kinds of the plan's rules of ``kinds`` firing on this attempt."""
        if self.plan is None:
            return []
        return [
            rule.kind
            for rule in self.plan.task_rules(task_id, attempt)
            if rule.kind in kinds
        ]

    # -- serial path -------------------------------------------------------------

    def _run_task_serial(self, task: Task, params) -> None:
        while True:
            attempt = self._dispatch_attempt(task.task_id)
            # An in-process delay always sleeps; a crash downgrades to an
            # error, counted when it is recorded.
            self.health.bump(
                "injected_faults",
                len(self._scheduled(task.task_id, attempt, ("delay",))),
            )
            try:
                with self._task_span(task, attempt):
                    if self.plan is not None:
                        self.plan.apply_task_faults(
                            task.task_id, attempt, in_worker=False
                        )
                    result = _call(task.fn, params)
            except (ConfigurationError, TaskExecutionError):
                raise
            except Exception as exc:
                injected = isinstance(exc, InjectedFaultError)
                if self._record_error(task.task_id, injected):
                    self._backoff(self.failures[task.task_id])
                    continue
                remote = traceback.format_exc()
                summary = _error_summary(exc)
                if not self.collect_errors:
                    raise TaskExecutionError(
                        f"task {task.task_id!r} failed after "
                        f"{self.failures[task.task_id]} attempt(s): "
                        f"{summary}",
                        task_id=task.task_id,
                        remote_traceback=remote,
                        injected=injected,
                    ) from exc
                self._final_failure(task.task_id, remote, summary)
                return
            self._complete(task.task_id, result)
            return

    def _run_serial(self, tasks: "list[Task]", params: dict) -> None:
        for task in tasks:
            self._run_task_serial(task, params[task.task_id])

    # -- pool path ---------------------------------------------------------------

    def _ensure_pool(self) -> bool:
        """Create the pool if needed; False -> degrade to serial."""
        if self._pool is not None:
            return True
        try:
            self._pool = _make_pool(self.n_workers)
        except (OSError, ValueError, ImportError) as exc:
            reason = (
                f"worker pool unavailable ({exc!r}); falling back to the "
                "deterministic in-process executor"
            )
            warnings.warn(reason, RuntimeWarning, stacklevel=4)
            self.health.bump("serial_fallbacks")
            if self.health.fallback_reason is None:
                self.health.fallback_reason = reason
            self.serial_only = True
            return False
        return True

    def _kill_pool(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self, wait: bool) -> None:
        """Shut the pool down; ``wait`` joins its workers first.

        A clean run waits, so :func:`run_tasks` returns with no worker
        left to race the interpreter's exit.  A run that raised does not
        wait on the chunks still running.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def _consume_chunk(self, chunk_result, remaining: dict) -> None:
        """Fold one worker chunk's outcomes + telemetry into the run.

        Registry deltas merge unconditionally — that work genuinely
        happened even if the chunk is a salvaged replay.  Worker spans
        are absorbed only for tasks still outstanding, so a replayed
        chunk cannot duplicate a task's timeline row.
        """
        outcomes, telemetry, spans = chunk_result
        metrics.merge(telemetry)
        if self.tracer is not None and spans:
            self.tracer.absorb(
                [s for s in spans if s["attrs"]["task"] in remaining]
            )
        self._handle_outcomes(outcomes, remaining)

    def _handle_outcomes(self, outcomes, remaining: dict) -> None:
        for outcome in outcomes:
            task_id = outcome[1]
            if task_id not in remaining:
                continue  # a salvaged duplicate from a replayed chunk
            # A returned outcome shows that the task's delays ran.
            self.health.bump(
                "injected_faults",
                self.round_faults.pop(task_id, []).count("delay"),
            )
            if outcome[0] == "ok":
                del remaining[task_id]
                self._complete(task_id, outcome[2])
            else:
                _, _, remote, summary, injected = outcome
                if self._record_error(task_id, injected):
                    continue  # stays in remaining -> repacked next round
                del remaining[task_id]
                self._final_failure(task_id, remote, summary)

    def _salvage(self, futures, remaining: dict) -> None:
        """Collect every chunk that finished before the pool broke."""
        for future in futures:
            if not future.done():
                continue
            try:
                chunk_result = future.result(timeout=0)
            except Exception:
                continue  # the chunk that crashed/was cancelled
            self._consume_chunk(chunk_result, remaining)

    def _on_pool_failure(self, kind: str, detail: str, remaining) -> None:
        """Count, rebuild (or degrade to serial), and let the wave replay."""
        self.health.bump("timeouts" if kind == "timeout" else "worker_crashes")
        # The failure is the observed effect of one injected fault when
        # the round scheduled one that no returned outcome accounts for:
        # the first crash breaks the pool, and the round's other
        # scheduled crashes replay at the next attempt, never firing.
        cause = "delay" if kind == "timeout" else "crash"
        if any(cause in kinds for kinds in self.round_faults.values()):
            self.health.bump("injected_faults")
        self._kill_pool()
        self.pool_failures += 1
        if self.pool_failures >= self.policy.max_pool_failures:
            self.health.bump("serial_fallbacks")
            if self.health.fallback_reason is None:
                self.health.fallback_reason = (
                    f"{self.pool_failures} pool failure(s), last: {detail}; "
                    "degrading to the deterministic in-process executor"
                )
            warnings.warn(
                self.health.fallback_reason, RuntimeWarning, stacklevel=5
            )
            self.serial_only = True
            if self.tracer is not None:
                self.tracer.event(
                    "serial_fallback", "executor", kind=kind, detail=detail
                )
        else:
            self.health.bump("pool_rebuilds")
            if self.tracer is not None:
                self.tracer.event(
                    "pool_rebuild", "executor", kind=kind, detail=detail
                )

    def _run_pool(self, wave: "list[Task]", params: dict) -> None:
        remaining = {task.task_id: task for task in wave}
        while remaining:
            if self.serial_only or not self._ensure_pool():
                pending_tasks = [
                    task for task in wave if task.task_id in remaining
                ]
                self._run_serial(
                    pending_tasks, {t: params[t] for t in remaining}
                )
                return
            attempts = {
                task_id: self._dispatch_attempt(task_id)
                for task_id in remaining
            }
            # Worker crashes and delays return no error outcome; each is
            # counted once its effect shows (_handle_outcomes,
            # _on_pool_failure).
            self.round_faults = {}
            for task_id, attempt in attempts.items():
                kinds = self._scheduled(task_id, attempt, ("crash", "delay"))
                if kinds:
                    self.round_faults[task_id] = kinds
            messages = _pack_wave(
                [task for task in wave if task.task_id in remaining],
                params,
                self.n_workers,
                attempts=attempts,
            )
            metrics.count("executor.messages", len(messages))
            trace_ctx = None
            if self.tracer is not None:
                trace_ctx = (self.tracer.epoch, self._task_parent)
            with self._maybe_span(
                "dispatch",
                messages=len(messages),
                tasks=len(remaining),
            ):
                chunks = [
                    (self.plan, trace_ctx, message) for message in messages
                ]
                if self.tracer is not None:
                    # Traced only: sizing pickles every message again.
                    metrics.count(
                        "executor.message_bytes",
                        sum(len(pickle.dumps(c)) for c in chunks),
                    )
                futures = [
                    self._pool.submit(_run_chunk, chunk) for chunk in chunks
                ]
                try:
                    for future, message in zip(futures, messages):
                        budget = None
                        if self.policy.timeout_s is not None:
                            budget = self.policy.timeout_s * len(message)
                        self._consume_chunk(
                            future.result(timeout=budget), remaining
                        )
                except BrokenProcessPool as exc:
                    self._salvage(futures, remaining)
                    self._on_pool_failure("crash", repr(exc), remaining)
                except FuturesTimeoutError:
                    self._salvage(futures, remaining)
                    self._on_pool_failure(
                        "timeout",
                        f"chunk exceeded its "
                        f"{self.policy.timeout_s:g}s/task budget",
                        remaining,
                    )
                else:
                    self.pool_failures = 0  # a clean round resets strikes
                    if remaining:  # only retries left in the wave
                        self._backoff(
                            max(self.failures[task_id] for task_id in remaining)
                        )

    # -- the run ----------------------------------------------------------------

    def execute(self, tasks: "list[Task]") -> dict:
        if self.tracer is None:
            return self._execute(tasks)
        with self.tracer.span(
            "execute",
            "executor",
            n_tasks=len(tasks),
            n_workers=self.n_workers,
        ) as span:
            self._task_parent = span.span_id
            return self._execute(tasks)

    def _execute(self, tasks: "list[Task]") -> dict:
        params = {task.task_id: dict(task.params or {}) for task in tasks}
        if self.serial_only or self.n_workers <= 1:
            self._run_serial(tasks, params)
        else:
            self._run_pool(tasks, params)
        return self.results


def run_tasks(
    tasks: Sequence[Task],
    n_workers: "int | None" = None,
    on_result: "Callable[[str, object], None] | None" = None,
    policy: "RetryPolicy | None" = None,
    faults: "FaultPlan | None" = None,
    health: "RunHealth | None" = None,
    collect_errors: bool = False,
) -> dict:
    """Execute independent tasks in one wave; returns ``{task_id: result}``.

    ``n_workers=1`` (the default when ``$REPRO_RUNTIME_WORKERS`` is
    unset) runs everything in-process, in plan order.  With more
    workers, tasks run on a process pool — results are identical either
    way.

    ``on_result(task_id, result)`` fires in the coordinator as each
    task completes, before the run finishes — the engine persists cache
    entries through it, so an interrupted run keeps its completed
    points.

    ``policy`` (a :class:`RetryPolicy`; default: 2 retries, no
    timeout) bounds retries/timeouts; ``faults`` (a
    :class:`~repro.runtime.faults.FaultPlan`; default: the installed
    plan or ``$REPRO_RUNTIME_FAULTS``) injects deterministic chaos;
    ``health`` (a :class:`RunHealth`) collects what happened.

    ``collect_errors=False`` (the default) raises
    :class:`TaskExecutionError` on the first task that exhausts its
    retries.  ``collect_errors=True`` instead records the failure in
    ``health.failed`` and returns the results of every task that did
    complete — the campaign layer uses this so one broken STA chain
    cannot kill the other N-1.
    """
    tasks = list(tasks)
    if not tasks:
        return {}
    _check_ids(tasks)
    n_workers = resolve_worker_count(n_workers)
    execution = _Execution(
        n_workers=n_workers,
        on_result=on_result,
        policy=policy or DEFAULT_POLICY,
        health=health if health is not None else RunHealth(),
        plan=active_plan(faults),
        collect_errors=collect_errors,
    )
    try:
        results = execution.execute(tasks)
    except BaseException:
        execution.close(wait=False)
        raise
    execution.close(wait=True)
    return results
