"""The experiment engine: plan, cache-check, execute, store, report.

:class:`ExperimentEngine` is the orchestration entry point the figure
benchmarks and examples use::

    engine = ExperimentEngine(cache=ResultCache("benchmarks/results/runtime_cache"),
                              n_workers=4)
    run = engine.run(get_scenario("fig09"))
    engine.write_results(run, "benchmarks/results/fig09.json")

Determinism contract: ``run.to_dict()`` is byte-identical whatever the
worker count and whether points came from workers or the cache, because
every task is a pure seeded function and cache keys embed the code
version.  Wall-clock statistics live on the :class:`EngineRun` object
only — the JSON artifact carries no timestamps, so re-runs diff clean.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext as _null
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs import trace as trace_mod
from repro.obs.export import write_trace
from repro.runtime import faults as faults_mod
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    RetryPolicy,
    RunHealth,
    resolve_worker_count,
    run_tasks,
)
from repro.runtime.hashing import code_version
from repro.runtime.planner import plan_scenario
from repro.runtime.spec import Scenario
from repro.utils.artifacts import write_json_artifact
from repro.utils.blas import one_blas_thread

__all__ = ["EngineRun", "ExperimentEngine", "run_scoped"]

#: Bump when the result-artifact layout changes incompatibly.
RESULT_SCHEMA_VERSION = 1


def run_scoped(name: str, trace, faults, body):
    """Run ``body(plan)`` with the run's fault plan and tracer installed.

    The scaffold of every top-level run (``ExperimentEngine.run``,
    ``ZooBuilder.build``, ``NetworkCampaign.run``).  The active fault
    plan (``faults``, else the installed plan or
    ``$REPRO_RUNTIME_FAULTS``) and the tracer that
    :func:`~repro.obs.trace.tracer_for_run` resolves from ``trace`` are
    installed for the run's duration, so store reads and writes — which
    happen far from any executor kwarg — see the same chaos schedule
    and land in the same timeline; both are restored afterwards.
    Traced, the run is one root span called ``name``, and the result's
    ``trace_dir`` says where its trace lands: the run that created the
    tracer writes the trace there when it ends.  The run computes at one
    BLAS thread (:func:`~repro.utils.blas.one_blas_thread`), and so do
    the pool workers it forks, so its bytes do not depend on the core
    count or the BLAS thread setting.
    """
    plan = faults_mod.active_plan(faults)
    previous = faults_mod.install(plan)
    tracer, owned = trace_mod.tracer_for_run(trace, name)
    prev_tracer = trace_mod.install_tracer(tracer) if tracer else None
    try:
        with one_blas_thread():
            if tracer is None:
                return body(plan)
            with tracer.span(name, "engine"):
                result = body(plan)
        result.trace_dir = write_trace(tracer) if owned else tracer.out_dir
        return result
    finally:
        if tracer is not None:
            trace_mod.install_tracer(prev_tracer)
        faults_mod.install(previous)


@dataclass
class EngineRun:
    """The outcome of one scenario execution."""

    scenario: str
    title: str
    fidelity: dict
    points: "list[dict]"  # {"label", "key", "result"} in scenario order
    n_tasks: int
    n_cached: int
    n_executed: int
    n_workers: int
    wall_s: float = 0.0
    code_version: str = ""
    health: dict = field(default_factory=dict)
    #: Directory the run's trace was written to (``None`` untraced).
    #: Telemetry, like ``wall_s`` — never part of :meth:`to_dict`.
    trace_dir: "str | None" = None

    def result(self, label: str) -> dict:
        """The result mapping for one point label."""
        for entry in self.points:
            if entry["label"] == label:
                return entry["result"]
        raise ConfigurationError(f"no point labelled {label!r}")

    def values(self, metric: str = "ber") -> "dict[str, float]":
        """``{label: result[metric]}`` over all points."""
        return {p["label"]: p["result"][metric] for p in self.points}

    def to_dict(self, include_health: bool = False) -> dict:
        """Deterministic artifact payload (no timestamps, no wall time).

        ``include_health=True`` appends the run's fault-tolerance
        statistics (:class:`~repro.runtime.executor.RunHealth` plus
        store counters).  The default omits them so the artifact stays
        byte-identical across worker counts, cold/warm caches, *and*
        fault schedules — injected chaos costs retries, never bytes.
        """
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "scenario": self.scenario,
            "title": self.title,
            "fidelity": self.fidelity,
            "code_version": self.code_version,
            "points": self.points,
        }
        if include_health:
            payload["health"] = self.health
        return payload

    def write_json(self, path: "str | os.PathLike") -> None:
        """Write the artifact (2-space indent, sorted keys, trailing \\n)."""
        write_json_artifact(path, self.to_dict())


class ExperimentEngine:
    """Runs scenarios through the planner, cache, and worker pool.

    Parameters
    ----------
    cache:
        A :class:`ResultCache` (or ``None`` to always recompute).
    n_workers:
        Worker processes; ``None`` reads ``$REPRO_RUNTIME_WORKERS``
        (default 1 = the deterministic in-process executor).
    policy:
        A :class:`~repro.runtime.executor.RetryPolicy` bounding
        retries/timeouts (``None`` = the default: 2 retries, no
        timeout).
    faults:
        A :class:`~repro.runtime.faults.FaultPlan` of injected chaos
        (``None`` = the installed plan or ``$REPRO_RUNTIME_FAULTS``).
    trace:
        Observability: a directory path (or a
        :class:`~repro.obs.trace.Tracer`) to record the run's span
        timeline and metrics into; ``None`` joins an already-installed
        tracer or honours ``$REPRO_RUNTIME_TRACE``; ``False`` disables
        tracing even under the environment variable.  Tracing never
        changes result bytes — see :mod:`repro.obs.trace`.
    """

    def __init__(
        self,
        cache: "ResultCache | None" = None,
        n_workers: "int | None" = None,
        policy: "RetryPolicy | None" = None,
        faults=None,
        trace=None,
    ) -> None:
        self.cache = cache
        self.n_workers = resolve_worker_count(n_workers)
        self.policy = policy
        self.faults = faults
        self.trace = trace

    def run(self, scenario: Scenario) -> EngineRun:
        """Execute every point of ``scenario`` (reusing cached ones)."""
        return run_scoped(
            f"engine:{scenario.name}",
            self.trace,
            self.faults,
            lambda plan: self._run(scenario, plan),
        )

    def _run(self, scenario: Scenario, plan) -> EngineRun:
        start = time.perf_counter()
        tracer = trace_mod.current_tracer()
        version = code_version()
        health = RunHealth()
        if tracer is None:
            planned = plan_scenario(
                scenario, version=version, n_workers=self.n_workers
            )
        else:
            with tracer.span("plan", "engine", points=len(scenario.points)):
                planned = plan_scenario(
                    scenario, version=version, n_workers=self.n_workers
                )
        results: "dict[int, dict]" = {}
        to_run = []
        with tracer.span(
            "cache_check", "engine", tasks=len(planned)
        ) if tracer else _null():
            for entry in planned:
                # `is not None`, not truthiness: an *empty* cache is
                # falsy (__len__ == 0), which would silently skip gets
                # on every cold run — and with them the miss telemetry.
                cached = (
                    self.cache.get(entry.key)
                    if self.cache is not None
                    else None
                )
                if cached is not None:
                    results[entry.index] = cached
                else:
                    to_run.append(entry)

        by_task_id = {entry.task.task_id: entry for entry in to_run}

        def persist(task_id: str, result) -> None:
            # Store each point the moment it completes, so an
            # interrupted run resumes from every finished point.
            if self.cache is not None:
                entry = by_task_id[task_id]
                self.cache.put(entry.key, entry.spec, result)

        executed = run_tasks(
            [entry.task for entry in to_run],
            n_workers=self.n_workers,
            on_result=persist,
            policy=self.policy,
            faults=plan,
            health=health,
        )
        if self.cache is not None:
            # Publish the packed index so the next open recovers from a
            # snapshot instead of rescanning every segment tail.
            self.cache.flush()
        with tracer.span("assemble", "engine") if tracer else _null():
            run = self._assemble(
                scenario, plan, planned, to_run, results, executed,
                version, health, start,
            )
        return run

    def _assemble(
        self, scenario, plan, planned, to_run, results, executed,
        version, health, start,
    ) -> EngineRun:
        for entry in to_run:
            results[entry.index] = executed[entry.task.task_id]
        return EngineRun(
            scenario=scenario.name,
            title=scenario.title,
            fidelity=dict(scenario.fidelity),
            points=[
                {
                    "label": entry.label,
                    "key": entry.key,
                    "result": results[entry.index],
                }
                for entry in planned
            ],
            n_tasks=len(planned),
            n_cached=len(planned) - len(to_run),
            n_executed=len(to_run),
            n_workers=self.n_workers,
            wall_s=time.perf_counter() - start,
            code_version=version,
            health={
                "executor": health.to_dict(),
                "cache": (
                    self.cache.health.to_dict()
                    if self.cache is not None
                    else None
                ),
            },
        )

    def write_results(self, run: EngineRun, path: "str | os.PathLike") -> None:
        """Alias for :meth:`EngineRun.write_json` (symmetry with ``run``)."""
        run.write_json(path)
