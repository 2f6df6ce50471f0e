"""Wall-clock micro-benchmark runner for the hot-path suite.

A :class:`Benchmark` times callables with warmup and repeats using
``time.perf_counter`` and reports robust statistics (the median is the
headline number — it ignores one-off allocator/GC hiccups).  Passing
``n_items`` (samples, packets, reports, ...) adds a throughput figure so
stage results stay comparable when workload sizes change across PRs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["BenchmarkResult", "Benchmark", "speedup"]


@dataclass
class BenchmarkResult:
    """Timing statistics for one benchmarked stage."""

    name: str
    repeats: int
    median_s: float
    mean_s: float
    min_s: float
    max_s: float
    n_items: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def items_per_s(self) -> float | None:
        """Throughput based on the median run, if ``n_items`` was given."""
        if self.n_items is None or self.median_s <= 0:
            return None
        return self.n_items / self.median_s

    def as_dict(self) -> dict:
        """JSON-ready representation (used by ``repro.perf.report``)."""
        payload = {
            "name": self.name,
            "repeats": self.repeats,
            "median_s": self.median_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }
        if self.n_items is not None:
            payload["n_items"] = self.n_items
            payload["items_per_s"] = self.items_per_s
        if self.meta:
            payload["meta"] = self.meta
        return payload

    def __str__(self) -> str:
        rate = self.items_per_s
        suffix = f", {rate:,.0f} items/s" if rate is not None else ""
        return f"{self.name}: median {self.median_s * 1e3:.2f} ms{suffix}"


def _median(values: "list[float]") -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class Benchmark:
    """Times callables with a fixed warmup/repeat policy.

    Parameters
    ----------
    warmup:
        Untimed calls before measurement (JIT-free here, but the first
        call often pays lazy-import and allocator costs).
    repeats:
        Timed calls; the median is the reported statistic.
    """

    def __init__(self, warmup: int = 1, repeats: int = 5) -> None:
        if warmup < 0 or repeats < 1:
            raise ConfigurationError(
                "warmup must be >= 0 and repeats >= 1"
            )
        self.warmup = int(warmup)
        self.repeats = int(repeats)

    def run(
        self,
        name: str,
        fn,
        *,
        n_items: int | None = None,
        repeats: int | None = None,
        warmup: int | None = None,
        meta: dict | None = None,
        setup=None,
    ) -> BenchmarkResult:
        """Time ``fn()`` and return a :class:`BenchmarkResult`.

        With ``setup``, every call (warm-up calls included) is
        ``fn(setup())`` and only ``fn`` is timed: the inputs a call
        consumes, such as a freshly initialised model to train, are
        built outside the measurement.
        """
        warmup = self.warmup if warmup is None else int(warmup)
        repeats = self.repeats if repeats is None else int(repeats)
        if warmup < 0 or repeats < 1:
            raise ConfigurationError("warmup must be >= 0 and repeats >= 1")

        def inputs() -> tuple:
            return () if setup is None else (setup(),)

        for _ in range(warmup):
            fn(*inputs())
        timings: list[float] = []
        for _ in range(repeats):
            args = inputs()
            start = time.perf_counter()
            fn(*args)
            timings.append(time.perf_counter() - start)
        return BenchmarkResult(
            name=name,
            repeats=repeats,
            median_s=_median(timings),
            mean_s=sum(timings) / len(timings),
            min_s=min(timings),
            max_s=max(timings),
            n_items=n_items,
            meta=dict(meta or {}),
        )


def speedup(baseline: BenchmarkResult, optimized: BenchmarkResult) -> float:
    """Median-over-median speedup of ``optimized`` vs ``baseline``."""
    if optimized.median_s <= 0:
        raise ConfigurationError("optimized median must be positive")
    return baseline.median_s / optimized.median_s
