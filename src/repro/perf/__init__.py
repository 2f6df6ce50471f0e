"""Performance measurement subsystem.

Two pieces:

- :mod:`repro.perf.timer` — the :class:`Benchmark` runner producing
  median/mean/min wall times and samples-per-second throughput;
- :mod:`repro.perf.report` — :class:`PerfReport`, the JSON emitter
  behind ``benchmarks/results/BENCH_hotpaths.json``.

Where a run's time went is the job of the always-on ``@profiled``
timers in :mod:`repro.obs.metrics`.

:mod:`repro.perf.reference` holds the frozen pre-vectorization hot-path
implementations used for equivalence tests and before/after speedup
tracking.  See ``docs/perf.md`` for how to run and read the benchmarks.
"""

from repro.perf.report import PerfReport
from repro.perf.timer import Benchmark, BenchmarkResult, speedup

__all__ = [
    "Benchmark",
    "BenchmarkResult",
    "PerfReport",
    "speedup",
]
