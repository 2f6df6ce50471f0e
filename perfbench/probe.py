"""Host-speed probe: converts a job's wall time into reference-host seconds.

The shared 2-vCPU hosts this benchmark runs on change speed by up to 2x
within seconds (a fixed loop takes anywhere from 11 to 33 ms), so raw
wall time cannot tell a 10 % regression from host noise.  Timing a
calibration kernel just before and just after a job misses every change
that happens during it.  This probe instead samples the speed *during*
the job: a SIGALRM handler runs a fixed pure-Python loop every
``INTERVAL_S`` of wall time and times it in thread CPU time.  Each wall
interval between samples is scaled by ``reference_s / loop time``, so a
job reads the same whether the vCPU was fast or slow while it ran.  The
handler's own time is excluded from the scaled total.

Thread CPU time, not wall time, times the loop: when pool workers share
the vCPUs with the coordinator, the loop's CPU time still tracks the
vCPU's speed rather than how often the coordinator got scheduled.

This module imports nothing from ``repro``: no change to the program can
move the yardstick.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

#: Wall seconds between two probe samples.
INTERVAL_S = 0.02
#: Iterations of the probe loop (about 0.3 ms on the reference host).
LOOP_ITERATIONS = 3000


def probe_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """The fixed unit of work whose duration measures the host's speed."""
    acc = 0
    for i in range(iterations):
        acc += (i * 7) % 13
    return acc


@dataclass(frozen=True)
class Timing:
    """One timed region.

    ``wall_s`` is raw wall time, probe handler included; ``reference_s``
    is the region in reference-host seconds, probe handler excluded;
    ``probe_s`` is the median probe-loop time observed during it.
    """

    wall_s: float
    reference_s: float
    probe_s: float
    n_probes: int

    @property
    def factor(self) -> float:
        """Reference seconds per raw wall second."""
        return self.reference_s / self.wall_s if self.wall_s > 0 else 1.0


class SpeedProbe:
    """Samples the host's speed while a region of code runs.

    Call :meth:`start`, run the region, then :meth:`stop`.  Only the main
    thread can receive the signal, so a probe must be started from it.
    """

    def __init__(self, reference_s: float):
        if reference_s <= 0:
            raise ValueError("reference_s must be positive")
        self.reference_s = reference_s
        self._samples: "list[tuple[float, float]]" = []
        self._previous = None
        self._start = 0.0
        self._mark = 0.0

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        cpu = time.thread_time()
        probe_loop()
        loop_s = time.thread_time() - cpu
        # The interval since the previous handler ended is job time run
        # at (roughly) the speed this sample measured.
        self._samples.append((begin - self._mark, loop_s))
        self._mark = time.perf_counter()

    def start(self) -> None:
        self._samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> Timing:
        """End the region and return its timing."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        samples = list(self._samples)
        tail = end - self._mark
        if not samples:
            # Shorter than one interval: measure the speed once, now.
            cpu = time.thread_time()
            probe_loop()
            samples = [(0.0, time.thread_time() - cpu)]
        reference = sum(
            interval * self.reference_s / max(loop_s, 1e-9) for interval, loop_s in samples
        )
        reference += tail * self.reference_s / max(samples[-1][1], 1e-9)
        loops = sorted(loop_s for _, loop_s in samples)
        return Timing(
            wall_s=end - self._start,
            reference_s=reference,
            probe_s=loops[len(loops) // 2],
            n_probes=len(self._samples),
        )
