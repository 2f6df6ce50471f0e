"""Run-wide metrics: counters, gauges, and summary histograms.

A :class:`Metrics` registry rides on each :class:`~repro.obs.trace.
Tracer` and captures the run's scalar telemetry — cache hit ratios,
retries, quarantines, queue depths, IPC message/byte counts, payload
dedupe ratios — as one coherent surface next to the span timeline.
The engines fold their :class:`~repro.runtime.executor.RunHealth` and
per-store :class:`~repro.runtime.store.StoreHealth` counters in at run
end, so everything PR 6 counts is queryable from the trace too.

All three families are plain dicts of floats with deterministic
(sorted) export order; histograms keep summary statistics (count,
total, min, max) rather than samples, so a trace's metric *structure*
is as reproducible as its span tree — only the measured values vary.
Updates are lock-guarded: worker chunks merge their telemetry from the
coordinator thread while engine code may still be recording.
"""

from __future__ import annotations

import threading

__all__ = ["Metrics"]


class Metrics:
    """Counter / gauge / histogram registry (see module docstring)."""

    def __init__(self) -> None:
        self.counters: "dict[str, float]" = {}
        self.gauges: "dict[str, float]" = {}
        self.histograms: "dict[str, dict]" = {}
        self._lock = threading.Lock()

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name``."""
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into histogram ``name``'s summary statistics."""
        value = float(value)
        with self._lock:
            entry = self.histograms.get(name)
            if entry is None:
                entry = {"count": 0, "total": 0.0, "min": value, "max": value}
                self.histograms[name] = entry
            entry["count"] += 1
            entry["total"] += value
            entry["min"] = min(entry["min"], value)
            entry["max"] = max(entry["max"], value)

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 when never touched)."""
        with self._lock:
            return self.counters.get(name, 0.0)

    def merge_counters(self, counters: "dict[str, float]") -> None:
        """Fold a mapping of counter deltas in (worker telemetry)."""
        with self._lock:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0.0) + value

    def ratio_gauge(self, name: str, numerator: float, denominator: float) -> None:
        """Record ``numerator/denominator`` (0.0 when empty) as a gauge."""
        self.set_gauge(
            name, numerator / denominator if denominator else 0.0
        )

    def to_dict(self) -> dict:
        """Deterministically ordered JSON-able snapshot."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "histograms": {
                    name: {
                        "count": entry["count"],
                        "total": entry["total"],
                        "mean": (
                            entry["total"] / entry["count"]
                            if entry["count"]
                            else 0.0
                        ),
                        "min": entry["min"],
                        "max": entry["max"],
                    }
                    for name, entry in sorted(self.histograms.items())
                },
            }
