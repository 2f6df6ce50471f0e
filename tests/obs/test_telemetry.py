"""Unit tests for the telemetry registry in ``repro.obs.metrics``.

The registry is process-wide and other tests count into it too, so
every test reads what changed ``since`` a snapshot it took itself.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.obs import metrics


class TestCounters:
    def test_count_adds_to_a_named_total(self):
        base = metrics.snapshot()
        metrics.count("unit.hits")
        metrics.count("unit.hits", 2)
        metrics.count("unit.bytes", 1024)
        gained = metrics.since(base)["counters"]
        assert gained == {"unit.bytes": 1024, "unit.hits": 3}

    def test_since_leaves_out_what_did_not_move(self):
        metrics.count("unit.before")
        base = metrics.snapshot()
        metrics.count("unit.after")
        metrics.count("unit.zero", 0)
        assert metrics.since(base)["counters"] == {"unit.after": 1}


class TestTimers:
    def test_profiled_times_every_call(self):
        @metrics.profiled("unit.work")
        def work(x):
            return x + 1

        base = metrics.snapshot()
        assert work(1) == 2
        assert work(2) == 3
        timer = metrics.since(base)["timers"]["unit.work"]
        assert timer["calls"] == 2
        assert timer["total_s"] >= 0.0

    def test_timers_sum_calls_and_time_per_name(self):
        @metrics.profiled("unit.slow")
        def slow():
            time.sleep(0.002)

        @metrics.profiled("unit.fast")
        def fast():
            return None

        base = metrics.snapshot()
        for _ in range(3):
            fast()
        slow()
        timers = metrics.since(base)["timers"]
        assert timers["unit.fast"]["calls"] == 3
        assert timers["unit.slow"]["calls"] == 1
        assert timers["unit.slow"]["total_s"] >= 0.002

    def test_nested_timers_both_see_the_inner_time(self):
        @metrics.profiled("unit.inner")
        def inner():
            time.sleep(0.001)

        @metrics.profiled("unit.outer")
        def outer():
            inner()

        base = metrics.snapshot()
        outer()
        timers = metrics.since(base)["timers"]
        assert timers["unit.outer"]["calls"] == timers["unit.inner"]["calls"] == 1
        # Wall time is attributed to every enclosing timer.
        assert timers["unit.outer"]["total_s"] >= timers["unit.inner"]["total_s"]

    def test_profiled_times_a_call_that_raises(self):
        @metrics.profiled("unit.broken")
        def broken():
            raise ValueError("boom")

        base = metrics.snapshot()
        with pytest.raises(ValueError):
            broken()
        assert broken.__name__ == "broken"
        assert metrics.since(base)["timers"]["unit.broken"]["calls"] == 1

    def test_library_entry_points_are_instrumented(self, smoke_dataset_2x2):
        # The permanent @profiled hooks on the hot-path entry points are
        # what makes post-hoc "where did the time go" queries possible.
        from repro.phy.link import LinkConfig, LinkSimulator

        indices = smoke_dataset_2x2.splits.test[:2]
        base = metrics.snapshot()
        LinkSimulator(LinkConfig()).measure_ber(
            smoke_dataset_2x2.link_channels(indices),
            smoke_dataset_2x2.link_bf(indices),
        )
        assert metrics.since(base)["timers"]["link.measure_ber"]["calls"] == 1


class TestDeltas:
    def test_snapshot_is_sorted_by_name(self):
        # Deterministic order, so two exports of one run diff clean.
        metrics.merge(
            {
                "counters": {"unit.zzz": 1, "unit.aaa": 1},
                "timers": {
                    "unit.bbb": {"calls": 1, "total_s": 0.5},
                    "unit.aab": {"calls": 1, "total_s": 0.5},
                },
            }
        )
        snap = metrics.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert list(snap["timers"]) == sorted(snap["timers"])

    def test_merge_adds_a_delta(self):
        # The coordinator side of worker telemetry.
        base = metrics.snapshot()
        delta = {
            "counters": {"unit.merged": 2},
            "timers": {"unit.merged": {"calls": 3, "total_s": 0.25}},
        }
        metrics.merge(delta)
        metrics.merge(delta)
        assert metrics.since(base) == {
            "counters": {"unit.merged": 4},
            "timers": {"unit.merged": {"calls": 6, "total_s": 0.5}},
        }

    def test_drain_then_merge_round_trips(self):
        # The worker side: a drain empties the registry and returns
        # everything it held, which merges back to the same state.
        metrics.count("unit.shipped", 2)
        held = metrics.snapshot()
        drained = metrics.drain()
        assert drained == held
        assert metrics.snapshot() == {"counters": {}, "timers": {}}
        metrics.merge(drained)
        assert metrics.snapshot() == held


def test_concurrent_updates_lose_nothing():
    """Counters and timers stay exact under contended threads."""

    @metrics.profiled("unit.threaded")
    def timed():
        return None

    n_threads, n_calls = 16, 20000
    start = threading.Barrier(n_threads)

    def hammer():
        start.wait()
        for _ in range(n_calls):
            metrics.count("unit.threaded")
        for _ in range(n_calls):
            timed()

    base = metrics.snapshot()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    gained = metrics.since(base)
    assert gained["counters"]["unit.threaded"] == n_threads * n_calls
    assert gained["timers"]["unit.threaded"]["calls"] == n_threads * n_calls
