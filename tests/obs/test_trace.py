"""Unit tests for the repro.obs tracing/metrics/export subsystem."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Tracer,
    chrome_trace_payload,
    critical_path,
    current_tracer,
    install_tracer,
    load_trace,
    render_report,
    span_id,
    trace_events,
    tracer_for_run,
    validate_events,
    write_trace,
)
from repro.obs.metrics import count, profiled
from repro.obs.trace import TRACE_ENV


class TestSpanIds:
    def test_content_derived_and_stable(self):
        assert span_id("", "engine:x", 0) == span_id("", "engine:x", 0)
        assert span_id("", "engine:x", 0) != span_id("", "engine:x", 1)
        assert span_id("", "a", 0) != span_id("", "b", 0)
        assert len(span_id("p", "n", 3)) == 12

    def test_occurrence_counting_disambiguates_repeats(self):
        tracer = Tracer(name="t")
        with tracer.span("root"):
            with tracer.span("wave"):
                pass
            with tracer.span("wave"):
                pass
        ids = [span.span_id for span in tracer.spans]
        assert len(set(ids)) == 3

    def test_nesting_follows_the_stack(self):
        tracer = Tracer(name="t")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id() == inner.span_id
            assert tracer.current_span_id() == outer.span_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == ""

    def test_each_thread_nests_on_its_own_stack(self):
        # A helper thread never sees the caller's open span as its
        # parent; it joins the caller's tree only through parent= and a
        # fixed_id, and spans nested inside that one follow its stack.
        tracer = Tracer(name="t")
        seen = {}

        def helper(parent):
            with tracer.span("free") as free:
                seen["free"] = free
            fixed = span_id(parent, "adopted", 7)
            with tracer.span("adopted", parent=parent, fixed_id=fixed) as adopted:
                with tracer.span("inner") as inner:
                    seen["inner"] = inner
                seen["adopted"] = adopted

        with tracer.span("outer") as outer:
            thread = threading.Thread(target=helper, args=(outer.span_id,))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert tracer.current_span_id() == outer.span_id
        assert seen["free"].parent_id == ""
        assert seen["adopted"].parent_id == outer.span_id
        assert seen["adopted"].span_id == span_id(outer.span_id, "adopted", 7)
        assert seen["inner"].parent_id == seen["adopted"].span_id
        assert seen["inner"].span_id == span_id(seen["adopted"].span_id, "inner", 0)

    def test_two_identical_runs_share_the_span_tree(self):
        def run():
            tracer = Tracer(name="t")
            with tracer.span("root"):
                for _ in range(2):
                    with tracer.span("phase"):
                        tracer.event("marker")
            return {(s.span_id, s.parent_id, s.name) for s in tracer.spans}

        assert run() == run()

    def test_absorb_merges_worker_span_dicts(self):
        tracer = Tracer(name="t")
        with tracer.span("execute") as execute:
            pass
        worker_span = {
            "id": span_id(execute.span_id, "task:x", 1),
            "parent": execute.span_id,
            "name": "task:x",
            "cat": "task",
            "start_s": 0.5,
            "end_s": 0.7,
            "pid": 4242,
            "attrs": {"task": "x", "attempt": 1},
        }
        tracer.absorb([worker_span])
        absorbed = tracer.spans[-1]
        assert absorbed.pid == 4242
        assert absorbed.duration_s == pytest.approx(0.2)


class TestTracerForRun:
    def test_false_disables_even_under_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_ENV, str(tmp_path))
        assert tracer_for_run(False, "x") == (None, False)

    def test_path_creates_owned_tracer(self, tmp_path):
        tracer, owned = tracer_for_run(str(tmp_path / "t"), "engine:x")
        assert owned and tracer.name == "engine:x"
        assert tracer.out_dir == str(tmp_path / "t")

    def test_tracer_instance_is_not_owned(self):
        mine = Tracer(name="mine")
        assert tracer_for_run(mine, "x") == (mine, False)

    def test_none_joins_installed_tracer(self):
        mine = Tracer(name="outer")
        previous = install_tracer(mine)
        try:
            assert tracer_for_run(None, "inner") == (mine, False)
        finally:
            install_tracer(previous)

    def test_none_falls_back_to_env_then_off(self, monkeypatch, tmp_path):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert current_tracer() is None
        assert tracer_for_run(None, "x") == (None, False)
        monkeypatch.setenv(TRACE_ENV, str(tmp_path))
        tracer, owned = tracer_for_run(None, "x")
        assert owned and tracer.out_dir == str(tmp_path)


def _sample_tracer() -> Tracer:
    tracer = Tracer(name="engine:test")
    with tracer.span("engine:test", "engine"):
        with tracer.span("execute", "executor") as execute:
            for index, (task, cost) in enumerate(
                [("a", 0.2), ("b", 0.3), ("c", 0.1)]
            ):
                with tracer.span(
                    f"task:{task}",
                    "task",
                    parent=execute.span_id,
                    fixed_id=span_id(execute.span_id, f"task:{task}", 1),
                    task=task,
                    attempt=1,
                ) as span:
                    pass
                span.start_s = index * 1.0
                span.end_s = index * 1.0 + cost
    count("cache.misses", 3)
    count("cache.hits", 1)
    return tracer


class TestExportAndReport:
    def test_write_trace_emits_three_artifacts(self, tmp_path):
        tracer = _sample_tracer()
        out = write_trace(tracer, tmp_path / "trace")
        files = sorted(p.name for p in (tmp_path / "trace").iterdir())
        assert files == ["chrome_trace.json", "summary.txt", "trace.jsonl"]
        assert out == str(tmp_path / "trace")

    def test_write_trace_without_directory_rejected(self):
        with pytest.raises(ConfigurationError):
            write_trace(Tracer(name="t"))

    def test_jsonl_round_trips_and_validates(self, tmp_path):
        tracer = _sample_tracer()
        write_trace(tracer, tmp_path)
        events = load_trace(tmp_path)
        assert validate_events(events) == []
        assert events[0]["type"] == "meta"
        assert events[-1]["type"] == "metrics"
        # load_trace accepts the file path too.
        assert load_trace(tmp_path / "trace.jsonl") == events

    def test_load_trace_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_trace(tmp_path / "nope")

    def test_validate_catches_corruption(self):
        events = trace_events(_sample_tracer())
        assert validate_events(events) == []
        # No meta record.
        assert validate_events(events[1:]) == ["no meta record"]
        # Wrong schema version.
        bad_meta = [dict(events[0], schema_version=999)] + events[1:]
        assert any("schema_version" in e for e in validate_events(bad_meta))
        # Missing key / wrong type / negative duration / unknown type.
        span = next(e for e in events if e["type"] == "span")
        broken = dict(span)
        del broken["pid"]
        assert any("missing key" in e for e in validate_events([events[0], broken]))
        wrong = dict(span, start_s="later")
        assert any("has type" in e for e in validate_events([events[0], wrong]))
        torn = dict(span, start_s=2.0, end_s=1.0)
        assert any("end_s" in e for e in validate_events([events[0], torn]))
        assert any(
            "unknown type" in e
            for e in validate_events([events[0], {"type": "mystery"}])
        )

    def test_chrome_payload_lanes_and_args(self):
        tracer = _sample_tracer()
        tracer.absorb(
            [
                {
                    "id": "feedbeef0001",
                    "parent": "",
                    "name": "task:w",
                    "cat": "task",
                    "start_s": 0.0,
                    "end_s": 0.1,
                    "pid": tracer.pid + 1,
                    "attrs": {"task": "w", "attempt": 1},
                }
            ]
        )
        payload = chrome_trace_payload(tracer)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert [e["args"]["name"] for e in meta] == ["coordinator", "worker-1"]
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        worker = next(e for e in spans if e["name"] == "task:w")
        assert worker["pid"] == 1  # lane, not raw pid
        assert worker["args"]["id"] == "feedbeef0001"
        assert all(e["dur"] >= 0 for e in spans)

    def test_critical_path_is_the_longest_task(self):
        events = trace_events(_sample_tracer())
        chain, total = critical_path(events)
        # Independent tasks: b (0.3) outlasts a (0.2) and c (0.1).
        assert chain == ["b"]
        assert total == pytest.approx(0.3)
        assert critical_path(events[:1]) == ([], 0.0)  # no task spans

    def test_report_names_critical_path_and_stats(self):
        text = render_report(trace_events(_sample_tracer()))
        assert "trace report: engine:test" in text
        assert "critical path (1 task(s), 300.0 ms):\n  -> b\n" in text
        assert "cache misses" in text
        # Ratios are derived from the counters: 1 hit in 4 lookups.
        assert "cache hit ratio      0.250" in text
        assert "checkpoint hit ratio" not in text  # no lookups, no ratio

    def test_metrics_record_is_the_registry_delta(self):
        count("unit.before_tracer")
        tracer = Tracer(name="t")

        @profiled("unit.traced")
        def work():
            count("unit.during_tracer", 2)

        work()
        record = trace_events(tracer)[-1]
        assert record["type"] == "metrics"
        assert record["counters"] == {"unit.during_tracer": 2}
        assert record["timers"]["unit.traced"]["calls"] == 1


class TestCli:
    def test_report_and_validate_exit_codes(self, tmp_path):
        import subprocess
        import sys

        write_trace(_sample_tracer(), tmp_path)
        env_dir = str(tmp_path)

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.obs", *args],
                capture_output=True,
                text=True,
            )

        report = cli("report", env_dir)
        assert report.returncode == 0
        assert "critical path" in report.stdout

        valid = cli("validate", env_dir)
        assert valid.returncode == 0

        # Corrupt the JSONL: drop the meta line.
        jsonl = tmp_path / "trace.jsonl"
        lines = jsonl.read_text().splitlines()
        jsonl.write_text("\n".join(lines[1:]) + "\n")
        invalid = cli("validate", env_dir)
        assert invalid.returncode == 1

        missing = cli("validate", str(tmp_path / "nope"))
        assert missing.returncode == 2
