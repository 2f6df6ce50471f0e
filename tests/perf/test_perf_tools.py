"""Unit tests for the repro.perf measurement subsystem."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.perf import Benchmark, BenchmarkResult, PerfReport, speedup


class TestBenchmark:
    def test_run_basic_stats(self):
        calls = []
        result = Benchmark(warmup=2, repeats=5).run(
            "stage", lambda: calls.append(1), n_items=10
        )
        assert len(calls) == 7  # warmup + repeats
        assert result.repeats == 5
        assert result.min_s <= result.median_s <= result.max_s
        assert result.items_per_s is not None and result.items_per_s > 0
        assert "stage" in str(result)

    def test_median_of_even_and_odd(self):
        from repro.perf.timer import _median

        assert _median([3.0, 1.0, 2.0]) == 2.0
        assert _median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_speedup(self):
        fast = BenchmarkResult("a", 1, 0.5, 0.5, 0.5, 0.5)
        slow = BenchmarkResult("b", 1, 5.0, 5.0, 5.0, 5.0)
        assert speedup(slow, fast) == pytest.approx(10.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            Benchmark(repeats=0)
        with pytest.raises(ConfigurationError):
            Benchmark().run("x", lambda: None, repeats=0)

    def test_as_dict_roundtrips_json(self):
        result = Benchmark(warmup=0, repeats=2).run(
            "s", lambda: None, n_items=3, meta={"k": "v"}
        )
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["name"] == "s"
        assert payload["n_items"] == 3
        assert payload["meta"] == {"k": "v"}


class TestPerfReport:
    def test_write_json(self, tmp_path):
        bench = Benchmark(warmup=0, repeats=2)
        report = PerfReport("unit report", context={"workload": "tiny"})
        baseline = bench.run("stage/ref", lambda: None, n_items=4)
        optimized = bench.run("stage/fast", lambda: None, n_items=4)
        report.add(baseline)
        report.add(optimized)
        factor = report.add_comparison("stage", baseline, optimized)
        assert factor > 0
        path = tmp_path / "report.json"
        report.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["title"] == "unit report"
        assert payload["context"]["workload"] == "tiny"
        assert len(payload["stages"]) == 2
        assert payload["comparisons"][0]["stage"] == "stage"
        assert "speedup" in payload["comparisons"][0]
        assert "stage/ref" in report.render()

    def test_json_file_round_trip_preserves_stages_and_comparisons(
        self, tmp_path
    ):
        # The cross-PR perf trajectory depends on reading committed
        # BENCH_hotpaths.json files back: every stage statistic and
        # comparison must survive a full write -> parse cycle intact.
        bench = Benchmark(warmup=0, repeats=3)
        report = PerfReport("round trip", context={"workload": "unit"})
        baseline = bench.run("s/ref", lambda: sum(range(200)), n_items=7)
        optimized = bench.run("s/fast", lambda: None, n_items=7)
        report.add(baseline)
        report.add(optimized)
        report.add_comparison("s", baseline, optimized)
        path = tmp_path / "r.json"
        report.write_json(str(path))
        payload = json.loads(path.read_text())

        assert payload["schema_version"] == 1
        by_name = {stage["name"]: stage for stage in payload["stages"]}
        for result in (baseline, optimized):
            stage = by_name[result.name]
            assert stage["median_s"] == result.median_s
            assert stage["mean_s"] == result.mean_s
            assert stage["min_s"] == result.min_s
            assert stage["max_s"] == result.max_s
            assert stage["repeats"] == result.repeats
            assert stage["n_items"] == 7
            assert stage["items_per_s"] == result.items_per_s
        comparison = payload["comparisons"][0]
        assert comparison["baseline"] == baseline.as_dict()
        assert comparison["optimized"] == optimized.as_dict()
        assert comparison["speedup"] == pytest.approx(
            baseline.median_s / optimized.median_s
        )
        assert isinstance(payload["created_unix"], float)

    def test_write_json_rejects_empty_path(self):
        with pytest.raises(ConfigurationError):
            PerfReport("x").write_json("")

    def test_reference_module_importable(self):
        # The frozen seed implementations must stay importable — the
        # equivalence tests and benches both depend on them.
        from repro.perf import reference

        assert callable(reference.reference_givens_decompose)
        assert callable(reference.reference_encode_cbf)
        assert callable(reference.reference_collect_session)
