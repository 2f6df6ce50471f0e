"""End-to-end tests for the experiment engine.

The acceptance properties of the subsystem live here at smoke scale:
worker counts never change a byte of the result artifact, and a warm
cache serves every point without executing a single task (verified both
through engine statistics and the ``@profiled`` link-simulator
timer).
"""

from __future__ import annotations

import json

import pytest

from repro.config import SMOKE
from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.runtime import (
    ExperimentEngine,
    ResultCache,
    Scenario,
    dot11,
    fidelity_to_dict,
    ideal,
    plan_scenario,
    point,
    splitbeam,
)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        name="unit",
        title="engine unit scenario",
        fidelity=fidelity_to_dict(SMOKE),
        points=(
            point("802.11", "D1", dot11(), link={"snr_db": 20.0}, ber_samples=6),
            point("ideal", "D1", ideal(), link={"snr_db": 20.0}, ber_samples=6),
            point(
                "SB 1/8",
                "D1",
                splitbeam(1 / 8),
                link={"snr_db": 20.0},
                ber_samples=6,
            ),
        ),
    )


class TestPlanner:
    def test_plan_is_keyed_and_ordered(self, scenario):
        planned = plan_scenario(scenario, version="v0")
        assert [entry.label for entry in planned] == [
            "802.11", "ideal", "SB 1/8",
        ]
        assert len({entry.key for entry in planned}) == 3
        # Keys are position-independent: the same spec always gets the
        # same address, so overlapping scenarios share cache entries.
        again = plan_scenario(scenario, version="v0")
        assert [e.key for e in planned] == [e.key for e in again]

    def test_shards_only_when_datasets_saturate_workers(self, scenario):
        # 1 dataset vs 1 worker -> no sharding (it would serialize).
        assert all(
            entry.task.shard is None
            for entry in plan_scenario(scenario, n_workers=1)
        )

    def test_keys_ignore_labels_and_fidelity_name(self, scenario):
        # The same physical measurement reached from another scenario
        # (different labels, renamed fidelity preset) must share its
        # cache entry.
        relabelled = Scenario(
            name="unit-relabelled",
            title="same grid, different words",
            fidelity={**dict(scenario.fidelity), "name": "smoke-copy"},
            points=tuple(
                {**entry, "label": f"renamed {i}"}
                for i, entry in enumerate(scenario.points)
            ),
        )
        original = plan_scenario(scenario, version="v0")
        renamed = plan_scenario(relabelled, version="v0")
        assert [e.key for e in original] == [e.key for e in renamed]


class TestEngineRun:
    def test_matches_direct_evaluation(self, scenario, smoke_dataset_2x2):
        from repro.baselines import Dot11Feedback
        from repro.core.pipeline import evaluate_scheme
        from repro.phy.link import LinkConfig

        run = ExperimentEngine(n_workers=1).run(scenario)
        direct = evaluate_scheme(
            Dot11Feedback(),
            smoke_dataset_2x2,
            indices=smoke_dataset_2x2.splits.test[:6],
            link_config=LinkConfig(snr_db=20.0),
        )
        assert run.result("802.11")["ber"] == direct.ber
        assert run.result("802.11")["feedback_bits"] == direct.feedback_bits
        assert run.n_tasks == 3 and run.n_executed == 3 and run.n_cached == 0

    def test_worker_count_does_not_change_a_byte(self, scenario):
        serial = ExperimentEngine(n_workers=1).run(scenario)
        pooled = ExperimentEngine(n_workers=2).run(scenario)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            pooled.to_dict(), sort_keys=True
        )

    def test_warm_cache_executes_zero_tasks(self, scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = ExperimentEngine(cache=cache, n_workers=1).run(scenario)
        assert cold.n_executed == 3
        base = metrics.snapshot()
        warm = ExperimentEngine(cache=cache, n_workers=1).run(scenario)
        assert warm.n_executed == 0 and warm.n_cached == 3
        # Zero link simulations ran: the profiled timer did not move.
        assert "link.measure_ber" not in metrics.since(base)["timers"]
        assert warm.to_dict() == cold.to_dict()

    def test_interrupted_run_keeps_completed_points(self, scenario, tmp_path):
        # Points persist as their tasks complete, so a run that dies
        # midway resumes from every finished point.
        import repro.runtime.tasks as tasks_module

        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache, n_workers=1)
        original = tasks_module.run_point
        calls = {"n": 0}

        def dies_on_third(params):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("simulated crash")
            return original(params)

        tasks_module.run_point = dies_on_third
        try:
            with pytest.raises(Exception, match="simulated crash"):
                engine.run(scenario)
        finally:
            tasks_module.run_point = original
        # The two completed points are already on disk ...
        assert len(cache) == 2
        # ... and the resumed run executes only the missing one.
        resumed = ExperimentEngine(cache=cache, n_workers=1).run(scenario)
        assert resumed.n_cached == 2 and resumed.n_executed == 1

    def test_overlapping_scenario_reuses_points(self, scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ExperimentEngine(cache=cache, n_workers=1).run(scenario)
        wider = Scenario(
            name="unit-wider",
            title="unit scenario plus one new point",
            fidelity=scenario.fidelity,
            points=scenario.points
            + (
                point(
                    "802.11 @ 10 dB",
                    "D1",
                    dot11(),
                    link={"snr_db": 10.0},
                    ber_samples=6,
                ),
            ),
        )
        run = ExperimentEngine(cache=cache, n_workers=1).run(wider)
        assert run.n_cached == 3 and run.n_executed == 1

    def test_artifact_is_deterministic_json(self, scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache, n_workers=1)
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        engine.run(scenario).write_json(path_a)
        engine.run(scenario).write_json(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        payload = json.loads(path_a.read_text())
        assert payload["schema_version"] == 1
        assert [p["label"] for p in payload["points"]] == [
            "802.11", "ideal", "SB 1/8",
        ]
        assert "wall_s" not in payload and "created_unix" not in payload

    def test_result_lookup_and_values(self, scenario):
        run = ExperimentEngine(n_workers=1).run(scenario)
        assert set(run.values("ber")) == {"802.11", "ideal", "SB 1/8"}
        with pytest.raises(ConfigurationError):
            run.result("missing")
