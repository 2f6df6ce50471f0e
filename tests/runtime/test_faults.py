"""Chaos tests: deterministic fault injection through the runtime stack.

The contract under test: every task is pure and seeded, so injected
chaos (task errors, worker hard-crashes, delays, torn store writes) may
cost retries, pool rebuilds, and recomputes — but never bytes.
"""

from __future__ import annotations

import io
import json
import pickle
import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import faults as faults_mod
from repro.runtime.cache import ResultCache
from repro.runtime.checkpoints import CheckpointStore
from repro.runtime.executor import (
    RetryPolicy,
    RunHealth,
    Task,
    TaskExecutionError,
    run_tasks,
)
from repro.runtime.faults import (
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    active_plan,
    install,
    parse_plan,
)


def square(params):
    return params["x"] ** 2


@pytest.fixture(autouse=True)
def _no_installed_plan():
    """Isolate every test from process-wide plan state."""
    previous = install(None)
    yield
    install(previous)


class TestFaultRule:
    def test_kinds_validated(self):
        with pytest.raises(ConfigurationError):
            FaultRule(kind="meteor")
        with pytest.raises(ConfigurationError):
            FaultRule(kind="error", count=0)
        with pytest.raises(ConfigurationError):
            FaultRule(kind="error", rate=0.0)
        with pytest.raises(ConfigurationError):
            FaultRule(kind="delay", delay_s=-1.0)

    def test_match_and_count(self):
        rule = FaultRule(kind="error", match="sta*/round-0001", count=2)
        assert rule.fires("sta003/round-0001", 0)
        assert rule.fires("sta003/round-0001", 1)
        assert not rule.fires("sta003/round-0001", 2)  # count exhausted
        assert not rule.fires("sta003/round-0002", 0)  # no match

    def test_rate_is_deterministic_and_proportional(self):
        rule = FaultRule(kind="error", rate=0.3)
        targets = [f"task-{i:03d}" for i in range(500)]
        selected = [t for t in targets if rule.selects(t)]
        assert selected == [t for t in targets if rule.selects(t)]
        assert 0.2 < len(selected) / len(targets) < 0.4

    def test_seed_varies_the_selection(self):
        a = FaultRule(kind="error", rate=0.5, seed=0)
        b = FaultRule(kind="error", rate=0.5, seed=1)
        targets = [f"task-{i:03d}" for i in range(200)]
        assert [a.selects(t) for t in targets] != [
            b.selects(t) for t in targets
        ]


class TestParsePlan:
    def test_grammar_round_trips_through_describe(self):
        text = "crash,*/round-0001;torn,cache:*,count=2,rate=0.5,seed=3"
        plan = parse_plan(text)
        assert len(plan) == 2
        assert plan.rules[0] == FaultRule(kind="crash", match="*/round-0001")
        assert plan.rules[1] == FaultRule(
            kind="torn", match="cache:*", count=2, rate=0.5, seed=3
        )
        assert parse_plan(plan.describe()).rules == plan.rules

    def test_task_ids_with_colons_and_slashes_match(self):
        # Zoo task ids look like "0004:D1 K=1/8" — the grammar's
        # separators (";" and ",") must leave them expressible.
        plan = parse_plan("error,0004:D1 K=1/8,count=1")
        assert plan.rules[0].fires("0004:D1 K=1/8", 0)

    def test_bad_input_rejected(self):
        for text in ("", ";;", "error,x,bogus=1", "wat,*", "error,x,count=z"):
            with pytest.raises(ConfigurationError):
                parse_plan(text)

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(faults_mod.FAULTS_ENV, "error,env-task,count=1")
        plan = active_plan()
        assert plan is not None
        assert plan.rules[0].match == "env-task"
        monkeypatch.delenv(faults_mod.FAULTS_ENV)
        assert active_plan() is None

    def test_explicit_beats_installed(self):
        explicit = FaultPlan([FaultRule(kind="error")])
        installed = FaultPlan([FaultRule(kind="delay")])
        install(installed)
        assert active_plan() is installed
        assert active_plan(explicit) is explicit


class TestApplyTaskFaults:
    def test_error_raises(self):
        plan = FaultPlan([FaultRule(kind="error", match="t", count=1)])
        with pytest.raises(InjectedFaultError):
            plan.apply_task_faults("t", 0, in_worker=True)
        plan.apply_task_faults("t", 1, in_worker=True)  # count exhausted

    def test_crash_downgrades_in_coordinator(self):
        # os._exit in the in-process executor would kill the run itself.
        plan = FaultPlan([FaultRule(kind="crash", match="t")])
        with pytest.raises(InjectedFaultError, match="downgraded"):
            plan.apply_task_faults("t", 0, in_worker=False)

    def test_pickled_plan_drops_tear_counters(self):
        plan = FaultPlan([FaultRule(kind="torn", match="cache:*")])
        assert plan.tear("cache", "k")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.rules == plan.rules
        assert clone._tear_counts == {}

    def test_tear_counts_per_label(self):
        plan = FaultPlan([FaultRule(kind="torn", match="cache:*", count=1)])
        assert plan.tear("cache", "a")
        assert not plan.tear("cache", "a")  # count exhausted for "a"
        assert plan.tear("cache", "b")  # fresh label, fresh counter
        assert not plan.tear("checkpoint", "a")  # label never matched


class TestExecutorRetries:
    def test_injected_errors_are_absorbed_by_retries(self):
        plan = FaultPlan([FaultRule(kind="error", match="t1", count=2)])
        health = RunHealth()
        tasks = [Task(f"t{i}", square, {"x": i}) for i in range(3)]
        results = run_tasks(tasks, faults=plan, health=health)
        assert results == {f"t{i}": i * i for i in range(3)}
        assert health.task_errors == 2
        assert health.injected_faults == 2
        assert health.retries == 2

    def test_exhausted_retries_raise_with_remote_traceback(self):
        plan = FaultPlan([FaultRule(kind="error", match="t0", count=99)])
        policy = RetryPolicy(retries=1, backoff_s=0.0)
        with pytest.raises(TaskExecutionError) as excinfo:
            run_tasks(
                [Task("t0", square, {"x": 1})], faults=plan, policy=policy
            )
        assert excinfo.value.task_id == "t0"
        assert "InjectedFaultError" in excinfo.value.remote_traceback

    def test_error_survives_pickling_with_traceback(self):
        # The remote traceback is a plain attribute that must outlive a
        # trip through pickle (worker -> coordinator).
        err = TaskExecutionError(
            "task 'x' failed",
            task_id="x",
            remote_traceback="Traceback ...\nValueError: boom",
            injected=True,
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone.task_id == "x"
        assert clone.remote_traceback == err.remote_traceback
        assert clone.injected is True

    def test_policy_validated(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_pool_failures=0)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_collect_errors_returns_the_other_tasks(self, n_workers):
        plan = FaultPlan([FaultRule(kind="error", match="a", count=99)])
        policy = RetryPolicy(retries=0, backoff_s=0.0)
        health = RunHealth()
        tasks = [Task(name, square, {"x": x}) for name, x in zip("abcd", range(1, 5))]
        results = run_tasks(
            tasks,
            n_workers=n_workers,
            faults=plan,
            policy=policy,
            health=health,
            collect_errors=True,
        )
        assert results == {"b": 4, "c": 9, "d": 16}
        assert [row["task"] for row in health.failed] == ["a"]
        assert "InjectedFaultError" in health.failed[0]["summary"]


class TestPoolRecovery:
    def test_worker_crash_is_replayed_byte_identically(self):
        plan = FaultPlan(
            [FaultRule(kind="crash", match="t03", count=1)]
        )
        health = RunHealth()
        tasks = [Task(f"t{i:02d}", square, {"x": i}) for i in range(8)]
        clean = run_tasks(tasks, n_workers=2)
        chaotic = run_tasks(tasks, n_workers=2, faults=plan, health=health)
        assert chaotic == clean
        assert health.worker_crashes == 1
        assert health.pool_rebuilds == 1
        assert health.injected_faults == 1
        assert health.serial_fallbacks == 0

    def test_crashes_replayed_by_the_first_are_not_counted(self):
        # Every task schedules a crash on its first attempt, but the
        # first crash breaks the pool and the rest replay at attempt 1,
        # where the count=1 rule no longer fires: one fault happened.
        plan = parse_plan("crash,t*,count=1")
        health = RunHealth()
        tasks = [Task(f"t{i}", square, {"x": i}) for i in range(8)]
        results = run_tasks(tasks, n_workers=2, faults=plan, health=health)
        assert results == {f"t{i}": i * i for i in range(8)}
        assert health.injected_faults == 1
        assert health.worker_crashes == 1
        assert health.retries == 0

    def test_timeout_kills_and_replays(self):
        plan = FaultPlan(
            [FaultRule(kind="delay", match="t1", count=1, delay_s=5.0)]
        )
        policy = RetryPolicy(timeout_s=0.5, backoff_s=0.0)
        health = RunHealth()
        tasks = [Task(f"t{i}", square, {"x": i}) for i in range(4)]
        results = run_tasks(
            tasks, n_workers=2, faults=plan, policy=policy, health=health
        )
        assert results == {f"t{i}": i * i for i in range(4)}
        assert health.timeouts == 1
        assert health.injected_faults == 1

    def test_repeated_crashes_degrade_to_serial(self):
        plan = FaultPlan([FaultRule(kind="crash", match="t0", count=10)])
        policy = RetryPolicy(
            retries=10, backoff_s=0.0, max_pool_failures=2
        )
        health = RunHealth()
        with pytest.warns(RuntimeWarning, match="degrading"):
            results = run_tasks(
                [Task("t0", square, {"x": 3})],
                n_workers=2,
                faults=plan,
                policy=policy,
                health=health,
            )
        # The serial path downgrades the remaining crashes to retryable
        # errors and the task eventually succeeds.
        assert results == {"t0": 9}
        assert health.worker_crashes == 2
        assert health.serial_fallbacks == 1
        assert "pool failure" in health.fallback_reason

    def test_pool_creation_failure_records_reason(self, monkeypatch):
        import repro.runtime.executor as executor_mod

        def refuse(n_workers):
            raise OSError("no semaphores left")

        monkeypatch.setattr(executor_mod, "_make_pool", refuse)
        health = RunHealth()
        tasks = [Task(f"t{i}", square, {"x": i}) for i in range(3)]
        with pytest.warns(RuntimeWarning, match="no semaphores"):
            results = run_tasks(tasks, n_workers=2, health=health)
        assert results == {f"t{i}": i * i for i in range(3)}
        assert health.serial_fallbacks == 1
        assert "no semaphores" in health.fallback_reason


class TestStoreQuarantine:
    def test_digest_mismatch_is_quarantined(self, tmp_path):
        from repro.runtime.cache import result_digest

        cache = ResultCache(tmp_path)
        payload = {
            "schema_version": 1,
            "key": "k1",
            "spec": {"spec": 1},
            "result": {"ber": 0.25},  # bit-rot: result no longer
            "result_sha256": result_digest({"ber": 0.5}),  # matches digest
        }
        cache._store.put("k1", json.dumps(payload).encode())
        assert cache.get("k1") is None
        assert cache.health.quarantined == 1
        # The tombstone outlives the handle: a reopened cache misses
        # without quarantining the entry a second time.
        reopened = ResultCache(tmp_path)
        assert reopened.get("k1") is None
        assert reopened.health.quarantined == 0

    def test_packed_digest_mismatch_is_quarantined(self, tmp_path):
        # A packed record whose payload fails the result_sha256 check
        # is tombstoned + counted.
        cache = ResultCache(tmp_path)
        cache.put("k1", {"spec": 1}, {"ber": 0.5})
        raw = cache._store.get("k1")
        doctored = raw.replace(b'"ber":0.5', b'"ber":0.7')
        cache._store.put("k1", doctored)
        assert cache.get("k1") is None
        assert cache.health.quarantined == 1
        assert cache.keys() == []

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ghost") is None
        assert cache.health.quarantined == 0

    def test_torn_cache_write_recovers_on_reread(self, tmp_path):
        plan = FaultPlan([FaultRule(kind="torn", match="cache:k1", count=1)])
        install(plan)
        cache = ResultCache(tmp_path)
        cache.put("k1", {"spec": 1}, {"ber": 0.5})  # lands torn
        assert cache.get("k1") is None  # quarantined, clean miss
        assert cache.health.quarantined == 1
        cache.put("k1", {"spec": 1}, {"ber": 0.5})  # tear count exhausted
        assert cache.get("k1") == {"ber": 0.5}

    def test_torn_checkpoint_write_recovers_on_reread(self, tmp_path):
        plan = FaultPlan(
            [FaultRule(kind="torn", match="checkpoint:k1", count=1)]
        )
        install(plan)
        store = CheckpointStore(tmp_path)
        state = {"w": np.arange(6.0), "b": np.zeros(3)}
        store.put("k1", {"spec": 1}, state)  # record lands torn
        assert store.get("k1") is None
        assert store.health.quarantined == 1
        store.put("k1", {"spec": 1}, state)
        loaded = store.get("k1")
        assert loaded is not None
        assert np.array_equal(loaded.state["w"], state["w"])

    def test_checkpoint_digest_mismatch_quarantines_both_files(
        self, tmp_path
    ):
        # Metadata and weights share one record, so the tombstone that
        # quarantines swapped weights retires both halves at once.
        from repro.runtime.hashing import state_digest

        store = CheckpointStore(tmp_path)
        state = {"w": np.arange(4.0)}
        payload = {
            "schema_version": 1,
            "key": "k1",
            "spec": {"spec": 1},
            "state_sha256": state_digest(state),
            "meta": {},
        }
        meta = json.dumps(payload).encode()
        weights = io.BytesIO()
        np.savez(weights, w=np.zeros(4))  # swapped weights
        store._store.put(
            "k1", struct.pack("<I", len(meta)) + meta + weights.getvalue()
        )
        assert store.get("k1") is None
        assert store.health.quarantined == 1
        assert store._store.get("k1") is None  # neither half is readable
        assert CheckpointStore(tmp_path).get("k1") is None


class TestEngineIntegration:
    def test_engine_run_survives_chaos_and_reports_health(self, tmp_path):
        from repro.config import SMOKE
        from repro.runtime import (
            Scenario,
            dot11,
            fidelity_to_dict,
            ideal,
            point,
            splitbeam,
        )
        from repro.runtime.engine import ExperimentEngine

        scenario = Scenario(
            name="chaos-unit",
            title="engine chaos scenario",
            fidelity=fidelity_to_dict(SMOKE),
            points=(
                point(
                    "802.11", "D1", dot11(), link={"snr_db": 20.0},
                    ber_samples=6,
                ),
                point(
                    "ideal", "D1", ideal(), link={"snr_db": 20.0},
                    ber_samples=6,
                ),
                point(
                    "SB 1/8", "D1", splitbeam(1 / 8),
                    link={"snr_db": 20.0}, ber_samples=6,
                ),
            ),
        )
        clean = ExperimentEngine(
            cache=ResultCache(tmp_path / "clean")
        ).run(scenario)
        # The tear rule runs at rate 1.0: cache keys embed code_version(),
        # so a fractional rate would select a source-edit-dependent subset
        # of keys (possibly none) and the quarantine assertion below
        # would flap with every unrelated change to the library.
        plan = parse_plan("error,*,rate=0.4,count=1;torn,cache:*")
        chaotic_cache = ResultCache(tmp_path / "chaos")
        engine = ExperimentEngine(cache=chaotic_cache, faults=plan)
        chaotic = engine.run(scenario)
        assert json.dumps(chaotic.to_dict(), sort_keys=True) == json.dumps(
            clean.to_dict(), sort_keys=True
        )
        assert chaotic.health["executor"]["injected_faults"] > 0
        assert "health" not in chaotic.to_dict()
        assert chaotic.to_dict(include_health=True)["health"] == chaotic.health
        # A warm re-run quarantines the torn entries, recomputes them,
        # and still produces the same bytes.
        warm = ExperimentEngine(cache=chaotic_cache).run(scenario)
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            clean.to_dict(), sort_keys=True
        )
        assert warm.health["cache"]["quarantined"] > 0
