"""Tests for the task executor (serial and worker-pool paths)."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro.runtime.executor as executor_mod
from repro.errors import ConfigurationError
from repro.runtime.executor import (
    RetryPolicy,
    Task,
    RunHealth,
    TaskExecutionError,
    _pack_wave,
    _run_chunk,
    resolve_worker_count,
    run_tasks,
)
from repro.obs.trace import span_id
from repro.runtime.faults import parse_plan


def square(params):
    return params["x"] ** 2


def whoami(params):
    return {"pid": os.getpid(), "tag": params.get("tag")}


def boom(params):
    raise ValueError("intentional failure")


def row_digest(params):
    """Summarize one row of a (shared) array so results pin its bytes."""
    row = np.ascontiguousarray(params["blob"][params["row"]])
    return {
        "row": params["row"],
        "digest": hashlib.sha256(row.tobytes()).hexdigest(),
        "total": float(np.sum(params["blob"])),
    }


class TestValidation:
    def test_duplicate_ids_rejected(self):
        tasks = [Task("a", square, {"x": 1}), Task("a", square, {"x": 2})]
        with pytest.raises(ConfigurationError):
            run_tasks(tasks)

    def test_bad_fn_ref_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tasks([Task("a", "not-a-ref", {"x": 1})])

    def test_worker_count_resolution(self, monkeypatch):
        assert resolve_worker_count(3) == 3
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", "5")
        assert resolve_worker_count(None) == 5
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", "zebra")
        with pytest.raises(ConfigurationError):
            resolve_worker_count(None)
        with pytest.raises(ConfigurationError):
            resolve_worker_count(0)

    def test_empty_plan(self):
        assert run_tasks([]) == {}


class TestExecution:
    def test_serial_and_pool_agree(self):
        tasks = [Task(f"t{i}", square, {"x": i}) for i in range(8)]
        serial = run_tasks(tasks, n_workers=1)
        pooled = run_tasks(tasks, n_workers=3)
        assert serial == pooled == {f"t{i}": i * i for i in range(8)}

    def test_shared_array_inline_identical_at_1_and_2_workers(self):
        """Every task carries the same ndarray inline: the pool pickles
        it into every message, the serial path passes the object itself."""
        blob = np.random.default_rng(2).random((32, 8))
        tasks = [
            Task(f"row-{i:02d}", row_digest, {"blob": blob, "row": i})
            for i in range(12)
        ]
        serial = run_tasks(tasks, n_workers=1)
        assert run_tasks(tasks, n_workers=2) == serial
        assert serial["row-03"]["digest"] == hashlib.sha256(
            blob[3].tobytes()
        ).hexdigest()

    def test_string_fn_reference(self):
        # The engine's task functions are addressed as "module:name".
        from repro.phy.link import LinkConfig

        tasks = [
            Task(
                "ber",
                "repro.runtime.tasks:link_ber_point",
                {
                    "config": LinkConfig(snr_db=30.0),
                    "channels": _tiny_channels(),
                    "bf": _tiny_bf(),
                },
            )
        ]
        result = run_tasks(tasks)["ber"]
        assert set(result) == {"ber", "bit_errors", "total_bits"}
        assert result["total_bits"] > 0

    def test_shard_affinity(self):
        # Tasks sharing a shard run in one worker process (serially);
        # distinct shards may land anywhere.
        tasks = [
            Task(f"a{i}", whoami, {"tag": "a"}, shard="a") for i in range(3)
        ] + [Task(f"b{i}", whoami, {"tag": "b"}, shard="b") for i in range(3)]
        results = run_tasks(tasks, n_workers=2)
        a_pids = {results[f"a{i}"]["pid"] for i in range(3)}
        b_pids = {results[f"b{i}"]["pid"] for i in range(3)}
        assert len(a_pids) == 1
        assert len(b_pids) == 1
        # And the pool actually ran out-of-process.
        assert os.getpid() not in a_pids | b_pids

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_on_result_fires_as_tasks_complete(self, n_workers):
        seen = []
        tasks = [Task(f"t{i}", square, {"x": i}) for i in range(4)]
        run_tasks(
            tasks,
            n_workers=n_workers,
            on_result=lambda task_id, result: seen.append((task_id, result)),
        )
        assert sorted(seen) == [(f"t{i}", i * i) for i in range(4)]

    def test_on_result_fires_before_a_later_failure(self):
        seen = []
        tasks = [Task("ok", square, {"x": 3}), Task("bad", boom, {})]
        with pytest.raises(TaskExecutionError):
            run_tasks(tasks, on_result=lambda tid, r: seen.append(tid))
        assert seen == ["ok"]

    def test_serial_error_wrapped(self):
        with pytest.raises(TaskExecutionError, match="bad"):
            run_tasks([Task("bad", boom, {})])

    def test_pool_error_wrapped(self):
        tasks = [Task("ok", square, {"x": 2}), Task("bad", boom, {})]
        with pytest.raises(TaskExecutionError, match="bad"):
            run_tasks(tasks, n_workers=2)


#: A script that runs a 2-worker job and exits at once.
_POOLED_JOB_THEN_EXIT = textwrap.dedent(
    """
    from repro.runtime.executor import Task, run_tasks

    def square(params):
        return params["x"] ** 2

    tasks = [Task(f"t{i}", square, {"x": i}) for i in range(6)]
    assert run_tasks(tasks, n_workers=2) == {f"t{i}": i * i for i in range(6)}
    """
)


class TestPoolShutdown:
    """A clean run returns with its workers joined."""

    def test_no_worker_outlives_run_tasks(self):
        before = set(multiprocessing.active_children())
        run_tasks([Task(f"t{i}", square, {"x": i}) for i in range(4)], n_workers=2)
        assert [p for p in multiprocessing.active_children() if p not in before] == []

    def test_exit_right_after_a_pooled_job_is_quiet(self):
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for _ in range(4):
            proc = subprocess.run(
                [sys.executable, "-c", _POOLED_JOB_THEN_EXIT],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""


class TestPackWave:
    def test_pack_wave_respects_shards_and_cap(self):
        tasks = [
            Task(task_id=f"t{i}", fn=square, params={}, shard=f"s{i % 2}")
            for i in range(6)
        ]
        params = {t.task_id: {} for t in tasks}
        messages = _pack_wave(tasks, params, n_workers=4)
        # Two shards -> two messages, each holding its shard in order.
        assert len(messages) == 2
        ids = [[item[0] for item in message] for message in messages]
        assert ids == [["t0", "t2", "t4"], ["t1", "t3", "t5"]]

    def test_pack_wave_bounds_messages_per_worker(self):
        """Large waves pack to at most 4 messages per worker (not 1 per
        task), leaving several chunks per worker for dynamic balancing."""
        tasks = [
            Task(task_id=f"t{i:02d}", fn=square, params={}) for i in range(50)
        ]
        params = {t.task_id: {} for t in tasks}
        messages = _pack_wave(tasks, params, n_workers=3)
        assert len(messages) == 12  # 4 * n_workers
        all_ids = sorted(item[0] for message in messages for item in message)
        assert all_ids == sorted(t.task_id for t in tasks)

    def test_pack_wave_small_wave_one_task_per_message(self):
        tasks = [Task(task_id=f"t{i}", fn=square, params={}) for i in range(5)]
        params = {t.task_id: {} for t in tasks}
        messages = _pack_wave(tasks, params, n_workers=2)
        assert len(messages) == 5  # below the cap: one chunk per message

    def test_pack_wave_carries_params_and_attempts_inline(self):
        # Each packed item is (task_id, fn, params, attempt): the params
        # are the task's own mapping, not a reference to be resolved.
        blob = np.arange(6.0)
        tasks = [Task(f"t{i}", square, {"x": i, "blob": blob}) for i in range(3)]
        params = {t.task_id: dict(t.params) for t in tasks}
        messages = _pack_wave(tasks, params, n_workers=1, attempts={"t1": 2})
        items = [item for message in messages for item in message]
        assert [(i[0], i[1], i[3]) for i in items] == [
            ("t0", square, 0),
            ("t1", square, 2),
            ("t2", square, 0),
        ]
        for task_id, _, packed, _ in items:
            assert packed is params[task_id]
            assert packed["blob"] is blob


class TestRunChunk:
    """The worker entry point: ``(fault_plan, trace_ctx, items)`` in,
    ``(outcomes, telemetry, spans)`` out."""

    def test_chunk_runs_items_in_plan_order(self):
        outcomes, telemetry, spans = _run_chunk(
            (None, None, [("a", square, {"x": 2}, 0), ("b", square, {"x": 3}, 0)])
        )
        assert outcomes == [("ok", "a", 4), ("ok", "b", 9)]
        assert set(telemetry) >= {"counters", "timers"}
        assert spans == []

    def test_failing_item_does_not_stop_its_chunk_mates(self):
        outcomes, _, _ = _run_chunk(
            (None, None, [("bad", boom, {}, 0), ("good", square, {"x": 4}, 0)])
        )
        kind, task_id, remote, summary, injected = outcomes[0]
        assert (kind, task_id, injected) == ("error", "bad", False)
        assert summary == "ValueError: intentional failure"
        assert "Traceback" in remote and "intentional failure" in remote
        assert outcomes[1] == ("ok", "good", 16)

    def test_injected_error_is_flagged(self):
        plan = parse_plan("error,a,count=1")
        outcomes, _, _ = _run_chunk(
            (plan, None, [("a", square, {"x": 2}, 0), ("a2", square, {"x": 1}, 0)])
        )
        assert outcomes[0][0] == "error" and outcomes[0][4] is True
        assert outcomes[1] == ("ok", "a2", 1)
        # The plan counts occurrences by the packed attempt index.
        retried, _, _ = _run_chunk((plan, None, [("a", square, {"x": 2}, 1)]))
        assert retried == [("ok", "a", 4)]

    def test_traced_chunk_derives_span_ids_from_the_parent(self):
        epoch = time.perf_counter()
        _, _, spans = _run_chunk(
            (None, (epoch, "execute-1"), [("a", square, {"x": 1}, 3)])
        )
        (span,) = spans
        assert span["id"] == span_id("execute-1", "task:a", 3)
        assert span["parent"] == "execute-1"
        assert span["attrs"] == {"task": "a", "attempt": 3}
        assert 0.0 <= span["start_s"] <= span["end_s"]


class TestRetryBackoff:
    """The delay before a retry follows the failure count that caused it."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept: "list[float]" = []
        monkeypatch.setattr(executor_mod.time, "sleep", slept.append)
        return slept

    def test_serial_backoff_is_per_task(self, sleeps):
        # Six tasks that each fail once: each retry waits the base delay,
        # not a delay doubled by the other tasks' failures.
        tasks = [Task(f"t{i}", square, {"x": i}) for i in range(6)]
        results = run_tasks(
            tasks,
            n_workers=1,
            policy=RetryPolicy(backoff_s=0.05),
            faults=parse_plan("error,*,count=1"),
        )
        assert results == {f"t{i}": i * i for i in range(6)}
        assert sleeps == pytest.approx([0.05] * 6)

    def test_serial_backoff_doubles_on_repeat_failure(self, sleeps):
        run_tasks(
            [Task("t0", square, {"x": 3})],
            n_workers=1,
            policy=RetryPolicy(backoff_s=0.05),
            faults=parse_plan("error,*,count=2"),
        )
        assert sleeps == pytest.approx([0.05, 0.1])

    def test_pool_backs_off_once_per_dispatch_round(self, sleeps):
        tasks = [Task(f"t{i}", square, {"x": i}) for i in range(4)]
        results = run_tasks(
            tasks,
            n_workers=2,
            policy=RetryPolicy(backoff_s=0.05),
            faults=parse_plan("error,*,count=2"),
        )
        assert results == {f"t{i}": i * i for i in range(4)}
        assert sleeps == pytest.approx([0.05, 0.1])

    def test_pool_sleeps_once_for_a_round_of_failures(self, sleeps):
        # Four tasks fail in one dispatch round: one sleep, not four.
        tasks = [Task(f"t{i}", square, {"x": i}) for i in range(4)]
        results = run_tasks(
            tasks,
            n_workers=2,
            policy=RetryPolicy(backoff_s=0.05),
            faults=parse_plan("error,*,count=1"),
        )
        assert results == {f"t{i}": i * i for i in range(4)}
        assert sleeps == pytest.approx([0.05])

    def test_serial_backoff_restarts_for_each_task(self, sleeps):
        run_tasks(
            [Task("t0", square, {"x": 1}), Task("t1", square, {"x": 2})],
            n_workers=1,
            policy=RetryPolicy(backoff_s=0.05),
            faults=parse_plan("error,*,count=2"),
        )
        assert sleeps == pytest.approx([0.05, 0.1, 0.05, 0.1])

    def test_serial_backoff_is_capped_at_64_times_the_base(self, sleeps):
        results = run_tasks(
            [Task("t0", square, {"x": 5})],
            n_workers=1,
            policy=RetryPolicy(retries=8, backoff_s=0.05),
            faults=parse_plan("error,*,count=8"),
        )
        assert results == {"t0": 25}
        assert sleeps == pytest.approx(
            [0.05 * 2 ** min(k, 6) for k in range(8)]
        )

    def test_zero_backoff_never_sleeps(self, sleeps):
        results = run_tasks(
            [Task(f"t{i}", square, {"x": i}) for i in range(3)],
            n_workers=1,
            policy=RetryPolicy(backoff_s=0.0),
            faults=parse_plan("error,*,count=2"),
        )
        assert results == {f"t{i}": i * i for i in range(3)}
        assert sleeps == []

    def test_no_backoff_after_the_final_failure(self, sleeps):
        # No retry follows the last failure, so nothing waits for one.
        health = RunHealth()
        results = run_tasks(
            [Task("t0", square, {"x": 1}), Task("t1", square, {"x": 2})],
            n_workers=1,
            policy=RetryPolicy(retries=1, backoff_s=0.05),
            faults=parse_plan("error,t0,count=5"),
            health=health,
            collect_errors=True,
        )
        assert results == {"t1": 4}
        assert [row["task"] for row in health.failed] == ["t0"]
        assert sleeps == pytest.approx([0.05])


def _tiny_channels():
    rng = np.random.default_rng(0)
    shape = (2, 2, 4, 1, 2)
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ) / np.sqrt(2.0)


def _tiny_bf():
    from repro.phy.svd import beamforming_matrices

    return beamforming_matrices(_tiny_channels(), n_streams=1)[..., 0]
