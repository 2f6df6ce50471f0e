"""Tests for the task executor (serial and worker-pool paths)."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.runtime.executor import (
    Task,
    TaskExecutionError,
    resolve_worker_count,
    run_tasks,
)


def square(params):
    return params["x"] ** 2


def whoami(params):
    return {"pid": os.getpid(), "tag": params.get("tag")}


def boom(params):
    raise ValueError("intentional failure")


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


def _tiny_channels():
    import numpy as np

    rng = np.random.default_rng(0)
    shape = (2, 2, 4, 1, 2)
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ) / np.sqrt(2.0)


def _tiny_bf():
    from repro.phy.svd import beamforming_matrices

    return beamforming_matrices(_tiny_channels(), n_streams=1)[..., 0]
