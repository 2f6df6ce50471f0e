"""The warm zoo build's checkpoint loaders.

A warm build loads its store hits on one thread per core, largest record
first, when the hits add up to ``LOAD_THREAD_MIN_BYTES``.  These tests
pin what must not depend on that: loaded weights, manifests, span ids,
and every check on the read path.  They also pin when no loader thread
may start: the campaign's ladder checkpoints, one core, a pool worker,
and a single hit.  Checkpoints are written directly from freshly
initialised models, so only the torn-record test trains anything.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import threading

import pytest

from repro.config import Fidelity
from repro.core.model import SplitBeamNet
from repro.core.network import NetworkCampaign
from repro.core.zoo_builder import (
    LOAD_THREAD_MIN_BYTES,
    ZooBuilder,
    plan_training_grid,
    train_zoo,
)
from repro.nn.serialize import state_dict, state_digest
from repro.obs.trace import Tracer
from repro.runtime import CheckpointStore, get_campaign, get_training_grid

#: perfbench's zoo-table2 and campaign-16sta sizes.
FIDELITY = Fidelity(
    name="loader-test",
    n_samples=96,
    n_sessions=2,
    epochs=2,
    ber_samples=24,
    ofdm_symbols=1,
)


def _table2_grid():
    return get_training_grid("table2-architectures", fidelity=FIDELITY)


def _ladder_grid():
    spec = get_campaign(
        "network-scale", fidelity=FIDELITY, n_stas=16, n_rounds=40, gamma_scale=10.0
    )
    return NetworkCampaign(spec)._training_grid()


def _checkpoint(entry) -> "tuple[dict, dict]":
    """``(state, meta)`` of a freshly initialised model for ``entry``."""
    model = SplitBeamNet(entry.spec["model"]["widths"], rng=entry.index)
    meta = {
        "widths": list(model.widths),
        "activation": model.activation_name,
        "measured_ber": 0.01 * (entry.index + 1),
        "history": {"n_epochs": 0},
    }
    return state_dict(model), meta


def _fill(root, grid, torn=()) -> CheckpointStore:
    """A store holding a checkpoint for every entry of ``grid``.

    Entries labelled in ``torn`` land with a broken CRC under an intact
    frame, the corruption a get must catch.
    """
    store = CheckpointStore(root)
    for entry in plan_training_grid(grid):
        state, meta = _checkpoint(entry)
        if entry.label in torn:
            parts = store._encode(entry.key, {}, state, meta, None)
            store._store.put(entry.key, *parts, corrupt=True)
        else:
            store.put(entry.key, {}, state, meta=meta)
    store.flush()
    return store


def _patch_cores(monkeypatch, n_cores: int) -> None:
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(n_cores)), raising=False
    )


def _count_threads(monkeypatch) -> "list[int]":
    """Count every thread started from here on; returns the counter."""
    started = [0]
    original = threading.Thread.start

    def start(thread):
        started[0] += 1
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def _forbid_threads(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a loader thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)


def _weights(build) -> "dict[str, bytes]":
    return {
        label: b"".join(
            param.data.tobytes() for param in build.entry(label).model.parameters()
        )
        for label in build.labels()
    }


@pytest.fixture(scope="module")
def table2(tmp_path_factory):
    """The Table II grid and a store holding its three records (42.7 MB)."""
    root = tmp_path_factory.mktemp("table2-store")
    grid = _table2_grid()
    store = _fill(root, grid)
    sizes = {entry.label: store.record_bytes(entry.key) for entry in plan_training_grid(grid)}
    return grid, root, sizes


class TestLoaderThreads:
    def test_table2_hits_clear_the_threshold(self, table2):
        _, _, sizes = table2
        assert len(sizes) == 3 and all(sizes.values())
        assert sum(sizes.values()) >= LOAD_THREAD_MIN_BYTES

    def test_weights_and_manifest_identical_at_1_2_3_cores(self, table2, monkeypatch):
        grid, root, _ = table2
        builds = {}
        for n_cores in (1, 2, 3):
            with monkeypatch.context() as patch:
                _patch_cores(patch, n_cores)
                started = _count_threads(patch)
                builds[n_cores] = train_zoo(grid, store=CheckpointStore(root), n_workers=1)
            # One thread per core, at most one per hit; the caller is one.
            assert started[0] == min(n_cores, 3) - 1
        for build in builds.values():
            assert build.n_cached == 3 and build.n_trained == 0
            for row in build.entries:
                model = build.entry(row["label"]).model
                assert state_digest(state_dict(model)) == row["state_sha256"]
                for param in model.parameters():
                    assert param.data.flags.writeable and param.data.flags.owndata
        manifests = {
            n: json.dumps(build.to_dict(include_health=True), sort_keys=True)
            for n, build in builds.items()
        }
        assert manifests[1] == manifests[2] == manifests[3]
        assert _weights(builds[1]) == _weights(builds[2]) == _weights(builds[3])

    def test_traced_span_tree_identical_at_1_2_3_cores(self, table2, monkeypatch):
        grid, root, _ = table2

        def tree():
            tracer = Tracer(name="zoo")
            ZooBuilder(store=CheckpointStore(root), n_workers=1, trace=tracer).build(grid)
            return {
                (span.span_id, span.parent_id, span.name, json.dumps(span.attrs, sort_keys=True))
                for span in tracer.spans
            }

        trees = []
        for n_cores in (1, 2, 3, 1, 2, 3):
            with monkeypatch.context() as patch:
                _patch_cores(patch, n_cores)
                trees.append(tree())
        assert all(other == trees[0] for other in trees[1:])
        names = {span_id: name for span_id, _, name, _ in trees[0]}
        (check,) = [span_id for span_id, name in names.items() if name == "checkpoint_check"]
        loads = {span_id for span_id, parent, name, _ in trees[0] if name == "load"}
        assert len(loads) == 3
        assert all(parent == check for _, parent, name, _ in trees[0] if name == "load")
        gets = [parent for _, parent, name, _ in trees[0] if name == "checkpoint.get"]
        assert sorted(gets) == sorted(loads)


class TestNoLoaderThread:
    def test_campaign_ladder_loads_in_the_calling_thread(self, tmp_path, monkeypatch):
        grid = _ladder_grid()
        store = _fill(tmp_path, grid)
        sizes = [store.record_bytes(entry.key) for entry in plan_training_grid(grid)]
        # Each under 1 MiB (the largest is 0.9 MiB), 1.6 MiB together.
        assert len(sizes) == 6
        assert max(sizes) < 2**20
        assert sum(sizes) < LOAD_THREAD_MIN_BYTES
        _patch_cores(monkeypatch, 2)
        _forbid_threads(monkeypatch)
        build = train_zoo(grid, store=CheckpointStore(tmp_path), n_workers=1)
        assert build.n_cached == 6

    def test_one_core(self, table2, monkeypatch):
        grid, root, _ = table2
        _patch_cores(monkeypatch, 1)
        _forbid_threads(monkeypatch)
        assert train_zoo(grid, store=CheckpointStore(root), n_workers=1).n_cached == 3

    def test_pool_worker(self, table2, monkeypatch):
        grid, root, _ = table2
        _patch_cores(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        _forbid_threads(monkeypatch)
        assert train_zoo(grid, store=CheckpointStore(root), n_workers=1).n_cached == 3

    def test_single_hit(self, table2, monkeypatch):
        grid, root, sizes = table2
        largest = max(sizes, key=sizes.get)
        assert sizes[largest] >= LOAD_THREAD_MIN_BYTES
        only = dataclasses.replace(
            grid, entries=tuple(e for e in grid.entries if e["label"] == largest)
        )
        _patch_cores(monkeypatch, 2)
        _forbid_threads(monkeypatch)
        assert train_zoo(only, store=CheckpointStore(root), n_workers=1).n_cached == 1


class TestChecksOnLoaderThreads:
    def test_one_torn_record_is_quarantined_and_retrained(self, table2, tmp_path, monkeypatch):
        # The torn record is the smallest, so it shares a loader thread
        # with the second largest while the caller reads the largest.
        grid, _, sizes = table2
        torn = min(sizes, key=sizes.get)
        builds = {}
        for n_cores in (1, 2):
            root = tmp_path / f"cores-{n_cores}"
            _fill(root, grid, torn=(torn,))
            with monkeypatch.context() as patch:
                _patch_cores(patch, n_cores)
                builds[n_cores] = train_zoo(grid, store=CheckpointStore(root), n_workers=1)
        for build in builds.values():
            assert build.n_cached == 2 and build.n_trained == 1
            assert [row["label"] for row in build.entries if not row["cached"]] == [torn]
            assert build.health["checkpoints"]["quarantined"] == 1
        assert json.dumps(builds[1].to_dict(include_health=True), sort_keys=True) == (
            json.dumps(builds[2].to_dict(include_health=True), sort_keys=True)
        )
        assert _weights(builds[1]) == _weights(builds[2])
