"""Tests for content addressing and the result cache."""

from __future__ import annotations

import json

import pytest

import subprocess
import sys

from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.hashing import canonical_json, code_version, task_key


def dead_pid() -> int:
    """A pid guaranteed to belong to no running process."""
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


def backdate(path) -> None:
    """Age a file past the sweep's young-writer grace period."""
    import os
    import time

    old = time.time() - 3600.0
    os.utime(path, (old, old))


class TestHashing:
    def test_canonical_json_order_invariant(self):
        assert canonical_json({"b": 1, "a": {"d": 2, "c": 3}}) == canonical_json(
            {"a": {"c": 3, "d": 2}, "b": 1}
        )

    def test_canonical_json_rejects_non_json(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"x": object()})
        with pytest.raises(ConfigurationError):
            canonical_json({"x": float("nan")})

    def test_task_key_stable_and_spec_sensitive(self):
        spec = {"dataset": {"id": "D1", "seed": 7}, "scheme": {"kind": "dot11"}}
        reordered = {
            "scheme": {"kind": "dot11"},
            "dataset": {"seed": 7, "id": "D1"},
        }
        assert task_key(spec) == task_key(reordered)
        assert task_key(spec) != task_key({**spec, "ber_samples": 5})

    def test_task_key_embeds_code_version(self):
        spec = {"a": 1}
        assert task_key(spec, "v1") != task_key(spec, "v2")
        # Default version is this checkout's digest, cached per process.
        assert task_key(spec) == task_key(spec, code_version())
        assert len(code_version()) == 64

    def test_task_key_kind_namespaces(self):
        # Checkpoint keys must never collide with result-cache keys for
        # the same spec; kind=None keeps the original addresses.
        spec = {"a": 1}
        assert task_key(spec, "v") != task_key(spec, "v", kind="train")
        assert task_key(spec, "v", kind="train") != task_key(
            spec, "v", kind="other"
        )
        assert task_key(spec, "v", kind="train") == task_key(
            spec, "v", kind="train"
        )

    def test_state_digest_covers_names_shapes_and_bytes(self):
        import numpy as np

        from repro.runtime.hashing import state_digest

        state = {"p0.w": np.arange(6.0).reshape(2, 3), "p1.b": np.ones(2)}
        same = {k: v.copy() for k, v in state.items()}
        assert state_digest(state) == state_digest(same)
        renamed = {"p0.x": state["p0.w"], "p1.b": state["p1.b"]}
        assert state_digest(state) != state_digest(renamed)
        reshaped = {
            "p0.w": state["p0.w"].reshape(3, 2),
            "p1.b": state["p1.b"],
        }
        assert state_digest(state) != state_digest(reshaped)
        perturbed = {k: v.copy() for k, v in state.items()}
        perturbed["p1.b"][0] += 1e-12
        assert state_digest(state) != state_digest(perturbed)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = task_key({"x": 1}, "v")
        assert cache.get(key) is None
        cache.put(key, {"x": 1}, {"ber": 0.25})
        assert cache.get(key) == {"ber": 0.25}
        assert cache.keys() == [key]
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        # Flip a byte inside the committed record: the CRC check must
        # catch it, quarantine the entry, and report a miss.
        cache = ResultCache(tmp_path)
        key = task_key({"x": 2}, "v")
        segment = cache.put(key, {"x": 2}, {"ber": 0.5})
        location = cache._store._entries[key]
        with open(segment, "r+b") as handle:
            handle.seek(location.offset + location.length - 1)
            handle.write(b"\xff")  # last value byte is JSON's "}"
        assert cache.get(key) is None
        assert cache.health.quarantined == 1
        assert cache.keys() == []

    def test_key_mismatch_is_a_miss(self, tmp_path):
        # An index entry pointing at another key's record (snapshot
        # corruption) must not serve a result for the wrong key.
        cache = ResultCache(tmp_path)
        key = task_key({"x": 3}, "v")
        other = task_key({"x": 4}, "v")
        cache.put(key, {"x": 3}, {"ber": 0.125})
        cache._store._entries[other] = cache._store._entries[key]
        assert cache.get(other) is None
        assert cache.health.quarantined == 1
        assert cache.get(key) == {"ber": 0.125}

    def test_entry_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = task_key({"x": 5}, "v")
        cache.put(key, {"x": 5}, {"ber": 0.0})
        payload = json.loads(cache._store.get(key).decode())
        assert payload["schema_version"] == 1
        assert payload["key"] == key
        assert payload["spec"] == {"x": 5}

    @pytest.mark.parametrize(
        "raw",
        [
            b"{not json",
            b"\xff\xfe",
            b"[1, 2]",
            json.dumps({"key": "someone-else", "result": 1}).encode(),
        ],
        ids=["not-json", "not-utf8", "not-an-object", "key-mismatch"],
    )
    def test_doctored_record_is_quarantined(self, tmp_path, raw):
        # The segment store wrote the frame, so its CRC passes: only the
        # cache's own decoding can catch these payloads.
        cache = ResultCache(tmp_path)
        key = task_key({"x": 7}, "v")
        cache._store.put(key, raw)
        assert cache.get(key) is None
        assert cache.health.quarantined == 1
        assert cache.keys() == []

    def test_prune(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [task_key({"x": i}, "v") for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, {"x": i}, i)
        assert cache.prune(keys[:1]) == 2
        assert cache.keys() == sorted(keys[:1])

    def test_prune_sweeps_stale_tmp_files(self, tmp_path):
        # A writer that crashes between write_text and os.replace leaves
        # a <key>.tmp.<pid> file that no key ever addresses; prune must
        # clear those alongside dead entries.
        cache = ResultCache(tmp_path)
        key = task_key({"x": 1}, "v")
        cache.put(key, {"x": 1}, {"ber": 0.5})
        gone = dead_pid()
        stale = tmp_path / f"{key}.tmp.{gone}"
        stale.write_text("{interrupted")
        other = tmp_path / f"deadbeef.tmp.{gone}"
        other.write_text("{interrupted")
        backdate(stale)
        backdate(other)
        assert cache.prune([key]) == 2
        assert not stale.exists() and not other.exists()
        assert cache.get(key) == {"ber": 0.5}

    def test_prune_spares_recent_tmp_files(self, tmp_path):
        # A dead-pid temp file younger than the grace period could be a
        # live writer on another host sharing the root; it stays until
        # it has aged.
        cache = ResultCache(tmp_path)
        key = task_key({"x": 11}, "v")
        cache.put(key, {"x": 11}, 1)
        young = tmp_path / f"{key}.tmp.{dead_pid()}"
        young.write_text("{mid-write elsewhere}")
        assert cache.prune([key]) == 0
        assert young.exists()
        backdate(young)
        assert cache.prune([key]) == 1
        assert not young.exists()

    def test_first_put_sweeps_stale_tmp_once_per_root(self, tmp_path):
        # The first put a process makes into a root clears crashed
        # writers' leftovers; later puts skip the directory scan (the
        # hot path pays O(1), prune still sweeps unconditionally).
        cache = ResultCache(tmp_path)
        key = task_key({"x": 2}, "v")
        gone = dead_pid()
        stale = tmp_path / f"{key}.tmp.{gone}"
        stale.write_text("{interrupted")
        other = tmp_path / f"deadbeef.tmp.{gone}"
        other.write_text("{interrupted")
        backdate(stale)
        backdate(other)
        cache.put(key, {"x": 2}, {"ber": 0.25})
        assert not stale.exists() and not other.exists()
        assert cache.get(key) == {"ber": 0.25}
        # New residue after the first put stays until prune runs.
        late = tmp_path / f"deadbeef.tmp.{gone}"
        late.write_text("{interrupted")
        backdate(late)
        cache.put(task_key({"x": 22}, "v"), {"x": 22}, 1)
        assert late.exists()
        cache.prune(cache.keys())
        assert not late.exists()

    def test_sweep_spares_live_writers(self, tmp_path):
        # The pid baked into a temp name marks its writer; a file whose
        # writer is still running is an in-flight atomic write, not
        # residue — neither put nor prune may delete it.
        cache = ResultCache(tmp_path)
        key = task_key({"x": 9}, "v")
        live = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(30)"]
        )
        try:
            other_writer = tmp_path / f"{key}.tmp.{live.pid}"
            other_writer.write_text("{mid-write")
            backdate(other_writer)  # old, but its writer is still alive
            cache.put(key, {"x": 9}, {"ber": 0.125})
            assert other_writer.exists()
            assert cache.prune([key]) == 0
            assert other_writer.exists()
        finally:
            live.kill()
            live.wait()
        # Once its writer is gone, prune reclaims it.
        assert cache.prune([key]) == 1
        assert not other_writer.exists()

    def test_tmp_files_are_not_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = task_key({"x": 3}, "v")
        cache.put(key, {"x": 3}, 1)
        (tmp_path / f"{key}.tmp.4242").write_text("{interrupted")
        assert cache.keys() == [key]
        assert len(cache) == 1

    def test_empty_root_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultCache("")
