"""Tests for the content-addressed checkpoint store."""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.checkpoints import CHECKPOINT_KIND, CheckpointStore
from repro.runtime.hashing import state_digest, task_key


def dead_pid() -> int:
    """A pid guaranteed to belong to no running process."""
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


def backdate(path) -> None:
    """Age a file past the sweep's young-writer grace period."""
    import os
    import time

    old = time.time() - 3600.0
    os.utime(path, (old, old))


def _state(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "p0.weight": rng.standard_normal((4, 3)),
        "p0.bias": rng.standard_normal(3),
    }


def _key(i: int) -> str:
    return task_key({"x": i}, "v", kind=CHECKPOINT_KIND)


def _npz(state: dict) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    return buffer.getvalue()


def _meta(key: str, state: dict, **overrides) -> bytes:
    """A record's metadata half, as ``CheckpointStore.put`` writes it."""
    payload = {
        "schema_version": 1,
        "key": key,
        "spec": {"x": 0},
        "state_sha256": state_digest(state),
        "meta": {},
        **overrides,
    }
    return json.dumps(payload, sort_keys=True).encode()


def _record(meta: bytes, weights: bytes) -> bytes:
    """``meta_len (u32) | metadata | weight bytes`` — one packed record."""
    return struct.pack("<I", len(meta)) + meta + weights


def _split(raw: bytes) -> "tuple[bytes, bytes]":
    """A packed record's ``(metadata, weight bytes)`` halves."""
    (meta_len,) = struct.unpack("<I", raw[:4])
    return raw[4 : 4 + meta_len], raw[4 + meta_len :]


#: The key every doctored record is stored under, and the weight bytes
#: of a well-formed record.
_DOCTORED_KEY = _key(14)
_WEIGHTS = _npz(_state())

#: Records whose CRC frame is intact but whose payload ``_decode`` must
#: reject, one per rejection branch.
_DOCTORED = {
    "shorter-than-meta-len": b"\x01\x02",
    "meta-len-past-end": struct.pack("<I", 1 << 20) + b"{}",
    "meta-not-json": _record(b"{not json", _WEIGHTS),
    "meta-not-utf8": _record(b"\xff\xfe", _WEIGHTS),
    "key-mismatch": _record(_meta(_key(99), _state()), _WEIGHTS),
    "schema-version-2": _record(
        _meta(_DOCTORED_KEY, _state(), schema_version=2), _WEIGHTS
    ),
    "npz-truncated": _record(
        _meta(_DOCTORED_KEY, _state()), _WEIGHTS[: len(_WEIGHTS) // 2]
    ),
    "npz-bare-zip-magic": _record(_meta(_DOCTORED_KEY, _state()), b"PK"),
    "state-sha256-mismatch": _record(
        _meta(_DOCTORED_KEY, _state()), _npz(_state(seed=9))
    ),
}


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        key = _key(1)
        assert store.get(key) is None
        state = _state()
        store.put(key, {"x": 1}, state, meta={"measured_ber": 0.25})
        loaded = store.get(key)
        assert loaded is not None
        assert loaded.key == key
        assert loaded.spec == {"x": 1}
        assert loaded.meta == {"measured_ber": 0.25}
        assert set(loaded.state) == set(state)
        for name in state:
            np.testing.assert_array_equal(loaded.state[name], state[name])
        assert store.keys() == [key]
        assert len(store) == 1

    def test_missing_weights_is_a_miss(self, tmp_path):
        # A record that kept its metadata half but lost every weight
        # byte must be a miss, never an empty model.
        store = CheckpointStore(tmp_path)
        key = _key(2)
        store.put(key, {"x": 2}, _state())
        meta, _ = _split(store._store.get(key))
        store._store.put(key, _record(meta, b""))
        assert store.get(key) is None
        assert store.keys() == []

    def test_corrupted_weights_are_a_miss(self, tmp_path):
        # Weights whose bytes no longer hash to the recorded digest must
        # not be served — retraining beats silently loading a wrong model.
        store = CheckpointStore(tmp_path)
        key = _key(3)
        store.put(key, {"x": 3}, _state())
        meta, _ = _split(store._store.get(key))
        store._store.put(key, _record(meta, _npz(_state(seed=9))))
        assert store.get(key) is None
        store.put(key, {"x": 3}, _state())  # the retrain
        loaded = store.get(key)
        assert loaded is not None
        np.testing.assert_array_equal(
            loaded.state["p0.weight"], _state()["p0.weight"]
        )

    def test_truncated_npz_is_a_miss(self, tmp_path):
        # A writer killed mid-append leaves a record whose npz is cut
        # short at the segment tail; the next open must drop it and
        # report a miss (retrain), never raise into a warm rebuild.
        store = CheckpointStore(tmp_path)
        kept, torn = _key(10), _key(11)
        store.put(kept, {"x": 10}, _state())
        segment = store.put(torn, {"x": 11}, _state(1))
        location = store._store._entries[torn]
        _, weights = _split(store._store.get(torn))
        with open(segment, "r+b") as handle:
            handle.truncate(
                location.offset + location.length - len(weights) // 2
            )
        reopened = CheckpointStore(tmp_path)
        assert reopened.get(torn) is None
        assert reopened.health.truncated == 1
        assert reopened.keys() == [kept]
        assert reopened.get(kept) is not None

    def test_corrupted_record_is_a_miss(self, tmp_path):
        # Same contract for the packed layout: a record whose bytes no
        # longer pass the CRC is quarantined, never served.
        store = CheckpointStore(tmp_path)
        key = _key(13)
        segment = store.put(key, {"x": 13}, _state())
        location = store._store._entries[key]
        with open(segment, "r+b") as handle:
            handle.seek(location.offset + location.length - 3)
            handle.write(b"\xff\xff\xff")
        assert store.get(key) is None
        assert store.health.quarantined == 1
        assert store.keys() == []

    def test_corrupt_meta_is_a_miss(self, tmp_path):
        # Metadata that still parses but is not the record's object — a
        # JSON array, or an object that lost its state_sha256 — is a miss.
        store = CheckpointStore(tmp_path)
        key = _key(4)
        store.put(key, {"x": 4}, _state())
        meta, weights = _split(store._store.get(key))
        payload = json.loads(meta)
        del payload["state_sha256"]
        for doctored in (b"[1, 2]", json.dumps(payload).encode()):
            store._store.put(key, _record(doctored, weights))
            assert store.get(key) is None
        assert store.health.quarantined == 2

    def test_key_mismatch_is_a_miss(self, tmp_path):
        # Another key's record copied under this address passes the
        # segment store's frame-key check; the payload's own key must
        # refuse it.
        store = CheckpointStore(tmp_path)
        key, other = _key(5), _key(6)
        store.put(key, {"x": 5}, _state())
        store._store.put(other, store._store.get(key))
        assert store.get(other) is None
        assert store.get(key) is not None

    @pytest.mark.parametrize("raw", _DOCTORED.values(), ids=_DOCTORED)
    def test_doctored_record_is_quarantined(self, tmp_path, raw):
        # The segment store wrote the frame, so its CRC passes: only the
        # checkpoint's own decoding can catch these payloads.
        store = CheckpointStore(tmp_path)
        store._store.put(_DOCTORED_KEY, raw)
        assert store.get(_DOCTORED_KEY) is None
        assert store.health.quarantined == 1
        assert store.keys() == []

    def test_meta_layout(self, tmp_path):
        import struct

        store = CheckpointStore(tmp_path)
        key = _key(7)
        store.put(key, {"x": 7}, _state(), meta={"widths": [4, 2, 4]})
        raw = store._store.get(key)
        (meta_len,) = struct.unpack("<I", raw[:4])
        payload = json.loads(raw[4 : 4 + meta_len].decode())
        assert payload["schema_version"] == 1
        assert payload["key"] == key
        assert payload["spec"] == {"x": 7}
        assert payload["meta"] == {"widths": [4, 2, 4]}
        assert len(payload["state_sha256"]) == 64

    def test_prune_removes_dead_orphans_and_tmp(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = [_key(i) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"x": i}, _state(i))
        # A stale write-temp file left by a crashed writer.
        leftover = tmp_path / f"{keys[0]}.tmp.{dead_pid()}"
        leftover.write_text("{interrupted")
        backdate(leftover)
        removed = store.prune(keys[:1])
        # 2 dead packed records + 1 temp file.
        assert removed == 3
        assert store.keys() == [keys[0]]
        assert store.get(keys[0]) is not None

    def test_prune_spares_half_committed_live_keys(self, tmp_path):
        # A concurrent writer's records are appended but not yet in this
        # handle's index (no snapshot published); prune must catch up
        # before compacting, so a live key survives, committed or not.
        store = CheckpointStore(tmp_path)
        first = _key(10)
        store.put(first, {"x": 10}, _state())
        writer = CheckpointStore(tmp_path)
        live, dead = _key(11), _key(12)
        writer.put(live, {"x": 11}, _state(1))
        writer.put(dead, {"x": 12}, _state(2))
        assert store.keys() == [first]  # not absorbed by this handle yet
        # The same unabsorbed record for a *dead* key is fair game.
        assert store.prune([first, live]) == 1
        assert store.keys() == sorted([first, live])
        for handle in (writer, CheckpointStore(tmp_path)):
            loaded = handle.get(live)
            assert loaded is not None
            np.testing.assert_array_equal(
                loaded.state["p0.bias"], _state(1)["p0.bias"]
            )

    def test_put_overwrites_and_sweeps_stale_tmp(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = _key(8)
        stale = tmp_path / f"{key}.tmp.{dead_pid()}.npz"
        stale.write_bytes(b"partial")
        backdate(stale)
        store.put(key, {"x": 8}, _state(1), meta={"v": 1})
        store.put(key, {"x": 8}, _state(2), meta={"v": 2})
        assert not stale.exists()
        loaded = store.get(key)
        assert loaded.meta == {"v": 2}
        np.testing.assert_array_equal(
            loaded.state["p0.weight"], _state(2)["p0.weight"]
        )

    def test_empty_root_rejected(self):
        with pytest.raises(ConfigurationError):
            CheckpointStore("")

    def test_default_root_env_override(self, tmp_path, monkeypatch):
        from repro.runtime.checkpoints import (
            CHECKPOINTS_ENV,
            default_checkpoint_root,
        )

        monkeypatch.delenv(CHECKPOINTS_ENV, raising=False)
        assert default_checkpoint_root("fallback") == "fallback"
        assert default_checkpoint_root().endswith("checkpoint_store")
        monkeypatch.setenv(CHECKPOINTS_ENV, str(tmp_path / "elsewhere"))
        assert default_checkpoint_root("fallback") == str(tmp_path / "elsewhere")
