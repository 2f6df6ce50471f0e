"""Tests for the content-addressed checkpoint store."""

from __future__ import annotations

import io
import json
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

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
    """An ``np.savez`` archive: the weight half of a schema-1 record."""
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    return buffer.getvalue()


def _weights(state: dict) -> bytes:
    """Every array's C-order bytes, back to back, in table order."""
    return b"".join(np.ascontiguousarray(v).tobytes() for v in state.values())


def _table(state: dict) -> list:
    """The ``arrays`` table ``CheckpointStore.put`` writes for ``state``."""
    return [[name, v.dtype.str, list(v.shape)] for name, v in state.items()]


def _meta(key: str, state: dict, **overrides) -> bytes:
    """A record's metadata, as ``CheckpointStore.put`` writes it."""
    payload = {
        "schema_version": 2,
        "key": key,
        "spec": {"x": 0},
        "state_sha256": state_digest(state),
        "meta": {},
        "arrays": _table(state),
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
_WEIGHTS = _weights(_state())


def _doctored(state: dict, weights: bytes, **overrides) -> bytes:
    """A record for ``_DOCTORED_KEY`` whose digest matches ``state``."""
    return _record(_meta(_DOCTORED_KEY, state, **overrides), weights)


def _npz_era_record() -> bytes:
    """A record exactly as the schema-1 (``np.savez``) writer left it."""
    payload = {
        "schema_version": 1,
        "key": _DOCTORED_KEY,
        "spec": {"x": 0},
        "state_sha256": state_digest(_state()),
        "meta": {},
    }
    meta = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return _record(meta, _npz(_state()))


def _negative_dimension_record() -> bytes:
    """A record that decodes cleanly if a negative dimension is allowed.

    numpy reads a negative count as "every remaining byte" and reshapes
    a negative dimension as "infer it", so row ``a`` ([-1]) would take
    all the weights and step the offset 8 bytes back, into the
    metadata's 8 trailing spaces, where row ``b`` reads on to the end.
    """
    decoded = {
        "a": np.frombuffer(_WEIGHTS, "<f8"),
        "b": np.frombuffer(b" " * 8 + _WEIGHTS, "|u1"),
    }
    table = [["a", "<f8", [-1]], ["b", "|u1", [8 + len(_WEIGHTS)]]]
    meta = _meta(_DOCTORED_KEY, decoded, arrays=table) + b" " * 8
    return _record(meta, _WEIGHTS)


#: Each entry is well formed except for what its name says, so the
#: decoder branch it names is the only one that rejects it (the npz-era
#: record also lacks an arrays table).  The void and negative-dimension
#: entries carry the digest of what numpy would decode, so without their
#: own checks they would be served.
_VOID_STATE = {"p0.weight": np.frombuffer(_WEIGHTS[:96], "V8")}
_DOCTORED = {
    "shorter-than-meta-len": b"\x01\x02",
    "meta-not-json": _record(b"{not json", _WEIGHTS),
    "meta-not-utf8": _record(b"\xff\xfe", _WEIGHTS),
    "key-mismatch": _record(_meta(_key(99), _state()), _WEIGHTS),
    "schema-npz-era": _npz_era_record(),
    "schema-version-3": _doctored(_state(), _WEIGHTS, schema_version=3),
    "arrays-table-missing": _doctored(_state(), _WEIGHTS, arrays=None),
    "arrays-row-malformed": _doctored(
        _state(), _WEIGHTS, arrays=[["p0.weight", "<f8"], ["p0.bias", "<f8"]]
    ),
    "arrays-row-mistyped": _doctored(
        _state(), _WEIGHTS, arrays=[[0, "<f8", [4, 3]], [1, "<f8", [3]]]
    ),
    "dtype-unknown": _doctored(
        _state(), _WEIGHTS, arrays=[["p0.weight", "<q9", [4, 3]]]
    ),
    "dtype-object": _doctored(
        _state(), _WEIGHTS, arrays=[["p0.weight", "|O", [15]]]
    ),
    "dtype-void": _doctored(_VOID_STATE, _WEIGHTS[:96]),
    "dimension-negative": _negative_dimension_record(),
    "dimension-not-integer": _doctored(
        _state(), _WEIGHTS, arrays=[["p0.weight", "<f8", [5.0, 3]]]
    ),
    "dimension-past-numpy": _doctored(
        _state(),
        _WEIGHTS,
        arrays=[*_table(_state()), ["p1.weight", "<f8", [0, 1 << 62]]],
    ),
    "array-bytes-past-end": _doctored(_state(), _WEIGHTS[:-8]),
    "trailing-bytes": _doctored(_state(), _WEIGHTS + b"\0" * 8),
    "state-sha256-mismatch": _doctored(_state(), _weights(_state(seed=9))),
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
        store._store.put(key, _record(meta, _weights(_state(seed=9))))
        assert store.get(key) is None
        store.put(key, {"x": 3}, _state())  # the retrain
        loaded = store.get(key)
        assert loaded is not None
        np.testing.assert_array_equal(
            loaded.state["p0.weight"], _state()["p0.weight"]
        )

    def test_truncated_weights_are_a_miss(self, tmp_path):
        # A writer killed mid-append leaves a record whose weights are
        # cut short at the segment tail; the next open must drop it and
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
        store = CheckpointStore(tmp_path)
        key = _key(7)
        state = _state()
        store.put(key, {"x": 7}, state, meta={"widths": [4, 2, 4]})
        meta, weights = _split(store._store.get(key))
        payload = json.loads(meta.decode())
        assert payload["schema_version"] == 2
        assert payload["key"] == key
        assert payload["spec"] == {"x": 7}
        assert payload["meta"] == {"widths": [4, 2, 4]}
        assert payload["state_sha256"] == state_digest(state)
        assert payload["arrays"] == [
            ["p0.weight", "<f8", [4, 3]],
            ["p0.bias", "<f8", [3]],
        ]
        # The weights follow the metadata as raw C-order bytes, in
        # table order, with nothing after them.
        assert weights == _weights(state)

    def test_loaded_arrays_are_read_only_views(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = _key(15)
        store.put(key, {"x": 15}, _state())
        loaded = store.get(key)
        for value in loaded.state.values():
            assert not value.flags.writeable
            assert not value.flags.owndata

    def test_records_are_read_into_numpy_buffers(self, tmp_path):
        # The record lands in one NumPy byte buffer (huge pages from
        # 4 MiB up), and every array views it through a read-only view.
        store = CheckpointStore(tmp_path)
        key = _key(17)
        store.put(key, {"x": 17}, _state())
        loaded = store.get(key)
        buffers = set()
        for value in loaded.state.values():
            base = value
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base, memoryview) and base.readonly
            assert isinstance(base.obj, np.ndarray)
            assert base.obj.dtype == np.uint8
            buffers.add(id(base.obj))
        assert len(buffers) == 1
        assert state_digest(loaded.state) == state_digest(_state())

    def test_record_bytes_size_a_load_before_reading(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = _key(18)
        assert store.record_bytes(key) == 0
        store.put(key, {"x": 18}, _state())
        state_bytes = sum(value.nbytes for value in _state().values())
        assert store.record_bytes(key) > state_bytes

    def test_put_rejects_arrays_it_cannot_persist(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ConfigurationError, match="dtype"):
            store.put(_key(16), {}, {"p0.weight": np.array([object()])})
        assert store.keys() == []

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


#: Every dtype kind a checkpoint persists, in both byte orders.
_DTYPES = st.sampled_from(
    ["<f8", ">f8", "<f4", "<i8", ">i4", "|u1", "|b1", "<c16"]
)

_STATES = st.dictionaries(
    st.text("abcdefghijklmnopqrstuvwxyz.0123456789", min_size=1, max_size=8),
    _DTYPES.flatmap(
        lambda dtype: arrays(
            dtype, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
        )
    ),
    max_size=4,
)


class TestRecordBytes:
    """Properties of the byte paths: put/get, and the multi-part CRC."""

    @given(state=_STATES)
    def test_random_states_round_trip_bit_for_bit(self, state):
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root)
            key = _key(20)
            store.put(key, {"x": 20}, state)
            loaded = CheckpointStore(root).get(key)
        assert loaded is not None
        assert list(loaded.state) == list(state)
        for name, value in state.items():
            got = loaded.state[name]
            assert got.dtype == value.dtype
            assert got.shape == value.shape
            assert got.tobytes() == value.tobytes()
        assert loaded.state_sha256 == state_digest(state)

    @given(data=st.data())
    def test_any_flipped_byte_is_a_quarantined_miss(self, data):
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root)
            key = _key(21)
            segment = store.put(key, {"x": 21}, _state(), meta={"v": 1})
            location = store._store._entries[key]
            at = data.draw(st.integers(0, location.length - 1), label="offset")
            mask = data.draw(st.integers(1, 255), label="mask")
            with open(segment, "r+b") as handle:
                handle.seek(location.offset + at)
                byte = handle.read(1)[0]
                handle.seek(location.offset + at)
                handle.write(bytes([byte ^ mask]))
            assert store.get(key) is None
            assert store.health.quarantined == 1
            assert store.keys() == []
