"""Content-addressed checkpoint store for trained model weights.

The zoo builder (``repro.core.zoo_builder``) persists every finished
training run here so a warm rebuild loads weights instead of spending
epochs.  Checkpoints are keyed by the training key (sha256 of the
canonical training spec — dataset, widths, training config — plus the
repro source digest, namespaced ``kind="train"`` so it can never
collide with a result-cache address) and persisted through the packed
segment store (:mod:`repro.runtime.store`).  One CRC-framed record per
checkpoint carries the metadata and the weights::

    meta_len (u32) | metadata JSON | raw C-order array bytes

The metadata JSON (``schema_version`` 2) records ``state_sha256`` and an
``arrays`` table of ``[name, dtype, shape]`` rows, one per array in the
order its bytes follow.  The arrays go to the segment store as separate
buffers, so a put copies no weight byte before the write, and
:meth:`CheckpointStore.get` reads the record into a NumPy buffer (huge
pages from 4 MiB up, so a multi-megabyte read takes few page faults)
and decodes the arrays as read-only ``np.frombuffer`` views over it.
``get`` serves a record only if its schema matches, every table row
names a numeric dtype and non-negative integer dimensions, the rows
account for every byte after the metadata, and the decoded arrays hash
to ``state_sha256`` — so a half-written or corrupted checkpoint is a
miss, never a wrong model.  Because the key embeds the source digest,
any library edit silently invalidates every checkpoint (exactly like
the result cache); ``prune`` compacts unaddressable leftovers away.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import count
from repro.obs.trace import current_tracer
from repro.runtime import knobs
from repro.runtime.cache import sweep_stale_tmp, sweep_stale_tmp_once
from repro.runtime.faults import active_plan
from repro.runtime.hashing import state_digest
from repro.runtime.store import SegmentStore, StoreHealth

__all__ = ["Checkpoint", "CheckpointStore", "default_checkpoint_root"]

SCHEMA_VERSION = 2

#: Namespace passed as ``task_key(..., kind=...)`` for training keys.
CHECKPOINT_KIND = "train"

#: Record prefix: little-endian length of the metadata JSON.
_META_LEN = struct.Struct("<I")

#: dtype kinds a record may hold: bool, integers, floats, complex.
_ARRAY_KINDS = "biufc"

#: The most bytes a numpy array can span (its index type's maximum).
_INTP_MAX = int(np.iinfo(np.intp).max)

#: Environment variable overriding the default store location.
CHECKPOINTS_ENV = knobs.CHECKPOINTS_ENV


def default_checkpoint_root(fallback: "str | None" = None) -> str:
    """$REPRO_RUNTIME_CHECKPOINTS, else ``fallback``, else the in-repo default."""
    configured = knobs.read_knob(CHECKPOINTS_ENV)
    if configured:
        return configured
    if fallback is not None:
        return fallback
    return os.path.join("benchmarks", "results", "checkpoint_store")


@dataclass
class Checkpoint:
    """One persisted training run: weights plus its recorded metadata.

    ``state_sha256`` is the integrity digest :meth:`CheckpointStore.get`
    already verified against the weight bytes — consumers (the zoo
    builder's manifest rows) reuse it instead of re-hashing the state.
    The ``state`` arrays of a loaded checkpoint are read-only views over
    the record.
    """

    key: str
    spec: dict
    state: "dict[str, np.ndarray]"
    meta: dict = field(default_factory=dict)
    state_sha256: str = ""


def _array_layout(row) -> "tuple[str, np.dtype, tuple[int, ...]] | None":
    """``(name, dtype, shape)`` of one arrays-table row; ``None`` if invalid."""
    if not (isinstance(row, list) and len(row) == 3):
        return None
    name, dtype_text, shape = row
    if not (
        isinstance(name, str)
        and isinstance(dtype_text, str)
        and isinstance(shape, list)
    ):
        return None
    try:
        dtype = np.dtype(dtype_text)
    except TypeError:
        return None
    if dtype.kind not in _ARRAY_KINDS:
        return None
    if not all(type(dim) is int and dim >= 0 for dim in shape):
        return None
    # numpy refuses a shape whose nonzero dimensions overflow its index
    # type, even when another dimension makes the array empty.
    if dtype.itemsize * math.prod(dim for dim in shape if dim) > _INTP_MAX:
        return None
    return name, dtype, tuple(shape)


def _record_buffer(n: int) -> np.ndarray:
    """A buffer to read an ``n``-byte record into.

    NumPy advises buffers of 4 MiB and up onto transparent huge pages,
    so filling a 29 MB record takes a few hundred page faults where a
    ``bytes`` takes one per 4 KiB page.
    """
    return np.empty(n, np.uint8)


class CheckpointStore:
    """A packed, content-addressed store of trained-model checkpoints."""

    #: Fault-injection label for torn writes (``torn,checkpoint:<key>``).
    STORE_LABEL = "checkpoint"

    def __init__(self, root: "str | os.PathLike") -> None:
        if not str(root):
            raise ConfigurationError("checkpoint store root must be non-empty")
        self.root = Path(root)
        self.health = StoreHealth()
        self._store = SegmentStore(
            self.root, label=self.STORE_LABEL, health=self.health
        )

    # -- encoding --------------------------------------------------------------

    def _encode(
        self,
        key: str,
        spec,
        state: "dict[str, np.ndarray]",
        meta: "dict | None",
        state_sha256: "str | None",
    ) -> list:
        """The record as buffers: ``meta_len | metadata``, then each array."""
        arrays = {name: np.asarray(value) for name, value in state.items()}
        for name, value in arrays.items():
            if value.dtype.kind not in _ARRAY_KINDS:
                raise ConfigurationError(
                    f"checkpoint array {name!r} has dtype {value.dtype}; "
                    "only bool, integer, float and complex arrays persist"
                )
        payload = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "spec": spec,
            "state_sha256": state_sha256 or state_digest(arrays),
            "meta": dict(meta or {}),
            "arrays": [
                [name, value.dtype.str, list(value.shape)]
                for name, value in arrays.items()
            ],
        }
        meta_bytes = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode()
        return [
            _META_LEN.pack(len(meta_bytes)) + meta_bytes,
            *(np.ascontiguousarray(value) for value in arrays.values()),
        ]

    def _decode(self, key: str, record) -> "Checkpoint | None":
        """The validated checkpoint in ``record``, or ``None`` if corrupt.

        ``record`` holds the record's bytes (``bytes`` or a ``uint8``
        array); the decoded arrays are read-only views over it.
        """
        raw = memoryview(record).toreadonly()
        if len(raw) < _META_LEN.size:
            return None
        (meta_len,) = _META_LEN.unpack_from(raw)
        offset = _META_LEN.size + meta_len
        try:
            payload = json.loads(bytes(raw[_META_LEN.size : offset]).decode())
        except ValueError:  # not JSON, or not UTF-8
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        table = payload.get("arrays")
        if not isinstance(table, list):
            return None
        state: "dict[str, np.ndarray]" = {}
        for row in table:
            layout = _array_layout(row)
            if layout is None:
                return None
            name, dtype, shape = layout
            count = math.prod(shape)
            end = offset + count * dtype.itemsize
            if end > len(raw):
                return None
            state[name] = np.frombuffer(raw, dtype, count, offset).reshape(shape)
            offset = end
        if offset != len(raw):
            return None
        if state_digest(state) != payload.get("state_sha256"):
            return None
        return Checkpoint(
            key=key,
            spec=payload.get("spec", {}),
            state=state,
            meta=payload.get("meta", {}),
            state_sha256=payload["state_sha256"],
        )

    # -- read -----------------------------------------------------------------

    def get(self, key: str) -> "Checkpoint | None":
        tracer = current_tracer()
        if tracer is None:
            checkpoint = self._get(key)
        else:
            with tracer.span("checkpoint.get", "store", key=key) as span:
                checkpoint = self._get(key)
                span.attrs["hit"] = checkpoint is not None
        count("checkpoint.hits" if checkpoint is not None else "checkpoint.misses")
        return checkpoint

    def _get(self, key: str) -> "Checkpoint | None":
        """The checkpoint for ``key``, or ``None`` on miss.

        A committed-but-corrupt record — CRC failure, a wrong schema, an
        arrays table that does not describe the record's bytes, or
        weights that no longer hash to the recorded ``state_sha256`` —
        is quarantined (tombstoned and counted on :attr:`health`); the
        caller sees a miss and retrains.
        """
        raw = self._store.get(key, alloc=_record_buffer)
        if raw is None:
            return None
        checkpoint = self._decode(key, raw)
        if checkpoint is None:
            self._store.quarantine(key)
        return checkpoint

    # -- write ----------------------------------------------------------------

    def put(
        self,
        key: str,
        spec,
        state: "dict[str, np.ndarray]",
        meta: "dict | None" = None,
        state_sha256: "str | None" = None,
    ) -> Path:
        """Persist one finished training run (atomic append; last wins).

        The record's CRC frame is the commit marker: a crash mid-append
        leaves a torn tail the next open truncates, never a
        readable-but-wrong checkpoint.  ``state_sha256`` lets a caller
        that already digested ``state`` skip the re-hash.
        """
        count("checkpoint.puts")
        tracer = current_tracer()
        if tracer is None:
            return self._put(key, spec, state, meta, state_sha256)
        with tracer.span("checkpoint.put", "store", key=key):
            return self._put(key, spec, state, meta, state_sha256)

    def _put(
        self,
        key: str,
        spec,
        state: "dict[str, np.ndarray]",
        meta: "dict | None" = None,
        state_sha256: "str | None" = None,
    ) -> Path:
        # First write into a root clears crashed writers' *.tmp.*
        # leftovers; later puts skip the directory scan.
        sweep_stale_tmp_once(self.root)
        plan = active_plan()
        # Injected torn write: the record lands with a broken CRC under
        # an intact frame — the strongest corruption `get` must catch.
        corrupt = plan is not None and plan.tear("checkpoint", key)
        return self._store.put(
            key,
            *self._encode(key, spec, state, meta, state_sha256),
            corrupt=corrupt,
        )

    # -- maintenance -----------------------------------------------------------

    def record_bytes(self, key: str) -> int:
        """Length of ``key``'s record per the store's index (0 if none).

        Reads nothing, so a loader can size its work before any get.
        """
        return self._store.record_bytes(key)

    def keys(self) -> "list[str]":
        """Keys of every committed checkpoint (sorted, from the index;
        no directory scan)."""
        return self._store.keys()

    def __len__(self) -> int:
        return len(self._store)

    def flush(self) -> None:
        """Publish the packed index (cheap; bounds the next recovery scan)."""
        self._store.flush()

    def prune(self, live_keys) -> int:
        """Compact away checkpoints not in ``live_keys``; returns removals.

        Dead records are dropped by compaction; crashed writers'
        ``*.tmp.*`` residue in the root is swept and counted too.
        """
        return self._store.compact(set(live_keys)) + sweep_stale_tmp(self.root)
