"""Content-addressed checkpoint store for trained model weights.

The zoo builder (``repro.core.zoo_builder``) persists every finished
training run here so a warm rebuild loads weights instead of spending
epochs.  Checkpoints are keyed by the training key (sha256 of the
canonical training spec — dataset, widths, training config — plus the
repro source digest, namespaced ``kind="train"`` so it can never
collide with a result-cache address) and persisted through the packed
segment store (:mod:`repro.runtime.store`).  One CRC-framed record per
checkpoint carries the metadata and the weights::

    meta_len (u32) | metadata JSON | np.savez bytes

The metadata JSON records ``state_sha256``; :meth:`CheckpointStore.get`
refuses records whose weight bytes no longer hash to it, so a
half-written or corrupted checkpoint is a miss, never a wrong model.
Because the key embeds the source digest, any library edit silently
invalidates every checkpoint (exactly like the result cache); ``prune``
compacts unaddressable leftovers away.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.trace import current_tracer
from repro.runtime import knobs
from repro.runtime.cache import sweep_stale_tmp, sweep_stale_tmp_once
from repro.runtime.faults import active_plan
from repro.runtime.hashing import state_digest
from repro.runtime.store import SegmentStore, StoreHealth

__all__ = ["Checkpoint", "CheckpointStore", "default_checkpoint_root"]

SCHEMA_VERSION = 1

#: Namespace passed as ``task_key(..., kind=...)`` for training keys.
CHECKPOINT_KIND = "train"

#: Record prefix: little-endian length of the metadata JSON half.
_META_LEN = struct.Struct("<I")

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
    """

    key: str
    spec: dict
    state: "dict[str, np.ndarray]"
    meta: dict = field(default_factory=dict)
    state_sha256: str = ""


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
    ) -> bytes:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "spec": spec,
            "state_sha256": state_sha256 or state_digest(state),
            "meta": dict(meta or {}),
        }
        meta_bytes = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode()
        buffer = io.BytesIO()
        np.savez(buffer, **state)
        return _META_LEN.pack(len(meta_bytes)) + meta_bytes + buffer.getvalue()

    def _decode(self, key: str, raw: bytes) -> "Checkpoint | None":
        """The validated checkpoint in ``raw``, or ``None`` if corrupt."""
        if len(raw) < _META_LEN.size:
            return None
        (meta_len,) = _META_LEN.unpack(raw[: _META_LEN.size])
        meta_end = _META_LEN.size + meta_len
        if meta_end > len(raw):
            return None
        try:
            payload = json.loads(raw[_META_LEN.size : meta_end].decode())
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        try:
            with np.load(io.BytesIO(raw[meta_end:])) as data:
                state = {name: data[name] for name in data.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):
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
            return self._get(key)
        with tracer.span("checkpoint.get", "store", key=key) as span:
            checkpoint = self._get(key)
            hit = checkpoint is not None
            span.attrs["hit"] = hit
            tracer.metrics.inc(
                "checkpoint.hits" if hit else "checkpoint.misses"
            )
            return checkpoint

    def _get(self, key: str) -> "Checkpoint | None":
        """The checkpoint for ``key``, or ``None`` on miss.

        A committed-but-corrupt record — CRC failure, garbled archive
        bytes, or weights whose bytes no longer hash to the recorded
        ``state_sha256`` — is quarantined (tombstoned and counted on
        :attr:`health`); the caller sees a miss and retrains.
        """
        raw = self._store.get(key)
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
        tracer = current_tracer()
        if tracer is None:
            return self._put(key, spec, state, meta, state_sha256)
        with tracer.span("checkpoint.put", "store", key=key):
            tracer.metrics.inc("checkpoint.puts")
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
            self._encode(key, spec, state, meta, state_sha256),
            corrupt=corrupt,
        )

    # -- maintenance -----------------------------------------------------------

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
