"""Crash-safe packed segment store: the fleet-scale durability layer.

:class:`~repro.runtime.cache.ResultCache` and
:class:`~repro.runtime.checkpoints.CheckpointStore` persist every entry
here.  One file per content address would be fatal at 10^5-10^6 cached
rounds (directory scans on every ``keys()``, inode churn, O(n) prune),
so this module packs entries into a handful of bounded, append-only
**segment files** behind an in-memory hash index, with a commit
protocol that keeps the interrupted-run resume guarantee byte-exact at
fleet scale.

Layout (all under one store root)::

    <root>/segments/seg-<gen>-<seq>.seg   append-only record logs
    <root>/index.json                     atomic index snapshot
    <root>/.lock                          cross-process writer lock

Record framing: a fixed little-endian header (``magic | kind | key_len
| value_len | crc32``) followed by the key and value bytes.  The CRC
covers kind, key, and value, so a reader can always tell a committed
record from a torn or bit-rotted one.  A value may be handed in as
several buffers (a checkpoint's metadata and its weight arrays): the
CRC runs over each where it lies and one ``writev`` lands the frame, so
a multi-megabyte value is never concatenated; a read takes the header
and key first, then the value straight into its own buffer: a ``bytes``
by default, or one the caller allocates (``get(key, alloc=...)``), which
the value is ``readinto``.  The checkpoint store allocates NumPy
buffers, which NumPy backs with huge pages from 4 MiB up, so a
multi-megabyte read takes a few hundred page faults instead of one per
4 KiB page.

Commit protocol
---------------

- ``put`` appends one framed record to the active segment under an
  exclusive ``flock`` and publishes it in the in-memory index.  The
  hot path is O(1): no directory scan, no per-entry file, one
  ``writev``.
- The index **snapshot** (``index.json``) is written atomically
  (temp + fsync + rename) and only after the active segment has been
  fsync'd — the index can lag the data, never lead it.  Snapshots
  happen every :data:`DEFAULT_SNAPSHOT_EVERY` puts, on segment roll,
  on ``flush``/``close``, and after compaction — each only if the index
  changed since the last published snapshot.
- **Recovery**: on open, the store loads the snapshot (a missing,
  torn, or stale one is fine) and scans every segment forward from its
  last committed offset.  Complete records are re-indexed; a torn tail
  — a record whose frame runs past end-of-file or whose CRC fails at
  the tail — is truncated and counted, never served.  A full-frame
  CRC failure *mid*-segment (bit rot) is skipped, not served.
- **Compaction** (:meth:`SegmentStore.compact`, what ``prune`` runs):
  live records are copied forward into a new segment generation, the
  new index snapshot is renamed into place (the commit point), and
  only then are the dead generation's segments deleted.  A
  crash on either side of the rename leaves a store that opens clean:
  orphan segments from other generations are discarded because every
  committed record they held lives in the indexed generation.
- **Quarantine** (PR 6 semantics): a CRC-failing or mis-keyed record
  is *tombstoned* — a tombstone record is appended and the key
  reported as a miss — and counted on the store's :class:`StoreHealth`,
  so a corrupted entry costs one recompute, never a wrong number.

Concurrent writers on one root interleave safely: every append takes
the ``flock``, re-reads the segment size under it, and absorbs any
records other writers appended since its last look.  Reads take no
``flock`` (records are immutable once written).  Threads may share one
store handle: its mutex covers every seek and read of a shared file
handle, every change to the index and every health count, and the
value's CRC runs outside it.

Fault injection: the :mod:`repro.runtime.faults` ``torn`` kind targets
``segment:<segment-name>`` (this append lands as a torn tail, exactly
as if the writer was killed mid-``write``) and ``index:<store-label>``
(the snapshot lands corrupt, forcing a full rebuild scan on the next
open) in addition to the store-level ``cache:<key>`` /
``checkpoint:<key>`` labels.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (no flock)
    fcntl = None

from repro.errors import ConfigurationError
from repro.obs.metrics import count
from repro.obs.trace import current_tracer
from repro.runtime.faults import active_plan

__all__ = ["SegmentStore", "StoreHealth", "RecordLocation"]

#: Bump when the on-disk record or index layout changes incompatibly.
STORE_SCHEMA_VERSION = 1

#: Record-frame magic (also the quickest "is this a segment?" check).
MAGIC = b"RSG1"

#: kind byte: a live key->value record.
KIND_DATA = 1
#: kind byte: a tombstone (the key is dead until re-put).
KIND_TOMBSTONE = 2

#: magic | kind u8 | key_len u16 | value_len u32 | crc32 u32
_HEADER = struct.Struct("<4sBHII")
HEADER_SIZE = _HEADER.size

#: Reserved file names inside a store root.
INDEX_NAME = "index.json"
LOCK_NAME = ".lock"
SEGMENTS_DIR = "segments"

#: Sanity ceiling for a single record's value (a corrupted length field
#: must never make the scanner chase gigabytes past the torn tail).
MAX_VALUE_BYTES = 1 << 31

#: Segment files roll once they exceed this many bytes.
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024
#: Index snapshot cadence (puts between snapshots); recovery scans at
#: most this many un-snapshotted records per segment on open.
DEFAULT_SNAPSHOT_EVERY = 4096


@dataclass
class StoreHealth:
    """Fault counters for one store instance.

    ``quarantined`` counts corrupt entries tombstoned by a read or
    dropped by compaction (each cost one recompute); ``recovered``
    counts committed records re-indexed from segment tails or a full
    rebuild scan; ``truncated`` counts torn segment tails dropped by
    recovery; ``compactions`` counts compaction runs.  Every counter
    moves through :meth:`bump`, which counts the same amount in the
    telemetry registry; the owning :class:`SegmentStore` calls it under
    its mutex, so threads sharing the store never lose a count.
    """

    quarantined: int = 0
    recovered: int = 0
    truncated: int = 0
    compactions: int = 0

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` and to registry ``store.<name>``."""
        setattr(self, name, getattr(self, name) + n)
        count(f"store.{name}", n)

    def to_dict(self) -> dict:
        return {
            "quarantined": self.quarantined,
            "recovered": self.recovered,
            "truncated": self.truncated,
            "compactions": self.compactions,
        }


def _segment_name(generation: int, seq: int) -> str:
    return f"seg-{generation:08d}-{seq:08d}.seg"


def _parse_segment_name(name: str) -> "tuple[int, int] | None":
    """``(generation, seq)`` for a well-formed segment file name."""
    if not name.startswith("seg-") or not name.endswith(".seg"):
        return None
    parts = name[4:-4].split("-")
    if len(parts) != 2:
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        return None


def _crc(kind: int, *parts) -> int:
    """The record CRC: CRC-32 over ``kind``, then each part in place."""
    crc = zlib.crc32(bytes((kind,)))
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc


def _frame(kind: int, key: str, parts) -> "tuple[list, int]":
    """One record frame as ``(buffers, length)``: header, key, value parts.

    ``parts`` are the value's C-contiguous buffers, back to back; none
    of them is copied.
    """
    key_bytes = key.encode()
    if len(key_bytes) > 0xFFFF:
        raise ConfigurationError("store key exceeds 65535 bytes")
    views = [memoryview(part) for part in parts]
    value_len = sum(view.nbytes for view in views)
    header = _HEADER.pack(
        MAGIC, kind, len(key_bytes), value_len, _crc(kind, key_bytes, *views)
    )
    return [header, key_bytes, *views], HEADER_SIZE + len(key_bytes) + value_len


#: Buffers one ``os.writev`` call accepts (0 where there is no writev).
_IOV_MAX = os.sysconf("SC_IOV_MAX") if hasattr(os, "writev") else 0


def _write_frame(handle, buffers: list, length: int) -> None:
    """Write a frame's buffers back to back with one ``writev``.

    A short write, or a frame with more buffers than one call accepts,
    finishes from a joined copy.
    """
    written = 0
    if len(buffers) <= _IOV_MAX:
        written = os.writev(handle.fileno(), buffers)
    if written < length:
        rest = memoryview(b"".join(buffers))[written:]
        while rest:
            rest = rest[handle.write(rest):]


class RecordLocation(tuple):
    """``(segment_name, offset, length)`` of one committed record."""

    __slots__ = ()

    def __new__(cls, segment: str, offset: int, length: int):
        return super().__new__(cls, (segment, offset, length))

    @property
    def segment(self) -> str:
        return self[0]

    @property
    def offset(self) -> int:
        return self[1]

    @property
    def length(self) -> int:
        return self[2]


class SegmentStore:
    """A packed, indexed, append-only map of string keys to bytes.

    Parameters
    ----------
    root:
        The store directory (created on first write).
    label:
        Short name used in fault-injection labels (``index:<label>``)
        and tracer events — ``"cache"`` or ``"checkpoint"`` for the
        built-in wrappers.
    health:
        A :class:`StoreHealth` to tick counters on (quarantines,
        recovered records, truncated tails, compactions).  ``None``
        allocates a private one.
    segment_bytes / snapshot_every:
        Segment roll threshold and snapshot cadence (tests shrink them
        to force a roll or a snapshot).
    """

    def __init__(
        self,
        root: "str | os.PathLike",
        *,
        label: str = "store",
        health: "StoreHealth | None" = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ) -> None:
        if not str(root):
            raise ConfigurationError("store root must be non-empty")
        self.root = Path(root)
        self.label = label
        self.health = health if health is not None else StoreHealth()
        self.segment_bytes = int(segment_bytes)
        self.snapshot_every = int(snapshot_every)
        if self.segment_bytes < 1 or self.snapshot_every < 1:
            raise ConfigurationError(
                "segment_bytes and snapshot_every must be >= 1"
            )
        self._mutex = threading.RLock()
        self._lock_fh = None
        self._lock_depth = 0
        self._opened = False
        self._generation = 0
        self._next_seq = 0
        self._active: "str | None" = None
        self._write_fh = None
        self._read_fhs: "dict[str, object]" = {}
        #: key -> RecordLocation, or None for a tombstoned key.
        self._entries: "dict[str, RecordLocation | None]" = {}
        #: segment name -> bytes scanned/validated so far.
        self._segments: "dict[str, int]" = {}
        self._dirty_puts = 0
        #: ``(generation, segments)`` as of the last snapshot this handle
        #: published or loaded; ``None`` while none is on disk.  Every
        #: change to the index moves a segment offset (or the
        #: generation), so an equal pair means the snapshot is current.
        self._published: "tuple[int, dict[str, int]] | None" = None

    # -- paths -----------------------------------------------------------------

    @property
    def segments_dir(self) -> Path:
        return self.root / SEGMENTS_DIR

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    def _segment_path(self, name: str) -> Path:
        return self.segments_dir / name

    # -- locking ---------------------------------------------------------------

    @contextmanager
    def _locked(self):
        """Exclusive cross-process + cross-thread section (re-entrant)."""
        with self._mutex:
            self._lock_depth += 1
            try:
                if (
                    self._lock_depth == 1
                    and self._lock_fh is not None
                    and fcntl is not None
                ):
                    fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_EX)
                yield
            finally:
                self._lock_depth -= 1
                if (
                    self._lock_depth == 0
                    and self._lock_fh is not None
                    and fcntl is not None
                ):
                    fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_UN)

    # -- open / recovery -------------------------------------------------------

    def _ensure_open(self, create: bool) -> bool:
        """Open (and recover) the store; ``False`` if nothing exists yet."""
        if self._opened:
            return True
        with self._mutex:
            if self._opened:
                return True
            exists = self.segments_dir.is_dir() or self.index_path.exists()
            if not exists and not create:
                return False
            self._open(create=True)
            return True

    def _open(self, create: bool) -> None:
        if create:
            self.segments_dir.mkdir(parents=True, exist_ok=True)
        self._lock_fh = open(self.root / LOCK_NAME, "a+b")
        self._opened = True
        with self._locked():
            self._load_state()

    def _reopen(self) -> None:
        """Drop all in-memory state and recover from disk (under lock)."""
        self._close_handles()
        self._entries = {}
        self._segments = {}
        self._load_state()

    def _close_handles(self) -> None:
        if self._write_fh is not None:
            try:
                self._write_fh.close()
            except OSError:  # pragma: no cover - close of dying handle
                pass
            self._write_fh = None
        for handle in self._read_fhs.values():
            try:
                handle.close()
            except OSError:  # pragma: no cover
                pass
        self._read_fhs = {}
        self._active = None

    def _load_state(self) -> None:
        """Load the snapshot, reconcile segments, recover the tail."""
        snapshot = self._read_snapshot()
        on_disk = self._list_segments()
        if snapshot is None:
            # Lost/torn/absent index: rebuild everything from segments,
            # oldest generation first so the newest write of a key wins.
            self._generation = max((g for g, _ in on_disk.values()), default=0)
            self._entries = {}
            committed: "dict[str, int]" = {}
            rebuilt = True
        else:
            self._generation = snapshot["generation"]
            committed = snapshot["segments"]
            self._entries = snapshot["entries"]
            rebuilt = False
        self._published = (
            None if rebuilt else (self._generation, dict(committed))
        )
        recovered_before = self.health.recovered
        for name in sorted(on_disk, key=lambda n: on_disk[n]):
            generation, _ = on_disk[name]
            if not rebuilt and generation != self._generation:
                # Another generation's segment can only be compaction
                # residue (crashed before publish, or before cleanup):
                # every committed record lives in the indexed
                # generation, so the orphan is safe to discard.
                self._discard_segment(name)
                continue
            start = committed.get(name, 0)
            self._scan_segment(name, start)
        if rebuilt and on_disk:
            # Index was rebuilt by a full scan; records it re-indexed
            # are "recovered" only in the bookkeeping sense — surface
            # the rebuild itself to the registry and the tracer.
            count("store.index_rebuild")
            self._trace_event(
                "index_rebuild",
                recovered=self.health.recovered - recovered_before,
            )
        # Resume appends on the newest segment of the live generation.
        live = [
            name
            for name in self._segments
            if _parse_segment_name(name)
            and _parse_segment_name(name)[0] == self._generation
        ]
        if live:
            newest = max(live, key=lambda n: _parse_segment_name(n)[1])
            self._next_seq = _parse_segment_name(newest)[1] + 1
            if self._segments[newest] < self.segment_bytes:
                self._active = newest
        else:
            self._next_seq = 0

    def _read_snapshot(self) -> "dict | None":
        try:
            payload = json.loads(self.index_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # A torn or unreadable snapshot is recoverable state, not an
            # error: fall back to the full rebuild scan.
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema_version") != STORE_SCHEMA_VERSION
            or not isinstance(payload.get("entries"), dict)
            or not isinstance(payload.get("segments"), dict)
        ):
            return None
        entries: "dict[str, RecordLocation | None]" = {}
        for key, loc in payload["entries"].items():
            if loc is None:
                entries[key] = None
            elif (
                isinstance(loc, list)
                and len(loc) == 3
                and isinstance(loc[0], str)
            ):
                entries[key] = RecordLocation(loc[0], int(loc[1]), int(loc[2]))
            else:
                return None  # malformed snapshot: rebuild
        return {
            "generation": int(payload.get("generation", 0)),
            "segments": {
                str(k): int(v) for k, v in payload["segments"].items()
            },
            "entries": entries,
        }

    def _list_segments(self) -> "dict[str, tuple[int, int]]":
        """``{name: (generation, seq)}`` for every segment on disk."""
        out: "dict[str, tuple[int, int]]" = {}
        if not self.segments_dir.is_dir():
            return out
        for path in self.segments_dir.iterdir():
            parsed = _parse_segment_name(path.name)
            if parsed is not None:
                out[path.name] = parsed
        return out

    def _discard_segment(self, name: str) -> None:
        with self._mutex:
            handle = self._read_fhs.pop(name, None)
            if handle is not None:
                try:
                    handle.close()
                except OSError:  # pragma: no cover
                    pass
            self._segment_path(name).unlink(missing_ok=True)
            self._segments.pop(name, None)

    def _scan_segment(self, name: str, start: int) -> None:
        """Re-index records in ``[start, EOF)``; truncate a torn tail.

        Caller holds the write lock; the mutex guards the index, so it
        is taken here too (it is re-entrant).  Complete, CRC-valid
        records are published to the index (recovery of writes the
        snapshot never saw); a frame that runs past EOF or fails its
        CRC *at the tail* is truncated away; a full-frame CRC failure
        mid-segment (bit rot under a later valid record) is skipped and
        left for compaction to drop.
        """
        with self._mutex:
            path = self._segment_path(name)
            try:
                size = path.stat().st_size
            except FileNotFoundError:
                self._segments.pop(name, None)
                return
            if start >= size:
                self._segments[name] = size
                return
            recovered = 0
            with open(path, "rb") as handle:
                handle.seek(start)
                offset = start
                good_end = start
                while True:
                    header = handle.read(HEADER_SIZE)
                    if len(header) < HEADER_SIZE:
                        break  # torn tail (or clean EOF)
                    magic, kind, key_len, value_len, crc = _HEADER.unpack(header)
                    if magic != MAGIC or value_len > MAX_VALUE_BYTES:
                        break  # unrecognizable bytes: treat as torn tail
                    body = handle.read(key_len + value_len)
                    frame_end = offset + HEADER_SIZE + key_len + value_len
                    if len(body) < key_len + value_len:
                        break  # frame runs past EOF: torn tail
                    key = body[:key_len].decode(errors="replace")
                    if _crc(kind, body) != crc:
                        if frame_end >= size:
                            break  # bad CRC at the tail: torn write
                        # Bad CRC mid-segment: framing is intact, so skip
                        # the rotted record and keep scanning.
                        offset = frame_end
                        good_end = frame_end
                        continue
                    if kind == KIND_TOMBSTONE:
                        self._entries[key] = None
                    elif kind == KIND_DATA:
                        self._entries[key] = RecordLocation(
                            name, offset, frame_end - offset
                        )
                        recovered += 1
                    offset = frame_end
                    good_end = frame_end
            if good_end < size:
                # Torn tail: drop it now so later appends (ours or another
                # writer's) never land after garbage.
                with open(path, "r+b") as handle:
                    handle.truncate(good_end)
                self._bump("truncated")
                self._trace_event("torn_tail", segment=name, dropped=size - good_end)
            self._segments[name] = good_end
            self._bump("recovered", recovered)

    def _catch_up(self) -> None:
        """Absorb records other writers appended since our last look."""
        on_disk = self._list_segments()
        mine = set(self._segments)
        if mine and not any(
            generation == self._generation
            for generation, _ in on_disk.values()
        ) and on_disk:
            # Our whole generation vanished: another process compacted.
            self._reopen()
            return
        for name in sorted(on_disk, key=lambda n: on_disk[n]):
            generation, _ = on_disk[name]
            if generation != self._generation:
                continue
            self._scan_segment(name, self._segments.get(name, 0))

    # -- health and tracing ----------------------------------------------------

    def _bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to health counter ``name`` under the mutex."""
        with self._mutex:
            self.health.bump(name, n)

    def _trace_event(self, name: str, **attrs) -> None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(name, "store", store=self.label, **attrs)

    # -- write path ------------------------------------------------------------

    def _active_handle(self):
        with self._mutex:
            if self._active is None:
                name = _segment_name(self._generation, self._next_seq)
                self._next_seq += 1
                self._segment_path(name).touch()
                self._segments.setdefault(name, 0)
                self._active = name
                self._write_fh = None
            if self._write_fh is None:
                self._write_fh = open(
                    self._segment_path(self._active), "ab", buffering=0
                )
            return self._write_fh

    def _roll(self) -> None:
        if self._write_fh is not None:
            os.fsync(self._write_fh.fileno())
            self._write_fh.close()
            self._write_fh = None
        self._active = None

    def _append(self, kind: int, key: str, parts, torn: str = "") -> RecordLocation:
        """Append one record under the lock; returns its location.

        ``torn`` injects corruption: ``"tail"`` writes only the first
        half of the frame and leaves it unindexed (the writer died
        mid-``write``); ``"value"`` writes a full-length frame whose
        value bytes are zeroed past the midpoint (framing intact, CRC
        broken — bit rot / a torn store-level write), still indexed so
        the next read quarantines it.
        """
        with self._locked():
            handle = self._active_handle()
            path = self._segment_path(self._active)
            try:
                offset = os.stat(path).st_size
            except FileNotFoundError:
                # Another process compacted our active segment away.
                self._reopen()
                handle = self._active_handle()
                path = self._segment_path(self._active)
                offset = os.stat(path).st_size
            if offset > self._segments.get(self._active, 0):
                # Another writer appended behind our back: absorb its
                # records so our next snapshot covers them.
                self._scan_segment(self._active, self._segments.get(self._active, 0))
                offset = os.stat(path).st_size
            if offset >= self.segment_bytes:
                self._roll()
                self._write_snapshot()
                handle = self._active_handle()
                path = self._segment_path(self._active)
                offset = 0
            name = self._active
            buffers, length = _frame(kind, key, parts)
            if torn == "tail":
                handle.write(b"".join(buffers)[: max(1, length // 2)])
                # The "writer" died here: nothing indexed, and the next
                # append must not land after the garbage tail.
                self._roll()
                return RecordLocation(name, offset, length)
            if torn == "value":
                body = bytearray(b"".join(buffers))
                half = HEADER_SIZE + (length - HEADER_SIZE) // 2
                for i in range(half, length):
                    body[i] = 0
                buffers = [body]
            _write_frame(handle, buffers, length)
            location = RecordLocation(name, offset, length)
            with self._mutex:  # held already; it is what guards the index
                if kind == KIND_TOMBSTONE:
                    self._entries[key] = None
                else:
                    self._entries[key] = location
                self._segments[name] = offset + length
                self._dirty_puts += 1
            if self._dirty_puts >= self.snapshot_every:
                self._write_snapshot()
            return location

    def put(self, key: str, *parts, corrupt: bool = False) -> Path:
        """Store the value ``parts`` make back to back under ``key``.

        Each part is a C-contiguous buffer (``bytes``, an ndarray); the
        record CRC and the write read them in place.  Last writer wins.
        ``corrupt=True`` is the fault-injection hook used by the
        store wrappers' ``cache:<key>`` / ``checkpoint:<key>`` torn
        labels.  Returns the segment path the record landed in.
        """
        self._ensure_open(create=True)
        torn = "value" if corrupt else ""
        if not corrupt:
            plan = active_plan()
            if plan is not None:
                # The label names the segment the write starts on (the
                # active one, or the one the next append will create).
                with self._mutex:
                    name = self._active or _segment_name(
                        self._generation, self._next_seq
                    )
                if plan.tear("segment", name):
                    torn = "tail"
        location = self._append(KIND_DATA, key, parts, torn=torn)
        return self._segment_path(location.segment)

    def quarantine(self, key: str) -> None:
        """Tombstone a corrupt entry and count it (PR 6 semantics)."""
        if not self._ensure_open(create=False):
            return
        self._append(KIND_TOMBSTONE, key, ())
        self._count_quarantine(key)

    def _count_quarantine(self, key: str) -> None:
        """Tick health and the trace for one corrupt entry taken out."""
        self._bump("quarantined")
        self._trace_event("quarantine", key=key)

    def delete(self, key: str) -> bool:
        """Tombstone ``key`` (no health tick); ``True`` if it was live."""
        if not self._ensure_open(create=False):
            return False
        live = self._entries.get(key) is not None
        if live:
            self._append(KIND_TOMBSTONE, key, ())
        return live

    # -- snapshot --------------------------------------------------------------

    def _write_snapshot(self) -> None:
        """Publish the index (record fsync strictly before the rename).

        A no-op when nothing was appended, absorbed or recovered since
        the last published snapshot: that snapshot already indexes
        exactly the in-memory state, and every record it indexes was
        fsync'd before it was renamed into place.
        """
        with self._locked():
            self._catch_up()
            if self._published == (self._generation, self._segments):
                return
            if self._write_fh is not None:
                os.fsync(self._write_fh.fileno())
            payload = {
                "schema_version": STORE_SCHEMA_VERSION,
                "label": self.label,
                "generation": self._generation,
                "segments": dict(sorted(self._segments.items())),
                "entries": {
                    key: (list(loc) if loc is not None else None)
                    for key, loc in sorted(self._entries.items())
                },
            }
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            plan = active_plan()
            torn = plan is not None and plan.tear("index", self.label)
            if torn:
                # Injected torn snapshot: the index lands unparseable,
                # forcing the next open into the full rebuild scan.
                text = text[: max(1, len(text) // 2)]
            tmp = self.index_path.with_suffix(f".tmp.{os.getpid()}")
            with open(tmp, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.index_path)
            self._dirty_puts = 0
            self._published = (
                None if torn else (self._generation, dict(self._segments))
            )

    def flush(self) -> None:
        """fsync the active segment and publish an index snapshot.

        Writes nothing when the published snapshot is already current
        (a read-only replay leaves ``index.json`` untouched).
        """
        if not self._ensure_open(create=False):
            return
        self._write_snapshot()

    def close(self) -> None:
        """Flush and release every file handle (the store stays usable)."""
        if not self._opened:
            return
        self._write_snapshot()
        with self._mutex:
            self._close_handles()
            if self._lock_fh is not None:
                self._lock_fh.close()
                self._lock_fh = None
            self._opened = False

    def refresh(self) -> None:
        """Absorb other writers' records without writing anything."""
        if not self._ensure_open(create=False):
            return
        with self._locked():
            self._catch_up()

    # -- read path -------------------------------------------------------------

    def _read_handle(self, name: str):
        with self._mutex:
            handle = self._read_fhs.get(name)
            if handle is None:
                handle = open(self._segment_path(name), "rb")
                self._read_fhs[name] = handle
            return handle

    def record_bytes(self, key: str) -> int:
        """Length of ``key``'s committed record per the index; 0 if none.

        Reads no record, so a caller can size its reads before any get.
        """
        if not self._ensure_open(create=False):
            return 0
        with self._mutex:
            location = self._entries.get(key)
        return 0 if location is None else location.length

    def get(self, key: str, alloc=None):
        """The committed value for ``key`` or ``None``.

        The value is a ``bytes``, or with ``alloc`` the writable buffer
        ``alloc(n)`` returns for its ``n`` bytes, read into in place.  A
        record that fails its CRC or carries the wrong key is tombstoned
        + counted (:meth:`quarantine`) and reported as a miss: one
        recompute, never a wrong number.
        """
        if not self._ensure_open(create=False):
            return None
        with self._mutex:
            location = self._entries.get(key)
        if location is None:
            return None
        value = self._read_location(key, location, alloc)
        if value is None:
            self.quarantine(key)
        return value

    def _read_location(self, key: str, location: RecordLocation, alloc=None):
        """The value of the record at ``location``, if intact and keyed ``key``.

        The value is read into its own buffer (see :meth:`get`) after the
        header and key check out, so no whole-record buffer is sliced.
        The mutex covers the seek and the reads; the CRC runs outside it.
        """
        key_bytes = key.encode()
        for attempt in (0, 1):
            try:
                with self._mutex:
                    handle = self._read_handle(location.segment)
                    handle.seek(location.offset)
                    head = handle.read(HEADER_SIZE + len(key_bytes))
                    if len(head) < HEADER_SIZE:
                        return None
                    magic, kind, key_len, value_len, crc = _HEADER.unpack_from(
                        head
                    )
                    if (
                        magic != MAGIC
                        or kind != KIND_DATA
                        or key_len != len(key_bytes)
                        or HEADER_SIZE + key_len + value_len != location.length
                        or head[HEADER_SIZE:] != key_bytes
                    ):
                        return None
                    if alloc is None:
                        value = handle.read(value_len)
                        n_read = len(value)
                    else:
                        value = alloc(value_len)
                        n_read = handle.readinto(value)
            except FileNotFoundError:
                # Segment vanished under us (another process compacted):
                # recover once, then re-resolve the key.
                if attempt:
                    return None
                with self._locked():
                    self._reopen()
                with self._mutex:
                    location = self._entries.get(key)
                if location is None:
                    return None
                continue
            break
        if n_read != value_len or _crc(kind, key_bytes, value) != crc:
            return None
        return value

    def keys(self) -> "list[str]":
        """Sorted live keys (tombstoned ones excluded) — no dir scan."""
        if not self._ensure_open(create=False):
            return []
        with self._mutex:
            return sorted(
                key for key, loc in self._entries.items() if loc is not None
            )

    def __len__(self) -> int:
        if not self._ensure_open(create=False):
            return 0
        with self._mutex:
            return sum(1 for loc in self._entries.values() if loc is not None)

    # -- compaction ------------------------------------------------------------

    def compact(self, live_keys=None) -> int:
        """Copy live records forward; drop everything else atomically.

        ``live_keys`` restricts survival to the given keys (the
        ``prune`` contract); ``None`` keeps every live key and just
        drops tombstones and dead record versions.  Returns the number
        of live entries dropped because they were *not* in
        ``live_keys``.  The new index snapshot's rename is the commit
        point; a crash on either side leaves an openable store.
        """
        if not self._ensure_open(create=False):
            return 0
        live = None if live_keys is None else set(live_keys)
        tracer = current_tracer()
        span = (
            tracer.span("store.compact", "store", store=self.label)
            if tracer is not None
            else None
        )
        with span if span is not None else nullcontext():
            dropped = self._compact(live)
        self._bump("compactions")
        return dropped

    def _compact(self, live: "set | None") -> int:
        with self._locked():
            self._catch_up()
            self._roll()
            old_segments = list(self._segments)
            new_generation = self._generation + 1
            dropped = 0
            new_entries: "dict[str, RecordLocation | None]" = {}
            new_segments: "dict[str, int]" = {}
            seq = 0
            out_name = None
            out_fh = None
            out_offset = 0
            try:
                for key in sorted(self._entries):
                    location = self._entries[key]
                    if location is None:
                        continue  # tombstone: compacted away
                    if live is not None and key not in live:
                        dropped += 1
                        continue
                    value = self._read_location(key, location)
                    if value is None:
                        # Corrupt record discovered during compaction:
                        # same contract as a get — tombstone-equivalent
                        # (simply not copied) and counted.
                        self._count_quarantine(key)
                        continue
                    buffers, length = _frame(KIND_DATA, key, (value,))
                    if out_fh is None or out_offset >= self.segment_bytes:
                        if out_fh is not None:
                            os.fsync(out_fh.fileno())
                            out_fh.close()
                        out_name = _segment_name(new_generation, seq)
                        seq += 1
                        out_fh = open(
                            self._segment_path(out_name), "wb", buffering=0
                        )
                        out_offset = 0
                        new_segments[out_name] = 0
                    _write_frame(out_fh, buffers, length)
                    new_entries[key] = RecordLocation(
                        out_name, out_offset, length
                    )
                    out_offset += length
                    new_segments[out_name] = out_offset
                if out_fh is not None:
                    os.fsync(out_fh.fileno())
                    out_fh.close()
                    out_fh = None
            finally:
                if out_fh is not None:  # pragma: no cover - error path
                    out_fh.close()
            # Publish: the rename of index.json is the commit point.
            self._generation = new_generation
            self._entries = new_entries
            self._segments = new_segments
            self._next_seq = seq
            self._active = None
            self._write_fh = None
            self._write_snapshot()
            # Only after the publish do the dead segments go away; a
            # crash before this point leaves them as discardable
            # orphans of a stale generation.
            for name in old_segments:
                self._discard_segment(name)
            return dropped

