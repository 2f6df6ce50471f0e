"""Content-addressed result store for completed experiment points.

Entries are keyed by the task key (sha256 of canonical spec + code
version, see :mod:`repro.runtime.hashing`) and persisted through the
crash-safe packed segment store (:mod:`repro.runtime.store`): CRC-framed
records appended to bounded segment files under ``<root>/segments/``,
with an atomic index snapshot at ``<root>/index.json``.  ``get``/``put``
are O(1) — no directory scans, no per-entry files — which is what keeps
the interrupted-run resume guarantee affordable at 10^5-10^6 cached
rounds.

Because the key embeds the code version, a library change silently
invalidates every entry (old records are simply never addressed again);
``prune`` compacts them away.  The packed commit protocol guarantees a
crashed run leaves a resumable cache: on the next open a torn tail is
truncated (never served) and every committed record is recovered, so the
next run reuses every completed point and recomputes only the rest.

Integrity: every entry records ``result_sha256`` (the canonical-JSON
digest of its result), and ``get`` verifies it on top of the record
CRC.  An entry that is truncated, mis-keyed, or fails either check is
**quarantined** — tombstoned in the packed store and counted on
:class:`StoreHealth` — and reported as a miss, so a torn or bit-rotted
record costs one recompute, never a wrong number and never an aborted
run.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.metrics import count
from repro.obs.trace import current_tracer
from repro.runtime import knobs
from repro.runtime.store import SegmentStore, StoreHealth

__all__ = [
    "ResultCache",
    "default_cache_root",
    "result_digest",
    "sweep_stale_tmp",
    "sweep_stale_tmp_once",
]

SCHEMA_VERSION = 1


def result_digest(result) -> str:
    """Canonical-JSON sha256 of a cached result (integrity marker)."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()

#: Environment variable overriding the default cache location
#: (canonical home: :mod:`repro.runtime.knobs`; re-exported here).
CACHE_ENV = knobs.CACHE_ENV


def _tmp_writer_alive(path: Path) -> bool:
    """Whether the pid embedded in a ``<stem>.tmp.<pid>[...]`` name is live.

    Write-temp files carry their writer's pid precisely so concurrent
    processes sharing one store never collide; a sweep must therefore
    only remove files whose writer is gone (crashed), never one that is
    mid-write.  Unparseable names count as dead (sweepable).
    """
    parts = path.name.split(".tmp.")
    if len(parts) != 2:
        return False
    try:
        pid = int(parts[1].split(".")[0])
    except ValueError:
        return False
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, PermissionError):  # pragma: no cover - exists, not ours
        return True
    return True


#: Temp files younger than this are never swept: their pid may belong
#: to a writer on *another host* sharing the store root (NFS scratch),
#: where local liveness checks say nothing.  Real writes finish in
#: milliseconds, so any genuinely in-flight file is far younger.
STALE_TMP_GRACE_S = 300.0


def sweep_stale_tmp(root: Path, pattern: str = "*.tmp.*") -> int:
    """Remove crashed writers' ``*.tmp.*`` leftovers under ``root``.

    Shared by the artifact writer (:mod:`repro.utils.artifacts`), the
    stores' first-write sweep, and ``prune``.  A file is
    only removed when it is both older than :data:`STALE_TMP_GRACE_S`
    (so a concurrent writer on another host is safe) and its pid names
    no locally running process (so a stuck local writer is safe).
    """
    import time

    removed = 0
    if not root.is_dir():
        return removed
    now = time.time()
    for stale in root.glob(pattern):
        try:
            age = now - stale.stat().st_mtime
        except OSError:
            continue  # vanished under us: someone else swept it
        if age < STALE_TMP_GRACE_S or _tmp_writer_alive(stale):
            continue
        stale.unlink(missing_ok=True)
        removed += 1
    return removed


_SWEPT_ROOTS: "set[str]" = set()
# Callers may share a store across their own threads, so the once-per-root
# bookkeeping needs a real guard rather than relying on GIL luck.
_SWEPT_LOCK = threading.Lock()


def sweep_stale_tmp_once(root: Path) -> int:
    """First-write sweep: clear a root's crash leftovers once per process.

    Hot paths call this instead of scanning the directory on every
    write — leftovers only appear when a *previous* process died
    mid-write, so one sweep per (process, root) recovers them without
    O(entries) work per stored result.  ``prune`` still sweeps
    unconditionally.
    """
    resolved = os.path.abspath(str(root))
    with _SWEPT_LOCK:
        if resolved in _SWEPT_ROOTS:
            return 0
        _SWEPT_ROOTS.add(resolved)
    return sweep_stale_tmp(root)


def default_cache_root(fallback: "str | None" = None) -> str:
    """$REPRO_RUNTIME_CACHE, else ``fallback``, else the in-repo default.

    The benchmarks pass their results directory as ``fallback`` so the
    environment variable can redirect the cache (e.g. to scratch
    storage) without editing any bench.
    """
    configured = knobs.read_knob(CACHE_ENV)
    if configured:
        return configured
    if fallback is not None:
        return fallback
    return os.path.join("benchmarks", "results", "runtime_cache")


class ResultCache:
    """A packed, content-addressed store of task results."""

    #: Fault-injection label for torn writes (``torn,cache:<key>``).
    STORE_LABEL = "cache"

    def __init__(self, root: "str | os.PathLike") -> None:
        if not str(root):
            raise ConfigurationError("cache root must be non-empty")
        self.root = Path(root)
        self.health = StoreHealth()
        self._store = SegmentStore(
            self.root, label=self.STORE_LABEL, health=self.health
        )

    def _encode(self, key: str, spec, result) -> bytes:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "spec": spec,
            "result": result,
            "result_sha256": result_digest(result),
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode()

    def _decode(self, key: str, raw: bytes):
        """The validated result in ``raw``, or ``None`` if corrupt."""
        try:
            payload = json.loads(raw.decode())
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        result = payload.get("result")
        recorded = payload.get("result_sha256")
        if recorded is not None and recorded != result_digest(result):
            return None
        return result

    def get(self, key: str):
        """The cached result for ``key``, or ``None`` on miss.

        A present-but-corrupt entry (CRC failure, wrong key, failed
        ``result_sha256`` check) is quarantined — tombstoned and
        counted on :attr:`health` — and the caller just sees a miss
        and recomputes.
        """
        tracer = current_tracer()
        if tracer is None:
            result = self._get(key)
        else:
            with tracer.span("cache.get", "store", key=key) as span:
                result = self._get(key)
                span.attrs["hit"] = result is not None
        count("cache.hits" if result is not None else "cache.misses")
        return result

    def _get(self, key: str):
        raw = self._store.get(key)
        if raw is None:
            return None
        result = self._decode(key, raw)
        if result is None:
            # Record bytes were intact (CRC passed) but the payload
            # fails validation — same contract: tombstone + miss.
            self._store.quarantine(key)
        return result

    def put(self, key: str, spec, result) -> Path:
        """Store one completed point (atomic append; last writer wins)."""
        count("cache.puts")
        tracer = current_tracer()
        if tracer is None:
            return self._put(key, spec, result)
        with tracer.span("cache.put", "store", key=key):
            return self._put(key, spec, result)

    def _put(self, key: str, spec, result) -> Path:
        from repro.runtime.faults import active_plan

        # First write into a root clears crashed writers' *.tmp.*
        # leftovers; later puts skip the directory scan.
        sweep_stale_tmp_once(self.root)
        plan = active_plan()
        # Injected torn write: the record lands with a broken CRC,
        # exactly as if the writer died mid-write after the index
        # publish was queued; the next reader quarantines + recomputes.
        corrupt = plan is not None and plan.tear("cache", key)
        return self._store.put(
            key, self._encode(key, spec, result), corrupt=corrupt
        )

    def keys(self) -> "list[str]":
        """Keys of every entry currently stored (sorted, from the index;
        no directory scan)."""
        return self._store.keys()

    def __len__(self) -> int:
        return len(self._store)

    def flush(self) -> None:
        """Publish the packed index (cheap; bounds the next recovery scan)."""
        self._store.flush()

    def prune(self, live_keys) -> int:
        """Compact away entries not in ``live_keys``; returns how many went.

        Live records are copied forward into a fresh segment generation
        and dead segments are removed atomically; crashed writers'
        ``*.tmp.*`` residue in the root is swept and counted too.
        """
        return self._store.compact(set(live_keys)) + sweep_stale_tmp(self.root)
