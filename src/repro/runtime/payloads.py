"""Content-addressed per-run payload interning for executor dispatch.

The dispatch-economics problem: a campaign ships hundreds of small
round tasks, and each task's parameter mapping used to carry its own
copy of every large object it touches — most wastefully the deployed
model, which is *identical* across all of one STA's rounds yet was
pickled by the coordinator and unpickled by a worker once per round.

A :class:`PayloadStore` fixes that.  The coordinator *interns* large
run-shared objects (deployed models, bottleneck quantizers): each is
pickled once, keyed by the sha256 of its pickle bytes, and replaced in
the task parameters by a tiny :class:`PayloadRef`.  (Data that is
unique per task — a round's CSI slice — ships inline: the store keeps
every interned object alive until ``close()``, so interning one-shot
arrays would trade transport it cannot improve for memory that grows
with run length.)  Execution then resolves refs back to objects:

- the in-process (serial) executor resolves from the store's own
  memory — nothing is ever written to disk, so 1-worker runs pay only
  one pickling pass per distinct object (for the digest);
- the worker-pool executor *spills* each referenced payload to a
  write-once spool file (``<root>/<digest>.pkl``, tmp+rename) the
  first time a wave ships it, and workers memoize unpickled objects
  per ``(spool root, digest)`` — so a worker deserializes a given
  model exactly once per run, however many round tasks reference it.

Lifetime: a store belongs to one run (create it, run, ``close()`` or
use it as a context manager); the spool directory lives under
``$REPRO_RUNTIME_PAYLOADS`` (default: the system temp dir) and is
deleted on close.  Keying is purely content-addressed, so two interns
of equal objects share one entry and one spool file.

Results are byte-identical with and without interning for any worker
count: refs are replaced by objects with the very same float64
contents before the task function runs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.metrics import count
from repro.obs.trace import current_tracer
from repro.runtime import knobs

__all__ = [
    "PayloadRef",
    "PayloadStore",
    "collect_refs",
    "resolve_refs",
    "load_payload",
    "clear_payload_cache",
    "PAYLOADS_ENV",
]

#: Environment variable overriding where payload spools are created
#: (canonical home: :mod:`repro.runtime.knobs`; re-exported here).
PAYLOADS_ENV = knobs.PAYLOADS_ENV

#: Pickle protocol used for both digests and spool files.
_PROTOCOL = pickle.HIGHEST_PROTOCOL


@dataclass(frozen=True)
class PayloadRef:
    """A content address standing in for an interned object."""

    digest: str


class PayloadStore:
    """Per-run interning of large task payloads (see module docstring)."""

    def __init__(self, root: "str | None" = None) -> None:
        self._objects: dict = {}  # digest -> live object
        self._bytes: dict = {}  # digest -> pickle bytes (until spilled)
        # id(obj) -> (digest, obj).  The strong reference is essential:
        # without it a dead object's id could be recycled by a *new*
        # object and the memo would serve the stale digest.
        self._by_id: dict = {}
        self._root = root
        self._spool: "str | None" = None
        self._closed = False
        #: Spool files re-created after vanishing mid-run (see spill);
        #: each also counts as registry ``payloads.rehydrated``.
        self.rehydrated = 0

    # -- coordinator side -------------------------------------------------------

    def intern(self, obj) -> PayloadRef:
        """Intern ``obj`` and return its content-addressed reference.

        Repeated interns of the *same object* skip re-pickling (an
        identity memo); equal-but-distinct objects still converge on
        one entry via the content digest.
        """
        if self._closed:
            raise ConfigurationError("payload store is closed")
        count("payloads.interned")
        memo = self._by_id.get(id(obj))
        if memo is not None and memo[1] is obj:
            return PayloadRef(memo[0])
        data = pickle.dumps(obj, protocol=_PROTOCOL)
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._objects:
            self._objects[digest] = obj
            self._bytes[digest] = data
            count("payloads.unique")
            count("payloads.unique_bytes", len(data))
        self._by_id[id(obj)] = (digest, obj)
        return PayloadRef(digest)

    def get(self, ref: PayloadRef):
        """The live object behind ``ref`` (serial-executor path)."""
        return self._objects[ref.digest]

    def resolve(self, params):
        """``params`` with every :class:`PayloadRef` replaced in-memory."""
        return resolve_refs(params, self.get)

    def spill(self, digests) -> str:
        """Write the named payloads to spool files; returns the root.

        Write-once per digest (tmp+rename, so a half-written file is
        never observable); already-spilled digests are no-ops.  Called
        by the pool executor before a wave ships refs to workers.

        Self-healing: the store keeps every interned object alive, so
        an already-spilled file that has *vanished* (scratch cleaner,
        tmpwatch, operator error) is detected here and re-pickled from
        the coordinator's live object — the executor re-spills before
        every dispatch round, so a worker's file-not-found failure is
        retried against a rehydrated spool.
        """
        if self._closed:
            raise ConfigurationError("payload store is closed")
        tracer = current_tracer()
        if tracer is None:
            return self._spill(digests, None)
        with tracer.span(
            "payloads.spill", "store", requested=len(digests)
        ) as span:
            return self._spill(digests, span)

    def _spill(self, digests, span) -> str:
        if self._spool is None:
            base = self._root or knobs.read_knob(PAYLOADS_ENV) or None
            if base is not None:
                os.makedirs(base, exist_ok=True)
            self._spool = tempfile.mkdtemp(prefix="repro-payloads-", dir=base)
        written = 0
        written_bytes = 0
        for digest in digests:
            path = os.path.join(self._spool, f"{digest}.pkl")
            data = self._bytes.pop(digest, None)
            if data is None:
                if digest not in self._objects or os.path.exists(path):
                    continue  # unknown digest, or already spilled and intact
                data = pickle.dumps(self._objects[digest], protocol=_PROTOCOL)
                self.rehydrated += 1
                count("payloads.rehydrated")
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
            written += 1
            written_bytes += len(data)
        count("payloads.spilled", written)
        count("payloads.spilled_bytes", written_bytes)
        if span is not None:
            span.attrs["spilled"] = written
            span.attrs["spilled_bytes"] = written_bytes
        return self._spool

    def close(self) -> None:
        """Delete the spool directory and drop all interned objects."""
        if self._spool is not None:
            shutil.rmtree(self._spool, ignore_errors=True)
            self._spool = None
        self._objects.clear()
        self._bytes.clear()
        self._by_id.clear()
        self._closed = True

    def __enter__(self) -> "PayloadStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._objects)


def collect_refs(value, out: "set[str] | None" = None) -> "set[str]":
    """All payload digests referenced anywhere inside ``value``."""
    if out is None:
        out = set()
    if isinstance(value, PayloadRef):
        out.add(value.digest)
    elif isinstance(value, dict):
        for item in value.values():
            collect_refs(item, out)
    elif isinstance(value, (list, tuple)):
        for item in value:
            collect_refs(item, out)
    return out


def resolve_refs(value, lookup):
    """``value`` with every :class:`PayloadRef` swapped via ``lookup``.

    Containers are rebuilt only along paths that actually hold refs;
    arrays and other leaves pass through untouched.
    """
    if isinstance(value, PayloadRef):
        return lookup(value)
    if isinstance(value, dict):
        if not collect_refs(value):
            return value
        return {key: resolve_refs(item, lookup) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if not collect_refs(value):
            return value
        resolved = [resolve_refs(item, lookup) for item in value]
        return type(value)(resolved) if isinstance(value, tuple) else resolved
    return value


#: Worker-side memo: (spool root, digest) -> unpickled object.  Pools
#: are created per run, so worker processes (and this cache) die with
#: the run; the serial path never touches it.
_WORKER_CACHE: dict = {}


def load_payload(root: str, digest: str):
    """Unpickle (once per process) a spilled payload."""
    key = (root, digest)
    if key not in _WORKER_CACHE:
        with open(os.path.join(root, f"{digest}.pkl"), "rb") as handle:
            # Worker processes are single-threaded; no lock needed.
            _WORKER_CACHE[key] = pickle.load(handle)  # repro: allow[REP-UNLOCKED-GLOBAL]
    return _WORKER_CACHE[key]


def clear_payload_cache() -> None:
    """Drop the per-process payload memo (benchmarks use this)."""
    # Worker processes are single-threaded; no lock needed.  Dropping
    # the memo only forces a re-read of the same immutable spill file,
    # so results are unchanged (pure read-through cache).
    _WORKER_CACHE.clear()  # repro: allow[REP-UNLOCKED-GLOBAL,REP-PURE-TASK]
