"""Tests for the packed segment store (crash safety, recovery, compaction).

The commit protocol under test: a record is committed once its CRC
frame is fully on disk; the index snapshot lags the data, never leads
it.  Killing a writer at *any* byte of the protocol must leave a store
that opens clean, serves every committed record, and drops only the
torn tail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.obs.trace import Tracer, install_tracer
from repro.runtime.cache import ResultCache
from repro.runtime.faults import FaultPlan, FaultRule, install
from repro.runtime.knobs import knob_snapshot
from repro.runtime.store import HEADER_SIZE, INDEX_NAME, SegmentStore


@pytest.fixture(autouse=True)
def _no_installed_plan():
    yield
    install(None)


def _child_env() -> dict:
    """Subprocess environment with this checkout's src on PYTHONPATH."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestSegmentStore:
    def test_round_trip_and_overwrite(self, tmp_path):
        store = SegmentStore(tmp_path)
        assert store.get("a") is None
        store.put("a", b"one")
        store.put("b", b"two")
        store.put("a", b"three")  # last writer wins
        assert store.get("a") == b"three"
        assert store.get("b") == b"two"
        assert store.keys() == ["a", "b"]
        assert len(store) == 2

    def test_multi_part_value_lands_with_one_write(self, tmp_path, monkeypatch):
        import numpy as np

        calls = []
        writev = os.writev

        def spy(fd, buffers):
            calls.append(len(buffers))
            return writev(fd, buffers)

        monkeypatch.setattr(os, "writev", spy)
        store = SegmentStore(tmp_path)
        weights = np.arange(6.0).reshape(2, 3)
        store.put("a", b"meta|", weights, b"")
        store.put("b", b"small")
        assert calls == [5, 3]  # header, key, then each part: one call each
        assert store.get("a") == b"meta|" + weights.tobytes()
        # The multi-part CRC equals the CRC over the joined value: the
        # record reopens clean from a full rebuild scan.
        store.close()
        (tmp_path / INDEX_NAME).unlink()
        reopened = SegmentStore(tmp_path)
        assert reopened.get("a") == b"meta|" + weights.tobytes()
        assert reopened.health.truncated == 0

    def test_frame_that_disagrees_with_its_index_is_a_miss(self, tmp_path):
        # A frame claiming a shorter value than its index entry, with a
        # CRC over that shorter value, must not be served truncated.
        import struct
        import zlib

        store = SegmentStore(tmp_path)
        segment = store.put("a", b"abcdef")
        location = store._entries["a"]
        crc = zlib.crc32(b"\x01" + b"a" + b"abc")
        with open(segment, "r+b") as handle:
            handle.seek(location.offset)
            handle.write(struct.pack("<4sBHII", b"RSG1", 1, 1, 3, crc))
        assert store.get("a") is None
        assert store.health.quarantined == 1

    def test_delete_and_contains(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.put("a", b"x")
        assert store.delete("a") is True
        assert store.delete("a") is False
        assert store.get("a") is None
        assert store._entries["a"] is None  # tombstoned, still indexed
        assert store.keys() == []
        store.put("a", b"y")  # a re-put revives the key
        assert store.get("a") == b"y"

    def test_missing_root_reads_are_cheap_noops(self, tmp_path):
        store = SegmentStore(tmp_path / "never-written")
        assert store.get("a") is None
        assert store.keys() == []
        assert len(store) == 0
        store.flush()
        assert not (tmp_path / "never-written").exists()

    def test_segments_roll_at_the_size_bound(self, tmp_path):
        store = SegmentStore(tmp_path, segment_bytes=128)
        for i in range(20):
            store.put(f"k{i:02d}", b"v" * 40)
        assert len(list((tmp_path / "segments").glob("*.seg"))) > 1
        for i in range(20):
            assert store.get(f"k{i:02d}") == b"v" * 40
        reopened = SegmentStore(tmp_path, segment_bytes=128)
        assert reopened.keys() == store.keys()

    def test_oversized_key_rejected(self, tmp_path):
        store = SegmentStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.put("k" * 70000, b"v")

    def test_value_is_read_into_the_callers_buffer(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.put("a", b"meta|", b"x" * 5000)
        sizes = []

        def alloc(n):
            sizes.append(n)
            return bytearray(n)

        value = store.get("a", alloc=alloc)
        assert sizes == [5005]
        assert isinstance(value, bytearray)
        assert value == b"meta|" + b"x" * 5000
        # Without an allocator the value is plain bytes, as before.
        assert type(store.get("a")) is bytes
        assert store.get("missing", alloc=alloc) is None
        assert sizes == [5005]

    def test_caller_buffer_with_a_bad_crc_is_quarantined(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.put("a", b"payload", corrupt=True)
        assert store.get("a", alloc=bytearray) is None
        assert store.health.quarantined == 1
        assert store.keys() == []

    def test_record_bytes_come_from_the_index(self, tmp_path):
        store = SegmentStore(tmp_path / "never-written")
        assert store.record_bytes("a") == 0
        store = SegmentStore(tmp_path)
        store.put("a", b"abc", b"defg")
        # Header, the one-byte key, then the seven value bytes.
        assert store.record_bytes("a") == HEADER_SIZE + 1 + 7
        store.delete("a")
        assert store.record_bytes("a") == 0
        assert store.record_bytes("never-put") == 0


class TestThreadedReads:
    def test_concurrent_quarantines_count_exactly(self, tmp_path):
        # Threads sharing one handle each quarantine a different torn
        # record; no count may be lost, on the store's health or in the
        # telemetry registry.
        n_threads = 8
        store = SegmentStore(tmp_path)
        keys = [f"k{i}" for i in range(n_threads)]
        for key in keys:
            store.put(key, key.encode() * 100, corrupt=True)
        base = metrics.snapshot()
        barrier = threading.Barrier(n_threads)
        missed = []

        def read(key):
            barrier.wait(timeout=60)
            missed.append(store.get(key) is None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(key,)) for key in keys]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert missed == [True] * n_threads
        assert store.health.quarantined == n_threads
        assert metrics.since(base)["counters"]["store.quarantined"] == n_threads
        assert store.keys() == []

    def test_concurrent_reads_serve_every_value(self, tmp_path):
        store = SegmentStore(tmp_path)
        values = {f"k{i}": bytes([i]) * (10000 + i) for i in range(6)}
        for key, value in values.items():
            store.put(key, value)
        reopened = SegmentStore(tmp_path)
        got = {}

        def read(key):
            for _ in range(20):
                got[key] = bytes(reopened.get(key, alloc=bytearray))

        threads = [threading.Thread(target=read, args=(key,)) for key in values]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert got == values
        assert reopened.health.quarantined == 0


class TestRecovery:
    def test_reopen_without_flush_recovers_everything(self, tmp_path):
        # Crash before any index publish: the snapshot never existed.
        store = SegmentStore(tmp_path)
        for i in range(5):
            store.put(f"k{i}", f"v{i}".encode())
        assert not (tmp_path / INDEX_NAME).exists()
        reopened = SegmentStore(tmp_path)
        assert reopened.keys() == sorted(f"k{i}" for i in range(5))
        assert reopened.get("k3") == b"v3"
        assert reopened.health.recovered == 5
        assert reopened.health.truncated == 0

    def test_stale_snapshot_recovers_the_tail(self, tmp_path):
        # Crash after a publish but before the next one: the index
        # lags; the scan picks up exactly the unsnapshotted records.
        store = SegmentStore(tmp_path)
        store.put("a", b"1")
        store.flush()
        store.put("b", b"2")
        store.put("a", b"3")
        reopened = SegmentStore(tmp_path)
        assert reopened.get("a") == b"3"
        assert reopened.get("b") == b"2"
        assert reopened.health.recovered == 2

    def test_lost_index_triggers_full_rebuild(self, tmp_path):
        store = SegmentStore(tmp_path)
        for i in range(4):
            store.put(f"k{i}", f"v{i}".encode())
        store.delete("k0")
        store.flush()
        (tmp_path / INDEX_NAME).unlink()
        reopened = SegmentStore(tmp_path)
        assert reopened.keys() == ["k1", "k2", "k3"]
        assert reopened.get("k0") is None
        assert reopened.get("k2") == b"v2"

    def test_garbled_index_triggers_full_rebuild(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.put("a", b"1")
        store.flush()
        (tmp_path / INDEX_NAME).write_text("{half a snapsh")
        reopened = SegmentStore(tmp_path)
        assert reopened.get("a") == b"1"

    def test_crash_at_every_byte_of_an_append(self, tmp_path):
        # Commit-protocol sweep: kill the writer at *every* byte of the
        # third record's append.  However much of the frame landed, the
        # reopened store must serve both committed records and never a
        # partial third.
        store = SegmentStore(tmp_path)
        store.put("a", b"alpha")
        segment = store.put("b", b"beta")
        committed = segment.stat().st_size
        store.put("c", b"gamma")
        full = segment.stat().st_size
        store.close()
        pristine = segment.read_bytes()
        for cut in range(committed, full):
            shutil.rmtree(tmp_path / "scratch", ignore_errors=True)
            scratch = tmp_path / "scratch"
            scratch.mkdir()
            (scratch / "segments").mkdir()
            seg_copy = scratch / "segments" / segment.name
            seg_copy.write_bytes(pristine[:cut])
            reopened = SegmentStore(scratch)
            assert reopened.get("a") == b"alpha"
            assert reopened.get("b") == b"beta"
            assert reopened.get("c") is None, f"partial record served at {cut}"
            if cut > committed:
                assert reopened.health.truncated == 1
            assert seg_copy.stat().st_size == committed  # tail dropped
            reopened.close()

    def test_mid_segment_bit_rot_is_skipped_not_served(self, tmp_path):
        # A CRC failure *under* later valid records is bit rot, not a
        # torn tail: the scan must skip it and keep the records after.
        store = SegmentStore(tmp_path)
        store.put("a", b"alpha")
        segment = store.put("b", b"beta")
        rot_end = segment.stat().st_size
        store.put("c", b"gamma")
        store.close()
        with open(segment, "r+b") as handle:
            handle.seek(rot_end - 2)
            handle.write(b"\xff\xff")
        (tmp_path / INDEX_NAME).unlink()
        reopened = SegmentStore(tmp_path)
        assert reopened.get("a") == b"alpha"
        assert reopened.get("b") is None
        assert reopened.get("c") == b"gamma"
        assert reopened.health.truncated == 0

    def test_tombstones_survive_reopen(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.put("a", b"1")
        store.quarantine("a")
        assert store.health.quarantined == 1
        reopened = SegmentStore(tmp_path)
        assert reopened.get("a") is None
        assert reopened._entries["a"] is None  # the tombstone, not a gap

    def test_worker_killed_mid_run_loses_nothing_committed(self, tmp_path):
        # A real os._exit (no flush, no close, no atexit) after five
        # puts: every one of them must be served on the next open.
        script = textwrap.dedent(
            """
            import os, sys
            from repro.runtime.store import SegmentStore
            store = SegmentStore(sys.argv[1])
            for i in range(5):
                store.put(f"k{i}", f"v{i}".encode())
            os._exit(1)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=_child_env(),
            timeout=60,
        )
        assert proc.returncode == 1
        store = SegmentStore(tmp_path)
        assert store.keys() == sorted(f"k{i}" for i in range(5))
        assert store.get("k4") == b"v4"


class TestCompaction:
    def test_compact_drops_dead_records_and_tombstones(self, tmp_path):
        store = SegmentStore(tmp_path)
        for i in range(6):
            store.put(f"k{i}", f"v{i}".encode())
        store.put("k0", b"v0-new")
        store.delete("k5")
        dropped = store.compact(["k0", "k1", "k2"])
        assert dropped == 2  # k3, k4 (k5 was already tombstoned)
        assert store.keys() == ["k0", "k1", "k2"]
        assert store.get("k0") == b"v0-new"
        assert store.health.compactions == 1
        # Exactly one fresh generation remains on disk.
        names = sorted(p.name for p in (tmp_path / "segments").iterdir())
        assert all(name.startswith("seg-00000001-") for name in names)
        reopened = SegmentStore(tmp_path)
        assert reopened.keys() == ["k0", "k1", "k2"]
        assert reopened.get("k2") == b"v2"

    def test_crashed_compaction_orphans_are_discarded(self, tmp_path):
        # A compactor died after writing new-generation segments but
        # before publishing the index: the orphans must be discarded
        # and the indexed generation served untouched.
        store = SegmentStore(tmp_path)
        store.put("a", b"1")
        store.put("b", b"2")
        store.flush()
        orphan = tmp_path / "segments" / "seg-00000001-00000000.seg"
        orphan.write_bytes(b"half-written compaction output")
        reopened = SegmentStore(tmp_path)
        assert reopened.get("a") == b"1"
        assert reopened.get("b") == b"2"
        assert not orphan.exists()

    def test_index_torn_during_compaction_still_recovers(self, tmp_path):
        # Crash *during* the publish itself: the snapshot lands
        # unparseable, but the new generation's segments were fsync'd
        # first, so the rebuild scan serves every live record.
        store = SegmentStore(tmp_path, label="cache")
        for i in range(4):
            store.put(f"k{i}", f"v{i}".encode())
        install(FaultPlan([FaultRule(kind="torn", match="index:cache")]))
        store.compact(["k0", "k1"])
        install(None)
        store.close()
        reopened = SegmentStore(tmp_path, label="cache")
        assert reopened.keys() == ["k0", "k1"]
        assert reopened.get("k1") == b"v1"

    def test_corrupt_record_found_by_compaction_is_traced(self, tmp_path):
        # Compaction drops a bit-rotted live record instead of copying
        # it forward: that quarantine must reach the trace exactly as
        # one found by a get does.
        cache = ResultCache(tmp_path)
        segment = cache.put("k1", {"spec": 1}, {"ber": 0.5})
        location = cache._store._entries["k1"]
        with open(segment, "r+b") as handle:
            handle.seek(location.offset + location.length - 1)
            handle.write(b"\xff")
        tracer = Tracer(name="prune")
        previous = install_tracer(tracer)
        try:
            assert cache.prune(["k1"]) == 0
        finally:
            install_tracer(previous)
        assert cache.health.quarantined == 1
        assert tracer.metrics()["counters"]["store.quarantined"] == 1
        events = [span for span in tracer.spans if span.name == "quarantine"]
        assert [span.attrs for span in events] == [
            {"store": "cache", "key": "k1"}
        ]
        assert cache.keys() == []


class TestFaultLabels:
    def test_segment_label_tears_the_append(self, tmp_path):
        install(
            FaultPlan(
                [
                    FaultRule(
                        kind="torn",
                        match="segment:seg-00000000-00000000.seg",
                    )
                ]
            )
        )
        store = SegmentStore(tmp_path)
        store.put("a", b"alpha")  # lands as a torn, unindexed tail
        assert store.get("a") is None
        assert store.keys() == []
        store.put("b", b"beta")  # rolled to a fresh segment: clean
        assert store.get("b") == b"beta"
        install(None)
        reopened = SegmentStore(tmp_path)
        assert reopened.get("a") is None
        assert reopened.get("b") == b"beta"
        assert reopened.health.truncated == 1

    def test_index_label_tears_the_snapshot(self, tmp_path):
        store = SegmentStore(tmp_path, label="checkpoint")
        store.put("a", b"1")
        install(FaultPlan([FaultRule(kind="torn", match="index:checkpoint")]))
        store.flush()  # snapshot lands unparseable
        install(None)
        reopened = SegmentStore(tmp_path, label="checkpoint")
        assert reopened.get("a") == b"1"
        assert reopened.health.recovered == 1  # rebuilt, not snapshot-read

    def test_env_grammar_reaches_the_store(self, tmp_path, monkeypatch):
        from repro.runtime.faults import FAULTS_ENV, _parse_cached

        _parse_cached.cache_clear()
        monkeypatch.setenv(FAULTS_ENV, "torn,segment:*,count=1")
        store = SegmentStore(tmp_path)
        store.put("a", b"alpha")
        assert store.get("a") is None
        monkeypatch.delenv(FAULTS_ENV)
        _parse_cached.cache_clear()


class TestSnapshotPublish:
    """``flush``/``close`` publish the index only when it changed."""

    @staticmethod
    def _stamp(root):
        """Identity of the published ``index.json``: a rewrite renames a
        fresh file into place, so its inode (and mtime) change."""
        stat = (root / INDEX_NAME).stat()
        return stat.st_ino, stat.st_mtime_ns

    @staticmethod
    def _indexed(root):
        return sorted(json.loads((root / INDEX_NAME).read_text())["entries"])

    def _filled(self, root):
        store = SegmentStore(root)
        store.put("a", b"1")
        store.put("b", b"2")
        store.close()
        return self._stamp(root)

    def test_read_only_replay_leaves_the_index_untouched(self, tmp_path):
        published = self._filled(tmp_path)
        replay = SegmentStore(tmp_path)
        assert replay.get("a") == b"1"
        assert replay.keys() == ["a", "b"]
        replay.flush()
        replay.close()
        assert self._stamp(tmp_path) == published

    def test_flush_publishes_after_a_put(self, tmp_path):
        published = self._filled(tmp_path)
        store = SegmentStore(tmp_path)
        store.put("c", b"3")
        store.flush()
        assert self._stamp(tmp_path) != published
        assert self._indexed(tmp_path) == ["a", "b", "c"]

    def test_flush_publishes_after_a_recovery_scan(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.put("a", b"1")
        store.flush()
        store.put("b", b"2")  # the writer dies before its next publish
        published = self._stamp(tmp_path)
        recovered = SegmentStore(tmp_path)
        assert recovered.get("b") == b"2"
        recovered.flush()
        assert self._stamp(tmp_path) != published
        assert self._indexed(tmp_path) == ["a", "b"]

    def test_flush_publishes_after_absorbing_another_writers_append(
        self, tmp_path
    ):
        self._filled(tmp_path)
        reader = SegmentStore(tmp_path)
        assert reader.get("a") == b"1"
        SegmentStore(tmp_path).put("c", b"3")  # another writer, unpublished
        published = self._stamp(tmp_path)
        reader.flush()
        assert self._stamp(tmp_path) != published
        assert self._indexed(tmp_path) == ["a", "b", "c"]

    def test_flush_publishes_a_store_that_never_published(self, tmp_path):
        SegmentStore(tmp_path).put("a", b"1")  # below the snapshot cadence
        assert not (tmp_path / INDEX_NAME).exists()
        rebuilt = SegmentStore(tmp_path)
        assert rebuilt.get("a") == b"1"
        rebuilt.flush()
        assert self._indexed(tmp_path) == ["a"]


class TestConcurrentWriters:
    def test_two_processes_interleave_without_loss(self, tmp_path):
        # Two writers race 40 puts each onto one root.  On reopen the
        # snapshot-driven view and a full rebuild scan must agree, and
        # every record from both writers must be present and intact.
        script = textwrap.dedent(
            """
            import sys
            from repro.runtime.store import SegmentStore
            root, tag = sys.argv[1], sys.argv[2]
            store = SegmentStore(root, segment_bytes=2048)
            for i in range(40):
                store.put(f"{tag}-{i:02d}", f"value-{tag}-{i:02d}".encode())
            store.close()
            """
        )
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), tag],
                env=_child_env(),
            )
            for tag in ("a", "b")
        ]
        for child in children:
            assert child.wait(timeout=120) == 0
        expected = sorted(
            f"{tag}-{i:02d}" for tag in ("a", "b") for i in range(40)
        )
        from_snapshot = SegmentStore(tmp_path, segment_bytes=2048)
        assert from_snapshot.keys() == expected
        values = {key: from_snapshot.get(key) for key in expected}
        assert all(
            values[key] == f"value-{key}".encode() for key in expected
        )
        from_snapshot.close()
        # The index must agree with a full segment scan.
        (tmp_path / INDEX_NAME).unlink()
        rebuilt = SegmentStore(tmp_path, segment_bytes=2048)
        assert rebuilt.keys() == expected
        assert {key: rebuilt.get(key) for key in expected} == values
        assert rebuilt.health.quarantined == 0
        assert rebuilt.health.truncated == 0

    def test_single_root_shared_by_two_handles_in_process(self, tmp_path):
        # Same-process aliasing (two engine instances on one cache
        # root): appends interleave through the catch-up path.
        first = SegmentStore(tmp_path)
        second = SegmentStore(tmp_path)
        first.put("a", b"1")
        second.put("b", b"2")
        first.put("c", b"3")
        first.flush()
        second.refresh()
        assert second.get("a") == b"1"
        assert second.get("c") == b"3"
        assert SegmentStore(tmp_path).keys() == ["a", "b", "c"]


class TestKnobs:
    """The ``segment_bytes``/``snapshot_every`` constructor arguments."""

    def test_segment_bytes_env(self, tmp_path, monkeypatch):
        # The roll size is the constant DEFAULT_SEGMENT_BYTES: only the
        # constructor argument overrides it, never the retired
        # $REPRO_RUNTIME_STORE_SEGMENT_BYTES.
        retired = "REPRO_RUNTIME_STORE_SEGMENT_BYTES"
        monkeypatch.setenv(retired, "4096")
        assert retired not in knob_snapshot()
        assert SegmentStore(tmp_path).segment_bytes == 64 * 1024 * 1024
        assert SegmentStore(tmp_path, segment_bytes=4096).segment_bytes == 4096
        with pytest.raises(ConfigurationError):
            SegmentStore(tmp_path, segment_bytes=0)

    def test_snapshot_every_env(self, tmp_path, monkeypatch):
        # Same for the snapshot cadence and the retired
        # $REPRO_RUNTIME_STORE_SNAPSHOT_EVERY.
        retired = "REPRO_RUNTIME_STORE_SNAPSHOT_EVERY"
        monkeypatch.setenv(retired, "7")
        assert retired not in knob_snapshot()
        assert SegmentStore(tmp_path).snapshot_every == 4096
        assert SegmentStore(tmp_path, snapshot_every=7).snapshot_every == 7
        with pytest.raises(ConfigurationError):
            SegmentStore(tmp_path, snapshot_every=-1)

    def test_snapshot_cadence_bounds_recovery(self, tmp_path):
        store = SegmentStore(tmp_path, snapshot_every=3)
        for i in range(7):
            store.put(f"k{i}", b"v")
        # Two snapshots happened (after puts 3 and 6); only the one
        # post-snapshot record needs recovery on reopen.
        reopened = SegmentStore(tmp_path, snapshot_every=3)
        assert len(reopened) == 7
        assert reopened.health.recovered == 1


class TestWarmRerunAfterRecovery:
    def _scenario(self):
        from repro.config import SMOKE
        from repro.runtime import (
            Scenario,
            dot11,
            fidelity_to_dict,
            ideal,
            point,
        )

        return Scenario(
            name="store-recovery-unit",
            title="warm rerun after store recovery",
            fidelity=fidelity_to_dict(SMOKE),
            points=(
                point(
                    "802.11", "D1", dot11(), link={"snr_db": 20.0},
                    ber_samples=6,
                ),
                point(
                    "ideal", "D1", ideal(), link={"snr_db": 20.0},
                    ber_samples=6,
                ),
            ),
        )

    def test_warm_rerun_after_index_loss_is_byte_identical(self, tmp_path):
        # Acceptance: crash before the index publish, reopen, and the
        # warm rerun is byte-identical with ZERO recomputed points.
        from repro.runtime.engine import ExperimentEngine

        scenario = self._scenario()
        cold = ExperimentEngine(cache=ResultCache(tmp_path)).run(scenario)
        (tmp_path / INDEX_NAME).unlink()  # the "crash"
        warm = ExperimentEngine(cache=ResultCache(tmp_path)).run(scenario)
        assert warm.n_executed == 0  # zero link simulations
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )

    def test_warm_rerun_after_torn_tail_recomputes_only_the_tail(
        self, tmp_path
    ):
        from repro.runtime.engine import ExperimentEngine

        scenario = self._scenario()
        cache = ResultCache(tmp_path)
        cold = ExperimentEngine(cache=cache).run(scenario)
        # Tear the last committed record in half and lose the index —
        # the worst crash an appending writer can leave behind.
        (tmp_path / INDEX_NAME).unlink()
        (segment,) = (tmp_path / "segments").glob("*.seg")
        locations = sorted(
            loc for loc in cache._store._entries.values() if loc is not None
        )
        last = locations[-1]
        with open(segment, "r+b") as handle:
            handle.truncate(last.offset + last.length // 2)
        recovered = ResultCache(tmp_path)
        warm = ExperimentEngine(cache=recovered).run(scenario)
        assert recovered.health.truncated == 1
        assert warm.n_executed == 1  # only the torn point recomputed
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )
