"""One fresh-interpreter leg of a benchmark run.

    python3 perfbench/leg.py '<json config>'

``run.py`` starts every leg in a new interpreter with the runtime knobs
unset, and reads the leg's report from ``config["out"]``.  A leg first
times its own set-up (imports, spec, empty stores), then, by ``mode``:

``jobs``   one cold job from empty stores and one batch of warm replays;
``trace``  the job untraced and traced, at 1 and ``nproc`` workers, and
           the per-layer ledger;
``lint``   the ``lint-tree`` job once, traced: the ``lint`` layer's ledger.

A run is several ``jobs`` legs rather than one long one: on a shared host
a whole process can run several per cent slow in ways the probe does not
see, and a median over fresh processes evens that out.
"""

import gc
import json
import multiprocessing
import os
import resource
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import ledger as ledger_mod  # noqa: E402
from perfbench.probe import SpeedProbe  # noqa: E402
from perfbench.workloads import WORKLOADS, artifact_digest  # noqa: E402

#: A warm sample replays the job until its replays add up to this much
#: wall time, so no warm sample is a single sub-second event.
WARM_BATCH_S = 1.0


class Checks:
    """Units attempted and failed, and every problem seen, over a leg."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.digests: "set[str]" = set()

    def cold(self, workload, result) -> str:
        units = workload.units(result)
        problems = workload.job_problems(result)
        self.attempted += len(units)
        self.failed += len(units) if problems else sum(1 for _, ok in units if not ok)
        self.problems += problems
        self.problems += [f"unit failed its value check: {u}" for u, ok in units if not ok][:5]
        digest = artifact_digest(workload.artifact(result))
        if self.digests and digest not in self.digests:
            self.problems.append("cold runs of one seed gave different artifacts")
        self.digests.add(digest)
        return digest

    def warm(self, workload, result, cold_digest: str, n_units: int) -> None:
        problems = []
        if workload.executed(result) != 0:
            problems.append(f"warm replay executed {workload.executed(result)} units")
        if artifact_digest(workload.artifact(result)) != cold_digest:
            problems.append("warm replay artifact differs from the cold run's")
        if problems:
            self.failed = min(self.attempted, self.failed + n_units)
            self.problems += problems


def _clear_children() -> None:
    """Wait for every pool worker this process started to exit."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def _bytes_under(path: Path) -> "int | None":
    """Bytes on disk under ``path``; ``None`` when the job wrote nothing."""
    sizes = [p.stat().st_size for p in path.rglob("*") if p.is_file()]
    return sum(sizes) if sizes else None


class Leg:
    def __init__(self, config: dict) -> None:
        self.config = config
        self.probe = SpeedProbe(config["reference_s"])
        self.work = Path(config["work_dir"])
        self.checks = Checks()
        self._pairs = 0

    def setup(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        self.probe.start()
        began = time.perf_counter()
        cfg = self.config
        self.workload = WORKLOADS[cfg["workload"]](cfg["size"], cfg["seed"], ROOT)
        self.workload.imports()
        imported = time.perf_counter()
        self.workload.prepare()
        self.workload.open_stores(self.work / "setup-stores")
        timing = self.probe.stop()
        # Timing starts after interpreter start-up and the leg's own few
        # stdlib imports: fixed costs no program change can move.
        return {**asdict(timing), "import_s": (imported - began) * timing.factor}

    def _run(self, stores: dict, n_workers: int, recorder, label: str):
        """Run the job once; under a recorder, inside a root span."""
        if recorder is None:
            return self.workload.run(stores, n_workers), None
        recorder.job = label
        result = recorder.call("job", self.workload.run, (stores, n_workers), {})
        return result, recorder.spans[-1].span_id

    def pair(self, n_workers: int, recorder=None, label="", warm_min_s=WARM_BATCH_S):
        """A cold job from empty stores, then a batch of warm replays over them.

        The probe runs across the whole warm batch, store opening and
        checks included, so replays shorter than one probe interval are
        still scaled by a well-sampled speed.
        """
        store_dir = self.work / f"stores-{self._pairs}"
        self._pairs += 1
        self.workload.reset()
        stores = self.workload.open_stores(store_dir)
        # Collect garbage outside the timed region, so each job starts
        # from the same heap and the same collector state.
        gc.collect()
        self.probe.start()
        cold, cold_root = self._run(stores, n_workers, recorder, f"{label}cold")
        cold_t = self.probe.stop()
        digest = self.checks.cold(self.workload, cold)
        n_units = len(self.workload.units(cold))
        counts = {"runtime.store_bytes": _bytes_under(store_dir)}
        del cold
        gc.collect()
        warm_roots, raw, replays = [], 0.0, 0
        self.probe.start()
        while replays == 0 or raw < warm_min_s:
            self.workload.reset()
            stores = self.workload.open_stores(store_dir)
            began = time.perf_counter()
            warm, root = self._run(stores, n_workers, recorder, f"{label}warm")
            raw += time.perf_counter() - began
            replays += 1
            self.checks.warm(self.workload, warm, digest, n_units)
            del warm
            gc.collect()
            warm_roots.append(root)
        batch = self.probe.stop()
        shutil.rmtree(store_dir, ignore_errors=True)
        return {
            "cold": asdict(cold_t),
            "warm": {
                "wall_s": raw / replays,
                "reference_s": raw * batch.factor / replays,
                "probe_s": batch.probe_s,
                "n_probes": batch.n_probes,
                "replays": replays,
            },
            "digest": digest,
            "counts": counts,
            "roots": [(cold_root, cold_t.factor)] + [(r, batch.factor) for r in warm_roots],
        }

    def trace(self) -> dict:
        """Untraced and traced pairs at 1 and ``nproc`` workers, and the ledger."""
        cfg = self.config
        workers, nproc = cfg["workers"], cfg["nproc"]
        sizes = sorted({1, nproc})
        untraced = {n: self.pair(n, warm_min_s=0.0) for n in sizes}

        recorder = ledger_mod.Recorder()
        installation = ledger_mod.install(recorder)
        traced, calls, worker_calls, n_dumps, spans = {}, {}, {}, 0, []
        try:
            for n in sizes:
                if n > 1:
                    dumps = self.work / "worker-dumps"
                    ledger_mod.enable_worker_dumps(recorder, dumps)
                recorder.reset()
                traced[n] = self.pair(n, recorder, f"{n}w-", warm_min_s=0.0)
                traced[n]["ledger"] = self._ledger(recorder, traced[n]["roots"])
                calls[n] = dict(recorder.calls)
                traced[n]["events"] = dict(recorder.counts)
                spans += recorder.spans
                if n > 1:
                    _clear_children()
                    worker_calls, n_dumps = ledger_mod.read_worker_dumps(dumps)
        finally:
            installation.uninstall()
        ledger_mod.write_spans(Path(cfg["spans_out"]), spans)

        digests = {p["digest"] for p in (*untraced.values(), *traced.values())}
        if len(digests) != 1:
            self.checks.problems.append("legs at 1 and nproc workers gave different artifacts")

        def metrics_of(n):
            return ledger_mod.layer_metrics(
                traced[n]["ledger"], calls[n], traced[n]["events"], installation.layers
            )

        metrics = metrics_of(1)
        if workers > 1:
            # Worker-side layers run in pool workers, out of the
            # coordinator's sight: take them from the 1-worker leg and
            # everything else from the coordinator of the nproc leg.
            coordinator = metrics_of(workers)
            worker_side = ledger_mod.worker_metric_names(installation.layers)
            metrics = {
                name: (metrics if name in worker_side else coordinator).get(name)
                for name in {*metrics, *coordinator}
            }
        if nproc > 1:
            metrics["runtime.pool_speedup"] = (
                untraced[1]["cold"]["reference_s"] / untraced[nproc]["cold"]["reference_s"]
            )
            builds = calls[nproc].get("datasets.build", 0) + worker_calls.get("datasets.build", 0)
            metrics["datasets.builds_nproc"] = builds if builds or n_dumps else None
        metrics["runtime.store_bytes"] = traced[1]["counts"]["runtime.store_bytes"]
        metrics["trace.overhead_ratio"] = (
            traced[workers]["cold"]["reference_s"] / untraced[workers]["cold"]["reference_s"]
        )
        return {
            "per_layer": metrics,
            "missing_targets": installation.missing,
            "untraced": {str(k): v["cold"] for k, v in untraced.items()},
            "traced": {str(k): v["cold"] for k, v in traced.items()},
        }

    def lint(self) -> dict:
        """The lint job once, traced, and the ``lint.*`` layer metrics."""
        recorder = ledger_mod.Recorder()
        installation = ledger_mod.install(recorder)
        gc.collect()
        try:
            self.probe.start()
            result, root = self._run({}, self.config["workers"], recorder, "lint")
            timing = self.probe.stop()
        finally:
            installation.uninstall()
        self.checks.cold(self.workload, result)
        job = ledger_mod.build_ledger(recorder.spans, [root])
        metrics = ledger_mod.layer_metrics(
            [(job, timing.factor)], recorder.calls, recorder.counts, installation.layers
        )
        per_layer = {name: value for name, value in metrics.items() if name.startswith("lint.")}
        per_layer.update(self.workload.counts(result))
        return {
            "per_layer": per_layer,
            "timing": asdict(timing),
            "unattributed_s": job.unattributed_s * timing.factor,
            "missing_targets": installation.missing,
        }

    @staticmethod
    def _ledger(recorder, roots):
        return [
            (ledger_mod.build_ledger(recorder.spans, [root]), factor)
            for root, factor in roots
        ]


def environment() -> dict:
    """The run's environment: cores, BLAS, versions, runtime knobs."""
    import platform

    import numpy as np
    from repro.runtime.knobs import knob_snapshot

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            key: os.environ[key]
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "knobs": knob_snapshot(),
    }


def _blas_threads() -> "int | None":
    """OpenBLAS's thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: "list[str]") -> int:
    config = json.loads(argv[1])
    leg = Leg(config)
    report = {"setup": leg.setup()}
    try:
        if config["mode"] == "jobs":
            pair = leg.pair(config["workers"])
            report.update(cold=pair["cold"], warm=pair["warm"])
        elif config["mode"] == "lint":
            report["lint"] = leg.lint()
        else:
            report["trace"] = leg.trace()
    finally:
        _clear_children()
        shutil.rmtree(leg.work, ignore_errors=True)
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report.update(
        attempted=leg.checks.attempted,
        failed=leg.checks.failed,
        problems=leg.checks.problems,
        digests=sorted(leg.checks.digests),
        peak_rss_mb=usage / 1024.0,
        environment=environment(),
    )
    Path(config["out"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
