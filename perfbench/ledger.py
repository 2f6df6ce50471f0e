"""Per-layer time ledger, taken by wrapping the program's public entry points.

Tracing is done from the benchmark's own files: :func:`install` replaces
each entry point in :data:`TARGETS` with a wrapper that records a span
(name, start, end, parent, job) into a :class:`Recorder`.  A function is
replaced wherever a loaded ``repro`` module binds it, because that is
where its callers look it up; a method is replaced on its class.  The
ledger reads no ``@profiled`` registry, no ``repro.obs`` tracer and no
health counters, so it keeps working when those are replaced.

A layer's self time is its span time minus the time its child spans
cover; ``unattributed`` is the job's wall time minus every layer's self
time.  A wrapper that never fired is reported as ``None``, never as zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

#: (layer, defining module, attribute) for every wrapped entry point.
#: ``Class.method`` attributes are replaced on the class.
TARGETS: "tuple[tuple[str, str, str], ...]" = (
    ("channels.collect", "repro.channels.sampler", "CsiSampler.collect_session"),
    ("datasets.build", "repro.datasets.builder", "build_dataset"),
    ("datasets.median", "repro.datasets.preprocess", "moving_median"),
    ("phy.svd", "repro.phy.svd", "beamforming_matrices"),
    ("phy.svd", "repro.phy.svd", "dominant_right_singular_pair"),
    ("phy.link", "repro.phy.link", "LinkSimulator.measure_ber"),
    ("phy.link", "repro.phy.link", "LinkSimulator.measure_metrics"),
    ("standard.codec", "repro.standard.givens", "givens_decompose"),
    ("standard.codec", "repro.standard.givens", "givens_reconstruct"),
    ("standard.codec", "repro.standard.quantization", "quantize_angles"),
    ("standard.codec", "repro.standard.quantization", "dequantize_angles"),
    ("nn.optim", "repro.nn.optim", "Adam.step"),
    ("nn.fit", "repro.nn.trainer", "Trainer.fit"),
    ("runtime.executor", "repro.runtime.executor", "run_tasks"),
    ("runtime.store_get", "repro.runtime.cache", "ResultCache.get"),
    ("runtime.store_get", "repro.runtime.checkpoints", "CheckpointStore.get"),
    ("runtime.store_put", "repro.runtime.cache", "ResultCache.put"),
    ("runtime.store_put", "repro.runtime.checkpoints", "CheckpointStore.put"),
    ("runtime.store_flush", "repro.runtime.cache", "ResultCache.flush"),
    ("runtime.store_flush", "repro.runtime.checkpoints", "CheckpointStore.flush"),
    ("runtime.plan", "repro.core.zoo_builder", "plan_training_grid"),
    ("core.zoo", "repro.core.zoo_builder", "ZooBuilder.build"),
    ("core.campaign", "repro.core.network", "NetworkCampaign.run"),
    ("lint.load", "repro.lint.loader", "load_project"),
    ("lint.analysis", "repro.lint.scopes", "ScopeTable.__init__"),
    ("lint.analysis", "repro.lint.callgraph", "CallGraph.__init__"),
)

#: Layer-name prefix of the per-rule lint layers; see :func:`rule_targets`.
RULE_PREFIX = "lint.rule."

#: Layers whose work runs inside pool workers (tasks and their callees).
WORKER_LAYERS = (
    "channels.collect",
    "datasets.build",
    "datasets.median",
    "phy.svd",
    "phy.link",
    "standard.codec",
    "nn.optim",
    "nn.fit",
)

#: Call-count metric -> the layer whose calls it counts.
CALL_METRICS = {
    "channels.collect_calls": "channels.collect",
    "datasets.builds": "datasets.build",
    "phy.link_calls": "phy.link",
    "standard.codec_calls": "standard.codec",
    "nn.optim_steps": "nn.optim",
    "runtime.store_gets": "runtime.store_get",
    "runtime.store_puts": "runtime.store_put",
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: "int | None"
    name: str
    start: float
    end: float
    job: str


class Recorder:
    """Spans, call counts and event counts of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.calls: "dict[str, int]" = {}
        self.counts: "dict[str, int]" = {}
        self.job = ""
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        self.calls[name] = self.calls.get(name, 0) + 1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.job))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, on_call=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(recorder, args, kwargs)
            return recorder.call(name, fn, args, kwargs)

        return wrapper

    def reset(self) -> None:
        self.spans = []
        self.calls = {}
        self.counts = {}


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Each span's duration minus the part of it its children cover."""
    children: "dict[int, list[Span]]" = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.span_id] = (span.end - span.start) - covered
    return out


@dataclass(frozen=True)
class Ledger:
    """Self time per layer under a set of root (job) spans."""

    wall_s: float
    layers: "dict[str, float]"
    unattributed_s: float


def build_ledger(spans: "list[Span]", roots: "list[int]") -> Ledger:
    """Fold every span under ``roots`` into per-layer self times.

    ``wall_s`` is the roots' total duration and ``unattributed_s`` their
    own self time, so ``sum(layers) + unattributed_s == wall_s``.
    """
    selfs = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    root_set = set(roots)
    layers: "dict[str, float]" = {}
    for span in spans:
        if span.span_id in root_set or _root_of(span, by_id) not in root_set:
            continue
        layers[span.name] = layers.get(span.name, 0.0) + selfs[span.span_id]
    wall = sum(by_id[r].end - by_id[r].start for r in roots)
    unattributed = sum(selfs[r] for r in roots)
    return Ledger(wall_s=wall, layers=layers, unattributed_s=unattributed)


def _root_of(span: Span, by_id: "dict[int, Span]") -> int:
    while span.parent is not None and span.parent in by_id:
        span = by_id[span.parent]
    return span.span_id


@dataclass
class Installation:
    """What :func:`install` replaced, and which targets it could not find."""

    layers: "tuple[str, ...]"
    missing: "list[str]"
    _undo: "list[tuple[object, str, object]]"

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _count_tasks(recorder: Recorder, args, kwargs) -> None:
    tasks = args[0] if args else kwargs.get("tasks", ())
    if hasattr(tasks, "__len__"):
        recorder.count("runtime.tasks", len(tasks))


#: Per-call hooks that count work the span alone does not show.
ON_CALL = {("repro.runtime.executor", "run_tasks"): _count_tasks}


def rule_targets() -> "list[tuple[str, str, str]]":
    """One target per registered lint rule: the ``run`` of its class.

    Rules are read from the loaded registry, so a rule that is added,
    folded or deleted changes the targets with it.
    """
    base = sys.modules.get("repro.lint.rules.base")
    if base is None:
        return []
    return [
        (f"{RULE_PREFIX}{code}", type(rule).__module__, f"{type(rule).__qualname__}.run")
        for code, rule in sorted(base.RULES.items())
    ]


def install(recorder: Recorder) -> Installation:
    """Wrap every target whose module is already imported.

    Nothing is imported here: a target in a module the workload never
    loaded cannot fire, and is reported as not fired like any other.
    """
    undo: "list[tuple[object, str, object]]" = []
    missing: "list[str]" = []
    layers = []
    for layer, module_name, attr in (*TARGETS, *rule_targets()):
        layers.append(layer)
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner_name, _, name = attr.rpartition(".")
        try:
            owner = getattr(module, owner_name) if owner_name else module
            original = (
                owner.__dict__[name] if owner_name else getattr(owner, name)
            )
        except (AttributeError, KeyError, TypeError):
            missing.append(f"{module_name}:{attr}")
            continue
        wrapper = recorder.wrap(layer, original, ON_CALL.get((module_name, attr)))
        if owner_name:
            undo.append((owner, name, original))
            setattr(owner, name, wrapper)
            continue
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, key, original))
                    setattr(loaded, key, wrapper)
    return Installation(tuple(dict.fromkeys(layers)), missing, undo)


def enable_worker_dumps(recorder: Recorder, out_dir: Path) -> None:
    """Make forked pool workers write their call counts when they exit.

    Worker spans cannot join the coordinator's timeline, but their call
    counts (for example per-worker dataset rebuilds) can be added up.
    Each worker starts from empty counts and writes
    ``worker-<pid>.json`` into ``out_dir`` when it exits.
    """
    import multiprocessing.util as mp_util

    out_dir.mkdir(parents=True, exist_ok=True)

    def after_fork(rec: Recorder) -> None:
        rec.reset()

        def dump() -> None:
            path = out_dir / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(rec.calls))

        mp_util.Finalize(None, dump, exitpriority=10)

    mp_util.register_after_fork(recorder, after_fork)


def read_worker_dumps(out_dir: Path) -> "tuple[dict[str, int], int]":
    """Call counts summed over every worker dump, and the number of dumps."""
    calls: "dict[str, int]" = {}
    paths = sorted(out_dir.glob("worker-*.json"))
    for path in paths:
        for key, value in json.loads(path.read_text()).items():
            calls[key] = calls.get(key, 0) + value
    return calls, len(paths)


def layer_metrics(
    ledgers: "list[tuple[Ledger, float]]",
    calls: "dict[str, int]",
    counts: "dict[str, int]",
    layers: "tuple[str, ...]",
) -> "dict[str, float | int | None]":
    """Per-layer metrics of one leg; ``None`` marks a wrapper that never fired.

    ``ledgers`` pairs each job's ledger with the factor that turns its
    raw seconds into reference-host seconds.
    """
    totals: "dict[str, float]" = {}
    unattributed = 0.0
    for ledger, factor in ledgers:
        for name, value in ledger.layers.items():
            totals[name] = totals.get(name, 0.0) + value * factor
        unattributed += ledger.unattributed_s * factor
    out: "dict[str, float | int | None]" = {
        f"{layer}_s": totals.get(layer, 0.0) if calls.get(layer) else None
        for layer in layers
    }
    for metric, layer in CALL_METRICS.items():
        out[metric] = calls[layer] if calls.get(layer) else None
    out["runtime.tasks"] = (
        counts.get("runtime.tasks", 0) if calls.get("runtime.executor") else None
    )
    rules = [v for name, v in out.items() if name.startswith(RULE_PREFIX) and v is not None]
    out["lint.rules_s"] = sum(rules) if rules else None
    out["unattributed_s"] = unattributed
    return out


def worker_metric_names(layers: "tuple[str, ...]") -> "set[str]":
    """Metrics of the layers that do their work inside pool workers."""
    names = {f"{layer}_s" for layer in layers if layer in WORKER_LAYERS}
    names.update(m for m, layer in CALL_METRICS.items() if layer in WORKER_LAYERS)
    return names


def write_spans(path: Path, spans: "list[Span]") -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([asdict(span) for span in spans]))
