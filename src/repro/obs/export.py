"""Trace exporters: JSONL event log, Chrome trace-event JSON, summary.

One traced run exports three artifacts into its trace directory:

``trace.jsonl``
    The source of truth: one JSON object per line.  The first line is
    a ``meta`` record (schema version, run name, coordinator pid), the
    following lines are ``span`` records (see
    :meth:`repro.obs.trace.Span.to_dict`) and one ``metrics`` record:
    the ``counters`` and ``timers`` the registry of
    :mod:`repro.obs.metrics` gained while the tracer existed.
    :func:`validate_events` checks every line against
    :data:`EVENT_SCHEMA`; the CI smoke step runs it on a fresh trace.

``chrome_trace.json``
    The same spans in Chrome trace-event format — load it in Perfetto
    or ``chrome://tracing``.  Processes are mapped to stable lanes
    (coordinator = lane 0, workers in ascending pid order) with ``M``
    metadata rows naming them; span events are complete (``"ph": "X"``)
    events carrying the span id/parent in ``args``.

``summary.txt``
    The text report (critical path, top-k slowest tasks, cache stats)
    also available via ``python -m repro.obs report <trace>``.

Span records never carry result values — only names, ids, timestamps,
and small scalar attributes — so exporting a trace cannot perturb the
byte-deterministic result artifacts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = [
    "EVENT_SCHEMA",
    "JSONL_NAME",
    "CHROME_NAME",
    "SUMMARY_NAME",
    "TRACE_SCHEMA_VERSION",
    "chrome_trace_payload",
    "validate_events",
    "write_trace",
]

#: Bump when the trace event layout changes incompatibly.
TRACE_SCHEMA_VERSION = 2

JSONL_NAME = "trace.jsonl"
CHROME_NAME = "chrome_trace.json"
SUMMARY_NAME = "summary.txt"

#: Required keys (and their types) per event ``type``.  ``validate_events``
#: checks each JSONL line against this — it is the schema the CI smoke
#: step enforces on freshly written traces.
EVENT_SCHEMA: "dict[str, dict[str, type | tuple]]" = {
    "meta": {
        "schema_version": int,
        "name": str,
        "pid": int,
    },
    "span": {
        "id": str,
        "parent": str,
        "name": str,
        "cat": str,
        "start_s": (int, float),
        "end_s": (int, float),
        "pid": int,
        "attrs": dict,
    },
    "metrics": {
        "counters": dict,
        "timers": dict,
    },
}


def meta_record(tracer) -> dict:
    return {
        "type": "meta",
        "schema_version": TRACE_SCHEMA_VERSION,
        "name": tracer.name,
        "pid": tracer.pid,
    }


def trace_events(tracer) -> "list[dict]":
    """All JSONL records for one tracer: meta, spans, metrics."""
    events = [meta_record(tracer)]
    events.extend(tracer.export_spans())
    events.append({"type": "metrics", **tracer.metrics()})
    return events


def validate_events(events) -> "list[str]":
    """Schema errors for a sequence of event dicts (empty = valid)."""
    errors: "list[str]" = []
    saw_meta = False
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {index}: not an object")
            continue
        kind = event.get("type")
        schema = EVENT_SCHEMA.get(kind)
        if schema is None:
            errors.append(f"event {index}: unknown type {kind!r}")
            continue
        if kind == "meta":
            saw_meta = True
            if event.get("schema_version") != TRACE_SCHEMA_VERSION:
                errors.append(
                    f"event {index}: schema_version "
                    f"{event.get('schema_version')!r} != {TRACE_SCHEMA_VERSION}"
                )
        for key, expected in schema.items():
            if key not in event:
                errors.append(f"event {index} ({kind}): missing key {key!r}")
            elif not isinstance(event[key], expected):
                errors.append(
                    f"event {index} ({kind}): key {key!r} has type "
                    f"{type(event[key]).__name__}"
                )
        if kind == "span":
            start = event.get("start_s")
            end = event.get("end_s")
            if (
                isinstance(start, (int, float))
                and isinstance(end, (int, float))
                and end < start
            ):
                errors.append(f"event {index} (span): end_s < start_s")
    if not saw_meta:
        errors.append("no meta record")
    return errors


def _lane_map(tracer) -> "dict[int, int]":
    """Stable pid -> display-lane map: coordinator 0, workers by pid."""
    workers = sorted(
        {span.pid for span in tracer.spans if span.pid != tracer.pid}
    )
    lanes = {tracer.pid: 0}
    for index, pid in enumerate(workers):
        lanes[pid] = index + 1
    return lanes


def chrome_trace_payload(tracer) -> dict:
    """The tracer's spans as a Chrome trace-event JSON payload.

    Structure (event names, ids, parents, lane layout) is content-
    derived; only timestamps and the raw ``pid`` args vary between
    runs of the same configuration.
    """
    lanes = _lane_map(tracer)
    events = []
    for pid, lane in sorted(lanes.items(), key=lambda item: item[1]):
        label = "coordinator" if lane == 0 else f"worker-{lane}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": lane,
                "tid": 0,
                "args": {"name": label},
            }
        )
    spans = sorted(
        tracer.spans, key=lambda span: (span.start_s, span.span_id)
    )
    for span in spans:
        lane = lanes.get(span.pid, 0)
        events.append(
            {
                "name": span.name,
                "cat": span.category or "run",
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": lane,
                "tid": lane,
                "args": {
                    "id": span.span_id,
                    "parent": span.parent_id,
                    **span.attrs,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace(tracer, out_dir: "str | os.PathLike | None" = None) -> str:
    """Write all three artifacts; returns the trace directory.

    ``out_dir`` defaults to the tracer's own ``out_dir`` (set when the
    engine created it from a path or ``$REPRO_RUNTIME_TRACE``).
    """
    from repro.errors import ConfigurationError
    from repro.obs.report import render_report

    target = out_dir if out_dir is not None else tracer.out_dir
    if target is None:
        raise ConfigurationError(
            "no trace directory: pass out_dir or create the tracer with one"
        )
    root = Path(target)
    root.mkdir(parents=True, exist_ok=True)
    events = trace_events(tracer)
    with open(root / JSONL_NAME, "w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    with open(root / CHROME_NAME, "w") as handle:
        json.dump(chrome_trace_payload(tracer), handle, indent=2)
        handle.write("\n")
    with open(root / SUMMARY_NAME, "w") as handle:
        handle.write(render_report(events) + "\n")
    return str(root)
