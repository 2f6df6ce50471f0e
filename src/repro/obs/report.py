"""Trace analysis: critical path, slowest tasks, cache statistics.

``python -m repro.obs report <trace>`` loads a trace (a directory
containing ``trace.jsonl``, or the JSONL file itself) and prints the
text summary this module renders: the run's wall time, a per-category
time rollup, the **critical path** — the lower bound on wall time no
worker count can beat — the top-k slowest tasks, the cache/retry
counters with the hit ratios derived from them, and the
``@profiled`` timers.

The executor runs independent tasks in one wave (sequential work such
as a SplitBeam feedback chain runs inside one task), so the critical
path is the longest task span, read off the trace alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "critical_path",
    "load_trace",
    "render_report",
    "task_rows",
]

#: Category the executor stamps on per-task execute spans.
TASK_CATEGORY = "task"


def load_trace(path: "str | Path") -> "list[dict]":
    """Parse a trace into its event dicts.

    ``path`` may be the trace directory (reads ``trace.jsonl`` inside)
    or any JSONL event file.
    """
    target = Path(path)
    if target.is_dir():
        target = target / "trace.jsonl"
    if not target.is_file():
        raise ConfigurationError(f"no trace at {target}")
    events = []
    with open(target) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                raise ConfigurationError(
                    f"{target}:{line_no}: not valid JSON ({exc})"
                ) from None
    return events


def _spans(events) -> "list[dict]":
    return [event for event in events if event.get("type") == "span"]


def _metrics(events) -> dict:
    for event in events:
        if event.get("type") == "metrics":
            return event
    return {"counters": {}, "timers": {}}


def _duration(span: dict) -> float:
    return max(0.0, span["end_s"] - span["start_s"])


def task_rows(events) -> "list[dict]":
    """All task-execute spans, latest attempt per task id."""
    rows: "dict[str, dict]" = {}
    for span in _spans(events):
        if span.get("cat") != TASK_CATEGORY:
            continue
        task = span["attrs"].get("task", span["name"])
        attempt = span["attrs"].get("attempt", 0)
        held = rows.get(task)
        if held is None or held["attrs"].get("attempt", 0) <= attempt:
            rows[task] = span
    return list(rows.values())


def critical_path(events) -> "tuple[list[str], float]":
    """``([task], seconds)`` of the longest task span.

    Tasks carry no edges, so no chain of them outlasts its longest
    member.  Ties break on the task id, so the named task is
    deterministic; a trace without task spans gives ``([], 0.0)``.
    """
    rows = [
        (_duration(row), row["attrs"].get("task", row["name"]))
        for row in task_rows(events)
    ]
    if not rows:
        return [], 0.0
    seconds, task = max(rows)
    return [task], seconds


def _format_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{seconds * 1e3:.1f} ms"


def render_report(events, top_k: int = 10) -> str:
    """The human-readable summary for one trace's events."""
    meta = next(
        (event for event in events if event.get("type") == "meta"), {}
    )
    spans = _spans(events)
    metrics = _metrics(events)
    counters = metrics.get("counters", {})
    timers = metrics.get("timers", {})

    title = f"trace report: {meta.get('name', '<unnamed>')}"
    lines = [title, "=" * len(title)]
    if spans:
        start = min(span["start_s"] for span in spans)
        end = max(span["end_s"] for span in spans)
        pids = sorted({span["pid"] for span in spans})
        lines.append(
            f"wall time {_format_s(end - start)} across "
            f"{len(spans)} span(s), {len(pids)} process(es)"
        )
    else:
        lines.append("no spans recorded")

    by_category: "dict[str, tuple[int, float]]" = {}
    for span in spans:
        count, total = by_category.get(span["cat"], (0, 0.0))
        by_category[span["cat"]] = (count + 1, total + _duration(span))
    if by_category:
        lines.append("")
        lines.append("time by category (wall, overlapping):")
        for category, (count, total) in sorted(
            by_category.items(), key=lambda item: (-item[1][1], item[0])
        ):
            lines.append(
                f"  {category:<12} {count:>5} span(s)  {_format_s(total)}"
            )

    chain, chain_s = critical_path(events)
    lines.append("")
    if chain:
        lines.append(
            f"critical path ({len(chain)} task(s), {_format_s(chain_s)}):"
        )
        for task in chain:
            lines.append(f"  -> {task}")
    else:
        lines.append("critical path: none (no task spans)")

    tasks = sorted(
        task_rows(events),
        key=lambda row: (-_duration(row), row["attrs"].get("task", row["name"])),
    )
    if tasks:
        lines.append("")
        lines.append(f"top {min(top_k, len(tasks))} slowest task(s):")
        for row in tasks[:top_k]:
            label = row["attrs"].get("task", row["name"])
            where = "worker" if row["pid"] != meta.get("pid") else "coordinator"
            lines.append(
                f"  {_format_s(_duration(row)):>10}  {label}  [{where}]"
            )

    cache_keys = [
        ("cache.hits", "cache hits"),
        ("cache.misses", "cache misses"),
        ("checkpoint.hits", "checkpoint hits"),
        ("checkpoint.misses", "checkpoint misses"),
        ("store.quarantined", "store quarantines"),
        ("store.recovered", "store recoveries"),
        ("store.truncated", "torn tails dropped"),
        ("executor.task_errors", "task errors"),
        ("executor.injected_faults", "injected faults"),
        ("executor.retries", "retries"),
        ("executor.timeouts", "timeouts"),
        ("executor.worker_crashes", "worker crashes"),
        ("executor.pool_rebuilds", "pool rebuilds"),
        ("executor.serial_fallbacks", "serial fallbacks"),
        ("executor.messages", "IPC messages"),
        ("executor.message_bytes", "IPC bytes"),
    ]
    stat_lines = []
    for key, label in cache_keys:
        if key in counters:
            stat_lines.append(f"  {label:<20} {counters[key]:g}")
    for store in ("cache", "checkpoint"):
        hits = counters.get(f"{store}.hits", 0)
        looked_up = hits + counters.get(f"{store}.misses", 0)
        if looked_up:
            stat_lines.append(f"  {store + ' hit ratio':<20} {hits / looked_up:.3f}")
    if stat_lines:
        lines.append("")
        lines.append("cache / runtime statistics:")
        lines.extend(stat_lines)

    if timers:
        lines.append("")
        lines.append("timers (calls, wall time summed over processes):")
        for name, entry in sorted(
            timers.items(), key=lambda item: (-item[1]["total_s"], item[0])
        ):
            lines.append(
                f"  {name:<24} {entry['calls']:>6}  "
                f"{_format_s(entry['total_s']):>10}"
            )
    return "\n".join(lines)
