"""Observability for the runtime engine: tracing, metrics, reports.

See :mod:`repro.obs.trace` for the span/determinism model,
:mod:`repro.obs.metrics` for the always-on counter/timer registry,
:mod:`repro.obs.export` for the artifact formats, and
``python -m repro.obs report <trace>`` for the CLI.
"""

from repro.obs.export import (
    CHROME_NAME,
    JSONL_NAME,
    SUMMARY_NAME,
    TRACE_SCHEMA_VERSION,
    chrome_trace_payload,
    trace_events,
    validate_events,
    write_trace,
)
from repro.obs.report import critical_path, load_trace, render_report
from repro.obs.trace import (
    TRACE_ENV,
    Span,
    Tracer,
    current_tracer,
    install_tracer,
    span_id,
    tracer_for_run,
)

__all__ = [
    "CHROME_NAME",
    "JSONL_NAME",
    "SUMMARY_NAME",
    "Span",
    "TRACE_ENV",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "chrome_trace_payload",
    "critical_path",
    "current_tracer",
    "install_tracer",
    "load_trace",
    "render_report",
    "span_id",
    "trace_events",
    "tracer_for_run",
    "validate_events",
    "write_trace",
]
