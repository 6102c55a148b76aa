"""Observability: end-to-end tracing plus the metrics registry.

Every stage of the production chain — synth → calibrate → bundle → price
→ serve — records into this package, so a slow figure sweep or a
degraded quote can be attributed to the stage that caused it:

* :mod:`repro.obs.span` — the :class:`Span` model (name, monotonic
  duration, attributes, ``ok``/``error``/``degraded`` status, parent id)
  and the picklable :class:`TraceContext` handle.
* :mod:`repro.obs.tracer` — :class:`Tracer` (real spans, contextvar
  nesting, cross-process/thread propagation) and :class:`NoopTracer`
  (the near-zero-cost disabled path, installed by default).
* :mod:`repro.obs.export` — the JSONL :class:`TraceExporter`, trace
  loading, and the per-stage :func:`summarize_trace` rollup behind
  ``python -m repro trace summarize``.
* :mod:`repro.obs.metrics` — the process-global :data:`METRICS`
  registry of counters, stage timers, and latency reservoirs.

Spans and counters share one export: :func:`to_json` merges the metrics
snapshot with the active tracer's per-stage span rollup — the payload
the CLI's ``--metrics`` flag writes.

Propagation contract: :func:`current_context` hands out a picklable
parent handle; worker processes (pool and socket workers, via
:mod:`repro.runtime.executor`) run under :func:`activate`/:func:`capture`
and their spans are re-parented on collection with :func:`adopt_spans`,
so one ``--trace`` file tells the whole fan-out story with zero orphan
spans.
"""

from __future__ import annotations

import json

from repro.obs.export import (
    SUMMARY_QUANTILES,
    TraceExporter,
    read_trace,
    render_trace_summary,
    summarize_trace,
)
from repro.obs.metrics import (
    LATENCY_QUANTILES,
    METRICS,
    Metrics,
    RESERVOIR_CAPACITY,
    collect,
)
from repro.obs.span import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUSES,
    Span,
    TRACE_SCHEMA_VERSION,
    TraceContext,
    new_id,
)
from repro.obs.tracer import (
    NoopTracer,
    Tracer,
    activate,
    adopt_spans,
    capture,
    configure_tracing,
    current_context,
    event,
    get_tracer,
    set_tracer,
    span,
    span_stats,
    tracing_enabled,
)


def to_json(**extra) -> str:
    """One export for counters *and* spans (plus any extra key/values).

    The metrics registry's snapshot (counters, stage timers, latency
    quantiles) merged with the active tracer's per-span-name rollup
    under a ``"spans"`` key, as pretty JSON — what ``--metrics`` writes.
    """
    payload = json.loads(METRICS.to_json())
    payload["spans"] = span_stats()
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True, default=str)


__all__ = [
    "LATENCY_QUANTILES",
    "METRICS",
    "Metrics",
    "NoopTracer",
    "RESERVOIR_CAPACITY",
    "STATUSES",
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_OK",
    "SUMMARY_QUANTILES",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceContext",
    "TraceExporter",
    "Tracer",
    "activate",
    "adopt_spans",
    "capture",
    "collect",
    "configure_tracing",
    "current_context",
    "event",
    "get_tracer",
    "new_id",
    "read_trace",
    "render_trace_summary",
    "set_tracer",
    "span",
    "span_stats",
    "summarize_trace",
    "to_json",
    "tracing_enabled",
]
