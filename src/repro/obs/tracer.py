"""Tracers: span creation, context propagation, and the process global.

Two implementations share one interface:

* :class:`Tracer` — records real spans.  The current span lives in a
  :mod:`contextvars` variable, so nesting follows Python's control flow
  (including across ``await`` and into ``contextvars``-aware executors),
  and a *remote* parent installed with :meth:`Tracer.activate` lets work
  shipped to another process or thread re-join its caller's trace.
* :class:`NoopTracer` — the disabled path.  Every operation is a cheap
  no-op on shared singletons, so instrumented hot paths pay one global
  read and one method call when tracing is off.

The process-global tracer is a :data:`NoopTracer` until
:func:`configure_tracing` installs a real one (the CLI's ``--trace``
flag).  Module-level helpers (:func:`span`, :func:`event`,
:func:`current_context`, ...) always dispatch through the global, which
is what the instrumented subsystems call.

Cross-process collection: pool workers trace into a fresh buffering
:class:`Tracer` (see :func:`capture` and
:mod:`repro.runtime.executor`), ship finished spans back as dicts with
the result, and the parent re-parents any orphans onto the submitting
span with :meth:`Tracer.adopt` — so one trace file tells the whole
fan-out story with no cross-process file contention.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from typing import Any, Iterator, Optional

from repro.obs.span import (
    STATUS_ERROR,
    STATUS_OK,
    Span,
    TraceContext,
    new_id,
)

#: The innermost open span of the current logical context.
_CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)
#: A remote parent (another process/thread's span) to adopt when no
#: local span is open.
_REMOTE_PARENT: "contextvars.ContextVar[Optional[TraceContext]]" = (
    contextvars.ContextVar("repro_obs_remote_parent", default=None)
)


class _NoopSpan:
    """The span stand-in yielded while tracing is disabled."""

    __slots__ = ()

    def set_attribute(self, name: str, value: Any) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass


class _NoopSpanContext:
    """A reusable no-op context manager (no generator machinery)."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
_NOOP_SPAN_CONTEXT = _NoopSpanContext()


class NoopTracer:
    """The disabled tracer: same interface, near-zero cost, no spans."""

    enabled = False

    def span(self, name: str, **attributes: Any):
        return _NOOP_SPAN_CONTEXT

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def current_span(self) -> "Optional[Span]":
        return None

    def current_context(self) -> "Optional[TraceContext]":
        return None

    def activate(self, context: "Optional[TraceContext]"):
        return contextlib.nullcontext()

    def adopt(self, span_dicts, parent: "Optional[TraceContext]" = None) -> None:
        pass

    def drain(self) -> "list[Span]":
        return []

    def span_stats(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class Tracer:
    """Records real spans, keeps per-stage stats, exports on finish.

    Args:
        exporter: Object with ``export(span)`` (and optionally
            ``close()``), e.g. a JSONL
            :class:`~repro.obs.export.TraceExporter`.  Without one,
            finished spans are buffered in memory and handed out by
            :meth:`drain` — the capture mode pool workers run in.
    """

    enabled = True

    def __init__(self, exporter=None) -> None:
        self.exporter = exporter
        self._lock = threading.Lock()
        self._buffer: "list[Span]" = []
        self._stats: "dict[str, dict]" = {}

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attributes: Any) -> "Iterator[Span]":
        """Open a child span of the current (or remote) parent.

        The span becomes the current span for the ``with`` body, finishes
        on exit (status ``error`` and an ``exception`` event when the
        body raised), and is exported/buffered.
        """
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            remote = _REMOTE_PARENT.get()
            if remote is not None:
                trace_id, parent_id = remote.trace_id, remote.span_id
            else:
                trace_id, parent_id = new_id(), None
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=new_id(),
            parent_id=parent_id,
            start_unix_s=time.time(),
            attributes=dict(attributes),
            start_perf_s=time.perf_counter(),
        )
        token = _CURRENT_SPAN.set(span)
        try:
            yield span
        except BaseException as exc:
            span.status = STATUS_ERROR
            span.add_event(
                "exception", type=type(exc).__name__, message=str(exc)
            )
            raise
        finally:
            span.duration_s = time.perf_counter() - span.start_perf_s
            _CURRENT_SPAN.reset(token)
            self._finish(span)

    def _finish(self, span: Span) -> None:
        with self._lock:
            stat = self._stats.setdefault(
                span.name, {"calls": 0, "seconds": 0.0, "errors": 0}
            )
            stat["calls"] += 1
            stat["seconds"] += span.duration_s
            if span.status == STATUS_ERROR:
                stat["errors"] += 1
            if self.exporter is None:
                self._buffer.append(span)
        if self.exporter is not None:
            self.exporter.export(span)

    # ------------------------------------------------------------------
    # Context plumbing
    # ------------------------------------------------------------------

    def event(self, name: str, **attributes: Any) -> None:
        """Annotate the current span (dropped when no span is open)."""
        span = _CURRENT_SPAN.get()
        if span is not None:
            span.add_event(name, **attributes)

    def current_span(self) -> "Optional[Span]":
        return _CURRENT_SPAN.get()

    def current_context(self) -> "Optional[TraceContext]":
        """The handle work shipped elsewhere needs to re-join this trace."""
        span = _CURRENT_SPAN.get()
        if span is not None:
            return span.context()
        return _REMOTE_PARENT.get()

    @contextlib.contextmanager
    def activate(self, context: "Optional[TraceContext]") -> "Iterator[None]":
        """Adopt a remote parent for the ``with`` body.

        Spans opened inside (with no local parent) join ``context``'s
        trace as its children — the receiving half of cross-process and
        cross-thread propagation.  ``None`` is a no-op, so call sites
        don't need to branch.
        """
        if context is None:
            yield
            return
        token = _REMOTE_PARENT.set(context)
        try:
            yield
        finally:
            _REMOTE_PARENT.reset(token)

    def adopt(
        self,
        span_dicts,
        parent: "Optional[TraceContext]" = None,
    ) -> int:
        """Re-parent and record spans collected from a worker.

        Spans that already belong to ``parent``'s trace pass through
        untouched.  Foreign spans (a worker that traced without context)
        are grafted in: their trace id is rewritten and their roots are
        re-parented onto ``parent``.  Returns the number adopted.
        """
        spans = [
            s if isinstance(s, Span) else Span.from_dict(s) for s in span_dicts
        ]
        if parent is not None:
            local_ids = {s.span_id for s in spans}
            for span in spans:
                if span.trace_id != parent.trace_id:
                    span.trace_id = parent.trace_id
                    if span.parent_id is None or span.parent_id not in local_ids:
                        span.parent_id = parent.span_id
                elif span.parent_id is None:
                    span.parent_id = parent.span_id
        for span in spans:
            self._finish(span)
        return len(spans)

    # ------------------------------------------------------------------
    # Reading out
    # ------------------------------------------------------------------

    def drain(self) -> "list[Span]":
        """Remove and return the buffered spans (capture mode only)."""
        with self._lock:
            spans, self._buffer = self._buffer, []
        return spans

    def span_stats(self) -> dict:
        """``{name: {calls, seconds, errors}}`` for every finished span."""
        with self._lock:
            return {name: dict(stat) for name, stat in self._stats.items()}

    def close(self) -> None:
        if self.exporter is not None and hasattr(self.exporter, "close"):
            self.exporter.close()


# ----------------------------------------------------------------------
# The process-global tracer
# ----------------------------------------------------------------------

_TRACER: "Tracer | NoopTracer" = NoopTracer()


def get_tracer() -> "Tracer | NoopTracer":
    return _TRACER


def set_tracer(tracer: "Tracer | NoopTracer") -> "Tracer | NoopTracer":
    """Install ``tracer`` as the process global; returns the old one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def configure_tracing(path=None, exporter=None) -> "Tracer | NoopTracer":
    """Install the global tracer from a trace path (or explicit exporter).

    ``path=None`` (and no exporter) restores the no-op tracer.  The
    previously installed tracer is closed, so reconfiguring flushes its
    file.
    """
    from repro.obs.export import TraceExporter

    if exporter is None and path is not None:
        exporter = TraceExporter(path)
    new = Tracer(exporter=exporter) if exporter is not None else NoopTracer()
    old = set_tracer(new)
    old.close()
    return new


def tracing_enabled() -> bool:
    return _TRACER.enabled


@contextlib.contextmanager
def capture(
    context: "Optional[TraceContext]",
) -> "Iterator[Tracer | NoopTracer]":
    """Trace the ``with`` body into a buffering tracer (worker side).

    Installs a fresh buffering :class:`Tracer` as the process global with
    ``context`` active, yields it (``drain()`` its spans afterwards), and
    restores the previous tracer on exit.  With ``context=None`` the
    body runs under the inherited tracer untouched and the yielded
    tracer drains empty — callers need no tracing-enabled branch.
    """
    if context is None:
        yield NoopTracer()
        return
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with tracer.activate(context):
            yield tracer
    finally:
        set_tracer(previous)


# ----------------------------------------------------------------------
# Module-level conveniences (what instrumented code calls)
# ----------------------------------------------------------------------


def span(name: str, **attributes: Any):
    """Open a span on the global tracer (no-op context when disabled)."""
    return _TRACER.span(name, **attributes)


def event(name: str, **attributes: Any) -> None:
    """Annotate the global tracer's current span (no-op when disabled)."""
    _TRACER.event(name, **attributes)


def current_context() -> "Optional[TraceContext]":
    return _TRACER.current_context()


def activate(context: "Optional[TraceContext]"):
    return _TRACER.activate(context)


def adopt_spans(span_dicts, parent: "Optional[TraceContext]" = None) -> int:
    """Feed worker-collected spans into the global tracer (0 if no-op)."""
    if not span_dicts:
        return 0
    return _TRACER.adopt(span_dicts, parent) or 0


def span_stats() -> dict:
    return _TRACER.span_stats()
