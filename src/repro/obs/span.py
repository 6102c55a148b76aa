"""The span model: one named, timed, attributed unit of work.

A :class:`Span` is the tracing layer's unit of record.  Spans nest —
every span carries its parent's id — and together the spans of one run
form a tree rooted at the CLI (or whatever opened the outermost span).
Durations come from the monotonic clock (``time.perf_counter``), so they
are immune to wall-clock steps; the wall-clock start is recorded too so
spans from different processes can be ordered on a shared timeline.

:class:`TraceContext` is the picklable handle that carries "who is my
parent" across process boundaries: the experiment runtime serializes it
into work units shipped to pool and socket workers.
"""

from __future__ import annotations

import dataclasses
import os
import secrets
import time
from typing import Any, Optional

#: Span statuses.  ``degraded`` marks work that completed but fell back
#: to a safe answer (skipped window, shed request, blended-rate quote);
#: ``error`` marks work that raised.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_DEGRADED = "degraded"
STATUSES = (STATUS_OK, STATUS_ERROR, STATUS_DEGRADED)

#: Schema version stamped on every exported span line.
TRACE_SCHEMA_VERSION = 1


def new_id() -> str:
    """A fresh 64-bit random hex id (span or trace)."""
    return secrets.token_hex(8)


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """A picklable pointer to a span in some (possibly remote) process.

    Attributes:
        trace_id: The trace every descendant span must join.
        span_id: The parent id descendant spans must carry.
    """

    trace_id: str
    span_id: str

    def to_wire(self) -> "tuple[str, str]":
        """The tuple form serialized into work units (picklable, tiny)."""
        return (self.trace_id, self.span_id)

    @classmethod
    def from_wire(cls, wire: "tuple[str, str] | None") -> "Optional[TraceContext]":
        return None if wire is None else cls(*wire)


@dataclasses.dataclass
class Span:
    """One named, timed unit of work in a trace tree.

    Attributes:
        name: The stage name (``stream.window``, ``fleet.cutover``, ...);
            the summarize rollup groups by it.
        trace_id: The trace this span belongs to.
        span_id: This span's unique id.
        parent_id: The enclosing span's id (``None`` for a trace root).
        start_unix_s: Wall-clock start (``time.time()``), for cross-
            process ordering only.
        duration_s: Monotonic-clock duration, filled in when the span
            finishes.
        status: One of :data:`STATUSES`.
        attributes: Small JSON-able key/values describing the work.
        events: Point-in-time annotations (cache hits, drift decisions),
            each ``{"name": ..., "offset_s": ..., **attrs}``.
        pid: The process the span was recorded in (how a summarized
            trace proves the fan-out really crossed process boundaries).
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: "Optional[str]"
    start_unix_s: float
    duration_s: float = 0.0
    status: str = STATUS_OK
    attributes: "dict[str, Any]" = dataclasses.field(default_factory=dict)
    events: "list[dict]" = dataclasses.field(default_factory=list)
    pid: int = dataclasses.field(default_factory=os.getpid)
    #: Monotonic start, used only while the span is open (not exported).
    start_perf_s: float = dataclasses.field(
        default=0.0, repr=False, compare=False
    )

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    # ------------------------------------------------------------------
    # Mutation while open
    # ------------------------------------------------------------------

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def set_status(self, status: str) -> None:
        if status not in STATUSES:
            raise ValueError(
                f"unknown span status {status!r}; expected one of {STATUSES}"
            )
        self.status = status

    def add_event(self, name: str, **attributes: Any) -> None:
        event = {
            "name": name,
            "offset_s": round(max(0.0, time.perf_counter() - self.start_perf_s), 9),
        }
        event.update(attributes)
        self.events.append(event)

    # ------------------------------------------------------------------
    # Serialization (JSONL wire format and worker→parent shipping)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "v": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix_s": self.start_unix_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "pid": self.pid,
            "attributes": self.attributes,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=payload["name"],
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            start_unix_s=float(payload.get("start_unix_s", 0.0)),
            duration_s=float(payload.get("duration_s", 0.0)),
            status=payload.get("status", STATUS_OK),
            attributes=dict(payload.get("attributes", {})),
            events=list(payload.get("events", [])),
            pid=int(payload.get("pid", 0)),
        )
