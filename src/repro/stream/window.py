"""Event-time windowing over NetFlow export timestamps.

The windower assigns each record to tumbling or sliding windows keyed on
its export timestamp (``last_ms``) and closes a window once the event-time
*watermark* — the maximum timestamp seen minus a configurable reorder
tolerance — passes the window's end.  Records that arrive out of order
within the tolerance still land in the right windows; records arriving
after every window covering them has closed are counted and dropped.

Records arrive as :class:`~repro.netflow.records.RecordBatch` columns.
Inside a batch the windower is exact without a per-record loop: a running
maximum of ``last_ms`` gives the watermark after every record, the batch
is split at the records that close windows, and each piece is checked
for lateness against the windows still open when it arrived.

Buffering reuses the measurement substrate directly: records sit in one
shared :class:`~repro.netflow.collector.FlowCollector`, each closed
window selects its records by timestamp, and the collector's time-based
:meth:`~repro.netflow.collector.FlowCollector.drain_batch` evicts
whatever no future window can need — the collector stays bounded over an
unbounded stream.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.core.flow import FlowSet
from repro.errors import ConfigurationError, DataError
from repro.netflow.aggregation import aggregate_to_flowset
from repro.netflow.collector import FlowCollector
from repro.netflow.records import RecordBatch
from repro.obs import METRICS


@dataclasses.dataclass(frozen=True)
class WindowBounds:
    """A half-open event-time interval ``[start_ms, end_ms)``."""

    start_ms: int
    end_ms: int

    def contains(self, ts_ms: int) -> bool:
        return self.start_ms <= ts_ms < self.end_ms

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


@dataclasses.dataclass(frozen=True)
class ClosedWindow:
    """One closed window and the deduplicable records that fell in it."""

    bounds: WindowBounds
    batch: RecordBatch

    @property
    def n_records(self) -> int:
        return len(self.batch)

    @property
    def records(self) -> tuple:
        """The window's records as objects, in record order."""
        return tuple(self.batch.sorted().to_records())

    def collector(self) -> FlowCollector:
        """The window's records in a fresh collector (dedup semantics)."""
        collector = FlowCollector()
        collector.ingest_batch(self.batch)
        return collector

    def flowset(
        self,
        distance_fn: Callable,
        region_fn: "Callable | None" = None,
        min_demand_mbps: float = 0.0,
    ) -> FlowSet:
        """Collect, dedup, and aggregate this window into a flow set.

        Demands are rates over the *window* duration, so a flow exporting
        steadily contributes the same Mbps to every window it spans.

        Raises:
            DataError: If the window holds no records, or none survive
                the demand threshold.
        """
        return aggregate_to_flowset(
            self.collector(),
            window_seconds=self.bounds.duration_ms / 1000.0,
            distance_fn=distance_fn,
            region_fn=region_fn,
            min_demand_mbps=min_demand_mbps,
        )


class Windower:
    """Assigns records to aligned tumbling/sliding windows and closes them.

    Args:
        window_ms: Window length.  Window starts are aligned to multiples
            of ``slide_ms`` from the trace epoch.
        slide_ms: Distance between consecutive window starts; ``None``
            (or ``slide_ms == window_ms``) gives tumbling windows, a
            smaller value gives overlapping sliding windows.
        reorder_tolerance_ms: How far out of order records may arrive and
            still be windowed correctly.  The watermark lags the maximum
            seen timestamp by this much, so closes are delayed by the
            same amount.
    """

    def __init__(
        self,
        window_ms: int,
        slide_ms: "int | None" = None,
        reorder_tolerance_ms: int = 0,
    ) -> None:
        if window_ms < 1:
            raise ConfigurationError(f"window_ms must be >= 1, got {window_ms}")
        slide_ms = window_ms if slide_ms is None else slide_ms
        if not 1 <= slide_ms <= window_ms:
            raise ConfigurationError(
                f"slide_ms must be in [1, window_ms={window_ms}], got {slide_ms}"
            )
        if reorder_tolerance_ms < 0:
            raise ConfigurationError(
                f"reorder_tolerance_ms must be >= 0, got {reorder_tolerance_ms}"
            )
        self.window_ms = int(window_ms)
        self.slide_ms = int(slide_ms)
        self.reorder_tolerance_ms = int(reorder_tolerance_ms)
        self._collector = FlowCollector()
        #: Start of the next window to close; ``None`` until first record.
        self._next_start: "Optional[int]" = None
        self._max_ts = -1
        self.late_dropped = 0

    # ------------------------------------------------------------------
    # Window arithmetic
    # ------------------------------------------------------------------

    def earliest_cover_start(self, ts_ms: int) -> int:
        """Start of the earliest aligned window covering ``ts_ms``."""
        lower = ts_ms - self.window_ms + 1
        return max(0, -(-lower // self.slide_ms) * self.slide_ms)

    @property
    def next_close_ms(self) -> "Optional[int]":
        """End of the next window to close (``None`` before any record)."""
        if self._next_start is None:
            return None
        return self._next_start + self.window_ms

    def first_close_for(self, ts_ms: int) -> int:
        """Where the first close would land if ``ts_ms`` opened the stream."""
        return self._opening_start(ts_ms) + self.window_ms

    def _opening_start(self, ts_ms: int) -> int:
        """First window start when ``ts_ms`` is the stream's first record.

        Records up to ``reorder_tolerance_ms`` older than the first one
        may still arrive and must be windowable, so the opening window
        covers the watermark, not the first timestamp itself.
        """
        return self.earliest_cover_start(max(0, ts_ms - self.reorder_tolerance_ms))

    @property
    def pending_count(self) -> int:
        """Distinct flow keys currently buffered across open windows."""
        return len(self._collector)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def ingest(self, batch: RecordBatch) -> "list[ClosedWindow]":
        """Buffer a batch of records, in arrival order; return the
        windows it closes, in order.

        The result equals ingesting the records one at a time: a window
        closes at the record whose timestamp pushes the watermark past its
        end, and records after that one never enter it.
        """
        n = len(batch)
        if not n:
            return []
        ts = batch.last_ms
        if self._next_start is None:
            self._next_start = self._opening_start(int(ts[0]))
        # Windows due to have closed once each record is in.
        high = np.maximum(np.maximum.accumulate(ts), self._max_ts)
        due = np.maximum(
            (high - self.reorder_tolerance_ms - self._next_start - self.window_ms)
            // self.slide_ms
            + 1,
            0,
        )
        # Split after each closing record; each piece is late-checked
        # against the windows still open when it arrived.
        stops = (np.flatnonzero(np.diff(due, prepend=0)) + 1).tolist()
        if not stops or stops[-1] != n:
            stops.append(n)
        closed: "list[ClosedWindow]" = []
        start = 0
        for stop in stops:
            self._admit(batch.take(slice(start, stop)))
            while len(closed) < due[stop - 1]:
                closed.append(self._emit())
            start = stop
        self._max_ts = int(high[-1])
        return closed

    def _admit(self, batch: RecordBatch) -> None:
        # Every window covering a timestamp before the next window start
        # has already closed: such records are late beyond the reorder
        # tolerance.
        live = batch.last_ms >= self._next_start
        late = len(batch) - int(np.count_nonzero(live))
        if late:
            self.late_dropped += late
            METRICS.incr("stream.late_dropped", late)
            batch = batch.take(live)
        self._collector.ingest_batch(batch)

    def flush(self) -> "list[ClosedWindow]":
        """End of stream: close every window up to the last timestamp."""
        if self._next_start is None:
            return []
        closed = []
        while self._next_start <= self._max_ts:
            closed.append(self._emit())
        return closed

    def _emit(self) -> ClosedWindow:
        start = self._next_start
        assert start is not None
        end = start + self.window_ms
        buffered = self._collector.batch
        ts = buffered.last_ms
        batch = buffered.take((ts >= start) & (ts < end))
        self._next_start = start + self.slide_ms
        # No future window starts before the new cursor, so records whose
        # timestamp precedes it can never be selected again: evict them.
        self._collector.drain_batch(self._next_start)
        METRICS.incr("stream.windows_closed")
        return ClosedWindow(bounds=WindowBounds(start, end), batch=batch)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """Everything needed to restore this windower exactly."""
        return {
            "next_start": self._next_start,
            "max_ts": self._max_ts,
            "late_dropped": self.late_dropped,
            "pending": list(self._collector.iter_records()),
        }

    def restore(self, state: dict) -> None:
        """Rebuild buffered state from :meth:`state` output.

        Raises:
            DataError: The cursor is not one this windower could have
                written: after every call, the next window to close
                ends past the watermark (``max_ts - reorder_tolerance_ms
                < next_start + window_ms``) and starts at most one slide
                past ``max_ts``.  A cursor far behind would close windows
                one slide at a time, for as long as the gap takes.
        """
        next_start, max_ts = state["next_start"], state["max_ts"]
        if next_start is not None and not (
            max_ts - self.reorder_tolerance_ms - self.window_ms
            < next_start
            <= max_ts + self.slide_ms
        ):
            raise DataError(
                f"windower cursor next_start={next_start} is not one a "
                f"{self.window_ms} ms window sliding {self.slide_ms} ms "
                f"could leave at max_ts={max_ts} (reorder tolerance "
                f"{self.reorder_tolerance_ms} ms)"
            )
        self._next_start = state["next_start"]
        self._max_ts = state["max_ts"]
        self.late_dropped = state["late_dropped"]
        self._collector = FlowCollector()
        self._collector.ingest_many(state["pending"])
