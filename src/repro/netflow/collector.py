"""Multi-router flow collection with duplicate suppression (§4.1.1).

A flow crossing ``k`` core routers is exported ``k`` times.  The paper
"ensure[s] that we do not double-count records that are duplicated on
different routers"; the collector reproduces that: records are grouped by
flow key, and within a group each *router's* contribution is summed, but
the flow's volume is taken from the single router that saw the most of it
(its entry router) rather than from the sum over routers.

Records are buffered as :class:`~repro.netflow.records.RecordBatch`
columns and deduplicated with numpy reductions: one sort by (flow key,
router), per-router sums, then the maximum over routers.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import DataError
from repro.netflow.records import FlowKey, NetFlowRecord, RecordBatch, address_value


class FlowCollector:
    """Accumulates NetFlow exports from many routers and deduplicates."""

    def __init__(self) -> None:
        # Buffered batches, in arrival order.
        self._parts: "list[RecordBatch]" = []
        self.records_seen = 0

    def ingest(self, record: NetFlowRecord) -> None:
        """Accept one exported record."""
        self.ingest_many([record])

    def ingest_many(self, records: Iterable[NetFlowRecord]) -> None:
        self.ingest_batch(RecordBatch.from_records(records))

    def ingest_batch(self, batch: RecordBatch) -> None:
        """Accept a batch of exported records."""
        self._parts.append(batch)
        self.records_seen += len(batch)

    @property
    def batch(self) -> RecordBatch:
        """Every buffered record, in arrival order."""
        if len(self._parts) != 1:
            self._parts = [RecordBatch.concat(self._parts)]
        return self._parts[0]

    def __len__(self) -> int:
        """Number of distinct flow keys seen."""
        return len(self._grouped()[2])

    # ------------------------------------------------------------------
    # Deduplication
    # ------------------------------------------------------------------

    def _grouped(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Per-(key, router) octet sums in flow-key order.

        Returns ``(rows, sums, key_starts)``: ``rows[g]`` is a buffered
        row of group ``g``, ``sums[g]`` its estimated octets, and
        ``key_starts`` the first group of each distinct key.
        """
        batch = self.batch
        if not len(batch):
            empty = np.empty(0, np.intp)
            return empty, np.empty(0, np.int64), empty
        high, low = batch.key_words()
        order = np.lexsort((batch.router, low, high))
        high, low, router = high[order], low[order], batch.router[order]
        new_key = np.empty(len(order), bool)
        new_key[0] = True
        np.not_equal(high[1:], high[:-1], out=new_key[1:])
        new_key[1:] |= low[1:] != low[:-1]
        new_group = new_key.copy()
        new_group[1:] |= router[1:] != router[:-1]
        starts = np.flatnonzero(new_group)
        sums = np.add.reduceat(batch.estimated_octets()[order], starts)
        return order[starts], sums, np.flatnonzero(new_key[starts])

    def deduplicated(self) -> "tuple[RecordBatch, np.ndarray]":
        """Deduplicated volume per flow key, as columns.

        Returns one row per distinct key, in flow-key order (addresses as
        dotted strings, then ports and protocol), and each key's estimated
        true bytes: the **maximum** over routers of the router's summed
        sampled counters scaled by their sampling intervals, so a flow
        exported by every router on its path is counted once.
        """
        rows, sums, key_starts = self._grouped()
        if not len(rows):
            return self.batch, sums
        return (
            self.batch.take(rows[key_starts]),
            np.maximum.reduceat(sums, key_starts),
        )

    def deduplicated_octets(self) -> dict:
        """Estimated true bytes per flow key, duplicates suppressed
        (see :meth:`deduplicated`)."""
        keys, volumes = self.deduplicated()
        return dict(zip(keys.flow_keys(), volumes.tolist()))

    def total_octets(self) -> dict:
        """Estimated true bytes per flow key, summed across all routers.

        No duplicate suppression — use when every record comes from a
        single export point (e.g. one customer-facing edge router).
        """
        rows, sums, key_starts = self._grouped()
        if not len(rows):
            return {}
        keys = self.batch.take(rows[key_starts]).flow_keys()
        return dict(zip(keys, np.add.reduceat(sums, key_starts).tolist()))

    def _rows_of(self, key: FlowKey) -> RecordBatch:
        batch = self.batch
        match = (
            (batch.src == address_value(key.src_addr))
            & (batch.dst == address_value(key.dst_addr))
            & (batch.src_port == key.src_port)
            & (batch.dst_port == key.dst_port)
            & (batch.protocol == key.protocol)
        )
        if not match.any():
            raise DataError(f"no records for flow key {key}")
        return batch.take(match)

    def routers_for(self, key: FlowKey) -> "list[str]":
        """Routers that exported records for a flow key."""
        rows = self._rows_of(key)
        return sorted({rows.routers[code] for code in rows.router.tolist()})

    def entry_router(self, key: FlowKey) -> str:
        """The router credited with the flow (the one that saw the most)."""
        rows = self._rows_of(key)
        per_router: dict = {}
        for code, octets in zip(rows.router.tolist(), rows.estimated_octets().tolist()):
            router = rows.routers[code]
            per_router[router] = per_router.get(router, 0) + octets
        return max(per_router, key=lambda router: (per_router[router], router))

    # ------------------------------------------------------------------
    # Records, eviction, time span
    # ------------------------------------------------------------------

    def iter_records(self) -> "Iterable[NetFlowRecord]":
        """All buffered records, in deterministic (time, key, router) order."""
        return self.batch.sorted().to_records()

    def evict(self, older_than_ms: int) -> None:
        """Drop buffered records whose ``last_ms`` is strictly below
        ``older_than_ms``, building only the rows kept.

        The streaming windower calls this after closing a window so the
        collector does not grow without bound over an unbounded record
        stream.  Dedup semantics are untouched, and :attr:`records_seen`
        stays a cumulative ingest count.
        """
        batch = self.batch
        self._parts = [batch.take(batch.last_ms >= older_than_ms)]

    def drain_batch(self, older_than_ms: "int | None" = None) -> RecordBatch:
        """Remove and return buffered records, in arrival order.

        Args:
            older_than_ms: Only records whose ``last_ms`` is strictly below
                this cutoff are removed (see :meth:`evict`); ``None``
                drains everything.
        """
        batch = self.batch
        if older_than_ms is None:
            self._parts = []
            return batch
        self.evict(older_than_ms)
        return batch.take(batch.last_ms < older_than_ms)

    def drain(self, older_than_ms: "int | None" = None) -> "list[NetFlowRecord]":
        """:meth:`drain_batch` as records, sorted by ``(last_ms,
        first_ms, key, router)`` so replays are deterministic."""
        return self.drain_batch(older_than_ms).sorted().to_records()

    def time_span_ms(self) -> "tuple[int, int]":
        """(earliest first_ms, latest last_ms) across all records."""
        batch = self.batch
        if not len(batch):
            raise DataError("collector is empty")
        return int(batch.first_ms.min()), int(batch.last_ms.max())
