"""Record sources feeding the streaming pipeline.

A *source* is any iterable of :class:`~repro.netflow.records.RecordBatch`
or of :class:`~repro.netflow.records.NetFlowRecord`, delivered roughly in
export-time order; the pipeline batches record iterables at its edge.
Three sources cover the pipeline's inputs:

* :class:`TraceReplaySource` — replays a synthetic
  :class:`~repro.synth.trace.NetworkTrace` as a live export stream.  The
  batch generator emits one record per (flow, router) spanning the whole
  capture; a real router instead re-exports long-lived flows every *active
  timeout*.  The replay source re-chunks each record into export-interval
  slices (byte/packet counters split proportionally, totals conserved
  exactly) and yields them sorted by export timestamp, so windows see a
  continuous stream rather than one end-of-capture burst.
* :class:`V5PacketSource` — decodes binary NetFlow v5 packets
  (:mod:`repro.netflow.codec`) on the fly, one record batch per packet.
* :class:`V9PacketSource` — decodes template-based NetFlow v9 packets
  through a stateful :class:`~repro.netflow.v9.V9Decoder`.

:class:`DemandShift` injects a deterministic structural demand change at a
chosen instant — the knob the drift tests (and operators rehearsing a
re-tier) use to make the repricer fire.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Iterator
from typing import Optional

from repro.errors import DataError
from repro.netflow.codec import EngineMap, decode_packet
from repro.netflow.records import FlowKey, NetFlowRecord, RecordBatch
from repro.netflow.v9 import V9Decoder
from repro.synth.trace import NetworkTrace


def arrival_order(record: NetFlowRecord) -> tuple:
    """Deterministic export order: time first, then key, then router."""
    key = record.key
    return (
        record.last_ms,
        record.first_ms,
        key.src_addr,
        key.dst_addr,
        key.src_port,
        key.dst_port,
        key.protocol,
        record.router,
    )


@dataclasses.dataclass(frozen=True)
class DemandShift:
    """A structural demand change injected into a replayed trace.

    From ``at_ms`` on, the byte/packet counters of a deterministic subset
    of flows (the first ``fraction`` of flow keys in canonical key order)
    are scaled by ``factor``.  Because only *some* flows move, the
    relative demand structure changes and a stale tier design starts
    mispricing — exactly the situation drift-triggered re-tiering exists
    for.  A uniform shift (``fraction=1.0``) mostly re-scales the market
    and should *not* fire a well-thresholded repricer.
    """

    at_ms: int
    factor: float
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise DataError(f"shift at_ms must be >= 0, got {self.at_ms}")
        if self.factor <= 0:
            raise DataError(f"shift factor must be positive, got {self.factor}")
        if not 0 < self.fraction <= 1:
            raise DataError(
                f"shift fraction must be in (0, 1], got {self.fraction}"
            )

    def selected_keys(self, keys: Iterable[FlowKey]) -> set:
        """The flow keys this shift applies to (deterministic)."""
        ordered = sorted(
            set(keys),
            key=lambda k: (k.src_addr, k.dst_addr, k.src_port, k.dst_port, k.protocol),
        )
        n = max(1, math.ceil(self.fraction * len(ordered)))
        return set(ordered[:n])


class TraceReplaySource:
    """Replay a synthetic trace as a time-ordered export stream.

    Args:
        trace: The generated trace to replay.
        export_interval_ms: Router active timeout — long flows are
            re-exported as one record per interval.
        shift: Optional :class:`DemandShift` applied during the replay.

    Iterating yields re-chunked records sorted by
    :func:`arrival_order`; iteration is repeatable (each ``iter()``
    restarts the replay) and fully deterministic.
    """

    def __init__(
        self,
        trace: NetworkTrace,
        export_interval_ms: int = 60_000,
        shift: Optional[DemandShift] = None,
    ) -> None:
        if export_interval_ms < 1:
            raise DataError(
                f"export_interval_ms must be >= 1, got {export_interval_ms}"
            )
        self.trace = trace
        self.export_interval_ms = int(export_interval_ms)
        self.shift = shift
        self._replay: "list[NetFlowRecord] | None" = None

    def records(self) -> "list[NetFlowRecord]":
        """The full replay, materialized once and cached."""
        if self._replay is None:
            shifted_keys: set = set()
            if self.shift is not None:
                shifted_keys = self.shift.selected_keys(
                    r.key for r in self.trace.records
                )
            chunks: "list[NetFlowRecord]" = []
            for record in self.trace.records:
                chunks.extend(
                    _rechunk(record, self.export_interval_ms, self.shift, shifted_keys)
                )
            chunks.sort(key=arrival_order)
            self._replay = chunks
        return self._replay

    def __iter__(self) -> Iterator[NetFlowRecord]:
        return iter(self.records())

    def __len__(self) -> int:
        return len(self.records())


def _rechunk(
    record: NetFlowRecord,
    interval_ms: int,
    shift: Optional[DemandShift],
    shifted_keys: set,
) -> "list[NetFlowRecord]":
    """Split one record into export-interval slices, conserving counters.

    Counter allocation is cumulative-proportional (``floor(total * t/T)``
    differences), so slice counters sum exactly to the original record's.
    Slices that round down to zero octets are skipped — real routers do
    not export empty flow records.
    """
    span = record.duration_ms + 1
    n_chunks = max(1, math.ceil(span / interval_ms))
    out = []
    prev_octets = 0
    prev_packets = 0
    for i in range(n_chunks):
        first = record.first_ms + i * interval_ms
        last = min(record.last_ms, first + interval_ms - 1)
        elapsed = last - record.first_ms + 1
        cum_octets = record.octets * elapsed // span
        cum_packets = record.packets * elapsed // span
        octets = cum_octets - prev_octets
        packets = cum_packets - prev_packets
        prev_octets, prev_packets = cum_octets, cum_packets
        if shift is not None and record.key in shifted_keys and first >= shift.at_ms:
            octets = int(octets * shift.factor)
            packets = int(packets * shift.factor)
        if octets <= 0:
            continue
        out.append(
            dataclasses.replace(
                record, octets=octets, packets=packets, first_ms=first, last_ms=last
            )
        )
    return out


class V5PacketSource:
    """Decode an iterable of binary NetFlow v5 packets into record
    batches, one per packet; packets are read one at a time.  Each
    batch holds its packet's rows until the queue drains and casts the
    columns of every packet it held at once."""

    def __init__(self, packets: Iterable[bytes], engines: EngineMap) -> None:
        self._packets = packets
        self._engines = engines
        self.packets_decoded = 0

    def __iter__(self) -> Iterator[RecordBatch]:
        for packet in self._packets:
            batch = decode_packet(packet, self._engines)
            self.packets_decoded += 1
            yield batch


class V9PacketSource:
    """Decode an iterable of NetFlow v9 packets through a template cache.

    Records buffered behind an unseen template are emitted as soon as the
    template packet arrives (see :class:`~repro.netflow.v9.V9Decoder`).
    """

    def __init__(
        self,
        packets: Iterable[bytes],
        decoder: "V9Decoder | dict",
    ) -> None:
        if isinstance(decoder, dict):
            decoder = V9Decoder(decoder)
        self._packets = packets
        self._decoder = decoder
        self.packets_decoded = 0

    def __iter__(self) -> Iterator[NetFlowRecord]:
        for packet in self._packets:
            records = self._decoder.decode(packet)
            self.packets_decoded += 1
            yield from records
