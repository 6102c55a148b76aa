"""Per-record references for the columnar NetFlow path.

These are the object implementations the columnar code replaced: a v5
decoder that builds one ``NetFlowRecord`` per wire record, a dict-of-dicts
collector, the per-record windower and the dict aggregation.  The tests
hold the columnar code to them, result for result.
"""

from __future__ import annotations

import collections
import ipaddress
import struct

import numpy as np

from repro.core.flow import NO_LABEL, FlowSet, encode_regions
from repro.errors import DataError
from repro.netflow.records import FlowKey, NetFlowRecord
from repro.stream.window import WindowBounds

_HEADER = struct.Struct(">HHIIIIBBH")
_RECORD = struct.Struct(">IIIHHIIIIHHBBBBHHBBH")


def decode_packet(data: bytes, engines) -> "list[NetFlowRecord]":
    """Decode one v5 packet record by record."""
    if len(data) < _HEADER.size:
        raise DataError(f"packet too short for a v5 header ({len(data)} bytes)")
    version, count, _, _, _, _, engine_type, engine_id, sampling = (
        _HEADER.unpack_from(data, 0)
    )
    if version != 5:
        raise DataError(f"not a NetFlow v5 packet (version {version})")
    if len(data) != _HEADER.size + count * _RECORD.size:
        raise DataError("packet length does not match header count")
    interval = (sampling & 0x3FFF) or 1
    router = engines.router((engine_type << 8) | engine_id)
    records = []
    for i in range(count):
        (
            src, dst, _, input_if, output_if, packets, octets, first_ms,
            last_ms, src_port, dst_port, _, _, protocol, *_,
        ) = _RECORD.unpack_from(data, _HEADER.size + i * _RECORD.size)
        records.append(
            NetFlowRecord(
                key=FlowKey(
                    src_addr=str(ipaddress.IPv4Address(src)),
                    dst_addr=str(ipaddress.IPv4Address(dst)),
                    src_port=src_port,
                    dst_port=dst_port,
                    protocol=protocol,
                ),
                octets=octets,
                packets=packets,
                first_ms=first_ms,
                last_ms=last_ms,
                router=router,
                input_if=input_if,
                output_if=output_if,
                sampling_interval=interval,
            )
        )
    return records


def record_sort(record: NetFlowRecord) -> tuple:
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


def key_sort(key: FlowKey) -> tuple:
    return (key.src_addr, key.dst_addr, key.src_port, key.dst_port, key.protocol)


class Collector:
    """Records grouped as key -> router -> [records]."""

    def __init__(self) -> None:
        self._records: dict = collections.defaultdict(
            lambda: collections.defaultdict(list)
        )

    def ingest(self, record: NetFlowRecord) -> None:
        self._records[record.key][record.router].append(record)

    def deduplicated_octets(self) -> dict:
        return {
            key: max(
                sum(r.estimated_octets for r in records)
                for records in by_router.values()
            )
            for key, by_router in self._records.items()
        }

    def iter_records(self) -> "list[NetFlowRecord]":
        records = [
            r
            for by_router in self._records.values()
            for group in by_router.values()
            for r in group
        ]
        records.sort(key=record_sort)
        return records

    def drain(self, older_than_ms: int) -> None:
        for key in list(self._records):
            by_router = self._records[key]
            for router in list(by_router):
                keep = [r for r in by_router[router] if r.last_ms >= older_than_ms]
                if keep:
                    by_router[router] = keep
                else:
                    del by_router[router]
            if not by_router:
                del self._records[key]


class Windower:
    """Record-at-a-time event-time windows; closed windows are
    ``(bounds, records)`` pairs."""

    def __init__(self, window_ms: int, slide_ms: int, reorder_tolerance_ms: int) -> None:
        self.window_ms = window_ms
        self.slide_ms = slide_ms
        self.reorder_tolerance_ms = reorder_tolerance_ms
        self._collector = Collector()
        self._next_start = None
        self._max_ts = -1
        self.late_dropped = 0

    def _earliest_cover_start(self, ts_ms: int) -> int:
        lower = ts_ms - self.window_ms + 1
        return max(0, -(-lower // self.slide_ms) * self.slide_ms)

    def ingest(self, record: NetFlowRecord) -> list:
        ts = record.last_ms
        if self._next_start is None:
            self._next_start = self._earliest_cover_start(
                max(0, ts - self.reorder_tolerance_ms)
            )
        if (ts // self.slide_ms) * self.slide_ms < self._next_start:
            self.late_dropped += 1
            return []
        self._collector.ingest(record)
        self._max_ts = max(self._max_ts, ts)
        closed = []
        watermark = self._max_ts - self.reorder_tolerance_ms
        while self._next_start + self.window_ms <= watermark:
            closed.append(self._emit())
        return closed

    def flush(self) -> list:
        closed = []
        while self._next_start is not None and self._next_start <= self._max_ts:
            closed.append(self._emit())
        return closed

    def _emit(self) -> tuple:
        start = self._next_start
        end = start + self.window_ms
        records = tuple(
            r for r in self._collector.iter_records() if start <= r.last_ms < end
        )
        self._next_start = start + self.slide_ms
        self._collector.drain(self._next_start)
        return WindowBounds(start, end), records


def aggregate_to_flowset(
    collector: Collector,
    window_seconds: float,
    distance_fn,
    region_fn=None,
    min_demand_mbps: float = 0.0,
) -> FlowSet:
    """Dict aggregation: one Python pass over the deduplicated keys."""
    volumes = collector.deduplicated_octets()
    demands, distances, regions = [], [], []
    src_codes, dst_codes = [], []
    src_index: dict = {}
    dst_index: dict = {}
    for key in sorted(volumes, key=key_sort):
        mbps = volumes[key] * 8.0 / window_seconds / 1e6
        if mbps <= min_demand_mbps:
            continue
        demands.append(mbps)
        distances.append(float(distance_fn(key)))
        regions.append(region_fn(key) if region_fn is not None else None)
        src_codes.append(_intern(key.src_addr, src_index))
        dst_codes.append(_intern(key.dst_addr, dst_index))
    n = len(demands)
    return FlowSet.from_columns(
        np.asarray(demands, dtype=float),
        np.asarray(distances, dtype=float),
        region_codes=encode_regions(regions, n),
        src_codes=np.asarray(src_codes, dtype=np.int32),
        src_table=tuple(src_index),
        dst_codes=np.asarray(dst_codes, dtype=np.int32),
        dst_table=tuple(dst_index),
    )


def _intern(label, index: dict) -> int:
    if label is None:
        return NO_LABEL
    return index.setdefault(label, len(index))
