"""Binary NetFlow v5 export encoding/decoding.

The encoder takes :class:`~repro.netflow.records.NetFlowRecord` objects;
the decoder checks each packet with one ``np.frombuffer`` over a
big-endian record dtype and returns a wire-held
:class:`~repro.netflow.records.RecordBatch`: the packet's validated
records stay the bytes they arrived in until a column is read, and
:meth:`~repro.netflow.records.RecordBatch.concat` casts the columns of
many packets at once (a stream's queue drain, :func:`decode_packets`).
So traces can be written to and read from real ``.nf5`` capture files,
and the pipeline can ingest exports produced by other tools without
building an object per record or a column per packet.

Layout (all fields big-endian, per Cisco's NetFlow v5 specification):

* 24-byte header: version, count, sysuptime, unix_secs, unix_nsecs,
  flow_sequence, engine_type, engine_id, sampling (2-bit mode + 14-bit
  interval);
* 48-byte records: srcaddr, dstaddr, nexthop, input, output, dPkts,
  dOctets, first, last, srcport, dstport, pad, tcp_flags, prot, tos,
  src_as, dst_as, src_mask, dst_mask, pad.

A v5 packet carries at most 30 records; :func:`encode_packets` splits
larger batches, and :func:`decode_packets` reassembles a stream.

The abstract record's free-form ``router`` string does not exist on the
wire; exporters are identified by the engine fields, so the codec takes
a router <-> engine mapping.  ``engine_id`` alone is one byte; to serve
fleets past 256 exporters the codec spreads the engine number across
``(engine_type << 8) | engine_id`` — 65536 routers — which decodes
identically for classic single-byte exporters (engine_type 0).
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import DataError
from repro.netflow.records import NetFlowRecord, RecordBatch, address_value

#: Wire version implemented here.
VERSION = 5
#: Maximum records per v5 packet.
MAX_RECORDS_PER_PACKET = 30

_HEADER = struct.Struct(">HHIIIIBBH")
_RECORD = struct.Struct(">IIIHHIIIIHHBBBBHHBBH")
#: The same 48-byte record as a numpy dtype, for whole-packet decoding.
#: Its field names are the :class:`RecordBatch` column names, which a
#: wire-held batch reads its rows by.
_RECORD_DTYPE = np.dtype(
    [
        ("src", ">u4"),
        ("dst", ">u4"),
        ("nexthop", ">u4"),
        ("input_if", ">u2"),
        ("output_if", ">u2"),
        ("packets", ">u4"),
        ("octets", ">u4"),
        ("first_ms", ">u4"),
        ("last_ms", ">u4"),
        ("src_port", ">u2"),
        ("dst_port", ">u2"),
        ("pad1", "u1"),
        ("tcp_flags", "u1"),
        ("protocol", "u1"),
        ("tos", "u1"),
        ("src_as", ">u2"),
        ("dst_as", ">u2"),
        ("src_mask", "u1"),
        ("dst_mask", "u1"),
        ("pad2", ">u2"),
    ]
)
assert _RECORD_DTYPE.itemsize == _RECORD.size

#: Sampling mode bits for "packet interval sampling".
_SAMPLING_MODE_PACKET_INTERVAL = 0x1


#: Engine numbers span engine_type + engine_id, one byte each.
MAX_ENGINES = 1 << 16


class EngineMap:
    """Bidirectional router-name <-> engine-number mapping.

    Engine numbers 0..255 occupy ``engine_id`` alone (byte-compatible
    with single-byte exporters); 256 and up spill into ``engine_type``
    as the high byte.
    """

    def __init__(self, routers: Sequence[str]) -> None:
        routers = list(routers)
        if len(routers) != len(set(routers)):
            raise DataError("router names must be unique")
        if len(routers) > MAX_ENGINES:
            raise DataError(
                "NetFlow v5 engine fields are two bytes combined "
                f"(max {MAX_ENGINES} routers, got {len(routers)})"
            )
        self._to_id = {router: i for i, router in enumerate(routers)}
        #: Router names by engine number: the router table of every
        #: batch :func:`decode_packet` returns.
        self.names = tuple(routers)

    def engine_id(self, router: str) -> int:
        try:
            return self._to_id[router]
        except KeyError as exc:
            raise DataError(f"unknown router {router!r}") from exc

    def router(self, engine_id: int) -> str:
        if not 0 <= engine_id < len(self.names):
            raise DataError(f"unknown engine id {engine_id}")
        return self.names[engine_id]

    @property
    def routers(self) -> "list[str]":
        return list(self.names)


def encode_packet(
    records: Sequence[NetFlowRecord],
    engines: EngineMap,
    flow_sequence: int = 0,
    unix_secs: int = 0,
) -> bytes:
    """Encode up to 30 records from a single router into one v5 packet."""
    if not records:
        raise DataError("cannot encode an empty packet")
    if len(records) > MAX_RECORDS_PER_PACKET:
        raise DataError(
            f"v5 packets carry at most {MAX_RECORDS_PER_PACKET} records, "
            f"got {len(records)}; use encode_packets"
        )
    routers = {record.router for record in records}
    if len(routers) != 1:
        raise DataError(
            "one packet has one exporter; records span routers "
            f"{sorted(routers)}"
        )
    intervals = {record.sampling_interval for record in records}
    if len(intervals) != 1:
        raise DataError("records in one packet must share a sampling interval")
    interval = intervals.pop()
    if interval >= 1 << 14:
        raise DataError("sampling interval exceeds the 14-bit wire field")

    sampling = 0
    if interval > 1:
        sampling = (_SAMPLING_MODE_PACKET_INTERVAL << 14) | interval
    engine = engines.engine_id(records[0].router)
    header = _HEADER.pack(
        VERSION,
        len(records),
        0,  # sysuptime: the trace epoch is ms 0
        unix_secs,
        0,
        flow_sequence,
        (engine >> 8) & 0xFF,  # engine_type: high byte of the engine number
        engine & 0xFF,
        sampling,
    )
    body = bytearray()
    for record in records:
        if record.octets >= 1 << 32 or record.packets >= 1 << 32:
            raise DataError("counter exceeds the 32-bit wire field")
        if record.last_ms >= 1 << 32:
            raise DataError("timestamp exceeds the 32-bit wire field")
        body += _RECORD.pack(
            address_value(record.key.src_addr),
            address_value(record.key.dst_addr),
            0,  # nexthop
            record.input_if & 0xFFFF,
            record.output_if & 0xFFFF,
            record.packets,
            record.octets,
            record.first_ms,
            record.last_ms,
            record.key.src_port,
            record.key.dst_port,
            0,  # pad1
            0,  # tcp_flags
            record.key.protocol,
            0,  # tos
            0,  # src_as
            0,  # dst_as
            0,  # src_mask
            0,  # dst_mask
            0,  # pad2
        )
    return header + bytes(body)


def decode_packet(data: bytes, engines: EngineMap) -> RecordBatch:
    """Decode one v5 packet into a batch of its records.

    The batch holds the packet's validated records as the wire rows they
    arrived in (:meth:`RecordBatch.from_wire`), with a view of ``data``
    when it is ``bytes`` and a copy of any other buffer, which its
    caller may refill.

    Raises:
        DataError: On a short packet, a wrong version, a length that does
            not match the header count, an unknown engine, or a record
            that ends before it starts or has packets but no octets.
    """
    if len(data) < _HEADER.size:
        raise DataError(f"packet too short for a v5 header ({len(data)} bytes)")
    (
        version,
        count,
        _sysuptime,
        _unix_secs,
        _unix_nsecs,
        _flow_sequence,
        engine_type,
        engine_id,
        sampling,
    ) = _HEADER.unpack_from(data, 0)
    if version != VERSION:
        raise DataError(f"not a NetFlow v5 packet (version {version})")
    expected = _HEADER.size + count * _RECORD.size
    if len(data) != expected:
        raise DataError(
            f"packet length {len(data)} does not match header count {count} "
            f"(expected {expected})"
        )
    interval = sampling & 0x3FFF
    if interval == 0:
        interval = 1
    engine = (engine_type << 8) | engine_id
    engines.router(engine)  # an unknown engine raises

    if not isinstance(data, bytes):
        data = bytes(data)
    rows = np.frombuffer(data, _RECORD_DTYPE, count, _HEADER.size)
    first, last = rows["first_ms"], rows["last_ms"]
    backwards = np.flatnonzero(last < first)
    if backwards.size:
        row = backwards[0]
        raise DataError(
            f"record ends ({last[row]}) before it starts ({first[row]})"
        )
    if ((rows["packets"] > 0) & (rows["octets"] == 0)).any():
        raise DataError("a record with packets must carry octets")
    return RecordBatch.from_wire(engines.names, rows, engine, interval)


def encode_packets(
    records: Iterable[NetFlowRecord], engines: EngineMap
) -> "list[bytes]":
    """Encode an arbitrary record stream as a sequence of v5 packets.

    Records are grouped by (router, sampling interval) — each group is an
    export stream with its own flow-sequence counter — and split into
    30-record packets.
    """
    groups: dict = {}
    for record in records:
        groups.setdefault((record.router, record.sampling_interval), []).append(
            record
        )
    packets = []
    for (_, _), group in sorted(groups.items()):
        sequence = 0
        for start in range(0, len(group), MAX_RECORDS_PER_PACKET):
            chunk = group[start : start + MAX_RECORDS_PER_PACKET]
            packets.append(
                encode_packet(chunk, engines, flow_sequence=sequence)
            )
            sequence += len(chunk)
    return packets


def decode_packets(packets: Iterable[bytes], engines: EngineMap) -> RecordBatch:
    """Decode a sequence of v5 packets into one batch, in packet order,
    casting each column once for all of them."""
    return RecordBatch.concat(
        [decode_packet(packet, engines) for packet in packets], engines.names
    )
