"""Template-based NetFlow v9 export (RFC 3954-style).

Where v5 (:mod:`repro.netflow.codec`) has a fixed record layout, v9 is
self-describing: exporters first send **template FlowSets** declaring the
fields and lengths of their records, then **data FlowSets** that can only
be parsed with the matching template.  The consequences this module
models faithfully:

* decoding is **stateful** — a :class:`V9Decoder` caches templates per
  ``(source_id, template_id)`` and must buffer data FlowSets that arrive
  before their template (a real operational failure mode), up to
  :data:`MAX_PENDING_BYTES`;
* data FlowSets are padded to 32-bit boundaries;
* unknown field types are skipped by length, so exporters can add fields
  without breaking old collectors.

The encoder emits the template for the standard 11-field record used by
this library, re-announcing it every ``template_refresh`` packets (as
real exporters do, since collectors may restart).
"""

from __future__ import annotations

import dataclasses
import ipaddress
import struct
from collections.abc import Iterable, Sequence

from repro.errors import DataError
from repro.netflow.records import FlowKey, NetFlowRecord

#: Wire version.
VERSION = 9
#: FlowSet id carrying templates.
TEMPLATE_FLOWSET_ID = 0
#: Data FlowSet ids must be >= 256.
MIN_TEMPLATE_ID = 256

# IANA field types used by this library's standard template.
IN_BYTES = 1
IN_PKTS = 2
PROTOCOL = 4
L4_SRC_PORT = 7
IPV4_SRC_ADDR = 8
INPUT_SNMP = 10
L4_DST_PORT = 11
IPV4_DST_ADDR = 12
OUTPUT_SNMP = 14
LAST_SWITCHED = 21
FIRST_SWITCHED = 22
SAMPLING_INTERVAL = 34

#: The standard template: (field type, length in bytes).
STANDARD_FIELDS = (
    (IPV4_SRC_ADDR, 4),
    (IPV4_DST_ADDR, 4),
    (L4_SRC_PORT, 2),
    (L4_DST_PORT, 2),
    (PROTOCOL, 1),
    (IN_BYTES, 4),
    (IN_PKTS, 4),
    (FIRST_SWITCHED, 4),
    (LAST_SWITCHED, 4),
    (INPUT_SNMP, 2),
    (OUTPUT_SNMP, 2),
    (SAMPLING_INTERVAL, 4),
)
#: Template id the encoder announces.
STANDARD_TEMPLATE_ID = 260
#: Most data-FlowSet bytes a decoder buffers while their templates are
#: missing; a stream past it raises instead of growing without bound.
MAX_PENDING_BYTES = 256 * 1024

_HEADER = struct.Struct(">HHIIII")  # version, count, uptime, secs, seq, source


@dataclasses.dataclass(frozen=True)
class Template:
    """A parsed v9 template."""

    template_id: int
    fields: tuple  # of (type, length)

    @property
    def record_length(self) -> int:
        return sum(length for _, length in self.fields)


class V9Encoder:
    """Encodes records from one exporter (``source_id``) into v9 packets."""

    def __init__(
        self,
        source_id: int,
        max_records_per_packet: int = 24,
        template_refresh: int = 20,
    ) -> None:
        if not 0 <= source_id < 2**32:
            raise DataError("source_id must fit in 32 bits")
        if max_records_per_packet < 1:
            raise DataError("max_records_per_packet must be >= 1")
        if template_refresh < 1:
            raise DataError("template_refresh must be >= 1")
        self.source_id = source_id
        self.max_records_per_packet = max_records_per_packet
        self.template_refresh = template_refresh
        self._sequence = 0
        self._packets_since_template = template_refresh  # announce first

    def _template_flowset(self) -> bytes:
        body = struct.pack(
            ">HH", STANDARD_TEMPLATE_ID, len(STANDARD_FIELDS)
        ) + b"".join(
            struct.pack(">HH", ftype, length)
            for ftype, length in STANDARD_FIELDS
        )
        return struct.pack(">HH", TEMPLATE_FLOWSET_ID, 4 + len(body)) + body

    @staticmethod
    def _encode_record(record: NetFlowRecord) -> bytes:
        try:
            src = int(ipaddress.IPv4Address(record.key.src_addr))
            dst = int(ipaddress.IPv4Address(record.key.dst_addr))
        except (ipaddress.AddressValueError, ValueError) as exc:
            raise DataError(f"invalid address in {record.key}") from exc
        for value, what in ((record.octets, "octets"), (record.packets, "packets")):
            if value >= 1 << 32:
                raise DataError(f"{what} exceeds the 32-bit field")
        return struct.pack(
            ">IIHHBIIIIHHI",
            src,
            dst,
            record.key.src_port,
            record.key.dst_port,
            record.key.protocol,
            record.octets,
            record.packets,
            record.first_ms,
            record.last_ms,
            record.input_if & 0xFFFF,
            record.output_if & 0xFFFF,
            record.sampling_interval,
        )

    def encode(self, records: Sequence[NetFlowRecord]) -> "list[bytes]":
        """Encode records into packets, refreshing the template as needed."""
        if not records:
            raise DataError("cannot encode zero records")
        packets = []
        for start in range(0, len(records), self.max_records_per_packet):
            chunk = records[start : start + self.max_records_per_packet]
            flowsets = b""
            count = 0
            if self._packets_since_template >= self.template_refresh:
                flowsets += self._template_flowset()
                count += 1  # the template counts as a record in v9 headers
                self._packets_since_template = 0
            body = b"".join(self._encode_record(r) for r in chunk)
            length = 4 + len(body)
            padding = (-length) % 4
            flowsets += (
                struct.pack(">HH", STANDARD_TEMPLATE_ID, length + padding)
                + body
                + b"\x00" * padding
            )
            count += len(chunk)
            header = _HEADER.pack(
                VERSION, count, 0, 0, self._sequence, self.source_id
            )
            self._sequence += 1
            self._packets_since_template += 1
            packets.append(header + flowsets)
        return packets


class V9Decoder:
    """Stateful v9 collector side: template cache + pending-data buffer.

    Data FlowSets whose template has not been seen yet are buffered and
    decoded as soon as the template arrives (check :meth:`pending_bytes`
    for data that never resolved — a sign the exporter restarted without
    re-announcing).
    """

    def __init__(self, router_of_source: "dict[int, str]") -> None:
        if not router_of_source:
            raise DataError("need at least one source_id -> router mapping")
        self._router_of_source = dict(router_of_source)
        self._templates: dict = {}
        self._pending: dict = {}
        self._pending_bytes = 0

    def pending_bytes(self) -> int:
        return self._pending_bytes

    def decode(self, packet: bytes) -> "list[NetFlowRecord]":
        """Decode one packet; returns all records now decodable."""
        if len(packet) < _HEADER.size:
            raise DataError("packet too short for a v9 header")
        version, _count, _uptime, _secs, _seq, source_id = _HEADER.unpack_from(
            packet, 0
        )
        if version != VERSION:
            raise DataError(f"not a NetFlow v9 packet (version {version})")
        if source_id not in self._router_of_source:
            raise DataError(f"unknown exporter source_id {source_id}")

        produced = []
        offset = _HEADER.size
        while offset + 4 <= len(packet):
            flowset_id, flowset_len = struct.unpack_from(">HH", packet, offset)
            if flowset_len < 4 or offset + flowset_len > len(packet):
                raise DataError("malformed FlowSet length")
            body = packet[offset + 4 : offset + flowset_len]
            offset += flowset_len
            if flowset_id == TEMPLATE_FLOWSET_ID:
                produced.extend(self._ingest_templates(source_id, body))
            elif flowset_id >= MIN_TEMPLATE_ID:
                produced.extend(self._ingest_data(source_id, flowset_id, body))
            # FlowSet ids 1-255 are options/reserved: skipped by length.
        return produced

    def decode_all(self, packets: Iterable[bytes]) -> "list[NetFlowRecord]":
        records = []
        for packet in packets:
            records.extend(self.decode(packet))
        return records

    # ------------------------------------------------------------------

    def _ingest_templates(self, source_id: int, body: bytes) -> "list[NetFlowRecord]":
        produced = []
        offset = 0
        while offset + 4 <= len(body):
            template_id, field_count = struct.unpack_from(">HH", body, offset)
            offset += 4
            if template_id < MIN_TEMPLATE_ID:
                raise DataError(f"template id {template_id} below 256")
            if offset + 4 * field_count > len(body):
                raise DataError("truncated template definition")
            fields = []
            for _ in range(field_count):
                ftype, length = struct.unpack_from(">HH", body, offset)
                offset += 4
                if length == 0:
                    raise DataError("zero-length template field")
                fields.append((ftype, length))
            template = Template(template_id=template_id, fields=tuple(fields))
            self._templates[(source_id, template_id)] = template
            # Drain any data that was waiting for this template.
            for chunk in self._pending.pop((source_id, template_id), []):
                self._pending_bytes -= len(chunk)
                produced.extend(self._decode_data(source_id, template, chunk))
        return produced

    def _ingest_data(
        self, source_id: int, template_id: int, body: bytes
    ) -> "list[NetFlowRecord]":
        template = self._templates.get((source_id, template_id))
        if template is None:
            if self._pending_bytes + len(body) > MAX_PENDING_BYTES:
                raise DataError(
                    f"over {MAX_PENDING_BYTES} bytes of data FlowSets wait "
                    f"for templates (template {template_id} of source "
                    f"{source_id} never arrived)"
                )
            self._pending.setdefault((source_id, template_id), []).append(body)
            self._pending_bytes += len(body)
            return []
        return self._decode_data(source_id, template, body)

    def _decode_data(
        self, source_id: int, template: Template, body: bytes
    ) -> "list[NetFlowRecord]":
        router = self._router_of_source[source_id]
        records = []
        offset = 0
        record_length = template.record_length
        while offset + record_length <= len(body):
            values: dict = {}
            for ftype, length in template.fields:
                raw = body[offset : offset + length]
                offset += length
                values[ftype] = int.from_bytes(raw, "big")
            records.append(self._record_from_values(values, router))
        # Remaining bytes are the 32-bit padding; all-zero by construction.
        return records

    @staticmethod
    def _record_from_values(values: dict, router: str) -> NetFlowRecord:
        required = (IPV4_SRC_ADDR, IPV4_DST_ADDR, IN_BYTES)
        for ftype in required:
            if ftype not in values:
                raise DataError(f"template lacks required field type {ftype}")
        octets = values[IN_BYTES]
        try:
            src = str(ipaddress.IPv4Address(values[IPV4_SRC_ADDR]))
            dst = str(ipaddress.IPv4Address(values[IPV4_DST_ADDR]))
        except ipaddress.AddressValueError as exc:
            raise DataError(f"IPv4 address field out of range: {exc}") from exc
        return NetFlowRecord(
            key=FlowKey(
                src_addr=src,
                dst_addr=dst,
                src_port=values.get(L4_SRC_PORT, 0),
                dst_port=values.get(L4_DST_PORT, 0),
                protocol=values.get(PROTOCOL, 0),
            ),
            octets=octets,
            packets=values.get(IN_PKTS, 1 if octets else 0),
            first_ms=values.get(FIRST_SWITCHED, 0),
            last_ms=max(
                values.get(LAST_SWITCHED, 0), values.get(FIRST_SWITCHED, 0)
            ),
            router=router,
            input_if=values.get(INPUT_SNMP, 0),
            output_if=values.get(OUTPUT_SNMP, 0),
            sampling_interval=max(1, values.get(SAMPLING_INTERVAL, 1)),
        )
