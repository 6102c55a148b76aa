"""Tests for the template-based NetFlow v9 codec."""

import random
import struct

import pytest

from repro.errors import DataError
from repro.netflow.records import FlowKey, NetFlowRecord, PROTO_TCP, RecordBatch
from repro.netflow.v9 import (
    FIRST_SWITCHED,
    IN_BYTES,
    IN_PKTS,
    IPV4_DST_ADDR,
    IPV4_SRC_ADDR,
    L4_DST_PORT,
    L4_SRC_PORT,
    LAST_SWITCHED,
    PROTOCOL,
    SAMPLING_INTERVAL,
    STANDARD_TEMPLATE_ID,
    TEMPLATE_FLOWSET_ID,
    V9Decoder,
    V9Encoder,
)


def record(i=0, octets=1000, sampling=1, router_hint=0):
    del router_hint
    return NetFlowRecord(
        key=FlowKey(f"10.1.0.{i + 1}", "198.51.100.7", 30000 + i, 443, PROTO_TCP),
        octets=octets,
        packets=max(1, octets // 800),
        first_ms=100,
        last_ms=900,
        router="R1",
        input_if=3,
        output_if=4,
        sampling_interval=sampling,
    )


@pytest.fixture
def encoder():
    return V9Encoder(source_id=7)


@pytest.fixture
def decoder():
    return V9Decoder({7: "R1", 8: "R2"})


class TestRoundtrip:
    def test_basic_roundtrip(self, encoder, decoder):
        original = [record(i) for i in range(5)]
        packets = encoder.encode(original)
        decoded = decoder.decode_all(packets)
        assert decoded == original

    def test_sampling_interval_carried(self, encoder, decoder):
        decoded = decoder.decode_all(encoder.encode([record(0, sampling=512)]))
        assert decoded[0].sampling_interval == 512

    def test_large_batches_split(self, decoder):
        encoder = V9Encoder(source_id=7, max_records_per_packet=10)
        original = [record(i % 200, octets=1000 + i) for i in range(55)]
        packets = encoder.encode(original)
        assert len(packets) == 6
        assert decoder.decode_all(packets) == original

    def test_data_flowsets_are_padded(self, encoder):
        packet = encoder.encode([record(0)])[0]
        assert len(packet) % 4 == 0

    def test_empty_rejected(self, encoder):
        with pytest.raises(DataError):
            encoder.encode([])

    def test_counter_width_enforced(self, encoder):
        with pytest.raises(DataError, match="32-bit"):
            encoder.encode([record(0, octets=1 << 32)])


class TestTemplateStatefulness:
    def test_template_announced_in_first_packet_only(self, decoder):
        encoder = V9Encoder(
            source_id=7, max_records_per_packet=2, template_refresh=100
        )
        packets = encoder.encode([record(i) for i in range(6)])
        assert len(packets) == 3
        # Only the first packet carries the template FlowSet.
        def has_template(packet):
            flowset_id = struct.unpack_from(">H", packet, 20)[0]
            return flowset_id == TEMPLATE_FLOWSET_ID

        assert has_template(packets[0])
        assert not has_template(packets[1])
        assert not has_template(packets[2])
        assert len(decoder.decode_all(packets)) == 6

    def test_data_before_template_is_buffered_then_drained(self, decoder):
        encoder = V9Encoder(
            source_id=7, max_records_per_packet=2, template_refresh=100
        )
        packets = encoder.encode([record(i) for i in range(4)])
        # Deliver out of order: data-only packet first.
        early = decoder.decode(packets[1])
        assert early == []
        assert decoder.pending_bytes() > 0
        drained = decoder.decode(packets[0])
        assert decoder.pending_bytes() == 0
        # The drained batch contains both the buffered and in-packet data.
        assert {r.key.src_port for r in drained} == {30000, 30001, 30002, 30003}

    def test_template_refresh_interval(self, decoder):
        encoder = V9Encoder(
            source_id=7, max_records_per_packet=1, template_refresh=2
        )
        packets = encoder.encode([record(i) for i in range(4)])

        def has_template(packet):
            return struct.unpack_from(">H", packet, 20)[0] == TEMPLATE_FLOWSET_ID

        assert [has_template(p) for p in packets] == [True, False, True, False]

    def test_templates_are_per_source(self):
        encoder_a = V9Encoder(source_id=7)
        encoder_b = V9Encoder(source_id=8)
        decoder = V9Decoder({7: "R1", 8: "R2"})
        packets_a = encoder_a.encode([record(0)])
        packets_b = encoder_b.encode([record(1)])
        # Deliver B's data; its template came with it, so it decodes, but
        # the state for source 7 is untouched.
        out_b = decoder.decode_all(packets_b)
        assert out_b[0].router == "R2"
        out_a = decoder.decode_all(packets_a)
        assert out_a[0].router == "R1"


class TestDecoderValidation:
    def test_unknown_source(self, encoder):
        decoder = V9Decoder({99: "R9"})
        with pytest.raises(DataError, match="source_id"):
            decoder.decode(encoder.encode([record(0)])[0])

    def test_wrong_version(self, encoder, decoder):
        packet = bytearray(encoder.encode([record(0)])[0])
        packet[1] = 5
        with pytest.raises(DataError, match="version"):
            decoder.decode(bytes(packet))

    def test_truncated_packet(self, decoder):
        with pytest.raises(DataError, match="short"):
            decoder.decode(b"\x00\x09\x00")

    def test_malformed_flowset_length(self, encoder, decoder):
        packet = bytearray(encoder.encode([record(0)])[0])
        # Overwrite the first FlowSet's length with something absurd.
        struct.pack_into(">H", packet, 22, 60000)
        with pytest.raises(DataError, match="length"):
            decoder.decode(bytes(packet))

    def test_needs_source_mapping(self):
        with pytest.raises(DataError):
            V9Decoder({})

    def test_encoder_validation(self):
        with pytest.raises(DataError):
            V9Encoder(source_id=-1)
        with pytest.raises(DataError):
            V9Encoder(source_id=1, max_records_per_packet=0)
        with pytest.raises(DataError):
            V9Encoder(source_id=1, template_refresh=0)


class TestInteroperability:
    def test_v9_feeds_the_collector(self, decoder):
        """v9-decoded records drive the same dedup pipeline as v5 ones."""
        from repro.netflow.collector import FlowCollector

        encoder = V9Encoder(source_id=7)
        records = [record(i, octets=5000) for i in range(3)]
        decoded = decoder.decode_all(encoder.encode(records))
        collector = FlowCollector()
        collector.ingest_many(decoded)
        assert len(collector) == 3
        assert all(
            volume == 5000 for volume in collector.deduplicated_octets().values()
        )

    def test_trace_records_roundtrip_via_v9(self):
        from repro.synth.trace import generate_network_trace

        trace = generate_network_trace("internet2", n_flows=20, seed=3)
        routers = trace.topology.pop_codes
        source_of_router = {code: 100 + i for i, code in enumerate(routers)}
        decoder = V9Decoder({v: k for k, v in source_of_router.items()})
        decoded = []
        for router in routers:
            mine = [r for r in trace.records if r.router == router]
            if not mine:
                continue
            encoder = V9Encoder(source_id=source_of_router[router])
            decoded.extend(decoder.decode_all(encoder.encode(mine)))
        assert sorted(r.key.src_addr for r in decoded) == sorted(
            r.key.src_addr for r in trace.records
        )


# ----------------------------------------------------------------------
# Seeded mutation fuzz: templates, template-less data, field widths
# ----------------------------------------------------------------------

#: A template no encoder here announces: 8-byte counters, timestamps and
#: sampling interval, 4-byte ports, and a field type the decoder does not
#: know (skipped by length).
WIDE_TEMPLATE_ID = 300
WIDE_FIELDS = (
    (IPV4_SRC_ADDR, 4),
    (IPV4_DST_ADDR, 4),
    (L4_SRC_PORT, 4),
    (L4_DST_PORT, 4),
    (PROTOCOL, 1),
    (IN_BYTES, 8),
    (IN_PKTS, 8),
    (FIRST_SWITCHED, 4),
    (LAST_SWITCHED, 8),
    (SAMPLING_INTERVAL, 8),
    (99, 3),
)
#: Values a wide field may carry, and the rarer ones past what a record
#: or a batch column holds.
WIDE_VALUES = {8: (1, 1500, 2**32 + 5, 2**63 - 1), 4: (443, 65535)}
WIDE_PAST = {8: (2**63, 2**64 - 1), 4: (65536, 2**32 - 1)}


def _packet(source_id: int, flowsets: bytes, count: int = 1) -> bytes:
    return struct.pack(">HHIIII", 9, count, 0, 0, 0, source_id) + flowsets


def _flowset(flowset_id: int, body: bytes) -> bytes:
    body += b"\x00" * ((-len(body)) % 4)
    return struct.pack(">HH", flowset_id, 4 + len(body)) + body


def _template(template_id: int, fields) -> bytes:
    body = struct.pack(">HH", template_id, len(fields)) + b"".join(
        struct.pack(">HH", ftype, length) for ftype, length in fields
    )
    return _flowset(TEMPLATE_FLOWSET_ID, body)


def _wide_row(rng: random.Random) -> bytes:
    def value(ftype, length):
        if length == 8 or ftype in (L4_SRC_PORT, L4_DST_PORT):
            table = WIDE_PAST if rng.random() < 0.05 else WIDE_VALUES
            return rng.choice(table[length])
        return rng.randrange(256**length)

    return b"".join(
        value(ftype, length).to_bytes(length, "big") for ftype, length in WIDE_FIELDS
    )


def _wide_data(rng: random.Random, rows: int) -> bytes:
    return _flowset(WIDE_TEMPLATE_ID, b"".join(_wide_row(rng) for _ in range(rows)))


def _mutated(rng: random.Random, packet: bytes) -> bytes:
    """``packet`` with bytes flipped, cut off, or inserted."""
    packet = bytearray(packet)
    kind = rng.choice(["flip", "truncate", "insert"])
    if kind == "flip":
        for _ in range(rng.randint(1, 4)):
            packet[rng.randrange(len(packet))] ^= rng.randint(1, 255)
    elif kind == "truncate":
        del packet[rng.randrange(len(packet)) :]
    else:
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(packet) + 1)
            packet[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
    return bytes(packet)


def _run_packets(rng: random.Random) -> "list[bytes]":
    """One exporter session: standard-template packets from an encoder,
    and wide-template data, some of it sent before its template."""
    encoder = V9Encoder(
        source_id=7,
        max_records_per_packet=rng.randint(1, 6),
        template_refresh=rng.randint(1, 4),
    )
    records = [
        record(rng.randrange(200), octets=rng.randint(1, 2**32 - 1))
        for _ in range(rng.randint(1, 20))
    ]
    packets = encoder.encode(records)
    wide = [_packet(8, _wide_data(rng, rng.randint(1, 4))) for _ in range(2)]
    wide.insert(rng.randint(0, 2), _packet(8, _template(WIDE_TEMPLATE_ID, WIDE_FIELDS)))
    packets += wide
    rng.shuffle(packets)
    return packets


def _decode_or_data_error(decoder: V9Decoder, packet: bytes) -> "tuple[int, int]":
    """Decode one packet and batch its records: (records, DataErrors)."""
    try:
        records = decoder.decode(packet)
    except DataError:
        return 0, 1
    assert all(isinstance(r, NetFlowRecord) for r in records)
    try:
        RecordBatch.from_records(records)
    except DataError:
        return len(records), 1
    return len(records), 0


class TestSeededMutationFuzz:
    """One stateful decoder per run, over encoder packets and wide-template
    data (some before its template), half of them mutated: each packet
    yields records or a ``DataError``, and so does batching the records."""

    @pytest.mark.parametrize("seed", range(6))
    def test_stateful_runs(self, seed):
        rng = random.Random(seed)
        decoded = errors = 0
        for _ in range(50):
            decoder = V9Decoder({7: "R1", 8: "R2"})
            for packet in _run_packets(rng):
                if rng.random() < 0.5:
                    packet = _mutated(rng, packet)
                n, bad = _decode_or_data_error(decoder, packet)
                decoded, errors = decoded + n, errors + bad
            assert 0 <= decoder.pending_bytes()
        assert decoded and errors

    @pytest.mark.parametrize("seed", range(4))
    def test_stateless_mutations(self, seed):
        rng = random.Random(1000 + seed)
        packets = _run_packets(rng)
        template = _packet(8, _template(WIDE_TEMPLATE_ID, WIDE_FIELDS))
        for _ in range(1000):
            decoder = V9Decoder({7: "R1", 8: "R2"})
            decoder.decode(template)
            _decode_or_data_error(decoder, _mutated(rng, rng.choice(packets)))

    def test_wide_fields_decode_and_batch_exactly(self):
        row = (
            (0x0A000001).to_bytes(4, "big") + (0xC6336407).to_bytes(4, "big")
            + (443).to_bytes(4, "big") + (65535).to_bytes(4, "big")
            + bytes([6]) + (2**40).to_bytes(8, "big") + (2**33).to_bytes(8, "big")
            + (100).to_bytes(4, "big") + (2**35).to_bytes(8, "big")
            + (512).to_bytes(8, "big") + b"xyz"
        )
        decoder = V9Decoder({8: "R2"})
        # Data before its template waits, then drains with it.
        assert decoder.decode(_packet(8, _flowset(WIDE_TEMPLATE_ID, row * 2))) == []
        assert decoder.pending_bytes() > 0
        records = decoder.decode(_packet(8, _template(WIDE_TEMPLATE_ID, WIDE_FIELDS)))
        assert decoder.pending_bytes() == 0
        assert len(records) == 2
        (first,) = set(records)
        assert first.key == FlowKey("10.0.0.1", "198.51.100.7", 443, 65535, 6)
        assert (first.octets, first.packets) == (2**40, 2**33)
        assert (first.first_ms, first.last_ms) == (100, 2**35)
        assert first.sampling_interval == 512
        batch = RecordBatch.from_records(records)
        assert batch.octets.tolist() == [2**40] * 2
        assert batch.last_ms.tolist() == [2**35] * 2

    def test_wide_values_past_their_columns_are_data_errors(self):
        def row(port, octets):
            return (
                (0x0A000001).to_bytes(4, "big") + (0x0A000002).to_bytes(4, "big")
                + port.to_bytes(4, "big") + (80).to_bytes(4, "big") + bytes([17])
                + octets.to_bytes(8, "big") + (1).to_bytes(8, "big")
                + (0).to_bytes(4, "big") + (0).to_bytes(8, "big")
                + (1).to_bytes(8, "big") + b"abc"
            )

        decoder = V9Decoder({8: "R2"})
        decoder.decode(_packet(8, _template(WIDE_TEMPLATE_ID, WIDE_FIELDS)))
        with pytest.raises(DataError, match="port out of range"):
            decoder.decode(_packet(8, _flowset(WIDE_TEMPLATE_ID, row(65536, 1))))
        records = decoder.decode(_packet(8, _flowset(WIDE_TEMPLATE_ID, row(53, 2**63))))
        assert records[0].octets == 2**63
        with pytest.raises(DataError, match="64 bits"):
            RecordBatch.from_records(records)
