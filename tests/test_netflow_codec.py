"""Tests for the binary NetFlow v5 codec, and seeded hostile-input fuzzing
of the v5 and v9 decoders."""

import random
import struct

import pytest

from repro.config import StreamConfig
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.errors import DataError
from repro.netflow.codec import (
    EngineMap,
    MAX_ENGINES,
    MAX_RECORDS_PER_PACKET,
    decode_packet,
    decode_packets,
    encode_packet,
    encode_packets,
)
from repro.netflow.collector import FlowCollector
from repro.netflow.records import _COLUMNS, FlowKey, NetFlowRecord, PROTO_TCP, RecordBatch
from repro.netflow.v9 import MAX_PENDING_BYTES, V9Decoder, V9Encoder
from repro.stream import StreamingPipeline, V5PacketSource
from repro.synth.trace import generate_network_trace
from tests import netflow_reference


@pytest.fixture
def engines():
    return EngineMap(["R1", "R2", "R3"])


def record(i=0, router="R1", sampling=1, octets=1000):
    return NetFlowRecord(
        key=FlowKey(f"10.0.0.{i + 1}", "192.0.2.9", 40000 + i, 443, PROTO_TCP),
        octets=octets,
        packets=max(1, octets // 800),
        first_ms=10,
        last_ms=20,
        router=router,
        input_if=1,
        output_if=2,
        sampling_interval=sampling,
    )


class TestEngineMap:
    def test_roundtrip(self, engines):
        for router in ("R1", "R2", "R3"):
            assert engines.router(engines.engine_id(router)) == router

    def test_unknowns(self, engines):
        with pytest.raises(DataError):
            engines.engine_id("R9")
        with pytest.raises(DataError):
            engines.router(99)

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            EngineMap(["R1", "R1"])

    def test_two_byte_limit(self):
        # 257 routers fit now that engine_type carries the high byte.
        EngineMap([f"R{i}" for i in range(257)])
        with pytest.raises(DataError, match="two bytes"):
            EngineMap([f"R{i}" for i in range(MAX_ENGINES + 1)])

    def test_roundtrip_past_one_byte(self):
        """Regression: engine numbers above 255 survive the wire.

        The engine number spreads over (engine_type << 8) | engine_id,
        so a fleet of >255 exporters round-trips; router 0 still encodes
        with engine_type 0 (byte-compatible with classic exporters).
        """
        engines = EngineMap([f"R{i}" for i in range(300)])
        for router in ("R0", "R255", "R256", "R299"):
            packet = encode_packet([record(0, router=router)], engines)
            decoded = decode_packet(packet, engines).to_records()
            assert decoded[0].router == router
        # engine_type (header byte 20) is the high byte of the number.
        packet = encode_packet([record(0, router="R299")], engines)
        assert packet[20] == 299 >> 8
        assert packet[21] == 299 & 0xFF


class TestSinglePacket:
    def test_roundtrip_preserves_fields(self, engines):
        original = [record(i) for i in range(5)]
        decoded = decode_packet(encode_packet(original, engines), engines)
        assert decoded.to_records() == original

    def test_packet_sizes(self, engines):
        packet = encode_packet([record(0), record(1)], engines)
        assert len(packet) == 24 + 2 * 48

    def test_sampling_interval_survives(self, engines):
        original = [record(0, sampling=100)]
        decoded = decode_packet(encode_packet(original, engines), engines).to_records()
        assert decoded[0].sampling_interval == 100
        assert decoded[0].estimated_octets == original[0].estimated_octets

    def test_router_identity_via_engine_id(self, engines):
        decoded = decode_packet(
            encode_packet([record(0, router="R3")], engines), engines
        ).to_records()
        assert decoded[0].router == "R3"

    def test_empty_packet_rejected(self, engines):
        with pytest.raises(DataError):
            encode_packet([], engines)

    def test_oversize_packet_rejected(self, engines):
        records = [record(i) for i in range(MAX_RECORDS_PER_PACKET + 1)]
        with pytest.raises(DataError, match="at most"):
            encode_packet(records, engines)

    def test_mixed_routers_rejected(self, engines):
        with pytest.raises(DataError, match="routers"):
            encode_packet([record(0, "R1"), record(1, "R2")], engines)

    def test_mixed_sampling_rejected(self, engines):
        with pytest.raises(DataError, match="sampling"):
            encode_packet([record(0, sampling=1), record(1, sampling=10)], engines)

    def test_counter_width_enforced(self, engines):
        with pytest.raises(DataError, match="32-bit"):
            encode_packet([record(0, octets=1 << 32)], engines)

    def test_sampling_width_enforced(self, engines):
        with pytest.raises(DataError, match="14-bit"):
            encode_packet([record(0, sampling=1 << 14)], engines)


class TestDecodeValidation:
    def test_truncated_header(self, engines):
        with pytest.raises(DataError, match="short"):
            decode_packet(b"\x00\x05", engines)

    def test_wrong_version(self, engines):
        packet = bytearray(encode_packet([record(0)], engines))
        packet[1] = 9  # version low byte
        with pytest.raises(DataError, match="version"):
            decode_packet(bytes(packet), engines)

    def test_length_mismatch(self, engines):
        packet = encode_packet([record(0)], engines)
        with pytest.raises(DataError, match="length"):
            decode_packet(packet + b"\x00", engines)


class TestStream:
    def test_splits_into_max_size_packets(self, engines):
        records = [record(i) for i in range(75)]
        packets = encode_packets(records, engines)
        assert len(packets) == 3  # 30 + 30 + 15
        assert sorted(
            r.key.src_port for r in decode_packets(packets, engines).to_records()
        ) == sorted(r.key.src_port for r in records)

    def test_groups_by_router(self, engines):
        records = [record(0, "R1"), record(1, "R2"), record(2, "R1")]
        packets = encode_packets(records, engines)
        assert len(packets) == 2
        decoded = decode_packets(packets, engines).to_records()
        assert {r.router for r in decoded} == {"R1", "R2"}

    def test_full_trace_roundtrips_through_the_wire(self):
        """Generate a trace, serialize it, decode it, and verify the
        collector computes identical per-flow volumes from both."""
        trace = generate_network_trace("internet2", n_flows=25, seed=9)
        engines = EngineMap(trace.topology.pop_codes)
        packets = encode_packets(trace.records, engines)
        decoded = decode_packets(packets, engines)

        direct = FlowCollector()
        direct.ingest_many(trace.records)
        via_wire = FlowCollector()
        via_wire.ingest_batch(decoded)
        assert direct.deduplicated_octets() == via_wire.deduplicated_octets()

    def test_a_reused_receive_buffer_decodes_what_it_held(self, engines):
        """A receiver may refill one buffer for every packet: what was
        decoded from it stays what the buffer held at the time."""
        records = [
            NetFlowRecord(
                key=FlowKey(f"10.0.{i}.1", f"192.0.2.{i % 12 + 1}", 40000 + i, 443, PROTO_TCP),
                octets=1000 + 37 * i + 11 * minute * (i % 5),
                packets=1 + i,
                first_ms=minute * 60_000,
                last_ms=minute * 60_000 + 59_999,
                router=router,
            )
            for minute in range(40)
            for router in ("R1", "R2", "R3")
            for i in range(MAX_RECORDS_PER_PACKET)
        ]
        packets = encode_packets(records, engines)
        packets.sort(key=lambda p: struct.unpack_from(">I", p, 24 + 28))  # by last_ms
        assert {len(p) for p in packets} == {24 + 48 * MAX_RECORDS_PER_PACKET}

        def refilled():
            buffer = bytearray(len(packets[0]))
            for packet in packets:
                buffer[:] = packet
                yield buffer

        want = decode_packets(packets, engines).to_records()
        batches = [decode_packet(buffer, engines) for buffer in refilled()]
        assert RecordBatch.concat(batches).to_records() == want
        assert decode_packets(refilled(), engines).to_records() == want

        def run(source):
            return StreamingPipeline(
                source,
                distance_fn=lambda key: 1.0 + int(key.dst_addr.rsplit(".", 1)[1]) % 5,
                demand_model=CEDDemand(1.1),
                cost_model=LinearDistanceCost(0.2),
                config=StreamConfig(window_ms=600_000, n_tiers=2),
            ).run()

        from_bytes = run(V5PacketSource(packets, engines))
        assert from_bytes.windows_priced >= 3
        assert run(V5PacketSource(refilled(), engines)).results == from_bytes.results


def _outcome(decode, packet, engines):
    """Decoded records, or ``DataError``; any other exception escapes."""
    try:
        result = decode(packet, engines)
    except DataError:
        return DataError
    return result if isinstance(result, list) else result.to_records()


def _mutants(packet: bytes, rng: random.Random):
    """Seeded hostile variants of one valid v5 packet."""
    n = len(packet)
    yield packet[: rng.randrange(n)]  # truncation
    yield packet + bytes(rng.randrange(1, 60))  # trailing bytes
    counted = bytearray(packet)
    struct.pack_into(">H", counted, 2, rng.randrange(65536))  # count/length
    yield bytes(counted)
    versioned = bytearray(packet)
    struct.pack_into(">H", versioned, 0, rng.choice([0, 1, 7, 9, 10, 0x0500]))
    yield bytes(versioned)
    engine = bytearray(packet)
    engine[20], engine[21] = rng.randrange(256), rng.randrange(256)
    yield bytes(engine)
    sampling = bytearray(packet)
    struct.pack_into(">H", sampling, 22, rng.randrange(65536))
    yield bytes(sampling)
    for _ in range(8):  # byte flips in record bodies
        flipped = bytearray(packet)
        for _ in range(rng.randrange(1, 6)):
            flipped[rng.randrange(24, n)] ^= 1 << rng.randrange(8)
        yield bytes(flipped)
    count = (n - 24) // 48
    backwards = bytearray(packet)  # one record ends before it starts
    row = 24 + 48 * rng.randrange(count)
    first, last = struct.unpack_from(">II", backwards, row + 24)
    struct.pack_into(">II", backwards, row + 24, last + 1 + rng.randrange(1000), last)
    yield bytes(backwards)
    silent = bytearray(packet)  # packets but no octets
    struct.pack_into(">II", silent, row + 16, 1 + rng.randrange(100), 0)
    yield bytes(silent)


class TestDecoderFuzz:
    """The columnar decoder against the per-record reference on mutated
    packets: the same records, or ``DataError`` from both."""

    def test_mutated_v5_packets(self, engines):
        rng = random.Random(5)
        records = [
            NetFlowRecord(
                key=FlowKey(
                    f"10.{i % 7}.{i % 250}.{i % 13}", f"192.0.{i % 3}.{i % 200}",
                    rng.randrange(65536), rng.randrange(65536), rng.choice([6, 17, 1]),
                ),
                octets=rng.randrange(1, 1 << 32),
                packets=rng.randrange(0, 1 << 20),
                first_ms=i * 10,
                last_ms=i * 10 + rng.randrange(5000),
                router=("R1", "R2", "R3")[i % 3],
                input_if=rng.randrange(65536),
                output_if=rng.randrange(65536),
                sampling_interval=(1, 100, 16383)[i % 3],
            )
            for i in range(150)
        ]
        packets = encode_packets(records, engines)
        assert len(packets) >= 6
        cases = rejected = 0
        for packet in packets:
            assert _outcome(decode_packet, packet, engines) == _outcome(
                netflow_reference.decode_packet, packet, engines
            )
            for _ in range(25):
                for mutant in _mutants(packet, rng):
                    got = _outcome(decode_packet, mutant, engines)
                    want = _outcome(netflow_reference.decode_packet, mutant, engines)
                    assert got == want
                    cases += 1
                    rejected += want is DataError
        # Both outcomes occur often: the fuzz reaches the record checks.
        assert 0.3 * cases < rejected < 0.9 * cases
        # The joined path: every packet in one decode_packets call, and a
        # concat of wire-held batches with column batches among them.
        want = [r for p in packets for r in netflow_reference.decode_packet(p, engines)]
        mixed = [decode_packet(packet, engines) for packet in packets]
        mixed[1].last_ms  # read alone: builds its columns in place
        mixed[3] = RecordBatch.from_records(mixed[3].to_records())  # its own router table
        mixed[4:5] = [mixed[4].take(slice(0, 7)), mixed[4].take(slice(7, None))]
        for joined in (decode_packets(packets, engines), RecordBatch.concat(mixed)):
            assert joined.to_records() == want
            for name, dtype in _COLUMNS.items():
                assert getattr(joined, name).dtype == dtype, name

    def test_v9_wide_address_field_is_a_data_error(self):
        # IPV4_SRC_ADDR (type 8) declared 8 bytes wide, holding 2**40.
        template = struct.pack(">HH", 300, 3) + struct.pack(">HHHHHH", 8, 8, 12, 4, 1, 4)
        data = (2**40).to_bytes(8, "big") + bytes(4) + (1000).to_bytes(4, "big")
        packet = (
            struct.pack(">HHIIII", 9, 2, 0, 0, 0, 7)
            + struct.pack(">HH", 0, 4 + len(template)) + template
            + struct.pack(">HH", 300, 4 + len(data)) + data
        )
        with pytest.raises(DataError, match="address"):
            V9Decoder({7: "R1"}).decode(packet)

    def test_v9_orphan_data_is_bounded(self):
        decoder = V9Decoder({7: "R1"})
        body = bytes(1020)
        packet = struct.pack(">HHIIII", 9, 1, 0, 0, 0, 7) + struct.pack(
            ">HH", 300, 4 + len(body)
        ) + body
        with pytest.raises(DataError, match="templates"):
            for _ in range(1000):
                decoder.decode(packet)
        assert 0 < decoder.pending_bytes() <= MAX_PENDING_BYTES

    def test_v9_mutated_packets_raise_only_data_errors(self):
        rng = random.Random(9)
        packets = V9Encoder(source_id=7, max_records_per_packet=5).encode(
            [record(i, octets=1000 + i) for i in range(40)]
        )
        for packet in packets:
            for _ in range(40):
                mutant = bytearray(packet)
                for _ in range(rng.randrange(1, 6)):
                    mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
                cut = rng.choice([len(mutant), rng.randrange(len(mutant))])
                decoder = V9Decoder({7: "R1"})
                try:
                    decoder.decode(packets[0])
                    decoder.decode(bytes(mutant[:cut]))
                except DataError:
                    pass
