"""The columnar NetFlow path against its per-record references.

Record batches, the windower, dedup and aggregation must give the same
answers as the object implementations in :mod:`tests.netflow_reference`,
bit for bit, and the v5 stream path must build no record objects.
"""

import ipaddress
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import StreamConfig
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.ecosystem import CONTENT, EcosystemSpec, build_ecosystem, index_for_address
from repro.errors import ConfigurationError, DataError
from repro.netflow import (
    EngineMap,
    FlowCollector,
    FlowKey,
    NetFlowRecord,
    RecordBatch,
    aggregate_to_flowset,
    decode_packet,
    encode_packets,
)
from repro.netflow.records import dotted
from repro.stream import (
    RecordQueue,
    StreamingPipeline,
    TraceReplaySource,
    V5PacketSource,
    Windower,
)
from repro.synth.trace import generate_network_trace
from tests import netflow_reference as ref

ROUTERS = ("R1", "R2", "R3")


def make_record(src, dst, sport, last, duration=0, octets=1000, router="R1", interval=1):
    return NetFlowRecord(
        key=FlowKey(str(ipaddress.IPv4Address(src)), str(ipaddress.IPv4Address(dst)), sport, 443, 6),
        octets=octets,
        packets=max(1, octets // 800),
        first_ms=last - duration,
        last_ms=last,
        router=router,
        sampling_interval=interval,
    )


# Few distinct keys, so dedup groups and ties are common.
record_values = st.tuples(
    st.sampled_from([0x0A000002, 0x0A00000A, 0x09000001, 0xC0000201]),
    st.sampled_from([0x02000009, 0x0200000A, 0x14000001]),
    st.integers(1, 3),
    st.integers(0, 2_000),  # last_ms
    st.integers(0, 50),  # duration
    st.integers(1, 10**6),
    st.sampled_from(ROUTERS),
    st.sampled_from([1, 10, 1000]),
)


def records_of(values):
    out = []
    for src, dst, sport, last, duration, octets, router, interval in values:
        out.append(
            make_record(src, dst, sport, last, min(duration, last), octets, router, interval)
        )
    return out


def assert_flowsets_identical(got, want):
    assert got.demands.tobytes() == want.demands.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()
    assert got.regions == want.regions
    assert got.srcs == want.srcs
    assert got.dsts == want.dsts
    for name in ("region_codes", "src_codes", "dst_codes"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


class TestRecordBatch:
    def test_records_round_trip(self):
        records = [
            make_record(0x0A000001, 0x02000002, 1, 50, 10, router="R2", interval=100),
            make_record(0xFFFFFFFF, 0, 2, 60, octets=7, router="R1"),
        ]
        batch = RecordBatch.from_records(records)
        assert len(batch) == 2
        assert batch.to_records() == records
        assert batch.take(slice(1, None)).to_records() == records[1:]

    @pytest.mark.parametrize("address", ["10.0.0", "10.0.0.256", "host", "010.0.0.1", ""])
    def test_address_must_be_dotted_ipv4(self, address):
        record = NetFlowRecord(
            key=FlowKey(address, "1.2.3.4", 1, 2, 6),
            octets=1,
            packets=1,
            first_ms=0,
            last_ms=0,
            router="R1",
        )
        with pytest.raises(DataError, match="dotted IPv4"):
            RecordBatch.from_records([record])

    def test_concat_merges_router_tables(self):
        a = RecordBatch.from_records([make_record(1, 2, 1, 5, router="R2")])
        b = RecordBatch.from_records(
            [make_record(1, 2, 1, 6, router="R1"), make_record(1, 2, 1, 7, router="R2")]
        )
        both = RecordBatch.concat([a, b])
        assert [r.router for r in both.to_records()] == ["R2", "R1", "R2"]

    def test_sorted_matches_string_order(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**32, size=300, dtype=np.uint64).tolist()
        values += [0x0A000002, 0x0A00000A, 0x0A000064, 0x01000000]
        records = [make_record(v, v ^ 0xFFFF, 1, 0) for v in values]
        got = RecordBatch.from_records(records).sorted().to_records()
        assert got == sorted(records, key=ref.record_sort)
        assert [r.key.src_addr for r in got] == sorted(dotted(v) for v in values)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**32 - 1),
                st.integers(0, 65535),
                st.integers(0, 65535),
                st.integers(0, 255),
            ),
            max_size=40,
        )
    )
    def test_flow_keys_are_checked_keys(self, rows):
        """Keys built from the columns equal, hash, print and pickle as
        keys built through ``FlowKey``'s checks from dotted strings."""
        want = [FlowKey(dotted(s), dotted(d), sp, dp, pr) for s, d, sp, dp, pr in rows]
        records = [
            NetFlowRecord(key=k, octets=1, packets=1, first_ms=0, last_ms=0, router="R1")
            for k in want
        ]
        got = RecordBatch.from_records(records).flow_keys()
        assert got == want
        assert [hash(k) for k in got] == [hash(k) for k in want]
        assert [repr(k) for k in got] == [repr(k) for k in want]
        assert [pickle.dumps(k) for k in got] == [pickle.dumps(k) for k in want]
        assert pickle.loads(pickle.dumps(got)) == want

    def test_huge_counters_sum_exactly(self):
        # Near 2**62 each: an int64 sum would wrap; dedup stays exact.
        big = 2**62 + 1
        records = [
            make_record(1, 2, 1, 5, octets=big, router="R1"),
            make_record(1, 2, 1, 6, octets=big, router="R1"),
        ]
        collector = FlowCollector()
        collector.ingest_many(records)
        key = records[0].key
        assert collector.deduplicated_octets() == {key: 2 * big}
        assert collector.total_octets() == {key: 2 * big}


class TestWindowerMatchesReference:
    @settings(deadline=None, max_examples=150)
    @given(
        values=st.lists(record_values, max_size=60),
        window_ms=st.integers(1, 700),
        slide_frac=st.floats(0.0, 1.0),
        tolerance=st.integers(0, 300),
        cuts=st.lists(st.integers(0, 60), max_size=8),
    )
    def test_batches_close_the_same_windows(
        self, values, window_ms, slide_frac, tolerance, cuts
    ):
        records = records_of(values)
        slide_ms = max(1, int(window_ms * slide_frac))
        reference = ref.Windower(window_ms, slide_ms, tolerance)
        want = [w for r in records for w in reference.ingest(r)] + reference.flush()

        windower = Windower(window_ms, slide_ms, tolerance)
        got = []
        bounds = sorted({0, len(records), *(c for c in cuts if c < len(records))})
        for start, stop in zip(bounds, bounds[1:]):
            got += windower.ingest(RecordBatch.from_records(records[start:stop]))
        got += windower.flush()

        assert [(w.bounds, w.records) for w in got] == want
        assert windower.late_dropped == reference.late_dropped


class TestAggregationMatchesReference:
    @pytest.mark.parametrize(
        "dataset, n_flows, seed", [("eu_isp", 60, 1), ("cdn", 80, 2), ("internet2", 40, 3)]
    )
    def test_synth_traces(self, dataset, n_flows, seed):
        trace = generate_network_trace(dataset, n_flows=n_flows, seed=seed)
        reference = ref.Collector()
        for record in trace.records:
            reference.ingest(record)
        for region_fn in (None, trace.region_for):
            want = ref.aggregate_to_flowset(
                reference, trace.duration_seconds, trace.distance_for, region_fn
            )
            got = aggregate_to_flowset(
                trace.collector(), trace.duration_seconds, trace.distance_for, region_fn
            )
            assert_flowsets_identical(got, want)

    def test_demand_threshold(self):
        trace = generate_network_trace("eu_isp", n_flows=60, seed=4)
        reference = ref.Collector()
        for record in trace.records:
            reference.ingest(record)
        floor = float(np.median(trace.to_flowset().demands))
        want = ref.aggregate_to_flowset(
            reference, trace.duration_seconds, trace.distance_for, min_demand_mbps=floor
        )
        got = aggregate_to_flowset(
            trace.collector(), trace.duration_seconds, trace.distance_for, min_demand_mbps=floor
        )
        assert 0 < len(got) < len(trace.to_flowset())
        assert_flowsets_identical(got, want)

    def test_ecosystem_traffic_through_the_wire(self, world):
        engines = world.engine_map()
        model = world.traffic

        def distance_fn(key):
            return model.distance_between(
                world, index_for_address(key.src_addr), index_for_address(key.dst_addr)
            )

        for a in world.ases_of_kind(CONTENT)[:3]:
            packets = encode_packets(world.netflow_records_for(a.asn), engines)
            reference = ref.Collector()
            for packet in packets:
                for record in ref.decode_packet(packet, engines):
                    reference.ingest(record)
            collector = FlowCollector()
            for packet in packets:
                collector.ingest_batch(decode_packet(packet, engines))
            want = ref.aggregate_to_flowset(reference, model.window_seconds, distance_fn)
            got = aggregate_to_flowset(collector, model.window_seconds, distance_fn)
            assert_flowsets_identical(got, want)


@pytest.fixture(scope="module")
def world():
    return build_ecosystem(EcosystemSpec.from_counts(ases=30, ixps=2, seed=0))


def test_v5_pipeline_builds_no_records(world, monkeypatch):
    """From packets to priced windows, records stay columns."""
    a = world.ases_of_kind(CONTENT)[0]
    engines = world.engine_map()
    # Re-export the AS's flows every 10 s over two minutes.
    records = []
    for r in world.netflow_records_for(a.asn):
        for t in range(10_000, 130_000, 10_000):
            records.append(
                NetFlowRecord(
                    key=r.key,
                    octets=r.octets,
                    packets=r.packets,
                    first_ms=t - 10_000,
                    last_ms=t - 1,
                    router=r.router,
                    sampling_interval=r.sampling_interval,
                )
            )
    records.sort(key=ref.record_sort)
    packets = encode_packets(records, engines)
    built = []
    original = NetFlowRecord.__post_init__

    def counted(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(NetFlowRecord, "__post_init__", counted)
    pipeline = StreamingPipeline(
        V5PacketSource(packets, engines),
        distance_fn=lambda key: 1.0 + index_for_address(key.dst_addr) % 7,
        demand_model=CEDDemand(1.1),
        cost_model=LinearDistanceCost(0.2),
        config=StreamConfig(window_ms=30_000, queue_capacity=256, n_tiers=2),
    )
    report = pipeline.run()
    assert report.windows_priced >= 3
    assert report.records_consumed == len(records)
    assert built == []


class TestRecordQueue:
    def _batch(self, *lasts):
        return RecordBatch.from_records([make_record(1, 2, 1, t) for t in lasts])

    def test_capacity_counts_records(self):
        q = RecordQueue(5, policy="block")
        assert q.offer(self._batch(1, 2, 3)) is None
        rest = q.offer(self._batch(4, 5, 6, 7))
        assert len(q) == 5 and q.blocked == 1
        assert rest.last_ms.tolist() == [6, 7]
        assert q.drain().last_ms.tolist() == [1, 2, 3, 4, 5]
        assert q.offer(rest) is None and q.dropped == 0

    def test_drop_oldest_sheds_oldest_records(self):
        q = RecordQueue(4, policy="drop-oldest")
        q.offer(self._batch(1, 2, 3))
        assert q.offer(self._batch(4, 5, 6)) is None
        assert q.dropped == 2 and q.high_watermark == 4
        assert q.drain().last_ms.tolist() == [3, 4, 5, 6]
        q.offer(self._batch(*range(10, 20)))
        assert q.snapshot().last_ms.tolist() == [16, 17, 18, 19]

    def test_restore(self):
        q = RecordQueue(3)
        q.restore(self._batch(1, 2), {"dropped": 4, "blocked": 1, "high_watermark": 3})
        assert len(q) == 2 and q.dropped == 4 and q.blocked == 1
        with pytest.raises(ConfigurationError):
            RecordQueue(1).restore(self._batch(1, 2))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RecordQueue(0)
        with pytest.raises(ConfigurationError, match="policy"):
            RecordQueue(4, policy="spill")


def test_pipeline_over_packets_matches_record_source():
    """The same records as per-packet batches or as objects give the same
    window results: windowing does not depend on where batches split."""
    trace = generate_network_trace("eu_isp", n_flows=30, seed=5, duration_seconds=1800.0)
    records = list(TraceReplaySource(trace, export_interval_ms=60_000))
    engines = EngineMap(sorted({r.router for r in records}))
    # Export minute by minute, so packets arrive in time order.
    minutes: dict = {}
    for r in records:
        minutes.setdefault(r.last_ms // 60_000, []).append(r)
    packets = [p for m in sorted(minutes) for p in encode_packets(minutes[m], engines)]
    in_packet_order = [r for p in packets for r in ref.decode_packet(p, engines)]
    config = StreamConfig(window_ms=600_000, queue_capacity=97, n_tiers=2)

    def run(source):
        return StreamingPipeline(
            source,
            distance_fn=trace.distance_for,
            demand_model=CEDDemand(1.1),
            cost_model=LinearDistanceCost(0.2),
            config=config,
        ).run()

    from_objects = run(in_packet_order)
    from_packets = run(V5PacketSource(packets, engines))
    assert from_packets.windows_priced >= 2
    assert from_packets.results == from_objects.results
    assert from_packets.records_consumed == from_objects.records_consumed == len(records)
    assert from_packets.late_dropped == from_objects.late_dropped == 0
