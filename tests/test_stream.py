"""Tests for the streaming repricing pipeline (sources, queue, windows,
repricer, checkpoint/restore, CLI)."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting.drift import replay_design_prices
from repro.accounting.tier_designer import TierDesign
from repro.core.bundling import ProfitWeightedBundling
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.core.flow import FlowSet
from repro.core.market import Market
from repro.errors import ConfigurationError, DataError
from repro.mechanisms import mechanism_by_name
from repro.netflow.records import FlowKey, NetFlowRecord, PROTO_TCP, RecordBatch
from repro.serve import PricingSnapshot
from repro.stream import (
    DemandShift,
    DesignPublication,
    OnlineRepricer,
    STATUS_EMPTY,
    STATUS_PRICED,
    StreamConfig,
    StreamingPipeline,
    TraceReplaySource,
    V5PacketSource,
    WindowBounds,
    Windower,
    aggregate_by_destination,
)
from repro.stream.window import ClosedWindow
from repro.synth.trace import generate_network_trace

P0 = 20.0


def key(n=1):
    return FlowKey(
        src_addr=f"1.0.0.{n}",
        dst_addr=f"2.0.0.{n}",
        src_port=40000,
        dst_port=443,
        protocol=PROTO_TCP,
    )


def batch(*records):
    return RecordBatch.from_records(records)


def record(k, first, last, octets=8000, router="R1"):
    return NetFlowRecord(
        key=k,
        octets=octets,
        packets=max(1, octets // 800),
        first_ms=first,
        last_ms=last,
        router=router,
    )


@pytest.fixture(scope="module")
def trace():
    return generate_network_trace(
        "eu_isp", n_flows=40, seed=11, duration_seconds=1800.0
    )


@pytest.fixture(scope="module")
def source(trace):
    return TraceReplaySource(trace, export_interval_ms=60_000)


def make_pipeline(source, trace, checkpoint_path=None, **overrides):
    defaults = dict(window_ms=600_000, drift_threshold=0.1)
    defaults.update(overrides)
    return StreamingPipeline(
        source,
        distance_fn=trace.distance_for,
        demand_model=CEDDemand(alpha=1.1),
        cost_model=LinearDistanceCost(theta=0.2),
        config=StreamConfig(**defaults),
        checkpoint_path=checkpoint_path,
    )


def leaf_paths(node, path=()):
    """Key/index paths to every scalar in a parsed JSON document."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from leaf_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from leaf_paths(v, path + (i,))
    else:
        yield path


def leaf_fields(document) -> list:
    """A document's leaf paths grouped by field (list indices dropped), so
    a one-off cursor is as likely a target as a field of every record."""
    fields: dict = {}
    for path in leaf_paths(document):
        key = tuple(step for step in path if isinstance(step, str))
        fields.setdefault(key, []).append(path)
    return list(fields.values())


#: What a mutated checkpoint leaf may become.
LEAF_REPLACEMENTS = (None, -1, 2**70, "x", 1.5, [], {}, True)


def mutate(good: bytes, fields: list, rng) -> "tuple[bytes, str]":
    """One seeded mutation of a checkpoint file, and what it was."""
    kind = int(rng.integers(3))
    if kind == 0:
        cut = int(rng.integers(len(good)))
        return good[:cut], f"truncated at {cut}"
    if kind == 1:
        data = bytearray(good)
        for _ in range(int(rng.integers(1, 5))):
            data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        return bytes(data), "byte flips"
    payload = json.loads(good)
    paths = fields[int(rng.integers(len(fields)))]
    path = paths[int(rng.integers(len(paths)))]
    node = payload
    for step in path[:-1]:
        node = node[step]
    value = LEAF_REPLACEMENTS[int(rng.integers(len(LEAF_REPLACEMENTS)))]
    node[path[-1]] = value
    return json.dumps(payload).encode(), f"{path} = {value!r}"


class TestWindower:
    def test_tumbling_assignment_and_close(self):
        w = Windower(window_ms=100)
        assert w.ingest(batch(record(key(1), 0, 10))) == []
        closed = w.ingest(batch(record(key(2), 100, 105)))
        assert len(closed) == 1
        assert closed[0].bounds == WindowBounds(0, 100)
        assert [r.last_ms for r in closed[0].records] == [10]
        final = w.flush()
        assert len(final) == 1
        assert [r.last_ms for r in final[0].records] == [105]

    def test_boundary_straddling_record_lands_by_export_time(self):
        # A flow active across the boundary is exported once, at its end:
        # it belongs to the window containing last_ms, not first_ms.
        w = Windower(window_ms=100)
        closed = list(w.ingest(batch(record(key(1), 60, 130))))
        closed += w.ingest(batch(record(key(2), 250, 260)))  # closes [0,100), [100,200)
        closed += w.flush()
        by_start = {c.bounds.start_ms: c for c in closed}
        assert [r.last_ms for r in by_start[100].records] == [130]
        # No window keyed by first_ms: 0 is before the first covering window.
        assert 0 not in by_start

    def test_exact_boundary_timestamp_is_next_window(self):
        w = Windower(window_ms=100)
        w.ingest(batch(record(key(1), 90, 100)))  # end-exclusive: window [100, 200)
        closed = {c.bounds.start_ms: c for c in w.flush()}
        assert closed[100].n_records == 1

    def test_sliding_windows_overlap(self):
        w = Windower(window_ms=100, slide_ms=50)
        w.ingest(batch(record(key(1), 60, 70)))
        starts = [c.bounds.start_ms for c in w.flush()]
        assert starts == [0, 50]
        # The record is in both windows covering t=70.

    def test_sliding_membership(self):
        w = Windower(window_ms=100, slide_ms=50)
        closed = list(w.ingest(batch(record(key(1), 60, 70))))
        closed += w.ingest(batch(record(key(2), 150, 160)))
        closed += w.flush()
        by_start = {c.bounds.start_ms: c for c in closed}
        assert [r.last_ms for r in by_start[0].records] == [70]
        assert [r.last_ms for r in by_start[50].records] == [70]
        assert [r.last_ms for r in by_start[100].records] == [160]
        assert [r.last_ms for r in by_start[150].records] == [160]

    def test_out_of_order_within_tolerance(self):
        w = Windower(window_ms=100, reorder_tolerance_ms=50)
        w.ingest(batch(record(key(1), 0, 120)))
        # 95 arrives after 120 but within the 50 ms tolerance: the
        # watermark (120 - 50 = 70) has not passed [0, 100) yet.
        closed = w.ingest(batch(record(key(2), 0, 95)))
        assert closed == []
        closed = w.ingest(batch(record(key(3), 0, 155)))  # watermark 105: close [0,100)
        assert len(closed) == 1
        assert [r.last_ms for r in closed[0].records] == [95]
        assert w.late_dropped == 0

    def test_late_beyond_tolerance_dropped(self):
        w = Windower(window_ms=100, reorder_tolerance_ms=0)
        closed = list(w.ingest(batch(record(key(1), 0, 10))))
        closed += w.ingest(batch(record(key(2), 200, 250)))  # closes [0, 100)
        assert w.ingest(batch(record(key(3), 0, 20))) == []
        assert w.late_dropped == 1
        # The late record appears in no window.
        closed += w.flush()
        all_records = [r for c in closed for r in c.records]
        assert {r.last_ms for r in all_records} == {10, 250}

    def test_empty_windows_emitted_for_gaps(self):
        w = Windower(window_ms=100)
        w.ingest(batch(record(key(1), 0, 10)))
        closed = w.ingest(batch(record(key(2), 350, 360)))
        statuses = [(c.bounds.start_ms, c.n_records) for c in closed]
        assert statuses == [(0, 1), (100, 0), (200, 0)]

    def test_eviction_keeps_buffer_bounded(self):
        w = Windower(window_ms=100)
        for i in range(50):
            w.ingest(batch(record(key(i % 5), i * 40, i * 40 + 5)))
        assert w.pending_count <= 5

    def test_flowset_on_empty_window_raises(self):
        window = ClosedWindow(WindowBounds(0, 100), batch())
        with pytest.raises(DataError):
            window.flowset(lambda k: 1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Windower(0)
        with pytest.raises(ConfigurationError):
            Windower(100, slide_ms=200)
        with pytest.raises(ConfigurationError):
            Windower(100, reorder_tolerance_ms=-1)

    def test_restore_takes_only_a_cursor_the_windower_could_write(self):
        w = Windower(window_ms=100, slide_ms=50, reorder_tolerance_ms=20)
        w.ingest(batch(record(key(1), 0, 10), record(key(2), 300, 310)))
        state = w.state()
        assert state["max_ts"] == 310
        # Open: the next window must end past the watermark (310 - 20)
        # and start at most one slide past max_ts.
        for next_start in (191, 250, 360, None):
            Windower(100, 50, 20).restore({**state, "next_start": next_start})
        for next_start in (190, 361, -10**12):
            with pytest.raises(DataError, match="next_start"):
                Windower(100, 50, 20).restore({**state, "next_start": next_start})

    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(1, 500),
        slide_share=st.floats(0.0, 1.0),
        tolerance=st.integers(0, 300),
        stamps=st.lists(st.integers(0, 5_000), min_size=1, max_size=30),
    )
    def test_every_cursor_it_writes_restores(
        self, window, slide_share, tolerance, stamps
    ):
        slide = max(1, int(window * slide_share))
        w = Windower(window, slide, tolerance)
        for i, ts in enumerate(stamps):
            w.ingest(batch(record(key(i % 7), max(0, ts - 5), ts)))
            Windower(window, slide, tolerance).restore(w.state())
        w.flush()
        Windower(window, slide, tolerance).restore(w.state())


class TestTraceReplaySource:
    def test_conserves_counters_per_router(self, trace, source):
        original = {}
        for r in trace.records:
            group = original.setdefault((r.key, r.router), [0, 0])
            group[0] += r.octets
            group[1] += r.packets
        replayed = {}
        for r in source:
            group = replayed.setdefault((r.key, r.router), [0, 0])
            group[0] += r.octets
            group[1] += r.packets
        assert replayed.keys() == original.keys()
        for group_key, (octets, packets) in original.items():
            assert replayed[group_key][0] == octets
            # Packet slices that round to zero octets are skipped.
            assert replayed[group_key][1] <= packets

    def test_time_ordered_and_deterministic(self, source):
        first = list(source)
        assert [r.last_ms for r in first] == sorted(r.last_ms for r in first)
        assert list(source) == first

    def test_chunks_respect_export_interval(self, source):
        assert all(r.duration_ms < 60_000 for r in source)

    def test_demand_shift_scales_selected_keys_after_onset(self, trace):
        base = TraceReplaySource(trace, export_interval_ms=60_000)
        shift = DemandShift(at_ms=900_000, factor=3.0, fraction=0.5)
        shifted = TraceReplaySource(trace, export_interval_ms=60_000, shift=shift)
        selected = shift.selected_keys(r.key for r in trace.records)
        base_records = list(base)
        shifted_records = list(shifted)

        def volume(records, predicate):
            return sum(r.octets for r in records if predicate(r))

        # Before onset: identical.
        assert volume(shifted_records, lambda r: r.first_ms < 900_000) == volume(
            base_records, lambda r: r.first_ms < 900_000
        )
        # After onset: selected keys scale, unselected don't.
        after_sel = volume(
            base_records,
            lambda r: r.first_ms >= 900_000 and r.key in selected,
        )
        assert volume(
            shifted_records,
            lambda r: r.first_ms >= 900_000 and r.key in selected,
        ) == pytest.approx(3.0 * after_sel, rel=0.01)
        after_other = lambda r: r.first_ms >= 900_000 and r.key not in selected
        assert volume(shifted_records, after_other) == volume(
            base_records, after_other
        )

    def test_shift_validation(self):
        with pytest.raises(DataError):
            DemandShift(at_ms=-1, factor=2.0)
        with pytest.raises(DataError):
            DemandShift(at_ms=0, factor=0.0)
        with pytest.raises(DataError):
            DemandShift(at_ms=0, factor=2.0, fraction=0.0)

    def test_v5_packet_source_round_trips(self, trace, source):
        # Encode the export-interval slices (30-minute batch records
        # overflow v5's 32-bit counters) and decode them back.
        from repro.netflow.codec import EngineMap, encode_packets

        exported = list(source)
        routers = sorted({r.router for r in exported})
        engines = EngineMap(routers)
        packets = encode_packets(exported, engines)
        batches = list(V5PacketSource(packets, engines))
        assert len(batches) == len(packets)  # one batch per packet
        decoded = RecordBatch.concat(batches).to_records()
        assert len(decoded) == len(exported)
        assert {r.key for r in decoded} == {r.key for r in exported}
        assert sum(r.octets for r in decoded) == sum(r.octets for r in exported)


class TestOnlineRepricer:
    def _repricer(self, **kwargs):
        return OnlineRepricer(
            CEDDemand(alpha=1.1), LinearDistanceCost(theta=0.2), P0, **kwargs
        )

    def _flows(self, demands, scale=1.0):
        return FlowSet(
            demands_mbps=[d * scale for d in demands],
            distances_miles=[10.0, 100.0, 400.0, 1200.0, 2500.0],
            dsts=[f"2.0.0.{i}" for i in range(len(demands))],
        )

    def test_first_window_derives_initial_design(self):
        repricer = self._repricer(n_tiers=2)
        window = ClosedWindow(WindowBounds(0, 100), batch(record(key(1), 0, 10)))
        result = repricer.price_window(window, self._flows([90, 50, 20, 8, 2]))
        assert result.status == STATUS_PRICED
        assert result.retier and result.reason == "initial design"
        assert repricer.design is not None
        assert result.n_tiers == repricer.design.n_tiers

    def test_stationary_window_keeps_design(self):
        repricer = self._repricer(n_tiers=2)
        flows = self._flows([90, 50, 20, 8, 2])
        w = ClosedWindow(WindowBounds(0, 100), batch(record(key(1), 0, 10)))
        repricer.price_window(w, flows)
        design = repricer.design
        result = repricer.price_window(
            ClosedWindow(WindowBounds(100, 200), batch(record(key(1), 100, 110))),
            flows,
        )
        assert not result.retier
        assert result.capture_drop == pytest.approx(0.0, abs=1e-9)
        assert repricer.design is design  # untouched

    def test_uniform_growth_does_not_retier(self):
        repricer = self._repricer(n_tiers=2)
        w = ClosedWindow(WindowBounds(0, 100), batch(record(key(1), 0, 10)))
        repricer.price_window(w, self._flows([90, 50, 20, 8, 2]))
        result = repricer.price_window(
            ClosedWindow(WindowBounds(100, 200), batch(record(key(1), 100, 110))),
            self._flows([90, 50, 20, 8, 2], scale=2.0),
        )
        assert not result.retier

    def test_degenerate_window_is_skipped_not_fatal(self):
        repricer = self._repricer()
        window = ClosedWindow(WindowBounds(0, 100), batch(record(key(1), 0, 10)))
        # A single flow cannot support a 3-tier profit-weighted design
        # calibration/bundling failure must not kill the stream.
        result = repricer.price_window(
            window,
            FlowSet(demands_mbps=[10.0], distances_miles=[0.0], dsts=["2.0.0.1"]),
        )
        assert result.status in ("priced", "skipped")

    def test_empty_window_no_retier(self):
        repricer = self._repricer()
        result = repricer.empty_window(ClosedWindow(WindowBounds(0, 100), batch()))
        assert result.status == STATUS_EMPTY
        assert not result.retier
        assert repricer.design is None

    def test_accepted_retier_publishes_design(self):
        repricer = self._repricer(n_tiers=2)
        published = []
        repricer.on_design_published = published.append
        flows = self._flows([90, 50, 20, 8, 2])
        w1 = ClosedWindow(WindowBounds(0, 100), batch(record(key(1), 0, 10)))
        repricer.price_window(w1, flows)
        assert len(published) == 1
        pub = published[0]
        assert isinstance(pub, DesignPublication)
        assert pub.design is repricer.design
        assert pub.sequence == 1
        assert pub.window_end_ms == 100
        assert pub.blended_rate == pytest.approx(P0)
        assert pub.gamma > 0
        assert pub.reference_distance_miles == pytest.approx(2500.0)
        # A stationary window keeps the design: nothing new published.
        repricer.price_window(
            ClosedWindow(WindowBounds(100, 200), batch(record(key(1), 100, 110))),
            flows,
        )
        assert len(published) == 1

    def test_failing_subscriber_does_not_kill_the_stream(self):
        from repro.obs import METRICS

        repricer = self._repricer(n_tiers=2)

        def explode(_publication):
            raise RuntimeError("subscriber bug")

        repricer.on_design_published = explode
        before = METRICS.counter("stream.publish_errors")
        w = ClosedWindow(WindowBounds(0, 100), batch(record(key(1), 0, 10)))
        result = repricer.price_window(w, self._flows([90, 50, 20, 8, 2]))
        assert result.status == STATUS_PRICED  # pricing itself survived
        assert repricer.design is not None
        assert METRICS.counter("stream.publish_errors") == before + 1

    def test_subscribe_fans_out_to_every_subscriber(self):
        repricer = self._repricer(n_tiers=2)
        hook, first, second = [], [], []
        repricer.on_design_published = hook.append
        repricer.subscribe(first.append)
        second_sink = second.append
        assert repricer.subscribe(second_sink) is second_sink  # decorator
        w = ClosedWindow(WindowBounds(0, 100), batch(record(key(1), 0, 10)))
        repricer.price_window(w, self._flows([90, 50, 20, 8, 2]))
        assert len(hook) == len(first) == len(second) == 1
        assert hook[0] is first[0] is second[0]

    def test_one_failing_subscriber_does_not_starve_the_rest(self):
        from repro.obs import METRICS

        repricer = self._repricer(n_tiers=2)
        delivered = []

        def explode(_publication):
            raise RuntimeError("subscriber bug")

        repricer.subscribe(explode)
        repricer.subscribe(delivered.append)
        before = METRICS.counter("stream.publish_errors")
        w = ClosedWindow(WindowBounds(0, 100), batch(record(key(1), 0, 10)))
        result = repricer.price_window(w, self._flows([90, 50, 20, 8, 2]))
        assert result.status == STATUS_PRICED
        assert len(delivered) == 1  # the healthy subscriber still got it
        assert METRICS.counter("stream.publish_errors") == before + 1

    @settings(deadline=None, max_examples=40)
    @given(
        windows=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 9),  # destination (repeats aggregate)
                    st.floats(0.5, 200.0),  # demand, Mbps
                    st.floats(1.0, 3000.0),  # distance, miles
                ),
                min_size=1,
                max_size=16,
            ),
            min_size=1,
            max_size=5,
        ),
        n_tiers=st.integers(1, 3),
        threshold=st.sampled_from([0.0, 0.02, 0.1]),
    )
    def test_default_mechanism_is_the_posted_tiers_step(
        self, windows, n_tiers, threshold
    ):
        """Window by window, the default repricer scores, adopts and
        gates exactly as profit-weighted ``tiered_outcome`` and
        ``TierDesign.from_outcome`` on the destination-aggregated flows."""
        repricer = self._repricer(n_tiers=n_tiers, drift_threshold=threshold)
        for i, rows in enumerate(windows):
            flows = FlowSet(
                demands_mbps=[demand for _, demand, _ in rows],
                distances_miles=[miles for _, _, miles in rows],
                dsts=[f"2.0.0.{dst}" for dst, _, _ in rows],
            )
            start = 100 * i
            window = ClosedWindow(
                WindowBounds(start, start + 100),
                batch(record(key(1), start, start + 10)),
            )
            prior = repricer.design
            result = repricer.price_window(window, flows)
            if result.status != STATUS_PRICED:
                assert repricer.design is prior
                continue
            market = Market(
                aggregate_by_destination(flows),
                CEDDemand(alpha=1.1),
                LinearDistanceCost(theta=0.2),
                P0,
            )
            outcome = market.tiered_outcome(ProfitWeightedBundling(), n_tiers)
            assert result.refreshed_profit == outcome.profit
            if prior is None:
                assert result.retier and result.reason == "initial design"
            else:
                prices, _, _ = replay_design_prices(prior, market)
                assert result.stale_profit == market.profit_at(prices)
                assert result.capture_drop == market.profit_capture(
                    outcome.profit
                ) - market.profit_capture(result.stale_profit)
                assert result.retier == (result.capture_drop > threshold)
            if result.retier:
                assert repricer.design == TierDesign.from_outcome(market, outcome)
            else:
                assert repricer.design is prior

    def test_aggregate_by_destination_merges(self):
        flows = FlowSet(
            demands_mbps=[30.0, 10.0, 5.0],
            distances_miles=[100.0, 500.0, 50.0],
            dsts=["2.0.0.1", "2.0.0.1", "2.0.0.2"],
        )
        merged = aggregate_by_destination(flows)
        assert len(merged) == 2
        assert merged.dsts == ("2.0.0.1", "2.0.0.2")
        assert merged.demands[0] == pytest.approx(40.0)
        # Demand-weighted distance: (30*100 + 10*500) / 40 = 200.
        assert merged.distances[0] == pytest.approx(200.0)

    def test_aggregate_passthrough_without_dsts(self, small_flows):
        assert aggregate_by_destination(small_flows) is small_flows


class TestPipelineEndToEnd:
    def test_replay_is_deterministic(self, source, trace):
        first = make_pipeline(source, trace).run()
        second = make_pipeline(source, trace).run()
        assert first.profit_series() == second.profit_series()
        assert first.results == second.results
        assert first.design.rates == second.design.rates
        assert (
            first.design.tier_of_destination == second.design.tier_of_destination
        )

    def test_kill_checkpoint_restore_is_identical(self, source, trace, tmp_path):
        baseline = make_pipeline(source, trace).run()
        ckpt = tmp_path / "stream.ckpt.json"
        partial = make_pipeline(source, trace, checkpoint_path=ckpt).run(
            max_windows=2
        )
        assert len(partial.results) == 2
        assert ckpt.exists()
        # "Restart the process": a fresh pipeline restores and finishes.
        resumed = make_pipeline(source, trace, checkpoint_path=ckpt).run()
        assert resumed.profit_series() == baseline.profit_series()
        assert resumed.results == baseline.results
        assert resumed.design.rates == baseline.design.rates
        assert (
            resumed.design.tier_of_destination
            == baseline.design.tier_of_destination
        )

    @settings(max_examples=12, deadline=None)
    @given(kill=st.integers(1, 5), mechanism=st.sampled_from(["posted-tiers", "hybrid"]))
    def test_restoring_a_checkpoint_gives_an_equal_state(
        self, source, trace, tmp_path_factory, kill, mechanism
    ):
        """Stopped after ``kill`` windows and restored, a run ends with the
        uninterrupted run's results, adopted design and final snapshot."""

        def run(checkpoint_path=None, max_windows=None):
            pipeline = StreamingPipeline(
                source,
                distance_fn=trace.distance_for,
                demand_model=CEDDemand(alpha=1.1),
                cost_model=LinearDistanceCost(theta=0.2),
                config=StreamConfig(window_ms=300_000, drift_threshold=0.1),
                checkpoint_path=checkpoint_path,
                mechanism=mechanism_by_name(mechanism),
            )
            published = []
            pipeline.repricer.subscribe(published.append)
            report = pipeline.run(max_windows=max_windows)
            return report, published, pipeline.config_digest

        def final_digest(published, config_digest):
            snapshot = PricingSnapshot.from_publication(
                published[-1], version=1, config_digest=config_digest
            )
            return snapshot.digest

        baseline, published, digest = run()
        assert len(baseline.results) > kill
        ckpt = tmp_path_factory.mktemp("restore") / "stream.ckpt.json"
        partial, before, _ = run(ckpt, max_windows=kill)
        assert len(partial.results) == kill
        resumed, after, _ = run(ckpt)
        assert resumed.results == baseline.results
        assert resumed.design.rates == baseline.design.rates
        assert resumed.design.tier_of_destination == baseline.design.tier_of_destination
        assert final_digest(before + after, digest) == final_digest(published, digest)

    def test_checkpoint_config_mismatch_refused(self, source, trace, tmp_path):
        ckpt = tmp_path / "stream.ckpt.json"
        make_pipeline(source, trace, checkpoint_path=ckpt).run(max_windows=1)
        with pytest.raises(ConfigurationError, match="configuration"):
            make_pipeline(
                source, trace, checkpoint_path=ckpt, window_ms=300_000
            )

    def test_stationary_stream_only_initial_retier(self, source, trace):
        report = make_pipeline(source, trace).run()
        assert report.windows_priced >= 2
        assert report.retier_events == 1  # the bootstrap design only
        assert report.results[0].retier
        # A two-hour trace whose flows ramp in over the first windows: the
        # bootstrap design may re-tier once more as the population
        # completes; after that, no spurious re-tiers.
        ramp = generate_network_trace(
            "eu_isp", n_flows=80, seed=17, duration_seconds=7200.0
        )
        report = make_pipeline(
            TraceReplaySource(ramp, export_interval_ms=60_000), ramp
        ).run()
        assert report.windows_priced >= 10
        assert 1 <= report.retier_events <= 2
        assert not any(r.retier for r in report.results[2:])
        assert report.queue_dropped == 0

    def test_demand_shift_triggers_retier(self, trace):
        shifted = TraceReplaySource(
            trace,
            export_interval_ms=60_000,
            shift=DemandShift(at_ms=900_000, factor=8.0, fraction=0.3),
        )
        report = make_pipeline(shifted, trace).run()
        assert report.retier_events >= 2
        drifted = [
            r for r in report.results[1:] if r.retier and r.start_ms >= 600_000
        ]
        assert drifted, "shift after 900s must re-tier a later window"
        assert all(r.capture_drop > 0.1 for r in drifted)

    def test_drop_oldest_sheds_but_completes(self, source, trace):
        report = make_pipeline(
            source, trace, queue_capacity=100, queue_policy="drop-oldest"
        ).run()
        assert report.queue_dropped > 0
        assert report.windows_priced >= 1

    def test_block_policy_never_drops(self, source, trace):
        report = make_pipeline(source, trace, queue_capacity=100).run()
        assert report.queue_dropped == 0
        assert report.queue_blocked > 0
        total_records = sum(r.n_records for r in report.results)
        assert total_records == report.records_consumed - report.late_dropped

    def test_sliding_windows_price_overlaps(self, source, trace):
        report = make_pipeline(
            source, trace, window_ms=600_000, slide_ms=300_000
        ).run()
        starts = [r.start_ms for r in report.results]
        assert starts == sorted(starts)
        assert any(b - a == 300_000 for a, b in zip(starts, starts[1:]))

    def test_render_mentions_retier(self, source, trace):
        text = make_pipeline(source, trace).run().render()
        assert "RE-TIER" in text
        assert "windows:" in text


class TestStreamCLI:
    def test_stream_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            [
                "--flows",
                "30",
                "--seed",
                "5",
                "stream",
                "eu_isp",
                "--window",
                "600",
                "--duration",
                "1200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "windows:" in out
        assert "TierDesign" in out

    def test_window_env_reaches_the_stream(self, capsys, monkeypatch):
        """An absent --window falls through to REPRO_STREAM_WINDOW_MS; a
        given one beats it."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_STREAM_WINDOW_MS", "300000")
        argv = ["--flows", "40", "stream", "eu_isp", "--duration", "1800"]
        assert main(argv + ["--no-cache"]) == 0
        assert "windows: 6 total" in capsys.readouterr().out
        assert main(argv + ["--no-cache", "--window", "600"]) == 0
        assert "windows: 3 total" in capsys.readouterr().out

    def test_stream_emits_metrics(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "stream.metrics.json"
        code = main(
            [
                "--flows",
                "30",
                "stream",
                "eu_isp",
                "--window",
                "600",
                "--duration",
                "1200",
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        capsys.readouterr()
        import json

        payload = json.loads(metrics.read_text())
        assert payload["counters"]["stream.windows_priced"] >= 1
        assert payload["counters"]["stream.records"] > 0


class TestCheckpointLoad:
    """Corrupt checkpoint files fail at load with a typed error."""

    def _written(self, source, trace, tmp_path):
        ckpt = tmp_path / "stream.ckpt.json"
        pipeline = make_pipeline(source, trace, checkpoint_path=ckpt)
        pipeline.run(max_windows=1)
        return ckpt, pipeline.config_digest

    def test_invalid_utf8(self, source, trace, tmp_path):
        from repro.stream import load_checkpoint

        ckpt, digest = self._written(source, trace, tmp_path)
        ckpt.write_bytes(b"\xff\xfe" + ckpt.read_bytes())
        with pytest.raises(DataError, match="UTF-8"):
            load_checkpoint(ckpt, digest)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("next_start", "abc"),
            ("max_ts", None),
            ("late_dropped", 1.5),
            ("max_ts", True),
            ("max_ts", 2**70),
        ],
    )
    def test_windower_cursor_must_be_integers(self, source, trace, tmp_path, field, value):
        import json

        from repro.stream import load_checkpoint

        ckpt, digest = self._written(source, trace, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["windower"][field] = value
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=field):
            load_checkpoint(ckpt, digest)

    @pytest.mark.parametrize(
        "field, value",
        [("blocked", []), ("dropped", None), ("high_watermark", "x"), ("dropped", -1)],
    )
    def test_queue_counters_must_be_integers(self, source, trace, tmp_path, field, value):
        import json

        from repro.stream import load_checkpoint

        ckpt, digest = self._written(source, trace, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["queue"][field] = value
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=field):
            load_checkpoint(ckpt, digest)

    def test_mutated_checkpoints_restore_or_raise_typed(self, source, trace, tmp_path):
        """Seeded mutation fuzz: every truncated, byte-flipped or
        leaf-replaced checkpoint either restores and runs or raises a
        ReproError."""
        import numpy as np

        from repro.errors import ReproError

        ckpt = tmp_path / "stream.ckpt.json"

        def pipeline():
            return make_pipeline(
                source, trace, checkpoint_path=ckpt, window_ms=300_000
            )

        pipeline().run(max_windows=2)
        good = ckpt.read_bytes()
        fields = leaf_fields(json.loads(good))
        rng = np.random.default_rng(0)
        for i in range(400):
            data, mutation = mutate(good, fields, rng)
            ckpt.write_bytes(data)
            try:
                pipeline().run(max_windows=4)
            except ReproError:
                pass
            except Exception as exc:
                pytest.fail(f"mutation {i} ({mutation}) escaped: {exc!r}")

    @pytest.mark.parametrize("cursor", ["far-behind", "past-max-ts"])
    def test_restored_cursor_out_of_reach_raises_at_once(
        self, source, trace, tmp_path, cursor
    ):
        """A cursor far behind ``max_ts`` would close windows one slide
        at a time (millions of them for ``-10**12``); it fails at
        restore instead, as does one past ``max_ts + slide_ms``."""
        import time

        ckpt = tmp_path / "stream.ckpt.json"

        def pipeline():
            return make_pipeline(
                source, trace, checkpoint_path=ckpt, window_ms=300_000
            )

        pipeline().run(max_windows=2)
        payload = json.loads(ckpt.read_text())
        windower = payload["windower"]
        windower["next_start"] = (
            -10**12 if cursor == "far-behind"
            else windower["max_ts"] + 300_000 + 1
        )
        ckpt.write_text(json.dumps(payload))
        start = time.perf_counter()
        with pytest.raises(DataError, match="next_start"):
            pipeline().run(max_windows=4)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("value", ["3", 1.5, True, -1])
    def test_posted_tiers_must_be_an_integer(self, source, trace, tmp_path, value):
        import json

        from repro.stream import load_checkpoint

        ckpt, digest = self._written(source, trace, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["posted_tiers"] = value
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="posted_tiers"):
            load_checkpoint(ckpt, digest)

    def test_checkpoint_without_posted_tiers_still_loads(
        self, source, trace, tmp_path
    ):
        import json

        from repro.stream import load_checkpoint

        ckpt, digest = self._written(source, trace, tmp_path)
        payload = json.loads(ckpt.read_text())
        del payload["posted_tiers"]
        ckpt.write_text(json.dumps(payload))
        assert load_checkpoint(ckpt, digest).posted_tiers is None

    def test_restored_run_replays_identically_mid_packet(self, tmp_path):
        """A v5 stream stopped at a window close resumes inside the
        packet stream and replays the same results."""
        from repro.netflow.codec import EngineMap, encode_packets

        trace = generate_network_trace(
            "eu_isp", n_flows=30, seed=5, duration_seconds=1800.0
        )
        records = list(TraceReplaySource(trace, export_interval_ms=60_000))
        engines = EngineMap(sorted({r.router for r in records}))
        minutes: dict = {}
        for r in records:
            minutes.setdefault(r.last_ms // 60_000, []).append(r)
        packets = [
            p for m in sorted(minutes) for p in encode_packets(minutes[m], engines)
        ]

        def pipeline(ckpt=None):
            return make_pipeline(
                V5PacketSource(packets, engines),
                trace,
                checkpoint_path=ckpt,
                window_ms=300_000,
                queue_capacity=50,
            )

        baseline = pipeline().run()
        ckpt = tmp_path / "v5.ckpt.json"
        partial = pipeline(ckpt).run(max_windows=2)
        assert len(partial.results) == 2
        resumed = pipeline(ckpt).run()
        assert resumed.results == baseline.results
        assert resumed.records_consumed == baseline.records_consumed
        assert resumed.design.rates == baseline.design.rates


def test_window_result_round_trips_through_checkpoint():
    from repro.stream.checkpoint import (
        PipelineCheckpoint,
        checkpoint_from_json,
        checkpoint_to_json,
    )
    from repro.stream.repricer import WindowResult

    result = WindowResult(
        start_ms=0,
        end_ms=600_000,
        status=STATUS_PRICED,
        n_records=10,
        n_flows=4,
        retier=True,
        reason="initial design",
        stale_profit=None,
        refreshed_profit=123456.789012345,
        capture_drop=None,
        n_tiers=3,
    )
    checkpoint = PipelineCheckpoint(
        config_digest="d",
        records_consumed=42,
        windower_state={
            "next_start": 600_000,
            "max_ts": 700_000,
            "late_dropped": 1,
            "pending": [record(key(1), 610_000, 620_000)],
        },
        queued_records=[record(key(2), 630_000, 640_000)],
        queue_counters={"dropped": 0, "blocked": 0, "high_watermark": 5},
        design=None,
        results=[result],
    )
    restored = checkpoint_from_json(checkpoint_to_json(checkpoint), "d")
    assert restored.results == [result]
    assert restored.windower_state["pending"] == [
        record(key(1), 610_000, 620_000)
    ]
    assert restored.queued_records == [record(key(2), 630_000, 640_000)]
    with pytest.raises(ConfigurationError):
        checkpoint_from_json(checkpoint_to_json(checkpoint), "other")
