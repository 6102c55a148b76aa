"""Tests for the streaming repricing pipeline (sources, queue, windows,
repricer, checkpoint/restore, CLI)."""

import dataclasses

import pytest

from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.core.flow import FlowSet
from repro.errors import ConfigurationError, DataError
from repro.netflow.records import FlowKey, NetFlowRecord, PROTO_TCP, RecordBatch
from repro.stream import (
    BoundedQueue,
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


class TestBoundedQueue:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedQueue(0)
        with pytest.raises(ConfigurationError, match="policy"):
            BoundedQueue(4, policy="spill")

    def test_block_policy_refuses_when_full(self):
        q = BoundedQueue(2, policy="block")
        assert q.offer(record(key(1), 0, 1))
        assert q.offer(record(key(2), 0, 2))
        assert not q.offer(record(key(3), 0, 3))
        assert q.blocked == 1
        assert q.dropped == 0
        assert [r.last_ms for r in q.drain()] == [1, 2]
        assert q.offer(record(key(3), 0, 3))

    def test_drop_oldest_policy_sheds_head(self):
        q = BoundedQueue(2, policy="drop-oldest")
        for n in (1, 2, 3):
            assert q.offer(record(key(n), 0, n))
        assert q.dropped == 1
        assert [r.last_ms for r in q.drain()] == [2, 3]

    def test_on_evict_sees_each_shed_item(self):
        """Shed items are handed to the hook, not silently lost — the
        quote server uses this to answer evicted requests degraded."""
        q = BoundedQueue(2, policy="drop-oldest")
        evicted = []
        q.on_evict = evicted.append
        for n in (1, 2, 3, 4):
            assert q.offer(record(key(n), 0, n))
        assert [r.last_ms for r in evicted] == [1, 2]
        assert q.dropped == 2
        assert [r.last_ms for r in q.drain()] == [3, 4]

    def test_on_evict_not_called_under_block_policy(self):
        q = BoundedQueue(1, policy="block")
        evicted = []
        q.on_evict = evicted.append
        assert q.offer(record(key(1), 0, 1))
        assert not q.offer(record(key(2), 0, 2))
        assert evicted == []

    def test_snapshot_and_restore(self):
        q = BoundedQueue(4)
        q.offer(record(key(1), 0, 1))
        snap = q.snapshot()
        assert len(q) == 1  # snapshot is non-destructive
        q2 = BoundedQueue(4)
        q2.restore(snap, {"dropped": 2, "blocked": 1, "high_watermark": 3})
        assert len(q2) == 1
        assert q2.dropped == 2
        with pytest.raises(ConfigurationError):
            BoundedQueue(1).restore([record(key(1), 0, 1)] * 2)


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
        from repro.runtime.metrics import METRICS

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
        from repro.runtime.metrics import METRICS

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
        [("next_start", "abc"), ("max_ts", None), ("late_dropped", 1.5), ("max_ts", True)],
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
