"""Tests for the sharded multi-process quote fleet: shared-memory
snapshot segments, shard workers with respawn, graceful cutover, and the
asyncio front door.  Run cleanly under ``-W error::ResourceWarning`` —
leaked segments, pipes, or sockets are bugs here, not noise."""

import asyncio
import dataclasses
import json
import os
import signal
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accounting.tier_designer import TierDesign
from repro.config import FleetConfig
from repro.core.bundling import ProfitWeightedBundling
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost, RegionalCost
from repro.core.flow import FlowSet
from repro.core.market import Market
from repro.errors import DataError
from repro.fleet import (
    AttachedSnapshot,
    FleetClient,
    FrontDoor,
    SharedSnapshot,
    ShardFleet,
    run_socket_load,
    segment_name,
    shard_of,
)
from repro.wire import MAX_FRAME_BYTES, encode_frame, read_frame
from repro.mechanisms import MECHANISM_NAMES, mechanism_by_name
from repro.obs import METRICS
from repro.serve import (
    PricingSnapshot,
    QuoteEngine,
    QuoteRequest,
    SnapshotRegistry,
    generate_requests,
)
from repro.serve.engine import (
    degraded_columns,
    quote_rows,
    quote_to_wire,
    quotes_from_columns,
    request_columns,
)
from repro.stream.repricer import DesignPublication

P0 = 20.0
COST_MODEL = LinearDistanceCost(theta=0.2)


def make_market(scale=1.0, cost_model=COST_MODEL):
    flows = FlowSet(
        demands_mbps=[800.0 * scale, 300.0, 120.0, 60.0 * scale, 20.0, 5.0],
        distances_miles=[2.0, 15.0, 60.0, 250.0, 900.0, 4000.0],
        dsts=[f"10.0.{i}.1" for i in range(6)],
    )
    return Market(flows, CEDDemand(1.1), cost_model, P0)


def make_snapshot(
    scale=1.0, version=1, config_digest="regime-a", cost_model=COST_MODEL
):
    market = make_market(scale, cost_model)
    outcome = market.tiered_outcome(ProfitWeightedBundling(), 3)
    design = TierDesign.from_outcome(market, outcome)
    return PricingSnapshot.build(
        design,
        version=version,
        config_digest=config_digest,
        blended_rate=P0,
        gamma=market.gamma,
        reference_distance_miles=float(market.flows.distances.max()),
    )


def raw_frame(body):
    return struct.pack(">I", len(body)) + body


def shm_segments():
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if "repro-snap" in name
        )
    except FileNotFoundError:  # non-Linux fallback: can't introspect
        return []


def _buildable(text: str) -> bool:
    """A label ``PricingSnapshot.build`` takes: UTF-8 text (no lone
    surrogate) that does not end in U+0000."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return not text.endswith("\0")


@st.composite
def labelled_queries(draw):
    """Distinct labels (ASCII or not, UTF-8, none ending in U+0000) and
    queries around them: labels, their prefixes and extensions, the
    empty string, queries wider than the column and labels plus U+0000
    (lone surrogates among the non-ASCII queries)."""
    alphabet = draw(
        st.sampled_from([st.characters(max_codepoint=127), st.characters()])
    )
    labels = draw(
        st.lists(
            st.text(alphabet, max_size=10).filter(_buildable),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    label = st.sampled_from(labels)
    query = st.one_of(
        label,
        label.flatmap(lambda text: st.integers(0, len(text)).map(lambda k: text[:k])),
        st.tuples(label, st.text(alphabet, min_size=1, max_size=3)).map("".join),
        st.just(""),
        label.map(lambda text: text + "\0"),
        label.map(lambda text: text + "w" * 41),
        st.text(alphabet, max_size=12),
    )
    return labels, draw(st.lists(query, min_size=1, max_size=25))


@pytest.fixture
def snapshot():
    return make_snapshot()


@pytest.fixture
def fleet(snapshot):
    config = FleetConfig(
        shards=2, heartbeat_ms=25.0, timeout_ms=5000.0, queue_depth=2048
    )
    fleet = ShardFleet(COST_MODEL, config, fallback_blended_rate=P0)
    with fleet:
        fleet.publish(snapshot)
        yield fleet
    assert shm_segments() == []


# ----------------------------------------------------------------------
# Shared-memory segments
# ----------------------------------------------------------------------


class TestSharedSnapshot:
    def test_round_trip_preserves_everything(self, snapshot):
        segment = SharedSnapshot.publish(snapshot)
        attached = AttachedSnapshot(segment.name)
        shared = attached.snapshot
        assert shared.version == snapshot.version
        assert shared.digest == snapshot.digest
        assert shared.config_digest == snapshot.config_digest
        assert shared.blended_rate == snapshot.blended_rate
        assert shared.gamma == snapshot.gamma
        assert (
            shared.reference_distance_miles
            == snapshot.reference_distance_miles
        )
        assert shared.rates == snapshot.rates
        assert shared.destinations == snapshot.destinations
        del shared
        attached.close()
        segment.unlink()

    @settings(max_examples=60, deadline=None)
    @given(case=labelled_queries())
    @example(
        case=(
            ["10.0.0.1", "10.0.0.10", "10.0.0.2"],
            [
                "10.0.0.1", "10.0.0.10", "10.0.0.100", "10.0.0.", "",
                "10.0.0.1\u0000", "10.0.0.10\u0000\u0000", "\u0000",
                "a-destination-far-wider-than-the-table-column",
            ],
        )
    )
    def test_tiers_for_is_the_design_lookup(self, case):
        """In process and through a segment, a query's tier is the
        design's own: prefixes and extensions of a label, the empty
        string, queries wider than the column and ones ending in U+0000
        included."""
        labels, queries = case
        design = TierDesign(
            provider_asn=64500,
            rates={1: 30.0, 2: 20.0, 3: 10.0},
            tier_of_destination={
                label: 1 + i % 3 for i, label in enumerate(labels)
            },
        )
        snapshot = PricingSnapshot.build(
            design, version=1, config_digest="r", blended_rate=P0, gamma=1.0
        )
        expected = [design.tier_of_destination.get(q, 0) for q in queries]
        assert snapshot.tiers_for(queries).tolist() == expected
        with SharedSnapshot.publish(snapshot) as segment:
            with AttachedSnapshot(segment.name) as attached:
                assert attached.snapshot.tiers_for(queries).tolist() == expected
                assert attached.snapshot.destinations == tuple(sorted(labels))

    def test_attach_is_zero_copy(self, snapshot):
        with SharedSnapshot.publish(snapshot) as segment:
            with AttachedSnapshot(segment.name) as attached:
                shared = attached.snapshot
                # Views into the mapped buffer, not copies: numpy does not
                # own the data and the arrays are read-only.
                for array in (
                    shared._dsts,
                    shared._tiers,
                    shared._rate_by_tier,
                ):
                    assert not array.flags["OWNDATA"]
                    assert not array.flags["WRITEABLE"]
                with pytest.raises(ValueError):
                    shared._tiers[0] = 99
                assert type(shared) is PricingSnapshot
                del shared, array

    def test_segment_name_is_versioned_by_digest(self, snapshot):
        with SharedSnapshot.publish(snapshot) as segment:
            assert segment.name == segment_name(
                snapshot.digest, snapshot.version
            )
            assert segment.name.startswith("repro-snap-")
            assert segment.name.endswith(f"-v{snapshot.version}")

    def test_unlink_removes_the_segment_and_is_idempotent(self, snapshot):
        segment = SharedSnapshot.publish(snapshot)
        name = segment.name
        assert any(name in entry for entry in shm_segments())
        segment.unlink()
        segment.unlink()
        assert shm_segments() == []
        with pytest.raises(FileNotFoundError):
            AttachedSnapshot(name)

    def test_stale_crashed_segment_is_replaced(self, snapshot):
        # Simulate a publisher that died without cleanup: the name exists
        # but nobody owns it.  Re-publishing the same content must win.
        from repro.fleet import shm as shm_module

        stale = SharedSnapshot.publish(snapshot)
        shm_module._OWNED.pop(stale.name, None)  # "crash": no cleanup
        stale._unlinked = True  # drop our handle without unlinking
        shm_module._close_segment(stale._shm)  # the crashed mapping is gone
        fresh = SharedSnapshot.publish(snapshot)
        with AttachedSnapshot(fresh.name) as attached:
            assert attached.version == snapshot.version
        fresh.unlink()

    def test_engine_quotes_identically_off_a_shared_snapshot(self, snapshot):
        requests = [
            QuoteRequest(dst="10.0.0.1", volume_mbps=4.0, distance_miles=10.0),
            QuoteRequest(dst="10.0.4.1", volume_mbps=1.0, distance_miles=900.0),
            QuoteRequest(dst="203.0.113.9", volume_mbps=2.0, distance_miles=5.0),
            QuoteRequest(dst=None, volume_mbps=1.0, distance_miles=1.0),
        ]
        plain = SnapshotRegistry()
        plain.adopt(snapshot)
        with SharedSnapshot.publish(snapshot) as segment:
            with AttachedSnapshot(segment.name) as attached:
                shared = SnapshotRegistry()
                shared.adopt(attached.snapshot)
                for a, b in zip(
                    QuoteEngine(plain, COST_MODEL, P0).quote_batch(requests),
                    QuoteEngine(shared, COST_MODEL, P0).quote_batch(requests),
                ):
                    assert a == b


class TestRegistryAdopt:
    def test_adopt_preserves_the_snapshot_version(self):
        externally_versioned = make_snapshot(version=41)
        registry = SnapshotRegistry()
        adopted = registry.adopt(externally_versioned)
        assert adopted is externally_versioned
        assert registry.version == 41
        assert registry.current() is externally_versioned

    def test_publish_snapshot_reversions_but_adopt_does_not(self):
        registry = SnapshotRegistry()
        reversioned = registry.publish_snapshot(make_snapshot(version=41))
        assert reversioned.version == 1
        registry.adopt(make_snapshot(version=9))
        assert registry.version == 9


class TestQuoteColumns:
    """The columnar engine path the shard pipes ride on."""

    def test_columns_rebuild_to_the_exact_object_answers(self, snapshot):
        registry = SnapshotRegistry()
        registry.adopt(snapshot)
        engine = QuoteEngine(registry, COST_MODEL, fallback_blended_rate=P0)
        requests = generate_requests(
            100, seed=2, snapshot=snapshot, unknown_fraction=0.3
        )
        expected = engine.quote_batch(requests)
        payload = engine.quote_columns(
            [r.dst for r in requests],
            [r.volume_mbps for r in requests],
            [r.distance_miles for r in requests],
        )
        assert not payload["degraded"]
        assert quotes_from_columns(payload, len(requests)) == expected

    def test_degrades_as_a_whole_batch_without_a_snapshot(self):
        engine = QuoteEngine(
            SnapshotRegistry(), COST_MODEL, fallback_blended_rate=P0
        )
        payload = engine.quote_columns(["10.0.0.1", None], [1.0, 2.0], [1.0, 9.0])
        assert payload["degraded"]
        quotes = quotes_from_columns(payload, 2)
        assert all(q.degraded for q in quotes)
        assert all(q.unit_price == pytest.approx(P0) for q in quotes)
        assert quotes[0].reason == "no snapshot published"


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for n in (1, 2, 3, 8):
            for dst in ("10.0.0.1", "a", "198.51.100.255", ""):
                sid = shard_of(dst, n)
                assert 0 <= sid < n
                assert sid == shard_of(dst, n)

    def test_none_routes_to_shard_zero(self):
        assert shard_of(None, 8) == 0

    def test_spreads_across_shards(self):
        sids = {shard_of(f"10.{i}.{i}.1", 4) for i in range(64)}
        assert sids == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# ShardFleet
# ----------------------------------------------------------------------


def quote_shard(fleet, sid, requests):
    """Round-trip ``requests`` to one shard; its answers as quotes."""
    payload = fleet.quote_shard(sid, request_columns(requests))
    return quotes_from_columns(payload, len(requests))


def quote_routed(fleet, requests):
    """Price ``requests`` shard by shard, each routed by ``shard_of`` (the
    front door's routing, without its queues); answers in request order."""
    parts = {}
    for i, request in enumerate(requests):
        parts.setdefault(shard_of(request.dst, fleet.n_shards), []).append(i)
    quotes = [None] * len(requests)
    for sid, indices in parts.items():
        answers = quote_shard(fleet, sid, [requests[i] for i in indices])
        for i, quote in zip(indices, answers):
            quotes[i] = quote
    return quotes


def quote_frame(fleet, requests, config=None):
    """Send ``requests`` through a front door over ``fleet`` as one frame."""

    async def scenario():
        async with FrontDoor(fleet, config) as door:
            async with await FleetClient.connect(door.host, door.port) as client:
                return await client.quote_batch(
                    [dataclasses.asdict(r) for r in requests]
                )

    return asyncio.run(scenario())


class TestShardFleet:
    def test_quotes_match_the_in_process_engine(self, fleet, snapshot):
        requests = generate_requests(
            200, seed=7, snapshot=snapshot, unknown_fraction=0.25
        )
        registry = SnapshotRegistry()
        registry.adopt(snapshot)
        engine = QuoteEngine(registry, COST_MODEL, P0)
        expected = engine.quote_batch(requests)
        actual = quote_frame(fleet, requests)
        assert len(actual) == len(expected)
        for ours, theirs in zip(actual, expected):
            assert ours["tier"] == theirs.tier
            assert ours["known"] == theirs.known
            assert not ours["degraded"]
            assert ours["unit_price"] == pytest.approx(theirs.unit_price)
            assert ours["unit_cost"] == pytest.approx(theirs.unit_cost)
            assert ours["profit_contribution"] == pytest.approx(
                theirs.profit_contribution
            )
            assert ours["snapshot_digest"] == snapshot.digest
            # The fleet stamps its own (fleet-wide) version.
            assert ours["snapshot_version"] == fleet.version

    def test_pinned_regimes_and_regions_ride_the_one_wire(self):
        # A regional fleet, so region labels move prices: each pinned
        # request is answered by its own pin, whatever shares its frame.
        cost_model = RegionalCost(theta=0.5)
        snapshot = make_snapshot(cost_model=cost_model)
        config = FleetConfig(shards=2, heartbeat_ms=25.0, timeout_ms=5000.0)
        requests = [
            QuoteRequest(dst="10.0.0.1", regime="regime-a"),
            QuoteRequest(dst="10.0.0.1", regime="regime-z"),
            QuoteRequest(dst="10.0.3.1", distance_miles=500.0, region="metro"),
            QuoteRequest(dst="10.0.3.1", distance_miles=500.0),
        ]
        with ShardFleet(cost_model, config, fallback_blended_rate=P0) as fleet:
            fleet.publish(snapshot)
            matched, mismatched, metro, unlabelled = quote_frame(
                fleet, requests
            )
            alone = quote_frame(fleet, requests[2:3])[0]
        assert not matched["degraded"] and matched["known"]
        assert mismatched["degraded"]
        assert "regime mismatch" in mismatched["reason"]
        assert mismatched["unit_price"] == pytest.approx(P0)
        assert metro == alone
        assert metro["unit_cost"] == pytest.approx(snapshot.gamma)
        assert unlabelled["unit_cost"] == pytest.approx(
            snapshot.gamma * 3.0**0.5
        )
        assert shm_segments() == []

    def test_distinct_worker_pids(self, fleet):
        pids = fleet.pids()
        assert len(pids) == 2
        assert len(set(pids)) == 2
        assert os.getpid() not in pids

    def test_publish_bumps_version_and_unlinks_the_old_segment(
        self, fleet, snapshot
    ):
        before = fleet.version
        old_segments = shm_segments()
        assert len(old_segments) == 1
        fleet.publish(make_snapshot(scale=2.0))
        assert fleet.version == before + 1
        fresh = shm_segments()
        assert len(fresh) == 1
        assert fresh != old_segments
        quotes = quote_shard(
            fleet,
            shard_of("10.0.0.1", fleet.n_shards),
            [QuoteRequest(dst="10.0.0.1", volume_mbps=1.0, distance_miles=2.0)],
        )
        assert quotes[0].snapshot_version == fleet.version

    def test_no_quote_from_a_stale_design_after_cutover(self, fleet, snapshot):
        """Once publish() returns, every answer carries the new version."""
        requests = generate_requests(64, seed=3, snapshot=snapshot)
        quote_routed(fleet, requests)
        fleet.publish(make_snapshot(scale=3.0))
        flipped = fleet.version
        for _ in range(5):
            versions = {
                quote.snapshot_version
                for quote in quote_routed(fleet, requests)
            }
            assert versions == {flipped}

    def test_chaos_kill_respawns_and_reattaches_current_version(
        self, fleet, snapshot
    ):
        requests = generate_requests(128, seed=11, snapshot=snapshot)
        victim = fleet.pids()[0]
        os.kill(victim, signal.SIGKILL)
        # Keep load flowing while the shard is down: answers must be
        # either real quotes or explicit degraded ones — never errors.
        for quote in quote_routed(fleet, requests):
            assert quote.degraded in (True, False)
        deadline = time.time() + 10.0
        while fleet.pids()[0] in (victim, None) and time.time() < deadline:
            time.sleep(0.02)
        assert fleet.pids()[0] not in (victim, None), "shard never respawned"
        assert fleet.respawns >= 1
        # The respawned worker attached the *current* segment: quotes
        # answer with the live version, not a stale one.
        fleet.publish(make_snapshot(scale=1.5))
        deadline = time.time() + 10.0
        while time.time() < deadline:
            quotes = quote_routed(fleet, requests)
            if not any(q.degraded for q in quotes):
                break
            time.sleep(0.05)
        versions = {q.snapshot_version for q in quotes}
        assert versions == {fleet.version}
        assert not any(q.degraded for q in quotes)

    def test_crash_mid_batch_degrades_with_reason(self, snapshot):
        config = FleetConfig(shards=1, heartbeat_ms=10_000.0, timeout_ms=500.0)
        fleet = ShardFleet(COST_MODEL, config, fallback_blended_rate=P0)
        with fleet:
            fleet.publish(snapshot)
            os.kill(fleet.pids()[0], signal.SIGKILL)
            time.sleep(0.05)
            quotes = quote_shard(
                fleet, 0, [QuoteRequest(dst="10.0.0.1", volume_mbps=1.0)]
            )
            assert quotes[0].degraded
            assert quotes[0].reason in ("shard crashed", "shard down")
            assert quotes[0].unit_price == pytest.approx(P0)

    def test_stop_merges_worker_counters(self, snapshot):
        config = FleetConfig(shards=1, heartbeat_ms=5_000.0)
        fleet = ShardFleet(COST_MODEL, config, fallback_blended_rate=P0)
        before = METRICS.counter("serve.quotes")
        with fleet:
            fleet.publish(snapshot)
            quote_shard(
                fleet, 0, generate_requests(50, seed=1, snapshot=snapshot)
            )
            # Workers count their engine work in their own process...
            assert METRICS.counter("serve.quotes") == before
        # ...and stop() folds it back into the coordinator's registry.
        assert METRICS.counter("serve.quotes") == before + 50

    def test_subscriber_publishes_and_cuts_over(self, fleet, snapshot):
        market = make_market(scale=4.0)
        outcome = market.tiered_outcome(ProfitWeightedBundling(), 3)
        publication = DesignPublication(
            design=TierDesign.from_outcome(market, outcome),
            gamma=float(market.gamma),
            blended_rate=P0,
            window_end_ms=1234,
            sequence=1,
            reference_distance_miles=float(market.flows.distances.max()),
        )
        before = fleet.version
        fleet.subscriber("regime-b")(publication)
        assert fleet.version == before + 1
        quote = quote_shard(
            fleet,
            shard_of("10.0.0.1", fleet.n_shards),
            [QuoteRequest(dst="10.0.0.1")],
        )[0]
        assert quote.snapshot_version == fleet.version

    def test_stats_shape(self, fleet):
        stats = fleet.stats()
        assert stats["shards"] == 2
        assert len(stats["pids"]) == 2
        assert stats["version"] >= 1
        assert stats["segment"] is not None


class TestOneQuotePath:
    """The engine, the routed shards and the front door give one answer."""

    @staticmethod
    def pinned_mix(snapshot, seed):
        rng = np.random.default_rng(seed)
        requests = generate_requests(
            120, seed=seed, snapshot=snapshot, unknown_fraction=0.3
        )
        requests.append(QuoteRequest(dst=None, volume_mbps=3.0))
        regions = (None, "metro", "national", "international")
        regimes = (None, None, "regime-a", "regime-z")
        return [
            dataclasses.replace(
                r,
                region=regions[rng.integers(len(regions))],
                regime=regimes[rng.integers(len(regimes))],
            )
            for r in requests
        ]

    @pytest.mark.parametrize("published", [True, False])
    def test_three_callers_answer_field_for_field_alike(self, published):
        cost_model = RegionalCost(theta=0.5)
        snapshot = make_snapshot(cost_model=cost_model)
        requests = self.pinned_mix(snapshot, seed=17)
        assert any(r.regime == "regime-z" for r in requests)
        registry = SnapshotRegistry()
        config = FleetConfig(shards=2, heartbeat_ms=25.0, timeout_ms=5000.0)
        with ShardFleet(cost_model, config, fallback_blended_rate=P0) as fleet:
            if published:
                registry.adopt(snapshot)
                fleet.publish(snapshot)
            expected = QuoteEngine(registry, cost_model, P0).quote_batch(
                requests
            )
            routed = quote_routed(fleet, requests)
            answers = quote_frame(fleet, requests)
        assert routed == expected
        assert answers == [quote_to_wire(q) for q in expected]
        degraded = {q.reason for q in expected if q.degraded}
        if published:
            assert any(not q.degraded for q in expected)
            assert {r.split(":")[0] for r in degraded} == {"regime mismatch"}
        else:
            assert degraded == {"no snapshot published"}
        assert shm_segments() == []


class TestDesignPriceThroughTheFrontDoor:
    def test_every_flow_is_quoted_its_design_price(self):
        """For each mechanism in turn, one 2-shard fleet serves the
        design's snapshot, and the front door quotes every flow's
        destination at the flow's design price."""
        rng = np.random.default_rng(11)
        n = 40
        flows = FlowSet(
            demands_mbps=rng.uniform(0.5, 500.0, n),
            distances_miles=rng.uniform(0.0, 3000.0, n),
            dsts=[f"10.0.{i // 256}.{i % 256}" for i in range(n)],
        )
        market = Market(flows, CEDDemand(1.1), COST_MODEL, P0)
        requests = [
            QuoteRequest(dst=dst, distance_miles=float(miles))
            for dst, miles in zip(flows.dsts, flows.distances)
        ]
        assert {shard_of(r.dst, 2) for r in requests} == {0, 1}
        config = FleetConfig(shards=2, heartbeat_ms=25.0, timeout_ms=5000.0)
        with ShardFleet(COST_MODEL, config, fallback_blended_rate=P0) as fleet:
            for name in MECHANISM_NAMES:
                mechanism = mechanism_by_name(name, n_tiers=3)
                design = mechanism.design_on(market)
                published = fleet.publish(
                    mechanism.snapshot(
                        design, version=fleet.version + 1, config_digest="fd"
                    )
                )
                answers = quote_frame(fleet, requests)
                assert all(a["known"] and not a["degraded"] for a in answers)
                assert {a["snapshot_digest"] for a in answers} == {
                    published.digest
                }
                assert [a["unit_price"] for a in answers] == design.prices.tolist()
        assert fleet.version == len(MECHANISM_NAMES)
        assert shm_segments() == []


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------


class TestFrontDoor:
    def test_quote_and_stats_frames(self, fleet, snapshot):
        async def scenario():
            async with FrontDoor(fleet) as door:
                assert door.port not in (None, 0)
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    answers = await client.quote_batch(
                        [
                            {
                                "dst": "10.0.0.1",
                                "volume_mbps": 2.0,
                                "distance_miles": 50.0,
                            },
                            {"dst": "203.0.113.5"},
                        ]
                    )
                    assert len(answers) == 2
                    assert answers[0]["tier"] is not None
                    assert answers[0]["known"] and not answers[0]["degraded"]
                    assert not answers[1]["known"]
                    assert (
                        answers[0]["snapshot_version"] == fleet.version
                    )
                    stats = await client.stats()
                    assert stats["shards"] == 2
                    assert "request_latency_ms" in stats
                    return answers

        asyncio.run(scenario())

    def test_invalid_quotes_get_inline_errors(self, fleet):
        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    answers = await client.quote_batch(
                        [
                            {"dst": "10.0.0.1"},
                            {"dst": "10.0.1.1", "volume_mbps": -5.0},
                            {"dst": "10.0.2.1", "bogus_field": 1},
                            "not-an-object",
                        ]
                    )
                    assert "error" not in answers[0]
                    assert "volume" in answers[1]["error"]
                    assert "bogus_field" in answers[2]["error"]
                    assert "error" in answers[3]

        asyncio.run(scenario())

    def test_frame_without_quotes_is_rejected(self, fleet):
        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    with pytest.raises(DataError):
                        await client.quote_batch([])

        asyncio.run(scenario())

    def test_wrong_typed_fields_get_a_per_quote_error(self, fleet):
        """A non-string ``dst`` or ``regime`` is a bad request, answered in
        line: it neither crashes a shard nor leaves its frame unanswered."""
        names = (
            "fleet.bad_requests", "fleet.respawns", "fleet.shard_failures"
        )
        before = {name: METRICS.counter(name) for name in names}
        respawns, failures = fleet.respawns, fleet.shard_failures

        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    answers = []
                    for quote in (
                        {"dst": "10.0.0.1", "regime": 5},
                        {"dst": 123},
                        {"dst": "10.0.0.1"},
                    ):
                        answers += await asyncio.wait_for(
                            client.quote_batch([quote]), 5.0
                        )
                    return answers

        regime, dst, valid = asyncio.run(scenario())
        assert regime["error"].startswith("DataError: quote regime")
        assert dst["error"].startswith("DataError: quote dst")
        assert not valid["degraded"] and valid["known"]
        delta = {name: METRICS.counter(name) - before[name] for name in names}
        assert delta == {
            "fleet.bad_requests": 2,
            "fleet.respawns": 0,
            "fleet.shard_failures": 0,
        }
        assert (fleet.respawns, fleet.shard_failures) == (respawns, failures)

    @pytest.mark.parametrize(
        "shards, bad",
        [
            pytest.param(1, b'{"dst": "\\ud800"}', id="surrogate-dst-1-shard"),
            pytest.param(2, b'{"dst": "\\ud800"}', id="surrogate-dst-2-shards"),
            pytest.param(
                1,
                b'{"dst": "10.0.1.1", "volume_mbps": 1' + b"0" * 400 + b"}",
                id="volume-past-a-float",
            ),
        ],
    )
    def test_row_no_shard_can_take_gets_its_own_error(self, snapshot, shards, bad):
        """A ``dst`` UTF-8 cannot encode, or a volume no float holds, is a
        bad request answered in line, sent as raw bytes: the frame is
        answered, its other rows are priced, and no shard dies."""
        config = FleetConfig(shards=shards, heartbeat_ms=25.0, timeout_ms=5000.0)
        body = b'{"id": 1, "quotes": [{"dst": "10.0.0.1"}, %s, {"dst": "10.0.2.1"}]}'

        async def scenario(door):
            reader, writer = await asyncio.open_connection(door.host, door.port)
            try:
                writer.write(raw_frame(body % bad))
                return await asyncio.wait_for(read_frame(reader), 3.0)
            finally:
                writer.close()
                await writer.wait_closed()

        async def serve(fleet):
            async with FrontDoor(fleet) as door:
                return await scenario(door)

        names = ("fleet.bad_requests", "fleet.shard_failures")
        with ShardFleet(COST_MODEL, config, fallback_blended_rate=P0) as fleet:
            fleet.publish(snapshot)
            pids = fleet.pids()
            before = {name: METRICS.counter(name) for name in names}
            reply = asyncio.run(serve(fleet))
            delta = {name: METRICS.counter(name) - before[name] for name in names}
            assert fleet.pids() == pids
            assert fleet.shard_failures == 0
        good, error, other = reply["quotes"]
        assert error["error"].startswith("DataError: quote ")
        for quote in (good, other):
            assert not quote["degraded"] and quote["known"]
        assert delta == {"fleet.bad_requests": 1, "fleet.shard_failures": 0}
        assert shm_segments() == []

    def test_label_plus_u0000_is_an_unknown_destination(self):
        """A segment's column pads its labels with NUL bytes; the row for
        ``10.0.0.1`` + U+0000 (no wider than the column) is still unknown,
        at the blended rate, while the other rows of its frame are
        priced."""
        design = TierDesign(
            provider_asn=64500,
            rates={1: 30.0, 2: 15.0},
            tier_of_destination={"10.0.0.1": 1, "10.0.0.10": 2, "10.0.2.1": 2},
        )
        snapshot = PricingSnapshot.build(
            design, version=1, config_digest="r", blended_rate=P0, gamma=1.0
        )
        rows = [{"dst": dst} for dst in ("10.0.0.1", "10.0.0.1\u0000", "10.0.2.1")]
        config = FleetConfig(shards=2, heartbeat_ms=25.0, timeout_ms=5000.0)

        async def scenario(fleet):
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    return await client.quote_batch(rows)

        with ShardFleet(COST_MODEL, config, fallback_blended_rate=P0) as fleet:
            fleet.publish(snapshot)
            good, padded, other = asyncio.run(scenario(fleet))
        assert not padded["known"] and not padded["degraded"]
        assert padded["tier"] is None and padded["unit_price"] == P0
        assert (good["tier"], good["unit_price"]) == (1, 30.0)
        assert (other["tier"], other["unit_price"]) == (2, 15.0)
        assert shm_segments() == []

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"\xff\xfe{}", id="invalid-utf8"),
            pytest.param(b'{"quotes": [', id="invalid-json"),
            pytest.param(b"[" * 100_000, id="deep-nesting"),
        ],
    )
    def test_unreadable_body_closes_the_connection(self, fleet, body):
        before = METRICS.counter("fleet.bad_frames")
        caught = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: caught.append(context)
            )
            async with FrontDoor(fleet) as door:
                reader, writer = await asyncio.open_connection(
                    door.host, door.port
                )
                writer.write(raw_frame(body))
                closed = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)  # let a dying handler report
                return closed

        assert asyncio.run(scenario()) == b""
        assert METRICS.counter("fleet.bad_frames") == before + 1
        assert caught == []

    @pytest.mark.parametrize("body", [b"[1, 2]", b"7"])
    def test_json_that_is_not_an_object_gets_an_error_reply(
        self, fleet, body
    ):
        async def scenario():
            async with FrontDoor(fleet) as door:
                reader, writer = await asyncio.open_connection(
                    door.host, door.port
                )
                try:
                    writer.write(raw_frame(body))
                    error = await asyncio.wait_for(read_frame(reader), 5.0)
                    # The connection stays open for the next frame.
                    writer.write(
                        encode_frame({"id": 2, "quotes": [{"dst": "10.0.0.1"}]})
                    )
                    quoted = await asyncio.wait_for(read_frame(reader), 5.0)
                finally:
                    writer.close()
                    await writer.wait_closed()
                return error, quoted

        error, quoted = asyncio.run(scenario())
        assert error == {"id": None, "error": "frame must be a JSON object"}
        assert quoted["id"] == 2 and not quoted["quotes"][0]["degraded"]

    def test_client_treats_an_unreadable_reply_as_a_closed_connection(self):
        caught = []

        async def hostile(reader, writer):
            await read_frame(reader)
            writer.write(raw_frame(b"[" * 100_000))
            await writer.drain()
            await reader.read()  # hold the socket until the client leaves
            writer.close()

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: caught.append(context)
            )
            server = await asyncio.start_server(hostile, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with await FleetClient.connect("127.0.0.1", port) as client:
                    with pytest.raises(ConnectionError):
                        await asyncio.wait_for(client.stats(), 5.0)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
        assert caught == []

    def test_a_header_over_the_limit_closes_the_connection(self, fleet):
        before = METRICS.counter("fleet.bad_frames")

        async def scenario():
            async with FrontDoor(fleet) as door:
                reader, writer = await asyncio.open_connection(
                    door.host, door.port
                )
                writer.write(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"{}")
                closed = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                await writer.wait_closed()
                return closed

        assert asyncio.run(scenario()) == b""
        assert METRICS.counter("fleet.bad_frames") == before + 1

    def test_a_reply_too_large_for_a_frame_is_an_error(self, fleet):
        # 40,000 answers take about 8.9 MB, past the 8 MiB frame bound.
        before = METRICS.counter("fleet.bad_frames")

        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    return await asyncio.gather(
                        client.quote_batch([{"dst": "10.0.0.1"}] * 40_000),
                        client.quote_batch([{"dst": "10.0.0.1"}]),
                        return_exceptions=True,
                    )

        too_large, (answer,) = asyncio.run(scenario())
        assert isinstance(too_large, DataError)
        assert str(too_large).startswith(
            "front door rejected the frame: reply of "
        ) and str(too_large).endswith(
            f" bytes would exceed MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
        assert not answer["degraded"] and answer["known"]
        assert METRICS.counter("fleet.bad_frames") == before + 1

    def test_client_refuses_to_send_a_request_too_large(self, fleet):
        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    with pytest.raises(DataError, match="MAX_FRAME_BYTES"):
                        await client.quote_batch(
                            [{"dst": "x" * MAX_FRAME_BYTES}]
                        )
                    return await client.quote_batch([{"dst": "10.0.0.1"}])

        (answer,) = asyncio.run(scenario())
        assert not answer["degraded"] and answer["known"]

    def test_pipelined_frames_correlate_by_id(self, fleet, snapshot):
        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    batches = [
                        [
                            {
                                "dst": dst,
                                "volume_mbps": float(i + 1),
                                "distance_miles": 10.0,
                            }
                            for dst in snapshot.destinations
                        ]
                        for i in range(8)
                    ]
                    replies = await asyncio.gather(
                        *(client.quote_batch(batch) for batch in batches)
                    )
                    for i, answers in enumerate(replies):
                        assert len(answers) == len(snapshot.destinations)
                        assert all(a["known"] for a in answers)

        asyncio.run(scenario())

    def test_socket_load_reports_throughput_and_tail(self, fleet, snapshot):
        requests = generate_requests(
            400, seed=5, snapshot=snapshot, unknown_fraction=0.2
        )

        async def scenario():
            async with FrontDoor(fleet) as door:
                return await run_socket_load(
                    door.host, door.port, requests, frame_size=50
                )

        report = asyncio.run(scenario())
        assert report.answered == 400
        assert report.priced == 400
        assert report.quotes_per_second > 0
        assert report.latency_ms["p99"] >= report.latency_ms["p50"] > 0
        assert report.versions == (fleet.version,)

    def test_single_quote_round_trip(self, fleet, snapshot):
        requests_before = METRICS.counter("fleet.requests")
        latencies_before = METRICS.latency_count("fleet.request")

        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    return await client.quote_batch([{"dst": "10.0.0.1"}])

        (answer,) = asyncio.run(scenario())
        assert not answer["degraded"] and answer["known"]
        assert answer["snapshot_digest"] == snapshot.digest
        assert METRICS.counter("fleet.requests") == requests_before + 1
        assert METRICS.latency_count("fleet.request") == latencies_before + 1

    def test_frame_answers_follow_request_order_across_shards(
        self, fleet, snapshot
    ):
        """One frame is split by shard and reassembled in request order."""
        requests = generate_requests(
            100, seed=3, snapshot=snapshot, unknown_fraction=0.5
        )
        assert {shard_of(r.dst, fleet.n_shards) for r in requests} == {0, 1}
        registry = SnapshotRegistry()
        registry.adopt(snapshot)
        expected = QuoteEngine(registry, COST_MODEL, P0).quote_batch(requests)

        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    return await client.quote_batch(
                        [
                            {
                                "dst": r.dst,
                                "volume_mbps": r.volume_mbps,
                                "distance_miles": r.distance_miles,
                            }
                            for r in requests
                        ]
                    )

        answers = asyncio.run(scenario())
        assert len(answers) == len(expected)
        for ours, theirs in zip(answers, expected):
            assert not ours["degraded"]
            assert ours["tier"] == theirs.tier
            assert ours["known"] == theirs.known
            assert ours["unit_price"] == pytest.approx(theirs.unit_price)
            assert ours["unit_cost"] == pytest.approx(theirs.unit_cost)
            assert ours["profit_contribution"] == pytest.approx(
                theirs.profit_contribution
            )

    def test_fleet_not_running_answers_degraded(self):
        """A front door over a fleet that was never started still answers
        every request, as a degraded blended-rate quote."""
        fleet = ShardFleet(
            COST_MODEL, FleetConfig(shards=1), fallback_blended_rate=P0
        )

        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    return await asyncio.wait_for(
                        client.quote_batch(
                            [{"dst": "10.0.0.1"}, {"dst": "10.0.1.1"}]
                        ),
                        5.0,
                    )

        answers = asyncio.run(scenario())
        assert len(answers) == 2
        for answer in answers:
            assert answer["degraded"]
            assert answer["reason"] == "shard down"
            assert answer["unit_price"] == pytest.approx(P0)
            assert answer["snapshot_version"] is None

    def test_socket_load_accounts_for_every_request(self, fleet, snapshot):
        """Under shedding, every request is still answered exactly once,
        priced or degraded, and the report says so."""
        requests = generate_requests(
            300, seed=6, snapshot=snapshot, unknown_fraction=0.2
        )
        # A 64-quote frame puts more than 8 requests on some shard, and a
        # frame is admitted without yielding: shedding is certain.
        config = FleetConfig(shards=2, queue_depth=8, max_batch=4)

        async def scenario():
            async with FrontDoor(fleet, config) as door:
                report = await run_socket_load(
                    door.host, door.port, requests, frame_size=64
                )
                return report, door.shed

        report, shed = asyncio.run(scenario())
        assert report.answered == report.n_requests == 300
        assert report.answered == report.priced + report.degraded
        assert report.degraded == shed > 0
        assert report.priced > 0
        assert report.quotes_per_second > 0
        assert "p99" in report.latency_ms
        rendered = report.render()
        assert "quotes/s" in rendered
        assert f"{report.degraded} degraded" in rendered

    def test_full_shard_queue_sheds_the_oldest_requests(
        self, fleet, snapshot
    ):
        """A frame is admitted without yielding, so a shard queue of 4 that
        receives 12 requests keeps exactly the newest 4."""
        config = FleetConfig(shards=2, queue_depth=4, max_batch=4)
        requests = [
            QuoteRequest(
                dst="10.0.0.1", volume_mbps=float(i + 1), distance_miles=10.0
            )
            for i in range(12)
        ]
        registry = SnapshotRegistry()
        registry.adopt(snapshot)
        expected = QuoteEngine(registry, COST_MODEL, P0).quote_batch(
            requests[8:]
        )

        async def scenario():
            async with FrontDoor(fleet, config) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    answers = await client.quote_batch(
                        [
                            {
                                "dst": r.dst,
                                "volume_mbps": r.volume_mbps,
                                "distance_miles": r.distance_miles,
                            }
                            for r in requests
                        ]
                    )
                    return answers, door.shed

        answers, shed = asyncio.run(scenario())
        assert shed == 8
        for answer in answers[:8]:
            assert answer["degraded"]
            assert answer["reason"] == "shed by admission control"
            assert answer["unit_price"] == pytest.approx(P0)
        for ours, theirs in zip(answers[8:], expected):
            assert not ours["degraded"] and ours["known"]
            assert ours["profit_contribution"] == pytest.approx(
                theirs.profit_contribution
            )

    def test_each_shed_request_is_answered_and_counted_once(
        self, fleet, snapshot
    ):
        config = FleetConfig(shards=2, queue_depth=4, max_batch=4)
        by_shard = {shard_of(d, 2): d for d in snapshot.destinations}
        assert sorted(by_shard) == [0, 1]
        quotes = [
            {"dst": by_shard[j % 2], "volume_mbps": 1.0, "distance_miles": 1.0}
            for j in range(24)
        ]
        names = ("fleet.shed", "fleet.degraded", "fleet.requests")
        before = {name: METRICS.counter(name) for name in names}
        latencies_before = METRICS.latency_count("fleet.request")

        async def scenario():
            async with FrontDoor(fleet, config) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    return await client.quote_batch(quotes), door.shed

        answers, shed = asyncio.run(scenario())
        # 12 requests per shard into queues of 4: 8 shed on each shard.
        assert shed == 16
        assert len(answers) == 24
        assert sum(a["degraded"] for a in answers) == shed
        delta = {name: METRICS.counter(name) - before[name] for name in names}
        assert delta == {
            "fleet.shed": shed,
            "fleet.degraded": shed,
            "fleet.requests": 24,
        }
        assert METRICS.latency_count("fleet.request") == latencies_before + 24

    def test_shed_answers_go_out_while_the_shard_is_held(
        self, fleet, monkeypatch
    ):
        """Shedding answers the evicted requests at once, without waiting
        for the shard round trip that kept them queued."""
        config = FleetConfig(shards=2, queue_depth=4, max_batch=1)
        real_quote_shard = fleet.quote_shard
        entered, gate = threading.Event(), threading.Event()

        def held_quote_shard(sid, requests, timeout_s=None):
            entered.set()
            gate.wait(5.0)
            return real_quote_shard(sid, requests, timeout_s)

        monkeypatch.setattr(fleet, "quote_shard", held_quote_shard)

        def frame(n):
            return [
                {"dst": "10.0.0.1", "volume_mbps": 1.0, "distance_miles": 1.0}
                for _ in range(n)
            ]

        async def until(predicate):
            deadline = time.monotonic() + 5.0
            while not predicate():
                assert time.monotonic() < deadline, "timed out waiting"
                await asyncio.sleep(0.005)

        async def scenario():
            async with FrontDoor(fleet, config) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    try:
                        admitted = METRICS.counter("fleet.requests")
                        held = asyncio.create_task(client.quote_batch(frame(1)))
                        await until(entered.is_set)
                        queued = asyncio.create_task(
                            client.quote_batch(frame(4))
                        )
                        await until(
                            lambda: METRICS.counter("fleet.requests")
                            == admitted + 5
                        )
                        newest = asyncio.create_task(
                            client.quote_batch(frame(4))
                        )
                        shed = await asyncio.wait_for(queued, 5.0)
                        assert not gate.is_set() and not held.done()
                    finally:
                        gate.set()
                    rest = await asyncio.wait_for(
                        asyncio.gather(held, newest), 5.0
                    )
                    return shed, [a for reply in rest for a in reply]

        shed, served = asyncio.run(scenario())
        assert len(shed) == 4
        for answer in shed:
            assert answer["degraded"]
            assert answer["reason"] == "shed by admission control"
            assert answer["unit_price"] == pytest.approx(P0)
        assert len(served) == 5
        assert not any(answer["degraded"] for answer in served)

    def test_admission_control_sheds_oldest_under_overload(
        self, fleet, snapshot, monkeypatch
    ):
        config = FleetConfig(shards=2, queue_depth=8, max_batch=4)
        real_quote_shard = fleet.quote_shard

        def slow_quote_shard(sid, requests, timeout_s=None):
            time.sleep(0.05)
            return real_quote_shard(sid, requests, timeout_s)

        monkeypatch.setattr(fleet, "quote_shard", slow_quote_shard)
        shed_before = METRICS.counter("fleet.shed")
        dropped_before = METRICS.counter("stream.queue_dropped")

        async def scenario():
            async with FrontDoor(fleet, config) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    # Far more in flight than 2 shards * (8 queued + 4 in
                    # a batch) can hold: the overflow must shed, and every
                    # request still gets an answer.
                    batches = [
                        [
                            {
                                "dst": f"10.9.{i}.{j}",
                                "volume_mbps": 1.0,
                                "distance_miles": 1.0,
                            }
                            for j in range(16)
                        ]
                        for i in range(12)
                    ]
                    replies = await asyncio.gather(
                        *(client.quote_batch(batch) for batch in batches)
                    )
                    answers = [a for reply in replies for a in reply]
                    assert len(answers) == 12 * 16
                    shed = [
                        a
                        for a in answers
                        if a["degraded"]
                        and a["reason"] == "shed by admission control"
                    ]
                    assert shed, "overload never shed anything"
                    for answer in shed:
                        assert answer["unit_price"] == pytest.approx(P0)
                    return len(shed), door

        shed, door = asyncio.run(scenario())
        assert shed == door.shed > 0
        # Shedding is counted once, as fleet shedding — no stream ran, so
        # no stream record was dropped.
        assert METRICS.counter("fleet.shed") - shed_before == door.shed
        assert METRICS.counter("stream.queue_dropped") == dropped_before

    def test_stop_answers_queued_requests_degraded(self, fleet, monkeypatch):
        """Stopping with a round trip held and more than one batch queued:
        every admitted request is still answered, the stopped ones as
        degraded blended-rate quotes."""
        config = FleetConfig(shards=2, queue_depth=64, max_batch=2)
        real_quote_shard = fleet.quote_shard
        entered = threading.Event()

        def held_quote_shard(sid, requests, timeout_s=None):
            entered.set()
            time.sleep(0.3)
            return real_quote_shard(sid, requests, timeout_s)

        monkeypatch.setattr(fleet, "quote_shard", held_quote_shard)
        batch = [
            {"dst": f"10.9.0.{j}", "volume_mbps": 1.0, "distance_miles": 1.0}
            for j in range(16)
        ]

        async def scenario():
            door = await FrontDoor(fleet, config).start()
            stopping = None
            try:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    reply = asyncio.create_task(client.quote_batch(batch))
                    deadline = time.monotonic() + 5.0
                    while not entered.is_set():
                        assert time.monotonic() < deadline, "no round trip"
                        await asyncio.sleep(0.005)
                    stopping = asyncio.create_task(door.stop())
                    return await asyncio.wait_for(reply, 5.0)
            finally:
                await asyncio.wait_for(stopping or door.stop(), 5.0)

        answers = asyncio.run(scenario())
        assert len(answers) == len(batch)
        stopped = [a for a in answers if a["reason"] == "front door stopped"]
        # At most one held batch per shard may finish before the stop.
        assert len(stopped) >= len(batch) - 2 * config.max_batch
        for answer in stopped:
            assert answer["degraded"]
            assert answer["unit_price"] == pytest.approx(P0)
        for answer in answers:
            assert answer["degraded"] == (answer in stopped)


def expected_row(obj):
    """What a front door answers for one wire quote, derived from the
    in-process API: the frame's checks, then ``QuoteRequest(**obj)``."""
    if not isinstance(obj, dict):
        return {
            "error": f"DataError: quote must be an object, got "
            f"{type(obj).__name__}"
        }
    unknown = set(obj) - {f.name for f in dataclasses.fields(QuoteRequest)}
    if unknown:
        return {"error": f"DataError: unknown quote field(s) {sorted(unknown)}"}
    try:
        request = QuoteRequest(**obj)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return request


def odd_quote(rng, destinations):
    """One seeded wire quote: valid, odd but valid, or bad."""
    dsts = [*destinations, "203.0.113.7", "198.51.100.1", None]
    quote = {
        "dst": dsts[rng.integers(len(dsts))],
        "volume_mbps": float(rng.uniform(0.5, 50.0)),
        "distance_miles": float(rng.uniform(0.0, 3000.0)),
    }
    numbers = ("3", float("nan"), float("inf"), float("-inf"), 0, 0.0, -2.5,
               7, True, False, None)
    kind = int(rng.integers(16))
    if kind == 0:
        return ["not-an-object", 7, [1, 2], None][rng.integers(4)]
    if kind == 1:
        quote["bogus_field"] = 1
    elif kind == 2:
        quote["dst"] = [123, 4.5, ["10.0.0.1"], {"a": 1}][rng.integers(4)]
    elif kind == 3:
        quote["regime"] = [5, 1.5, ["regime-a"]][rng.integers(3)]
    elif kind == 4:
        quote["volume_mbps"] = numbers[rng.integers(len(numbers))]
    elif kind == 5:
        quote["distance_miles"] = numbers[rng.integers(len(numbers))]
    elif kind == 6:
        quote["region"] = ["metro", "international", "outer-space", 5, None][
            rng.integers(5)
        ]
    elif kind == 7:
        quote["regime"] = ["regime-a", "regime-z", None][rng.integers(3)]
    elif kind == 8:
        del quote["dst"]
    elif kind == 9:
        quote = {"dst": quote["dst"]}  # every other field defaulted
    elif kind == 10:
        quote["dst"] = None
    return quote


class TestColumnarFrontDoor:
    """The front door's column parse, slices and row shedding."""

    def test_column_parse_answers_like_the_in_process_api(
        self, fleet, snapshot
    ):
        """Seeded frames of valid, odd and bad rows over one connection:
        each row is answered exactly as the in-process API answers it."""
        rng = np.random.default_rng(2024)
        frames = [
            [
                odd_quote(rng, snapshot.destinations)
                for _ in range(int(rng.integers(1, 40)))
            ]
            for _ in range(200)
        ]
        registry = SnapshotRegistry()
        registry.adopt(snapshot)
        engine = QuoteEngine(registry, COST_MODEL, P0)
        expected = []
        valid = bad = 0
        for frame in frames:
            rows = [expected_row(obj) for obj in frame]
            requests = [r for r in rows if isinstance(r, QuoteRequest)]
            quotes = iter(engine.quote_batch(requests))
            expected.append(
                [
                    quote_to_wire(next(quotes))
                    if isinstance(r, QuoteRequest)
                    else r
                    for r in rows
                ]
            )
            valid += len(requests)
            bad += len(rows) - len(requests)
        assert valid > 1000 and bad > 500
        names = ("fleet.requests", "fleet.bad_requests")
        before = {name: METRICS.counter(name) for name in names}

        async def scenario():
            async with FrontDoor(fleet) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    return [
                        await asyncio.wait_for(client.quote_batch(f), 5.0)
                        for f in frames
                    ]

        replies = asyncio.run(scenario())
        for got, want in zip(replies, expected):
            assert [json.dumps(a) for a in got] == [json.dumps(a) for a in want]
        delta = {name: METRICS.counter(name) - before[name] for name in names}
        assert delta == {"fleet.requests": valid, "fleet.bad_requests": bad}

    def test_shedding_splits_a_slice_the_shard_is_part_way_through(
        self, fleet, snapshot, monkeypatch
    ):
        """Frame A's first batch is held in the shard; frame B overflows
        the queue.  The oldest queued rows of A are shed, in request
        order, splitting A's remainder; every other row is priced."""
        config = FleetConfig(shards=2, queue_depth=6, max_batch=2)
        real_quote_shard = fleet.quote_shard
        entered, gate = threading.Event(), threading.Event()

        def held_quote_shard(sid, batch, timeout_s=None):
            entered.set()
            gate.wait(5.0)
            return real_quote_shard(sid, batch, timeout_s)

        monkeypatch.setattr(fleet, "quote_shard", held_quote_shard)
        requests = [
            QuoteRequest(dst="10.0.0.1", volume_mbps=float(i + 1))
            for i in range(11)
        ]
        registry = SnapshotRegistry()
        registry.adopt(snapshot)
        priced = QuoteEngine(registry, COST_MODEL, P0).quote_batch(requests)
        wire = [dataclasses.asdict(r) for r in requests]
        names = ("fleet.shed", "fleet.degraded", "fleet.requests")
        before = {name: METRICS.counter(name) for name in names}
        latencies_before = METRICS.latency_count("fleet.request")

        def moved():
            delta = {n: METRICS.counter(n) - before[n] for n in names}
            delta["latencies"] = (
                METRICS.latency_count("fleet.request") - latencies_before
            )
            return delta

        async def until(predicate):
            deadline = time.monotonic() + 5.0
            while not predicate():
                assert time.monotonic() < deadline, "timed out waiting"
                await asyncio.sleep(0.005)

        async def scenario():
            async with FrontDoor(fleet, config) as door:
                async with await FleetClient.connect(
                    door.host, door.port
                ) as client:
                    try:
                        a = asyncio.create_task(client.quote_batch(wire[:6]))
                        await until(entered.is_set)
                        b = asyncio.create_task(client.quote_batch(wire[6:]))
                        await until(lambda: moved()["fleet.requests"] == 11)
                        at_shed = (door.shed, moved())
                        assert not a.done()
                    finally:
                        gate.set()
                    replies = await asyncio.wait_for(asyncio.gather(a, b), 5.0)
                    return at_shed, replies, door.shed

        (shed_then, moved_then), (a, b), shed = asyncio.run(scenario())
        # A's rows 0-1 were in the held batch, so the queue of 6 held
        # rows 2-5; B's 5 rows pushed out the oldest 3, splitting A.
        assert shed_then == shed == 3
        assert moved_then == {
            "fleet.shed": 3, "fleet.degraded": 3, "fleet.requests": 11,
            "latencies": 3,
        }
        answers = a + b
        for i in (2, 3, 4):
            assert answers[i]["degraded"]
            assert answers[i]["reason"] == "shed by admission control"
            assert answers[i]["unit_price"] == pytest.approx(P0)
        for i in (0, 1, 5, 6, 7, 8, 9, 10):
            assert answers[i] == quote_to_wire(priced[i])
        assert moved() == {
            "fleet.shed": 3, "fleet.degraded": 3, "fleet.requests": 11,
            "latencies": 11,
        }


def strict_json(body: bytes):
    """A reply parsed as RFC 8259 JSON: ``NaN`` and ``Infinity`` are
    errors, as they are to a strict client."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(body, parse_constant=reject)


def raw_replies(snapshot, config, frames):
    """Send ``frames`` (JSON values) as raw frames on one connection to a
    front door over a fleet serving ``snapshot``; the reply bodies, in
    arrival order."""

    async def scenario(door):
        reader, writer = await asyncio.open_connection(door.host, door.port)
        try:
            for frame in frames:
                writer.write(raw_frame(json.dumps(frame).encode()))
            await writer.drain()
            bodies = []
            for _ in frames:
                header = await asyncio.wait_for(reader.readexactly(4), 5.0)
                (length,) = struct.unpack(">I", header)
                bodies.append(
                    await asyncio.wait_for(reader.readexactly(length), 5.0)
                )
            return bodies
        finally:
            writer.close()
            await writer.wait_closed()

    async def serve(fleet):
        async with FrontDoor(fleet, config) as door:
            return await scenario(door)

    with ShardFleet(COST_MODEL, config, fallback_blended_rate=P0) as fleet:
        fleet.publish(snapshot)
        bodies = asyncio.run(serve(fleet))
    assert shm_segments() == []
    return bodies


def labelled_snapshot():
    """A snapshot whose design tiers the empty-string label too."""
    design = TierDesign(
        provider_asn=64500,
        rates={1: 30.0, 2: 15.0, 3: 7.5},
        tier_of_destination={
            "": 1, "10.0.0.1": 2, "10.0.1.1": 3, "10.0.2.1": 1, "caf\u00e9": 2,
        },
    )
    return PricingSnapshot.build(
        design, version=1, config_digest="regime-a", blended_rate=P0,
        gamma=0.05, reference_distance_miles=4000.0,
    )


#: One of each kind of row: known, unknown, ``null`` and empty-string
#: destinations, a regime mismatch, a profit and a cost past any
#: ordinary size, and bad rows.
MIXED_ROWS = [
    {"dst": "10.0.0.1", "volume_mbps": 4.0, "distance_miles": 120.0},
    {"dst": "caf\u00e9", "volume_mbps": 0.5},
    {"dst": "203.0.113.7", "volume_mbps": 2.0, "distance_miles": 900.0},
    {"dst": None, "volume_mbps": 3.0},
    {"dst": ""},
    {"dst": "10.0.1.1", "regime": "regime-z"},
    {"dst": "10.0.1.1", "regime": "regime-a", "region": "metro"},
    {"dst": "10.0.2.1", "volume_mbps": 1e308},
    {"dst": "10.0.2.1", "distance_miles": 1e308},
    {"dst": "10.0.0.1", "volume_mbps": -1.0},
    "not-an-object",
    {"dst": "10.0.0.1", "bogus": 1},
    {"dst": 5},
]


class TestRepliesFromColumns:
    """Reply frames are written as text from the shard's payload: the
    same bytes ``json.dumps`` of the reply dict gives, and strict JSON."""

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(FleetConfig(shards=1, timeout_ms=5000.0), id="1-shard"),
            pytest.param(FleetConfig(shards=2, timeout_ms=5000.0), id="2-shards"),
            pytest.param(
                FleetConfig(shards=2, timeout_ms=5000.0, queue_depth=8, max_batch=4),
                id="shedding",
            ),
        ],
    )
    def test_reply_bytes_are_the_compact_json_of_the_answers(self, config):
        snapshot = labelled_snapshot()
        registry = SnapshotRegistry()
        registry.adopt(snapshot)
        engine = QuoteEngine(registry, COST_MODEL, P0)

        def oracle(obj):
            row = expected_row(obj)
            if not isinstance(row, QuoteRequest):
                return row  # the bad row's error
            payload = engine.quote_columns(*request_columns([row]).as_args())
            return quote_rows(payload, 1)[0]

        shed = json.dumps(
            quote_rows(
                degraded_columns("shed by admission control", snapshot, P0), 1
            )[0]
        )
        ids = [7, "fr\u00e4me-\u4e2d \"q\"", {"n": [1, {"k": "v\u00e9"}], "s": None}]
        frames = {
            json.dumps(frame_id): {"id": frame_id, "quotes": rows}
            for frame_id, rows in zip(
                ids, [MIXED_ROWS * 2, MIXED_ROWS[::-1] * 2, MIXED_ROWS[3:] * 3]
            )
        }
        bodies = raw_replies(snapshot, config, list(frames.values()))
        shed_rows = 0
        for body in bodies:
            assert body == json.dumps(
                json.loads(body), separators=(",", ":")
            ).encode()
            reply = strict_json(body)
            frame = frames.pop(json.dumps(reply["id"]))
            assert len(reply["quotes"]) == len(frame["quotes"])
            for answer, obj in zip(reply["quotes"], frame["quotes"]):
                if json.dumps(answer) == shed:
                    shed_rows += 1
                else:
                    assert json.dumps(answer) == json.dumps(oracle(obj))
        assert frames == {}
        assert (shed_rows > 0) == (config.queue_depth == 8)

    def test_a_frame_id_holding_nan_or_infinity_gets_a_strict_error(self):
        # json.loads reads these constants, so the id cannot be echoed:
        # the frame is a bad frame and the connection stays open.
        snapshot = labelled_snapshot()
        frames = [
            {"id": float("nan"), "quotes": [{"dst": "10.0.0.1"}]},
            {"id": float("-inf"), "op": "stats"},
            {"id": {"a": [float("inf")]}, "quotes": MIXED_ROWS},
            {"id": 8, "quotes": [{"dst": "10.0.0.1"}]},
        ]
        before = METRICS.counter("fleet.bad_frames")
        bodies = raw_replies(
            snapshot, FleetConfig(shards=1, timeout_ms=5000.0), frames
        )
        assert METRICS.counter("fleet.bad_frames") == before + 3
        replies = sorted(
            (strict_json(body) for body in bodies), key=lambda r: r["id"] or 0
        )
        assert replies[:3] == [
            {"id": None, "error": "frame id holds NaN or Infinity"}
        ] * 3
        assert replies[3]["id"] == 8
        assert replies[3]["quotes"][0]["tier"] == 2

    def test_a_frame_id_too_long_to_echo_gets_an_error(self):
        # The frame fits, but no stats reply around its id does: the
        # error has a null id and the connection stays open.
        long_id = "x" * (MAX_FRAME_BYTES - 40)
        before = METRICS.counter("fleet.bad_frames")
        bodies = raw_replies(
            labelled_snapshot(),
            FleetConfig(shards=1, timeout_ms=5000.0),
            [{"id": long_id, "op": "stats"}, {"id": 8, "op": "stats"}],
        )
        assert METRICS.counter("fleet.bad_frames") == before + 1
        replies = sorted(
            (strict_json(body) for body in bodies), key=lambda r: r["id"] or 0
        )
        assert replies[0] == {"id": None, "error": "frame id is too long to echo"}
        assert replies[1]["id"] == 8 and "stats" in replies[1]


# ----------------------------------------------------------------------
# Fleet end to end: stream publication -> cutover under live load
# ----------------------------------------------------------------------


class TestCutoverUnderLoad:
    def test_socket_load_across_a_cutover_sees_no_stale_version(
        self, fleet, snapshot
    ):
        requests = generate_requests(600, seed=13, snapshot=snapshot)

        async def scenario():
            async with FrontDoor(fleet) as door:
                first = await run_socket_load(
                    door.host, door.port, requests[:300], frame_size=30
                )
                flipped = fleet.publish(make_snapshot(scale=5.0))
                second = await run_socket_load(
                    door.host, door.port, requests[300:], frame_size=30
                )
                return first, second, flipped

        first, second, flipped = asyncio.run(scenario())
        assert first.versions == (flipped.version - 1,)
        # The cutover completed before the second load began: zero
        # answers from the old design.
        assert second.versions == (flipped.version,)


# ----------------------------------------------------------------------
# The CLI: repro fleet
# ----------------------------------------------------------------------


class TestFleetCommand:
    def test_window_env_reaches_the_warm_up(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_STREAM_WINDOW_MS", "300000")
        argv = ["--flows", "40", "fleet", "eu_isp", "--duration", "1800"]
        argv += ["--selftest", "50", "--shards", "1", "--no-cache"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("stream warm-up: 6 windows")
        assert shm_segments() == []

    def test_mechanism_flag_serves_a_reclearing_design(self, capsys):
        from repro.cli import main

        argv = ["--flows", "40", "fleet", "eu_isp", "--mechanism", "hybrid"]
        argv += ["--selftest", "200", "--shards", "1", "--no-cache"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # Hybrid publishes the posted book plus spot lots: more tiers
        # than the 3-tier posted budget.
        active = next(l for l in out.splitlines() if l.startswith("active "))
        assert int(active.split(" tiers ")[0].rsplit(" ", 1)[1]) > 3
        report = json.loads(out.split("fleet-report: ", 1)[1])
        assert report["answered"] == 200 and report["degraded"] == 0
        assert report["stale_after_cutover"] == 0
        assert shm_segments() == []
