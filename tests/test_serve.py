"""Tests for in-process quote pricing: snapshots, the hot-swap
registry, the vectorized engine under concurrent readers, and the
stream→registry round trip.  Serving over sockets is ``test_fleet.py``."""

import json
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accounting.tier_designer import TierDesign
from repro.core.bundling import ProfitWeightedBundling
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost, RegionalCost
from repro.core.flow import VALID_REGIONS, FlowSet
from repro.core.market import Market
from repro.errors import (
    ConfigurationError,
    DataError,
    SnapshotUnavailableError,
)
from repro.obs import METRICS
from repro.serve import (
    PricingSnapshot,
    QuoteEngine,
    QuoteRequest,
    SnapshotRegistry,
    UNKNOWN_TIER,
    generate_requests,
)
from repro.serve.engine import (
    COST_OUT_OF_RANGE,
    quote_rows,
    quote_texts,
    request_columns,
)
from repro.stream import (
    DemandShift,
    StreamConfig,
    StreamingPipeline,
    TraceReplaySource,
)
from repro.runtime.cache import config_hash
from repro.synth.trace import generate_network_trace
from tests import window_reference as ref

P0 = 20.0
COST_MODEL = LinearDistanceCost(theta=0.2)


def make_market(scale=1.0):
    flows = FlowSet(
        demands_mbps=[800.0 * scale, 300.0, 120.0, 60.0 * scale, 20.0, 5.0],
        distances_miles=[2.0, 15.0, 60.0, 250.0, 900.0, 4000.0],
        dsts=[f"10.0.{i}.1" for i in range(6)],
    )
    return Market(flows, CEDDemand(1.1), COST_MODEL, P0)


def make_design(scale=1.0, n_tiers=3):
    market = make_market(scale)
    outcome = market.tiered_outcome(ProfitWeightedBundling(), n_tiers)
    return market, TierDesign.from_outcome(market, outcome)


def publish(registry, scale=1.0):
    market, design = make_design(scale)
    return registry.publish(
        design,
        config_digest="regime-a",
        blended_rate=P0,
        gamma=market.gamma,
        reference_distance_miles=float(market.flows.distances.max()),
    )


@pytest.fixture
def registry():
    return SnapshotRegistry()


@pytest.fixture
def engine(registry):
    return QuoteEngine(registry, COST_MODEL, fallback_blended_rate=P0)


# ----------------------------------------------------------------------
# PricingSnapshot
# ----------------------------------------------------------------------


@st.composite
def snapshot_designs(draw):
    """A design of 1-30 tiers over ASCII, non-ASCII, integer or float
    labels, and the other fields a snapshot digest hashes."""
    n_tiers = draw(st.integers(1, 30))
    size = dict(min_size=1, max_size=40, unique=True)
    labels = draw(
        st.one_of(
            st.lists(st.text(st.characters(max_codepoint=127), max_size=15), **size),
            st.lists(st.text(max_size=12), **size),
            st.lists(st.integers(-(2**40), 2**40), **size),
            st.lists(st.floats(allow_nan=False), **size),
        )
    )
    tiers = draw(st.lists(st.integers(1, n_tiers), min_size=len(labels), max_size=len(labels)))
    rates = draw(st.lists(st.floats(0.01, 1e4), min_size=n_tiers, max_size=n_tiers))
    design = TierDesign(
        provider_asn=draw(st.integers(1, 2**32 - 1)),
        rates=dict(enumerate(rates, start=1)),
        tier_of_destination=dict(zip(labels, tiers)),
    )
    kwargs = dict(
        config_digest=draw(st.text(max_size=16)),
        blended_rate=draw(st.floats(0.01, 1e4)),
        gamma=draw(st.floats(1e-6, 1e3)),
        reference_distance_miles=draw(st.none() | st.floats(0.0, 1e5)),
    )
    return design, kwargs


class TestPricingSnapshot:
    def test_lookup_matches_design(self, registry):
        market, design = make_design()
        snapshot = registry.publish(
            design, config_digest="r", blended_rate=P0, gamma=market.gamma
        )
        for dst, tier in design.tier_of_destination.items():
            assert snapshot.tier_for(dst) == tier
        assert snapshot.tier_for("203.0.113.9") == UNKNOWN_TIER

    def test_vectorized_lookup_matches_scalar(self, registry):
        snapshot = publish(registry)
        dsts = ["10.0.0.1", "nope", "10.0.5.1", "10.0.3.1", "zzz"]
        tiers = snapshot.tiers_for(dsts)
        assert list(tiers) == [snapshot.tier_for(d) for d in dsts]
        prices = snapshot.prices_for_tiers(tiers)
        for tier, price in zip(tiers, prices):
            expected = P0 if tier == UNKNOWN_TIER else snapshot.rates[tier]
            assert price == pytest.approx(expected)

    def test_digest_depends_on_content(self):
        market, design = make_design()
        kwargs = dict(config_digest="r", blended_rate=P0, gamma=market.gamma)
        a = PricingSnapshot.build(design, version=1, **kwargs)
        b = PricingSnapshot.build(design, version=2, **kwargs)
        assert a.digest == b.digest  # same content, version-independent
        c = PricingSnapshot.build(
            design, version=1, config_digest="r", blended_rate=P0, gamma=0.5
        )
        assert c.digest != a.digest

    def test_digest_is_pinned(self):
        """A fixed design's digest, non-ASCII labels included: a byte of
        the hashed text changing fails here."""
        design = TierDesign(
            provider_asn=64500,
            rates={1: 31.5, 2: 22.25, 3: 14.0},
            tier_of_destination={
                "10.0.0.1": 1,
                "10.0.1.1": 1,
                "10.0.2.1": 2,
                "192.0.2.7": 3,
                "caf\u00e9.example": 3,
                "\u4f8b\u3048.jp": 2,
            },
        )
        snapshot = PricingSnapshot.build(
            design,
            version=7,
            config_digest="regime-a",
            blended_rate=20.0,
            gamma=0.75,
            reference_distance_miles=4000.0,
            published_at_ms=60_000,
        )
        assert snapshot.digest == (
            "0e558ea584bf411c61e283cb2e6555728703bc271bbb77fa7a259a737ae4a945"
        )

    @settings(max_examples=80, deadline=None)
    @given(case=snapshot_designs())
    @example(
        case=(
            TierDesign(
                provider_asn=1, rates={1: 5.0}, tier_of_destination={"a\u0000": 1}
            ),
            dict(config_digest="r", blended_rate=P0, gamma=1.0),
        )
    )
    def test_digest_hashes_the_pair_by_pair_payload(self, case):
        design, kwargs = case
        texts = [str(label) for label in design.tier_of_destination]
        if any(text.endswith("\0") for text in texts):
            # The destination column pads with NUL bytes: no such label.
            with pytest.raises(DataError, match="U\\+0000"):
                PricingSnapshot.build(design, version=1, **kwargs)
            return
        snapshot = PricingSnapshot.build(design, version=1, **kwargs)
        assert snapshot.digest == config_hash(ref.snapshot_payload(design, **kwargs))
        assert list(snapshot.destinations) == sorted(texts)

    def test_lookup_arrays_are_immutable(self, registry):
        snapshot = publish(registry)
        with pytest.raises(ValueError):
            snapshot._rate_by_tier[0] = 0.0

    def test_rejects_empty_designs(self):
        with pytest.raises(DataError):
            PricingSnapshot.build(
                TierDesign(provider_asn=1, rates={}, tier_of_destination={}),
                version=1,
                config_digest="r",
                blended_rate=P0,
                gamma=1.0,
            )


# ----------------------------------------------------------------------
# SnapshotRegistry
# ----------------------------------------------------------------------


class TestSnapshotRegistry:
    def test_empty_registry(self, registry):
        assert registry.current() is None
        assert registry.version == 0
        with pytest.raises(SnapshotUnavailableError):
            registry.require()

    def test_publish_swaps_and_versions(self, registry):
        first = publish(registry)
        second = publish(registry, scale=3.0)
        assert registry.current() is second
        assert (first.version, second.version) == (1, 2)
        assert registry.swaps == 2

    def test_clear_then_republish_recovers(self, registry):
        publish(registry)
        registry.clear()
        assert registry.current() is None
        assert registry.clears == 1
        again = publish(registry)
        assert registry.require() is again
        assert again.version == 2  # versions keep counting across clears

    def test_subscriber_builds_snapshot_from_publication(self, registry):
        from repro.stream.repricer import DesignPublication

        market, design = make_design()
        callback = registry.subscriber("stream-digest")
        callback(
            DesignPublication(
                design=design,
                gamma=market.gamma,
                blended_rate=P0,
                window_end_ms=1234,
                sequence=1,
            )
        )
        snapshot = registry.require()
        assert snapshot.config_digest == "stream-digest"
        assert snapshot.published_at_ms == 1234
        assert snapshot.rates == {
            t: pytest.approx(r) for t, r in design.rates.items()
        }


# ----------------------------------------------------------------------
# QuoteEngine
# ----------------------------------------------------------------------


class TestQuoteEngine:
    def test_known_destination_quotes_tier_rate(self, registry, engine):
        snapshot = publish(registry)
        quote = engine.quote(
            QuoteRequest(dst="10.0.0.1", volume_mbps=5.0, distance_miles=2.0)
        )
        tier = snapshot.tier_for("10.0.0.1")
        assert not quote.degraded and quote.known
        assert quote.tier == tier
        assert quote.unit_price == pytest.approx(snapshot.rates[tier])
        assert quote.snapshot_digest == snapshot.digest

    def test_profit_contribution_is_margin_times_volume(self, registry, engine):
        snapshot = publish(registry)
        request = QuoteRequest(
            dst="10.0.0.1", volume_mbps=7.0, distance_miles=100.0
        )
        quote = engine.quote(request)
        costed = COST_MODEL.prepare_quotes(
            FlowSet(demands_mbps=[7.0], distances_miles=[100.0]),
            snapshot.reference_distance_miles,
        )
        unit_cost = snapshot.gamma * float(costed.relative_costs[0])
        assert quote.unit_cost == pytest.approx(unit_cost)
        assert quote.profit_contribution == pytest.approx(
            (quote.unit_price - unit_cost) * 7.0
        )

    def test_unknown_destination_falls_back_to_blended(self, registry, engine):
        publish(registry)
        quote = engine.quote(QuoteRequest(dst="203.0.113.1"))
        assert not quote.degraded  # the snapshot answered...
        assert not quote.known  # ...just not with a designed tier
        assert quote.tier is None
        assert quote.unit_price == pytest.approx(P0)

    def test_no_snapshot_degrades_to_blended(self, engine):
        quote = engine.quote(QuoteRequest(dst="10.0.0.1"))
        assert quote.degraded
        assert quote.tier is None
        assert quote.unit_price == pytest.approx(P0)
        assert quote.profit_contribution is None

    def test_strict_quote_raises_without_snapshot(self, engine):
        with pytest.raises(SnapshotUnavailableError):
            engine.quote(QuoteRequest(dst="10.0.0.1"), strict=True)

    def test_regime_mismatch_degrades_per_request(self, registry, engine):
        snapshot = publish(registry)
        quotes = engine.quote_batch(
            [
                QuoteRequest(dst="10.0.0.1", regime=snapshot.config_digest),
                QuoteRequest(dst="10.0.0.1", regime="some-other-regime"),
            ]
        )
        assert not quotes[0].degraded
        assert quotes[1].degraded
        assert quotes[1].unit_price == pytest.approx(P0)
        assert "regime mismatch" in quotes[1].reason

    def test_batch_matches_single_quotes(self, registry, engine):
        publish(registry)
        requests = generate_requests(
            64, seed=5, snapshot=registry.current(), unknown_fraction=0.3
        )
        batched = engine.quote_batch(requests)
        singles = [engine.quote(r) for r in requests]
        for got, expected in zip(batched, singles):
            assert got == expected

    def test_empty_batch(self, engine):
        assert engine.quote_batch([]) == []

    def test_request_validation(self):
        with pytest.raises(DataError):
            QuoteRequest(volume_mbps=0.0)
        with pytest.raises(DataError):
            QuoteRequest(distance_miles=-1.0)
        with pytest.raises(DataError):
            QuoteRequest(region="outer-space")
        with pytest.raises(DataError, match="dst"):
            QuoteRequest(dst=123)
        with pytest.raises(DataError, match="regime"):
            QuoteRequest(dst="10.0.0.1", regime=5)
        # Text UTF-8 cannot encode, numbers no float holds.
        with pytest.raises(DataError, match="dst"):
            QuoteRequest(dst="\ud800")
        with pytest.raises(DataError, match="regime"):
            QuoteRequest(dst="10.0.0.1", regime="regime-\udfff")
        with pytest.raises(DataError, match="volume"):
            QuoteRequest(volume_mbps=10**400)
        with pytest.raises(DataError, match="distance"):
            QuoteRequest(distance_miles=10**400)

    def test_non_ascii_text_that_utf8_encodes_is_a_request(self):
        request = QuoteRequest(dst="caf\u00e9", regime="r\u00e9gime")
        assert request.dst == "caf\u00e9" and request.regime == "r\u00e9gime"

    def test_a_quote_with_no_destination_is_unknown(self):
        """``dst=None`` is no label, not the empty string: against a design
        that tiers ``""``, it is unknown at the blended rate."""
        design = TierDesign(
            provider_asn=64500,
            rates={1: 30.0, 2: 15.0},
            tier_of_destination={"": 1, "10.0.0.1": 2},
        )
        registry = SnapshotRegistry()
        registry.publish(design, config_digest="r", blended_rate=P0, gamma=1.0)
        engine = QuoteEngine(registry, COST_MODEL, P0)
        anonymous, empty = engine.quote_batch(
            [QuoteRequest(dst=None), QuoteRequest(dst="")]
        )
        assert (anonymous.known, anonymous.tier, anonymous.unit_price) == (
            False, None, P0
        )
        assert not anonymous.degraded
        assert (empty.known, empty.tier, empty.unit_price) == (True, 1, 30.0)

    def test_a_cost_out_of_range_degrades_alone(self, registry, engine):
        """A volume of 1e308 overflows the profit: the row degrades on its
        own reason, counted in ``serve.degraded``, with no numpy warning,
        and its neighbours keep the answers they get alone."""
        publish(registry)
        requests = [
            QuoteRequest(dst="10.0.0.1", volume_mbps=4.0, distance_miles=20.0),
            QuoteRequest(dst="10.0.1.1", volume_mbps=1e308, distance_miles=20.0),
            QuoteRequest(dst="10.0.2.1", volume_mbps=2.0, distance_miles=1e308),
            QuoteRequest(dst="203.0.113.9", volume_mbps=1e308),
        ]
        before = METRICS.counter("serve.degraded")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quotes = engine.quote_batch(requests)
        assert METRICS.counter("serve.degraded") - before == 2
        for i in (1, 3):
            assert quotes[i].degraded and quotes[i].reason == COST_OUT_OF_RANGE
            assert quotes[i].unit_price == P0 and quotes[i].unit_cost is None
        for i in (0, 2):
            assert not quotes[i].degraded
            assert quotes[i] == engine.quote(requests[i])
        # A distance of 1e308 costs a huge but finite amount: priced.
        assert np.isfinite(quotes[2].unit_cost) and quotes[2].unit_cost > 1e300

    def test_splitting_cost_model_rejected(self, registry):
        from repro.core.cost import DestinationTypeCost

        publish(registry)
        engine = QuoteEngine(
            registry, DestinationTypeCost(theta=0.5), fallback_blended_rate=P0
        )
        with pytest.raises(ConfigurationError):
            engine.quote_batch([QuoteRequest(dst="10.0.0.1")])


def regime_a_registry(cost_model):
    """A registry holding one ``regime-a`` snapshot designed under
    ``cost_model``, with a pinned quoting frame."""
    market = Market(make_market().flows, CEDDemand(1.1), cost_model, P0)
    outcome = market.tiered_outcome(ProfitWeightedBundling(), 3)
    registry = SnapshotRegistry()
    registry.publish(
        TierDesign.from_outcome(market, outcome),
        config_digest="regime-a",
        blended_rate=P0,
        gamma=market.gamma,
        reference_distance_miles=float(market.flows.distances.max()),
    )
    return registry


quote_requests = st.builds(
    QuoteRequest,
    dst=st.sampled_from([f"10.0.{i}.1" for i in range(6)] + ["203.0.113.9", None]),
    volume_mbps=st.floats(0.01, 1e4),
    distance_miles=st.floats(0.0, 1e4),
    region=st.sampled_from((None,) + VALID_REGIONS),
    regime=st.sampled_from([None, "regime-a", "regime-z"]),
)

#: Requests whose cost or profit overflows a float (or comes close).
huge_requests = st.builds(
    QuoteRequest,
    dst=st.sampled_from(["10.0.0.1", "203.0.113.9", None]),
    volume_mbps=st.sampled_from([1.0, 1e308, sys.float_info.max]),
    distance_miles=st.sampled_from([1.0, 1e308, sys.float_info.max]),
    region=st.sampled_from((None, "metro")),
)


class TestBatchIndependence:
    """A quote is the same whatever else shares its batch."""

    @pytest.mark.parametrize(
        "cost_model",
        [RegionalCost(theta=0.5), LinearDistanceCost(theta=0.2)],
        ids=["regional", "linear"],
    )
    @settings(deadline=None, max_examples=60)
    @given(batch=st.lists(quote_requests | huge_requests, min_size=1, max_size=12))
    def test_each_row_quotes_as_if_alone(self, cost_model, batch):
        engine = QuoteEngine(regime_a_registry(cost_model), cost_model, P0)
        quotes = engine.quote_batch(batch)
        for request, quote in zip(batch, quotes):
            assert quote == engine.quote_batch([request])[0]

    def test_a_labelled_row_is_costed_by_its_own_label(self):
        cost_model = RegionalCost(theta=0.5)
        engine = QuoteEngine(regime_a_registry(cost_model), cost_model, P0)
        metro = QuoteRequest(dst="10.0.0.1", distance_miles=500.0, region="metro")
        unlabelled = QuoteRequest(dst="10.0.0.1", distance_miles=500.0)
        alone = engine.quote(metro)
        mixed, international = engine.quote_batch([metro, unlabelled])
        assert mixed == alone
        assert international.unit_cost == pytest.approx(
            alone.unit_cost * 3.0**0.5
        )


# ----------------------------------------------------------------------
# Answers as text: the encoder and the contract it relies on
# ----------------------------------------------------------------------

#: Finite floats, with the ones whose spelling is easiest to get wrong:
#: signed zeros, the smallest subnormal, where ``repr`` switches to
#: exponent form, and the largest float.
edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e16, 1e22, 1e-5, 0.1, sys.float_info.max,
     -sys.float_info.max]
) | st.floats(allow_nan=False, allow_infinity=False)

#: Text with quotes, backslashes, control and non-ASCII characters.
awkward_text = st.text(
    st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f/é中\u2028😀') | st.characters(),
    max_size=12,
)


@st.composite
def contract_payloads(draw):
    """``(payload, n)``: a ``quote_columns`` payload inside its contract
    (each row's price is its tier's rate, every row without a reason has
    finite floats), or a ``degraded_columns`` one."""
    version = draw(st.none() | st.integers(0, 2**63))
    digest = draw(st.none() | awkward_text)
    blended = draw(edge_floats)
    n = draw(st.integers(1, 24))
    if draw(st.booleans()) and draw(st.booleans()):
        payload = {"degraded": True, "reason": draw(awkward_text),
                   "blended": blended, "version": version, "digest": digest}
        return payload, n
    rates = [blended] + draw(st.lists(edge_floats, min_size=1, max_size=6))
    tiers = np.array(draw(st.lists(st.integers(0, len(rates) - 1),
                                   min_size=n, max_size=n)))
    unit_costs = np.array(draw(st.lists(edge_floats, min_size=n, max_size=n)))
    profits = np.array(draw(st.lists(edge_floats, min_size=n, max_size=n)))
    reasons = draw(st.dictionaries(st.integers(0, n - 1), awkward_text))
    for i in reasons:  # as quote_columns leaves a degraded row's floats
        unit_costs[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        profits[i] = np.nan
    payload = {
        "degraded": False, "prices": np.array(rates)[tiers], "tiers": tiers,
        "unit_costs": unit_costs, "profits": profits, "blended": blended,
        "version": version, "digest": digest, "reasons": reasons or None,
    }
    return payload, n


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestQuoteTexts:
    @settings(deadline=None, max_examples=300)
    @given(case=contract_payloads())
    def test_texts_are_the_compact_json_of_the_rows(self, case):
        payload, n = case
        assert quote_texts(payload, n) == [
            json.dumps(row, separators=(",", ":"))
            for row in quote_rows(payload, n)
        ]

    @pytest.mark.parametrize(
        "cost_model",
        [RegionalCost(theta=0.5), LinearDistanceCost(theta=0.2)],
        ids=["regional", "linear"],
    )
    @settings(deadline=None, max_examples=60)
    @given(batch=st.lists(quote_requests | huge_requests, min_size=1, max_size=16))
    def test_quote_columns_keeps_the_contract(self, cost_model, batch):
        """Each row's price is its tier's rate, and every row without a
        reason has finite floats, so its text is strict JSON."""
        registry = regime_a_registry(cost_model)
        snapshot = registry.current()
        engine = QuoteEngine(registry, cost_model, P0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = engine.quote_columns(*request_columns(batch).as_args())
        assert np.array_equal(
            payload["prices"], snapshot.prices_for_tiers(payload["tiers"])
        )
        reasons = payload["reasons"] or {}
        for i in range(len(batch)):
            if i not in reasons:
                assert np.isfinite(payload["unit_costs"][i])
                assert np.isfinite(payload["profits"][i])
        for text in quote_texts(payload, len(batch)):
            json.loads(text, parse_constant=reject_constant)


# ----------------------------------------------------------------------
# Concurrent hot-swap: no torn reads, ever
# ----------------------------------------------------------------------


class TestConcurrentHotSwap:
    def test_readers_never_observe_mixed_state(self, registry, engine):
        """N reader threads quote while M swaps land; every non-degraded
        quote's price must equal the rate its own snapshot (by digest)
        defines for its tier — old or new, never a mixture."""
        scales = [1.0, 3.0, 5.0, 7.0]
        by_digest = {}
        for scale in scales:
            snapshot = publish(registry, scale)
            by_digest[snapshot.digest] = snapshot
        requests = generate_requests(
            16, seed=9, snapshot=registry.current(), unknown_fraction=0.25
        )
        stop = threading.Event()
        errors = []

        def swapper():
            i = 0
            while not stop.is_set():
                snapshot = publish(registry, scales[i % len(scales)])
                by_digest.setdefault(snapshot.digest, snapshot)
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    for quote in engine.quote_batch(requests):
                        if quote.degraded:
                            continue
                        snapshot = by_digest[quote.snapshot_digest]
                        if quote.known:
                            expected = snapshot.rates[quote.tier]
                        else:
                            expected = snapshot.blended_rate
                        if abs(quote.unit_price - expected) > 1e-12:
                            errors.append(
                                f"price {quote.unit_price} != {expected} "
                                f"for tier {quote.tier} of "
                                f"{quote.snapshot_digest[:8]}"
                            )
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(repr(exc))

        threads = [threading.Thread(target=swapper) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors[:5]
        assert registry.swaps > len(scales)  # swaps really landed mid-read

    def test_batch_is_priced_under_one_snapshot(self, registry, engine):
        publish(registry)
        requests = generate_requests(
            256, seed=2, snapshot=registry.current(), unknown_fraction=0.1
        )
        stop = threading.Event()

        def swapper():
            while not stop.is_set():
                publish(registry, 3.0)
                publish(registry, 1.0)

        thread = threading.Thread(target=swapper)
        thread.start()
        try:
            for _ in range(20):
                digests = {
                    q.snapshot_digest
                    for q in engine.quote_batch(requests)
                    if q.snapshot_digest is not None
                }
                assert len(digests) == 1  # one snapshot per batch
        finally:
            stop.set()
            thread.join()


# ----------------------------------------------------------------------
# Chaos: kill the snapshot mid-load
# ----------------------------------------------------------------------


class TestSnapshotChaos:
    def test_clear_mid_load_degrades_and_recovers(self, registry, engine):
        """Reader threads quote through the engine while the registry is
        cleared under them: nothing raises, every batch is answered, the
        degraded answers are the blended rate, and the next publish
        recovers."""
        publish(registry)
        requests = generate_requests(
            600, seed=7, snapshot=registry.current(), unknown_fraction=0.2
        )
        chunks = [requests[at : at + 50] for at in range(0, len(requests), 50)]
        started, cleared = threading.Event(), threading.Event()
        quotes, errors = [], []

        def reader(offset):
            # Quote passes until one has run entirely after the clear.
            try:
                deadline = time.monotonic() + 10.0
                after_clear = False
                while not after_clear and time.monotonic() < deadline:
                    after_clear = cleared.is_set()
                    for chunk in chunks[offset::3]:
                        batch = engine.quote_batch(chunk)
                        assert len(batch) == len(chunk)
                        quotes.extend(batch)
                        started.set()
                    if after_clear:
                        assert all(q.degraded for q in batch)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(repr(exc))

        def chaos():
            started.wait(5.0)
            registry.clear()
            cleared.set()

        threads = [threading.Thread(target=chaos)] + [
            threading.Thread(target=reader, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not errors, errors[:5]
        assert cleared.is_set()

        # Everything was answered; anything quoted after the clear is the
        # blended-rate degraded answer.
        assert len(quotes) >= len(requests)
        assert any(not q.degraded for q in quotes)  # priced before the clear
        degraded = [q for q in quotes if q.degraded]
        assert degraded
        for quote in degraded:
            assert quote.unit_price == pytest.approx(P0)
            assert quote.tier is None

        # The registry is empty: every subsequent quote degrades.
        followups = engine.quote_batch(requests[:32])
        assert all(q.degraded for q in followups)
        assert all(q.unit_price == pytest.approx(P0) for q in followups)

        # Recovery is automatic on the next publish.
        snapshot = publish(registry)
        recovered = engine.quote_batch(requests[:32])
        assert all(not q.degraded for q in recovered)
        assert all(q.snapshot_digest == snapshot.digest for q in recovered)


# ----------------------------------------------------------------------
# End to end: stream publishes, registry swaps, quotes change
# ----------------------------------------------------------------------


class TestStreamToServeRoundTrip:
    def test_republished_designs_change_quotes(self, registry):
        trace = generate_network_trace(
            "eu_isp", n_flows=40, seed=11, duration_seconds=3600.0
        )
        source = TraceReplaySource(
            trace,
            export_interval_ms=60_000,
            shift=DemandShift(at_ms=1_800_000, factor=4.0, fraction=0.5),
        )
        pipeline = StreamingPipeline(
            source,
            distance_fn=trace.distance_for,
            demand_model=CEDDemand(alpha=1.1),
            cost_model=COST_MODEL,
            config=StreamConfig(window_ms=600_000, drift_threshold=0.05),
        )
        versions = []
        subscriber = registry.subscriber(pipeline.config_digest)

        def tracking_subscriber(publication):
            subscriber(publication)
            snapshot = registry.require()
            versions.append((snapshot.version, snapshot.rates))

        pipeline.repricer.on_design_published = tracking_subscriber
        engine = QuoteEngine(registry, COST_MODEL, fallback_blended_rate=P0)
        report = pipeline.run()

        # The demand shift forced at least one re-tier beyond the initial
        # design, and each publication hot-swapped the registry.
        assert report.retier_events >= 2
        assert registry.swaps == report.retier_events == len(versions)
        final = registry.require()
        assert final.version == len(versions)
        assert final.config_digest == pipeline.config_digest

        # Quotes now reflect the *latest* published tier prices.
        dst = next(iter(pipeline.repricer.design.tier_of_destination))
        quote = engine.quote(QuoteRequest(dst=dst, volume_mbps=2.0))
        assert not quote.degraded and quote.known
        assert quote.snapshot_digest == final.digest
        expected = final.rates[
            pipeline.repricer.design.tier_of_destination[dst]
        ]
        assert quote.unit_price == pytest.approx(expected)

        # And the first published rate card genuinely differs from the
        # last (the shift repriced the market).
        assert versions[0][1] != versions[-1][1]


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------


class TestLoadGenerator:
    def test_requests_are_deterministic(self, registry):
        snapshot = publish(registry)
        a = generate_requests(50, seed=4, snapshot=snapshot)
        b = generate_requests(50, seed=4, snapshot=snapshot)
        assert a == b
        c = generate_requests(50, seed=5, snapshot=snapshot)
        assert a != c

    def test_unknown_fraction_bounds(self, registry):
        snapshot = publish(registry)
        requests = generate_requests(
            400, seed=1, snapshot=snapshot, unknown_fraction=0.25
        )
        unknown = sum(
            1 for r in requests if r.dst.startswith("198.51.100.")
        )
        assert 0.1 < unknown / len(requests) < 0.45
