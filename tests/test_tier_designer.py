"""Tests for TierDesign: economics -> operable configuration (§5)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.accounting.tier_designer import TierDesign
from repro.core.bundling import ProfitWeightedBundling
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.core.flow import FlowSet
from repro.core.market import Market
from repro.errors import AccountingError
from repro.netflow.records import FlowKey, NetFlowRecord, PROTO_TCP
from tests import window_reference as ref


@pytest.fixture
def market():
    flows = FlowSet(
        demands_mbps=[800.0, 300.0, 120.0, 60.0, 20.0, 5.0],
        distances_miles=[2.0, 15.0, 60.0, 250.0, 900.0, 4000.0],
        dsts=[f"10.0.{i}.1" for i in range(6)],
    )
    return Market(flows, CEDDemand(1.1), LinearDistanceCost(0.2), 20.0)


@pytest.fixture
def design(market):
    outcome = market.tiered_outcome(ProfitWeightedBundling(), 3)
    return TierDesign.from_outcome(market, outcome, provider_asn=64500)


class TestConstruction:
    def test_covers_all_destinations(self, design, market):
        assert len(design.tier_of_destination) == market.n_flows
        assert design.n_tiers <= 3

    def test_rates_match_outcome_prices(self, market):
        outcome = market.tiered_outcome(ProfitWeightedBundling(), 3)
        design = TierDesign.from_outcome(market, outcome)
        for tier_index, members in enumerate(outcome.bundles, start=1):
            assert design.rate_for(tier_index) == pytest.approx(
                float(outcome.prices[members[0]])
            )

    def test_requires_destinations(self):
        flows = FlowSet(demands_mbps=[1.0, 2.0], distances_miles=[1.0, 2.0])
        market = Market(flows, CEDDemand(1.1), LinearDistanceCost(0.2), 20.0)
        outcome = market.tiered_outcome(ProfitWeightedBundling(), 2)
        with pytest.raises(AccountingError, match="destination"):
            TierDesign.from_outcome(market, outcome)

    def test_explicit_destinations(self):
        flows = FlowSet(demands_mbps=[1.0, 2.0], distances_miles=[1.0, 200.0])
        market = Market(flows, CEDDemand(1.1), LinearDistanceCost(0.2), 20.0)
        outcome = market.tiered_outcome(ProfitWeightedBundling(), 2)
        design = TierDesign.from_outcome(
            market, outcome, destinations=["10.0.0.1", "10.0.1.1"]
        )
        assert set(design.tier_of_destination) == {"10.0.0.1", "10.0.1.1"}

    def test_destination_count_validated(self, market):
        outcome = market.tiered_outcome(ProfitWeightedBundling(), 2)
        with pytest.raises(AccountingError, match="destinations"):
            TierDesign.from_outcome(market, outcome, destinations=["10.0.0.1"])

    def test_duplicate_destination_across_tiers_rejected(self, market):
        outcome = market.tiered_outcome(ProfitWeightedBundling(), 3)
        dsts = ["10.0.0.1"] * market.n_flows  # all flows same destination
        with pytest.raises(AccountingError, match="tiers"):
            TierDesign.from_outcome(market, outcome, destinations=dsts)

    def test_lookups_raise_for_unknown(self, design):
        with pytest.raises(AccountingError):
            design.tier_for("192.0.2.1")
        with pytest.raises(AccountingError):
            design.rate_for(99)

    def test_describe(self, design):
        text = design.describe()
        assert "tiers=" in text and "$" in text


class TestOperationalArtifacts:
    def test_routing_table_resolves_every_destination(self, design):
        rib = design.routing_table()
        for dst, tier in design.tier_of_destination.items():
            assert rib.tier_for(dst, provider_asn=64500) == tier

    def test_prefix_length_validated(self, design):
        with pytest.raises(AccountingError):
            design.routing_table(prefix_length=0)

    def test_link_accounting_wired(self, design):
        acct = design.link_accounting()
        dst = next(iter(design.tier_of_destination))
        tier = acct.send(dst, octets=1000)
        assert tier == design.tier_for(dst)

    def test_flow_accounting_end_to_end(self, design, market):
        window = 8.0
        acct = design.flow_accounting(window_seconds=window)
        # One record per destination carrying 1 Mbps.
        for i, dst in enumerate(market.flows.dsts):
            acct.ingest(
                NetFlowRecord(
                    key=FlowKey("172.16.0.9", dst, 40000 + i, 443, PROTO_TCP),
                    octets=1_000_000,
                    packets=1250,
                    first_ms=0,
                    last_ms=int(window * 1000) - 1,
                    router="EDGE",
                )
            )
        invoice = acct.invoice("customer", design.rates)
        expected = sum(design.rates[t] for t in design.tier_of_destination.values())
        assert invoice.total == pytest.approx(expected)

    def test_invoice_total_matches_designed_revenue(self, design, market):
        """Billing the calibrated demand at the designed rates yields the
        revenue the counterfactual promised."""
        outcome = market.tiered_outcome(ProfitWeightedBundling(), 3)
        revenue_from_design = sum(
            float(np.sum(market.flows.demands[members]))
            * design.rate_for(tier_index)
            for tier_index, members in enumerate(outcome.bundles, start=1)
        )
        # Revenue at the counterfactual prices and *observed* demand:
        direct = float(np.sum(market.flows.demands * outcome.prices))
        assert revenue_from_design == pytest.approx(direct)


@st.composite
def partitions(draw):
    """Bundles over ``n`` flows, prices, and per-flow destinations.

    Half the cases are valid: the bundles cut a shuffled flow order and
    each bundle's flows share destinations from its own pool, so a
    destination's first flow in bundle order differs from its first flow
    in flow order.  The other half draw members and destinations freely
    (a flow in two bundles, ``None``), so collisions and missing
    destinations occur.
    """
    n = draw(st.integers(1, 30))
    prices = np.array(draw(st.lists(st.floats(0.5, 500.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=5)) if n > 1 else [])
        bundles = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        destinations = [None] * n
        for j, members in enumerate(bundles):
            for i in members:
                destinations[i] = f"{j}.{draw(st.integers(0, 3))}"
        return bundles, prices, destinations
    pool = draw(st.lists(st.text(max_size=4), min_size=1, max_size=12, unique=True))
    destinations = draw(
        st.lists(st.none() | st.sampled_from(pool), min_size=n, max_size=n)
    )
    bundles = draw(
        st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n), min_size=1, max_size=6)
    )
    return bundles, prices, destinations


class TestFromBundlesMatchesTheLoop:
    @settings(max_examples=150, deadline=None)
    @given(case=partitions(), explicit=st.booleans())
    def test_same_design_or_same_error(self, case, explicit):
        bundles, prices, destinations = case
        n = len(destinations)
        flows = FlowSet(demands_mbps=np.ones(n), distances_miles=np.ones(n), dsts=destinations)
        market = SimpleNamespace(n_flows=n, flows=flows)
        assume(explicit or flows.dsts is not None)
        try:
            want = ref.design_map(bundles, prices, destinations)
        except AccountingError as exc:
            want = str(exc)
        bundles = bundles if explicit else [np.array(m) for m in bundles]
        try:
            design = TierDesign.from_bundles(
                market, bundles, prices, destinations=destinations if explicit else None
            )
        except AccountingError as exc:
            got = str(exc)
        else:
            got = (design.rates, design.tier_of_destination)
            assert list(got[1].items()) == list(want[1].items())
        assert got == want
