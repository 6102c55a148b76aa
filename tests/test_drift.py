"""Tests for tier-design drift evaluation."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting.drift import evaluate_drift, replay_design_prices
from repro.accounting.tier_designer import TierDesign
from repro.core.bundling import ProfitWeightedBundling
from repro.core.ced import CEDDemand
from repro.core.cost import DestinationTypeCost, LinearDistanceCost
from repro.core.flow import NO_LABEL, FlowSet
from repro.core.market import Market
from repro.errors import AccountingError
from tests import window_reference as ref

P0 = 20.0


def make_flows(demands, distances, offset=0):
    return FlowSet(
        demands_mbps=demands,
        distances_miles=distances,
        dsts=[f"10.0.{(offset + i) // 250}.{(offset + i) % 250 + 1}" for i in range(len(demands))],
    )


@pytest.fixture
def base_flows(rng):
    return make_flows(
        rng.lognormal(3.0, 1.2, 40), rng.lognormal(3.5, 0.9, 40)
    )


@pytest.fixture
def design(base_flows):
    market = Market(base_flows, CEDDemand(1.1), LinearDistanceCost(0.2), P0)
    outcome = market.tiered_outcome(ProfitWeightedBundling(), 3)
    return TierDesign.from_outcome(market, outcome)


class TestNoDrift:
    def test_same_traffic_has_no_regret(self, design, base_flows):
        report = evaluate_drift(
            design, base_flows, CEDDemand(1.1), LinearDistanceCost(0.2), P0
        )
        assert report.unknown_destinations == 0
        assert report.missing_destinations == 0
        assert report.regret == pytest.approx(0.0, abs=1e-6)
        assert not report.should_retier()

    def test_captures_match_on_identical_traffic(self, design, base_flows):
        report = evaluate_drift(
            design, base_flows, CEDDemand(1.1), LinearDistanceCost(0.2), P0
        )
        assert report.stale_capture == pytest.approx(report.refreshed_capture)


class TestDrift:
    def test_uniform_growth_is_benign(self, design, base_flows):
        # All flows double: relative structure unchanged; stale tiers fine.
        grown = base_flows.replace(demands_mbps=2.0 * base_flows.demands)
        report = evaluate_drift(
            design, grown, CEDDemand(1.1), LinearDistanceCost(0.2), P0
        )
        assert report.capture_drop == pytest.approx(0.0, abs=0.02)
        assert not report.should_retier()

    def test_structural_drift_creates_regret(self, design, base_flows, rng):
        # Traffic inverts: cheap destinations shrink, expensive ones boom,
        # and distances reshuffle - the old cost-aligned tiers misprice.
        shuffled = make_flows(
            base_flows.demands[::-1],
            rng.permutation(base_flows.distances) * rng.uniform(0.2, 5.0, 40),
        )
        report = evaluate_drift(
            design, shuffled, CEDDemand(1.1), LinearDistanceCost(0.2), P0
        )
        assert report.regret > 0
        assert report.refreshed_capture > report.stale_capture

    def test_new_destinations_counted_and_priced_at_blended(
        self, design, base_flows, rng
    ):
        extra = make_flows(
            rng.lognormal(3.0, 1.0, 10), rng.lognormal(3.5, 0.9, 10), offset=500
        )
        combined = FlowSet(
            demands_mbps=np.concatenate((base_flows.demands, extra.demands)),
            distances_miles=np.concatenate(
                (base_flows.distances, extra.distances)
            ),
            dsts=list(base_flows.dsts) + list(extra.dsts),
        )
        report = evaluate_drift(
            design, combined, CEDDemand(1.1), LinearDistanceCost(0.2), P0
        )
        assert report.unknown_destinations == 10
        assert report.missing_destinations == 0

    def test_unknown_destinations_are_counted_once(self):
        """Five flows, three of them to one untiered destination: one
        unknown destination, not three."""
        design = TierDesign(
            provider_asn=64500,
            rates={1: 30.0, 2: 12.0},
            tier_of_destination={"10.0.0.1": 1, "10.0.0.2": 2},
        )
        flows = FlowSet(
            demands_mbps=[40.0, 25.0, 10.0, 8.0, 5.0],
            distances_miles=[10.0, 300.0, 50.0, 900.0, 2000.0],
            dsts=["10.0.0.1", "10.9.9.9", "10.0.0.2", "10.9.9.9", "10.9.9.9"],
        )
        report = evaluate_drift(
            design, flows, CEDDemand(1.1), LinearDistanceCost(0.2), P0
        )
        assert report.unknown_destinations == 1
        assert report.missing_destinations == 0

    def test_churned_destinations_counted(self, design, base_flows):
        shrunk = base_flows.subset(list(range(25)))
        report = evaluate_drift(
            design, shrunk, CEDDemand(1.1), LinearDistanceCost(0.2), P0
        )
        assert report.missing_destinations == 15
        assert report.unknown_destinations == 0


class TestValidation:
    def test_needs_destinations(self, design, rng):
        anonymous = FlowSet(
            demands_mbps=rng.lognormal(3.0, 1.0, 5),
            distances_miles=rng.lognormal(3.0, 0.5, 5),
        )
        with pytest.raises(AccountingError, match="destination"):
            evaluate_drift(
                design, anonymous, CEDDemand(1.1), LinearDistanceCost(0.2), P0
            )

    def test_splitting_cost_model_rejected(self, design, base_flows):
        with pytest.raises(AccountingError, match="non-splitting"):
            evaluate_drift(
                design,
                base_flows,
                CEDDemand(1.1),
                DestinationTypeCost(0.2),
                P0,
            )


@st.composite
def joins(draw):
    """A design and a flow set's destination codes over a label table:
    labels the design tiers, labels it does not, designed labels absent
    from the table, and ``NO_LABEL`` rows."""
    table = draw(st.lists(st.text(max_size=6), min_size=1, max_size=25, unique=True))
    absent = draw(st.lists(st.text(min_size=7, max_size=9), max_size=5, unique=True))
    n_tiers = draw(st.integers(1, 6))
    designed = draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table)))
    labels = [dst for dst, d in zip(table, designed) if d] + absent
    tiers = draw(st.lists(st.integers(1, n_tiers), min_size=len(labels), max_size=len(labels)))
    rates = draw(st.lists(st.floats(0.5, 500.0), min_size=n_tiers, max_size=n_tiers))
    design = TierDesign(
        provider_asn=64500,
        rates=dict(enumerate(rates, start=1)),
        tier_of_destination=dict(zip(labels, tiers)),
    )
    codes = draw(
        st.lists(st.integers(NO_LABEL, len(table) - 1), min_size=1, max_size=60).filter(
            lambda c: max(c) >= 0
        )
    )
    return design, table, np.array(codes, dtype=np.int32)


def join_market(table, codes, blended_rate=P0):
    """The fields of a market the replay reads: its flows and ``P0``."""
    flows = FlowSet.from_columns(
        np.ones(codes.size), np.ones(codes.size), dst_codes=codes, dst_table=table
    )
    return SimpleNamespace(flows=flows, blended_rate=blended_rate)


class TestDestinationJoin:
    @settings(max_examples=80, deadline=None)
    @given(case=joins())
    def test_tiers_of_is_the_per_label_lookup(self, case):
        design, table, codes = case
        tiers = design.tiers_of(table)
        assert tiers.dtype == np.int64
        assert tiers.tolist() == [design.tier_of_destination.get(d, 0) for d in table]
        # Gathered by codes, NO_LABEL rows have no tier: hybrid's held join.
        dsts = [table[c] if c >= 0 else None for c in codes.tolist()]
        held = np.append(tiers, 0)[codes]
        assert held.tolist() == ref.held_tiers(design, dsts).tolist()

    @settings(max_examples=80, deadline=None)
    @given(case=joins(), blended=st.floats(0.5, 500.0))
    def test_replay_equals_the_per_code_loop(self, case, blended):
        design, table, codes = case
        market = join_market(table, codes, blended)
        prices, unknown, missing = replay_design_prices(design, market)
        want_prices, want_unknown, want_missing = ref.replay_design_prices(design, market)
        assert prices.dtype == want_prices.dtype
        assert prices.tobytes() == want_prices.tobytes()
        assert (unknown, missing) == (want_unknown, want_missing)
