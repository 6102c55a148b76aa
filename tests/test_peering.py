"""Tests for the peering economics (Figures 1 and 2)."""

import numpy as np
import pytest

from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.errors import ModelParameterError
from repro.peering.bypass import (
    OUTCOME_LABELS,
    BypassScenario,
    BypassTable,
    bypass_for_flows,
    failure_window,
)
from repro.peering.offerings import compare_offerings, offerings_for_flows
from repro.peering.worked_example import figure1_example
from repro.synth.datasets import load_dataset


class TestFigure1Example:
    @pytest.fixture(scope="class")
    def example(self):
        return figure1_example()

    def test_blended_rate_is_1_20(self, example):
        assert example.blended.prices == pytest.approx((1.2, 1.2))

    def test_tiered_prices_are_2_and_1(self, example):
        assert example.tiered.prices == pytest.approx((2.0, 1.0))

    def test_paper_profit_numbers(self, example):
        assert example.blended.profit == pytest.approx(25.0 / 12.0)  # $2.08
        assert example.tiered.profit == pytest.approx(2.25)

    def test_paper_surplus_numbers(self, example):
        assert example.blended.consumer_surplus == pytest.approx(25.0 / 6.0)
        assert example.tiered.consumer_surplus == pytest.approx(4.5)

    def test_both_sides_gain(self, example):
        assert example.profit_gain > 0
        assert example.surplus_gain > 0
        assert example.welfare_gain == pytest.approx(
            example.profit_gain + example.surplus_gain
        )

    def test_figure1_quantities(self, example):
        # Blended: q = (v/1.2)^2 -> (0.694, 2.778); tiered: (0.25, 4).
        assert example.blended.quantities == pytest.approx((25 / 36, 25 / 9))
        assert example.tiered.quantities == pytest.approx((0.25, 4.0))

    def test_custom_parameters(self):
        example = figure1_example(alpha=3.0, valuations=(1.0, 1.0), costs=(1.0, 1.0))
        # Identical flows: tiering cannot help.
        assert example.profit_gain == pytest.approx(0.0, abs=1e-12)


class TestBypassScenario:
    def test_customer_stays_when_link_expensive(self):
        s = BypassScenario(
            blended_rate=10.0, isp_unit_cost=4.0, direct_unit_cost=12.0
        )
        assert not s.customer_bypasses
        assert s.outcome() == "stays"
        assert s.efficiency_loss_per_mbps == 0.0

    def test_efficient_bypass(self):
        s = BypassScenario(
            blended_rate=10.0, isp_unit_cost=4.0, direct_unit_cost=3.0
        )
        assert s.customer_bypasses and not s.is_market_failure
        assert s.outcome() == "efficient-bypass"

    def test_market_failure_window(self):
        # tiered price = 1.25 * 4 + 0.5 = 5.5; failure for c in (5.5, 10).
        s = BypassScenario(
            blended_rate=10.0,
            isp_unit_cost=4.0,
            direct_unit_cost=7.0,
            margin=0.25,
            accounting_overhead=0.5,
        )
        assert s.tiered_price == pytest.approx(5.5)
        assert s.is_market_failure
        assert s.efficiency_loss_per_mbps == pytest.approx(1.5)

    def test_failure_condition_formula(self):
        # c_direct > (M+1)c_isp + A, per §2.2.2.
        s = BypassScenario(
            blended_rate=10.0,
            isp_unit_cost=4.0,
            direct_unit_cost=5.5,
            margin=0.25,
            accounting_overhead=0.5,
        )
        assert not s.is_market_failure  # boundary is not a failure

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"blended_rate": 0.0, "isp_unit_cost": 1.0, "direct_unit_cost": 1.0},
            {"blended_rate": 1.0, "isp_unit_cost": -1.0, "direct_unit_cost": 1.0},
            {"blended_rate": 1.0, "isp_unit_cost": 1.0, "direct_unit_cost": 0.0},
            {
                "blended_rate": 1.0,
                "isp_unit_cost": 1.0,
                "direct_unit_cost": 1.0,
                "margin": -0.5,
            },
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ModelParameterError):
            BypassScenario(**kwargs)


class TestSweep:
    def test_regimes_in_order(self):
        points = BypassTable.evaluate(
            blended_rate=10.0,
            isp_unit_costs=4.0,
            direct_unit_costs=[1.0, 6.0, 9.9, 10.1, 20.0],
            margin=0.25,
            accounting_overhead=0.0,
        ).points()
        assert [p.outcome for p in points] == [
            "efficient-bypass",
            "market-failure",
            "market-failure",
            "stays",
            "stays",
        ]

    def test_loss_only_in_failure_regime(self):
        table = BypassTable.evaluate(
            blended_rate=10.0,
            isp_unit_costs=4.0,
            direct_unit_costs=[1.0, 7.0, 15.0],
        )
        points = table.points()
        assert points[0].efficiency_loss_per_mbps == 0.0
        assert points[1].efficiency_loss_per_mbps > 0.0
        assert points[2].efficiency_loss_per_mbps == 0.0

    def test_failure_window(self):
        lo, hi = failure_window(10.0, 4.0, margin=0.25, accounting_overhead=0.5)
        assert (lo, hi) == (pytest.approx(5.5), 10.0)

    def test_window_can_be_empty(self):
        # Blended rate already at cost: tiering cannot retain the traffic.
        lo, hi = failure_window(5.0, 4.0, margin=0.25)
        assert lo >= hi


class TestBypassTable:
    def test_matches_scalar_scenarios_exactly(self):
        costs = np.linspace(0.5, 15.0, 30)
        table = BypassTable.evaluate(
            blended_rate=10.0,
            isp_unit_costs=4.0,
            direct_unit_costs=costs,
            margin=0.25,
            accounting_overhead=0.5,
        )
        for i, c_direct in enumerate(costs):
            scenario = BypassScenario(
                blended_rate=10.0,
                isp_unit_cost=4.0,
                direct_unit_cost=float(c_direct),
                margin=0.25,
                accounting_overhead=0.5,
            )
            assert OUTCOME_LABELS[table.outcomes[i]] == scenario.outcome()
            assert (
                float(table.efficiency_loss_per_mbps[i])
                == scenario.efficiency_loss_per_mbps
            )
            assert float(table.tiered_prices[i]) == scenario.tiered_price

    def test_counts_cover_all_labels(self):
        table = BypassTable.evaluate(10.0, 4.0, [1.0, 7.0, 15.0])
        counts = table.counts()
        assert set(counts) == set(OUTCOME_LABELS)
        assert counts == {
            "efficient-bypass": 1,
            "market-failure": 1,
            "stays": 1,
        }
        assert sum(counts.values()) == len(table)

    def test_total_loss_demand_weighted(self):
        table = BypassTable.evaluate(10.0, 4.0, [1.0, 7.0, 15.0])
        loss = float(table.efficiency_loss_per_mbps[1])
        assert table.total_loss() == pytest.approx(loss)
        assert table.total_loss([1.0, 10.0, 1.0]) == pytest.approx(10 * loss)

    def test_validation(self):
        with pytest.raises(ModelParameterError):
            BypassTable.evaluate(0.0, 4.0, [1.0])
        with pytest.raises(ModelParameterError):
            BypassTable.evaluate(10.0, 4.0, [1.0, -1.0])
        with pytest.raises(ModelParameterError):
            BypassTable.evaluate(10.0, 4.0, [])

    def test_from_flows_per_flow_columns(self):
        flows = load_dataset("eu_isp", n_flows=64, seed=3)
        table = bypass_for_flows(
            flows,
            CEDDemand(alpha=1.1),
            LinearDistanceCost(theta=0.2),
            blended_rate=20.0,
        )
        assert len(table) == 64
        assert table.outcomes.dtype == np.int8
        assert sum(table.counts().values()) == 64


class TestOfferingsForFlows:
    def test_matches_market_path(self):
        flows = load_dataset("eu_isp", n_flows=64, seed=3)
        demand = CEDDemand(alpha=1.1)
        cost = LinearDistanceCost(theta=0.2)
        from repro.core.market import Market

        direct = offerings_for_flows(flows, demand, cost, blended_rate=20.0)
        via_market = compare_offerings(Market(flows, demand, cost, 20.0))
        assert direct == via_market
        assert any(r.offering == "conventional-transit" for r in direct)
