"""Tests for the four cost models (paper §3.3)."""

import numpy as np
import pytest

from repro.core.cost import (
    ConcaveDistanceCost,
    CostedFlows,
    DestinationTypeCost,
    LinearDistanceCost,
    OFF_NET,
    ON_NET,
    RegionalCost,
    default_cost_models,
    fit_concave_price_curve,
)
from repro.core.flow import FlowSet, INTERNATIONAL, METRO, NATIONAL
from repro.errors import DataError, ModelParameterError


class TestLinearDistanceCost:
    def test_paper_worked_example(self):
        # §3.3: distances (1, 10, 100), theta=0.1 -> base 10, costs
        # (11, 20, 110) at gamma=1.
        flows = FlowSet(demands_mbps=[1.0, 1.0, 1.0], distances_miles=[1, 10, 100])
        costed = LinearDistanceCost(theta=0.1).prepare(flows)
        assert costed.relative_costs == pytest.approx([11.0, 20.0, 110.0])

    def test_zero_theta_is_pure_distance(self):
        flows = FlowSet(demands_mbps=[1.0, 1.0], distances_miles=[2.0, 8.0])
        costed = LinearDistanceCost(theta=0.0).prepare(flows)
        assert costed.relative_costs == pytest.approx([2.0, 8.0])

    def test_distance_floor_applies(self):
        flows = FlowSet(demands_mbps=[1.0, 1.0], distances_miles=[0.0, 100.0])
        costed = LinearDistanceCost(theta=0.0).prepare(flows)
        assert costed.relative_costs[0] == pytest.approx(1.0)

    def test_higher_theta_lowers_cost_cv(self):
        flows = FlowSet(
            demands_mbps=[1.0, 1.0, 1.0], distances_miles=[1.0, 50.0, 500.0]
        )
        def cv(theta):
            f = LinearDistanceCost(theta=theta).prepare(flows).relative_costs
            return np.std(f) / np.mean(f)
        assert cv(0.3) < cv(0.1) < cv(0.0)

    def test_no_classes_emitted(self, small_flows):
        assert LinearDistanceCost(theta=0.2).prepare(small_flows).classes is None

    @pytest.mark.parametrize("theta", [-0.1, float("nan")])
    def test_invalid_theta_rejected(self, theta):
        with pytest.raises(ModelParameterError):
            LinearDistanceCost(theta=theta)

    def test_invalid_floor_rejected(self):
        with pytest.raises(ModelParameterError):
            LinearDistanceCost(theta=0.1, min_distance_miles=0.0)


@pytest.mark.parametrize(
    "model",
    [LinearDistanceCost(theta=0.2), ConcaveDistanceCost(theta=0.2)],
    ids=["linear", "concave"],
)
def test_zero_mile_reference_quotes_in_the_calibration_frame(model):
    # Every calibration flow local: the calibration frame is the floor,
    # and a snapshot carries a 0-mile reference distance.
    flows = FlowSet(demands_mbps=[1.0, 2.0], distances_miles=[0.0, 0.0])
    quoted = model.prepare_quotes(flows, 0.0).relative_costs
    assert quoted.tolist() == model.prepare(flows).relative_costs.tolist()
    with pytest.raises(ModelParameterError):
        model.prepare_quotes(flows, -1.0)


class TestConcaveDistanceCost:
    def test_costs_positive_and_increasing(self, small_flows):
        costed = ConcaveDistanceCost(theta=0.1).prepare(small_flows)
        f = costed.relative_costs
        order = np.argsort(small_flows.distances)
        assert np.all(f > 0)
        assert np.all(np.diff(f[order]) > 0)

    def test_concavity_compresses_long_distances(self):
        flows = FlowSet(
            demands_mbps=[1.0, 1.0, 1.0], distances_miles=[1.0, 100.0, 10000.0]
        )
        f = ConcaveDistanceCost(theta=0.0).prepare(flows).relative_costs
        # Equal distance ratios give equal cost increments (log law).
        assert f[1] - f[0] == pytest.approx(f[2] - f[1])

    def test_defaults_match_figure6_fit(self):
        # a=0.5, b=6, c=1: cost at the 1-mile floor is exactly c.
        flows = FlowSet(demands_mbps=[1.0], distances_miles=[1.0])
        f = ConcaveDistanceCost(theta=0.0).prepare(flows).relative_costs
        assert f[0] == pytest.approx(1.0)

    def test_base_cost_offset(self):
        flows = FlowSet(demands_mbps=[1.0, 1.0], distances_miles=[1.0, 36.0])
        # g = (1, 2) with defaults (log_6 36 = 2); theta=0.5 -> beta = 1.
        f = ConcaveDistanceCost(theta=0.5).prepare(flows).relative_costs
        assert f == pytest.approx([2.0, 3.0])

    @pytest.mark.parametrize(
        "kwargs", [{"a": 0.0}, {"a": -1.0}, {"b": 1.0}, {"b": 0.5}, {"c": -0.1}]
    )
    def test_invalid_shape_rejected(self, kwargs):
        with pytest.raises(ModelParameterError):
            ConcaveDistanceCost(theta=0.1, **kwargs)

    def test_nonpositive_cost_at_floor_rejected(self):
        flows = FlowSet(demands_mbps=[1.0], distances_miles=[1.0])
        # c=0 makes g(1 mile) = 0 -> invalid.
        with pytest.raises(ModelParameterError, match="min_distance"):
            ConcaveDistanceCost(theta=0.1, c=0.0).prepare(flows)


class TestRegionalCost:
    def test_threshold_classification(self, small_flows):
        model = RegionalCost(theta=1.0)
        labels = model.classify(small_flows)
        assert labels == (METRO, NATIONAL, INTERNATIONAL, INTERNATIONAL)

    def test_stored_labels_take_precedence(self):
        flows = FlowSet(
            demands_mbps=[1.0],
            distances_miles=[5000.0],
            regions=[METRO],  # contradicts distance; label wins
        )
        assert RegionalCost(theta=1.0).classify(flows) == (METRO,)

    def test_theta_zero_equalizes_costs(self, small_flows):
        f = RegionalCost(theta=0.0).prepare(small_flows).relative_costs
        assert np.all(f == 1.0)

    def test_theta_one_is_linear_1_2_3(self, small_flows):
        f = RegionalCost(theta=1.0).prepare(small_flows).relative_costs
        assert f == pytest.approx([1.0, 2.0, 3.0, 3.0])

    def test_theta_above_one_is_superlinear(self, small_flows):
        f = RegionalCost(theta=2.0).prepare(small_flows).relative_costs
        assert f == pytest.approx([1.0, 4.0, 9.0, 9.0])

    def test_classes_are_region_labels(self, small_flows):
        costed = RegionalCost(theta=1.1).prepare(small_flows)
        assert costed.classes == (METRO, NATIONAL, INTERNATIONAL, INTERNATIONAL)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ModelParameterError):
            RegionalCost(theta=1.0, metro_miles=100.0, national_miles=10.0)

    def test_custom_thresholds(self):
        flows = FlowSet(demands_mbps=[1.0, 1.0], distances_miles=[40.0, 40.0])
        wide = RegionalCost(theta=1.0, metro_miles=50.0, national_miles=100.0)
        assert wide.classify(flows) == (METRO, METRO)


class TestDestinationTypeCost:
    def test_split_preserves_total_demand(self, small_flows):
        costed = DestinationTypeCost(theta=0.3).prepare(small_flows)
        assert costed.flows.demands.sum() == pytest.approx(
            small_flows.demands.sum()
        )
        assert len(costed.flows) == 2 * len(small_flows)

    def test_split_fractions(self, small_flows):
        costed = DestinationTypeCost(theta=0.25).prepare(small_flows)
        n = len(small_flows)
        assert costed.flows.demands[:n] == pytest.approx(
            0.25 * small_flows.demands
        )
        assert costed.flows.demands[n:] == pytest.approx(
            0.75 * small_flows.demands
        )

    def test_off_net_costs_twice_on_net(self, small_flows):
        costed = DestinationTypeCost(theta=0.5).prepare(small_flows)
        n = len(small_flows)
        assert np.all(costed.relative_costs[n:] == 2.0 * costed.relative_costs[:n])

    def test_two_flat_cost_classes(self, small_flows):
        costed = DestinationTypeCost(theta=0.5).prepare(small_flows)
        assert set(np.unique(costed.relative_costs)) == {1.0, 2.0}

    def test_class_labels(self, small_flows):
        costed = DestinationTypeCost(theta=0.5).prepare(small_flows)
        n = len(small_flows)
        assert costed.classes[:n] == (ON_NET,) * n
        assert costed.classes[n:] == (OFF_NET,) * n

    def test_region_labels_carried_through(self, labeled_flows):
        costed = DestinationTypeCost(theta=0.5).prepare(labeled_flows)
        assert costed.flows.regions == tuple(labeled_flows.regions) * 2

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.3, 2.0])
    def test_theta_must_be_a_fraction(self, theta):
        with pytest.raises(ModelParameterError):
            DestinationTypeCost(theta=theta)


class TestCostedFlows:
    def test_shape_mismatch_rejected(self, small_flows):
        with pytest.raises(DataError):
            CostedFlows(flows=small_flows, relative_costs=np.array([1.0]))

    def test_nonpositive_costs_rejected(self, small_flows):
        with pytest.raises(DataError):
            CostedFlows(
                flows=small_flows, relative_costs=np.array([1.0, 2.0, 0.0, 1.0])
            )

    def test_class_length_mismatch_rejected(self, small_flows):
        with pytest.raises(DataError):
            CostedFlows(
                flows=small_flows,
                relative_costs=np.ones(4),
                classes=("a",),
            )


class TestConcaveFit:
    def test_recovers_exact_curve(self):
        x = np.linspace(0.05, 1.0, 30)
        y = 0.25 * np.log(x) + 0.9
        fit = fit_concave_price_curve(x, y)
        assert fit.k == pytest.approx(0.25, abs=1e-9)
        assert fit.c == pytest.approx(0.9, abs=1e-9)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)

    def test_predict(self):
        x = np.linspace(0.1, 1.0, 20)
        fit = fit_concave_price_curve(x, 0.3 * np.log(x) + 1.0)
        assert fit.predict(np.array([1.0]))[0] == pytest.approx(1.0)

    def test_a_for_base_conversion(self):
        x = np.linspace(0.1, 1.0, 20)
        fit = fit_concave_price_curve(x, 0.3 * np.log(x) + 1.0)
        # a = k * ln(b): with b = e, a == k.
        assert fit.a_for_base(np.e) == pytest.approx(fit.k)
        with pytest.raises(ModelParameterError):
            fit.a_for_base(1.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(DataError):
            fit_concave_price_curve(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_rejects_short_input(self):
        with pytest.raises(DataError):
            fit_concave_price_curve(np.array([1.0]), np.array([1.0]))


def test_default_cost_models_cover_all_four():
    models = default_cost_models()
    assert [m.name for m in models] == [
        "linear",
        "concave",
        "regional",
        "destination-type",
    ]


def test_default_cost_models_theta_override():
    models = default_cost_models(theta=0.5)
    assert all(m.theta == 0.5 for m in models)


class TestStepDistanceCost:
    def test_reach_classes(self):
        from repro.core.cost import StepDistanceCost

        flows = FlowSet(
            demands_mbps=[1.0] * 6,
            distances_miles=[0.1, 1.0, 10.0, 40.0, 300.0, 3000.0],
        )
        costed = StepDistanceCost(theta=0.0).prepare(flows)
        assert costed.relative_costs == pytest.approx(
            [1.0, 2.0, 4.0, 7.0, 12.0, 30.0]
        )
        assert costed.classes == (
            "reach-0",
            "reach-1",
            "reach-2",
            "reach-3",
            "reach-4",
            "reach-5",
        )

    def test_base_cost_offset(self):
        from repro.core.cost import StepDistanceCost

        flows = FlowSet(demands_mbps=[1.0, 1.0], distances_miles=[0.1, 3000.0])
        costed = StepDistanceCost(theta=0.1).prepare(flows)
        assert costed.relative_costs == pytest.approx([4.0, 33.0])

    def test_monotone_in_distance(self):
        from repro.core.cost import StepDistanceCost

        flows = FlowSet(
            demands_mbps=np.ones(50),
            distances_miles=np.linspace(0.01, 5000.0, 50),
        )
        f = StepDistanceCost(theta=0.2).prepare(flows).relative_costs
        assert np.all(np.diff(f) >= 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"thresholds": (1.0, 1.0), "levels": (1.0, 2.0, 3.0)},
            {"thresholds": (1.0, 2.0), "levels": (1.0, 2.0)},
            {"thresholds": (1.0,), "levels": (2.0, 1.0)},
            {"thresholds": (1.0,), "levels": (0.0, 1.0)},
        ],
    )
    def test_validation(self, kwargs):
        from repro.core.cost import StepDistanceCost

        with pytest.raises(ModelParameterError):
            StepDistanceCost(theta=0.1, **kwargs)

    def test_few_levels_need_few_tiers(self):
        """With k occupied cost levels, k tiers capture everything."""
        from repro.core.bundling import OptimalBundling
        from repro.core.ced import CEDDemand
        from repro.core.cost import StepDistanceCost
        from repro.core.market import Market

        rng = np.random.default_rng(2)
        flows = FlowSet(
            demands_mbps=rng.lognormal(2.0, 1.0, 30),
            distances_miles=rng.choice([1.0, 30.0, 1000.0], size=30),
        )
        market = Market(
            flows, CEDDemand(1.1), StepDistanceCost(theta=0.1), 20.0
        )
        outcome = market.tiered_outcome(OptimalBundling(), 3)
        assert outcome.profit_capture == pytest.approx(1.0, abs=1e-9)


class TestCallableCost:
    def test_wraps_a_function(self, small_flows):
        from repro.core.cost import CallableCost

        costed = CallableCost(lambda d: d**0.5, theta=0.0).prepare(small_flows)
        assert costed.relative_costs == pytest.approx(
            np.sqrt(np.maximum(small_flows.distances, 1.0))
        )

    def test_base_cost(self, small_flows):
        from repro.core.cost import CallableCost

        flat = CallableCost(lambda d: 1.0, theta=0.5).prepare(small_flows)
        assert flat.relative_costs == pytest.approx([1.5] * 4)

    def test_bad_function_rejected(self, small_flows):
        from repro.core.cost import CallableCost

        with pytest.raises(ModelParameterError, match="non-positive"):
            CallableCost(lambda d: -1.0).prepare(small_flows)
        with pytest.raises(ModelParameterError, match="callable"):
            CallableCost(42)

    def test_describe_names_the_function(self):
        from repro.core.cost import CallableCost

        def fiber_lease(d):
            return d + 1.0

        assert "fiber_lease" in CallableCost(fiber_lease).describe()

    def test_usable_in_a_market(self, medium_flows):
        from repro.core.ced import CEDDemand
        from repro.core.cost import CallableCost
        from repro.core.market import Market

        market = Market(
            medium_flows,
            CEDDemand(1.1),
            CallableCost(lambda d: 1.0 + d / 100.0),
            blended_rate=20.0,
        )
        assert market.max_profit() > market.blended_profit()
