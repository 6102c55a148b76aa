"""Columnar-vs-legacy equivalence for the struct-of-arrays core.

The columnar refactor replaced per-object Python (``Flow`` dataclasses,
label tuples, per-flow loops) with numpy code columns and grouped
reductions.  These tests pin the refactor down:

* a market built from ``Flow`` objects (the legacy per-object path,
  ``FlowSet.from_flows``) and one built straight from columns
  (``FlowSet.from_columns``) agree to atol=1e-9 on CED/logit profit, all
  six bundling strategies, and welfare — including region- and
  class-labeled markets;
* the vectorized token-bucket and contiguous-DP algorithms reproduce
  their retained per-flow reference implementations exactly;
* ``repro.synth`` emits a 10^6-flow dataset without constructing any
  ``Flow`` object;
* ``FlowSet.from_flows`` takes the pre-validated fast path (no
  re-validation of already-validated records);
* ``OptimalBundling`` refuses oversized inputs with ``DataError`` instead
  of hanging.
"""

import numpy as np
import pytest

import repro.core.flow as flow_module
from repro.core.bundling import (
    BundlingInputs,
    DEFAULT_MAX_OPTIMAL_FLOWS,
    OptimalBundling,
    _contiguous_dp,
    paper_strategies,
    token_bucket_partition,
)
from repro.core.ced import CEDDemand
from repro.core.cost import DestinationTypeCost, LinearDistanceCost, RegionalCost
from repro.core.flow import Flow, FlowSet, FlowTable, VALID_REGIONS
from repro.core.linear import LinearDemand
from repro.core.logit import LogitDemand
from tests.bundling_reference import contiguous_dp_reference, token_bucket_reference
from repro.core.market import Market
from repro.core.welfare import welfare_comparison
from repro.errors import DataError
from repro.runtime import cache
from repro.synth.datasets import generate_flow_table

ATOL = 1e-9


def random_columns(seed, n=60, labeled=False):
    rng = np.random.default_rng(seed)
    demands = rng.lognormal(mean=2.0, sigma=1.3, size=n)
    distances = rng.lognormal(mean=4.0, sigma=0.8, size=n)
    region_codes = None
    if labeled:
        region_codes = rng.integers(0, len(VALID_REGIONS), size=n).astype(np.int32)
    return demands, distances, region_codes


def market_pair(seed, demand_model, cost_model, labeled=False):
    """The same market built per-object and columnar."""
    demands, distances, region_codes = random_columns(seed, labeled=labeled)
    columnar = FlowSet.from_columns(
        demands.copy(), distances.copy(), region_codes=region_codes
    )
    regions = (
        None
        if region_codes is None
        else [VALID_REGIONS[c] for c in region_codes]
    )
    legacy = FlowSet.from_flows(
        Flow(
            demand_mbps=float(demands[i]),
            distance_miles=float(distances[i]),
            region=None if regions is None else regions[i],
        )
        for i in range(demands.size)
    )
    return (
        Market(legacy, demand_model, cost_model, blended_rate=20.0),
        Market(columnar, demand_model, cost_model, blended_rate=20.0),
    )


DEMAND_MODELS = [CEDDemand(alpha=1.1), LogitDemand(alpha=1.1, s0=0.2)]


class TestMarketEquivalence:
    @pytest.mark.parametrize("model", DEMAND_MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_profit_and_calibration_match(self, model, seed):
        legacy, columnar = market_pair(seed, model, LinearDistanceCost(theta=0.2))
        assert columnar.gamma == pytest.approx(legacy.gamma, abs=ATOL)
        assert columnar.valuations == pytest.approx(legacy.valuations, abs=ATOL)
        assert columnar.blended_profit() == pytest.approx(
            legacy.blended_profit(), abs=ATOL * max(1.0, abs(legacy.blended_profit()))
        )
        assert columnar.max_profit() == pytest.approx(
            legacy.max_profit(), abs=ATOL * max(1.0, abs(legacy.max_profit()))
        )

    @pytest.mark.parametrize("model", DEMAND_MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", [5, 6])
    def test_all_six_strategies_match(self, model, seed):
        legacy, columnar = market_pair(seed, model, LinearDistanceCost(theta=0.2))
        for strategy in paper_strategies():
            a = legacy.tiered_outcome(strategy, 4)
            b = columnar.tiered_outcome(strategy, 4)
            assert b.profit == pytest.approx(
                a.profit, abs=ATOL * max(1.0, abs(a.profit))
            ), strategy.name
            assert [
                (t.n_flows, pytest.approx(t.demand_mbps), pytest.approx(t.price))
                for t in a.tiers
            ] == [
                (t.n_flows, t.demand_mbps, t.price) for t in b.tiers
            ], strategy.name

    @pytest.mark.parametrize("seed", [7, 8])
    def test_region_labeled_markets_match(self, seed):
        legacy, columnar = market_pair(
            seed, CEDDemand(alpha=1.1), RegionalCost(theta=1.1), labeled=True
        )
        assert columnar.classes == legacy.classes
        for strategy in paper_strategies(class_aware=True)[1:3]:
            a = legacy.tiered_outcome(strategy, 4)
            b = columnar.tiered_outcome(strategy, 4)
            assert b.profit == pytest.approx(
                a.profit, abs=ATOL * max(1.0, abs(a.profit))
            ), strategy.name

    @pytest.mark.parametrize("seed", [9, 10])
    def test_class_labeled_markets_match(self, seed):
        legacy, columnar = market_pair(
            seed, LogitDemand(alpha=1.1, s0=0.2), DestinationTypeCost(theta=0.3)
        )
        assert columnar.classes == legacy.classes
        for strategy in paper_strategies(class_aware=True)[1:3]:
            a = legacy.tiered_outcome(strategy, 3)
            b = columnar.tiered_outcome(strategy, 3)
            assert b.profit == pytest.approx(
                a.profit, abs=ATOL * max(1.0, abs(a.profit))
            ), strategy.name

    @pytest.mark.parametrize("model", DEMAND_MODELS, ids=lambda m: m.name)
    def test_welfare_matches(self, model):
        legacy, columnar = market_pair(11, model, LinearDistanceCost(theta=0.2))
        strategy = paper_strategies()[2]  # profit-weighted
        a = welfare_comparison(legacy, strategy, 3)
        b = welfare_comparison(columnar, strategy, 3)
        for side in ("blended", "tiered", "per_flow"):
            x, y = getattr(a, side), getattr(b, side)
            assert y.profit == pytest.approx(
                x.profit, abs=ATOL * max(1.0, abs(x.profit))
            )
            assert y.consumer_surplus == pytest.approx(
                x.consumer_surplus, abs=ATOL * max(1.0, abs(x.consumer_surplus))
            )


class TestVectorizedAlgorithmsMatchReferences:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_bundles", [1, 2, 3, 5, 8])
    def test_token_bucket_matches_reference(self, seed, n_bundles):
        rng = np.random.default_rng(seed)
        weights = rng.lognormal(mean=0.0, sigma=1.5, size=40)
        fast = token_bucket_partition(weights, n_bundles)
        slow = token_bucket_reference(weights, n_bundles)
        assert [sorted(b.tolist()) for b in fast] == [
            sorted(b.tolist()) for b in slow
        ]

    def test_token_bucket_paper_example(self):
        # Demands (30, 10, 10, 10) into two bundles: {30} and {10, 10, 10}.
        bundles = token_bucket_partition(np.array([30.0, 10.0, 10.0, 10.0]), 2)
        assert [sorted(b.tolist()) for b in bundles] == [[0], [1, 2, 3]]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("max_bundles", [1, 2, 4, 7])
    def test_contiguous_dp_matches_reference(self, seed, max_bundles):
        rng = np.random.default_rng(100 + seed)
        n = 25
        demands = rng.lognormal(mean=1.0, sigma=0.8, size=n)
        c = np.sort(rng.lognormal(mean=0.0, sigma=0.6, size=n))
        for model in (
            CEDDemand(alpha=1.1),
            LogitDemand(alpha=1.1, s0=0.2),
            LinearDemand(),
        ):
            v = model.fit_valuations(demands, 20.0)
            objective = model.bundle_objective(v, c)
            assert _contiguous_dp(objective, n, max_bundles) == (
                contiguous_dp_reference(objective, n, max_bundles)
            ), model.name


class TestScaleContract:
    def test_million_flow_dataset_builds_no_flow_objects(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise AssertionError("Flow object constructed on the columnar path")

        monkeypatch.setattr(flow_module.Flow, "__init__", boom)
        cache.configure(enabled=False)
        try:
            table = generate_flow_table("eu_isp", size=1_000_000, seed=33)
        finally:
            cache.configure(enabled=True)
        assert isinstance(table, FlowTable)
        assert len(table) == 1_000_000
        assert table.region_codes is not None
        assert table.demands.flags.writeable is False

    def test_from_flows_skips_array_revalidation(self, monkeypatch):
        calls = []
        original = flow_module._validated_numeric_columns

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(
            flow_module, "_validated_numeric_columns", counting
        )
        flows = FlowSet.from_flows(
            [
                Flow(demand_mbps=5.0, distance_miles=10.0),
                Flow(demand_mbps=7.0, distance_miles=900.0),
            ]
        )
        # Flow.__post_init__ validated each record; the assembled arrays
        # must not be validated a second time.
        assert not calls
        assert len(flows) == 2

    def test_optimal_bundling_guard(self, ced_model):
        n = 40
        rng = np.random.default_rng(0)
        demands = rng.lognormal(size=n)
        valuations = ced_model.fit_valuations(demands, 20.0)
        costs = np.sort(rng.lognormal(size=n)) + 0.5
        inputs = BundlingInputs(
            model=ced_model,
            demands=demands,
            valuations=valuations,
            costs=costs,
            potential_profits=ced_model.potential_profits(valuations, costs),
        )
        with pytest.raises(DataError, match="optimal bundling"):
            OptimalBundling(max_flows=20).bundle(inputs, 4)
        # The documented default is high enough for real sweeps.
        assert OptimalBundling().max_flows == DEFAULT_MAX_OPTIMAL_FLOWS == 5000
