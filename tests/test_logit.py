"""Tests for logit demand (paper §3.2.2)."""

import warnings

import numpy as np
import pytest

from repro.core.logit import LogitDemand
from repro.errors import CalibrationError, ModelParameterError


@pytest.fixture
def model():
    return LogitDemand(alpha=1.1, s0=0.2)


@pytest.fixture
def calibrated(model):
    q = np.array([10.0, 3.0, 100.0, 0.5])
    f = np.array([1.0, 5.0, 2.0, 11.0])
    p0 = 20.0
    v = model.fit_valuations(q, p0)
    gamma = model.fit_gamma(v, f, p0)
    return {"q": q, "f": f, "p0": p0, "v": v, "gamma": gamma, "c": gamma * f}


class TestConstruction:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(ModelParameterError):
            LogitDemand(alpha=alpha)

    @pytest.mark.parametrize("s0", [0.0, 1.0, -0.2, 1.5])
    def test_s0_must_be_interior(self, s0):
        with pytest.raises(ModelParameterError, match="s0"):
            LogitDemand(alpha=1.0, s0=s0)

    def test_describe(self, model):
        text = model.describe()
        assert "1.1" in text and "0.2" in text


class TestShares:
    def test_shares_plus_outside_sum_to_one(self, model):
        v = np.array([2.0, 1.0, 0.5])
        p = np.array([1.0, 1.0, 1.0])
        shares = model.shares(v, p)
        total = shares.sum() + model.outside_share(v, p)
        assert total == pytest.approx(1.0)

    def test_eq6_two_flow_values(self):
        model = LogitDemand(alpha=1.0, s0=0.5)
        v = np.array([1.0, 2.0])
        p = np.array([1.0, 2.0])
        # both utilities zero -> e^0 = 1 each; denom = 1+1+1 = 3.
        shares = model.shares(v, p)
        assert shares == pytest.approx([1 / 3, 1 / 3])
        assert model.outside_share(v, p) == pytest.approx(1 / 3)

    def test_share_shifts_to_cheaper_flow(self, model):
        v = np.array([1.0, 1.0])
        before = model.shares(v, np.array([1.0, 1.0]))
        after = model.shares(v, np.array([1.0, 2.0]))
        assert after[0] > before[0]
        assert after[1] < before[1]

    def test_demand_not_separable(self, model):
        # Raising flow 2's price raises flow 1's demand - the substitution
        # the CED model cannot express.
        v = np.array([1.0, 1.0])
        q1_before = model.quantities(v, np.array([1.0, 1.0]))[0]
        q1_after = model.quantities(v, np.array([1.0, 3.0]))[0]
        assert q1_after > q1_before

    def test_numerical_stability_extreme_utilities(self):
        model = LogitDemand(alpha=10.0, s0=0.2)
        v = np.array([100.0, 0.0])
        p = np.array([1.0, 1.0])
        shares = model.shares(v, p)
        assert np.all(np.isfinite(shares))
        assert shares[0] == pytest.approx(1.0)
        assert model.outside_share(v, p) < 1e-200 or shares[1] >= 0.0


class TestCalibration:
    def test_fitted_shares_reproduce_observed_demand(self, model, calibrated):
        k = model.population(calibrated["q"])
        shares = model.shares(
            calibrated["v"], np.full(4, calibrated["p0"])
        )
        assert k * shares == pytest.approx(calibrated["q"])

    def test_outside_share_at_blended_rate_is_s0(self, model, calibrated):
        s0 = model.outside_share(calibrated["v"], np.full(4, calibrated["p0"]))
        assert s0 == pytest.approx(model.s0)

    def test_population_formula(self, model):
        q = np.array([8.0, 2.0])
        assert model.population(q) == pytest.approx(10.0 / 0.8)

    def test_gamma_makes_blended_rate_optimal(self, model, calibrated):
        # After calibration, no single uniform price beats P0.
        v, c, p0 = calibrated["v"], calibrated["c"], calibrated["p0"]
        assert model.uniform_price(v, c) == pytest.approx(p0)
        best = model.profit(v, c, np.full(4, p0))
        for p in np.linspace(5.0, 60.0, 150):
            assert model.profit(v, c, np.full(4, p)) <= best + 1e-12

    def test_gamma_requires_feasible_parameters(self):
        # alpha * P0 * s0 <= 1 has no positive gamma solution.
        model = LogitDemand(alpha=1.1, s0=0.02)
        q = np.array([5.0, 1.0])
        v = model.fit_valuations(q, 20.0)
        with pytest.raises(CalibrationError, match="alpha"):
            model.fit_gamma(v, np.array([1.0, 2.0]), 20.0)

    def test_fit_valuations_rejects_nonpositive_demand(self, model):
        with pytest.raises(CalibrationError):
            model.fit_valuations(np.array([1.0, 0.0]), 10.0)

    @pytest.mark.parametrize(
        "alpha, v, s0",
        [
            (5.0, [500.0, 300.0, 10.0], "4.935e-1043"),  # exp overflows
            (1.0, [729.0, 729.0, 729.0], "4.056e-309"),  # only the sum does
        ],
    )
    def test_gamma_past_exps_range_fails_without_a_warning(self, alpha, v, s0):
        # E = sum(exp(alpha (v - P0))) is past a float's range: the error
        # names the true s0 = 1/(1 + E), and numpy warns of no overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match=f"implied s0={s0} "):
                LogitDemand(alpha=alpha).fit_gamma(np.array(v), np.ones(3), 20.0)

    def test_gamma_rejects_nonpositive_relative_costs(self, model, calibrated):
        with pytest.raises(CalibrationError):
            model.fit_gamma(calibrated["v"], np.array([1.0, 1.0, 1.0, 0.0]), 20.0)


class TestPricing:
    def test_optimal_prices_have_equal_markup(self, model, calibrated):
        p = model.optimal_prices(calibrated["v"], calibrated["c"])
        markups = p - calibrated["c"]
        assert np.allclose(markups, markups[0])

    def test_markup_satisfies_eq9(self, model, calibrated):
        p = model.optimal_prices(calibrated["v"], calibrated["c"])
        s0 = model.outside_share(calibrated["v"], p)
        assert p - calibrated["c"] == pytest.approx(
            np.full(4, 1.0 / (model.alpha * s0))
        )

    def test_fixed_point_matches_closed_form(self, model, calibrated):
        closed = model.optimal_prices(calibrated["v"], calibrated["c"])
        iterated = model.optimize_prices_fixed_point(
            calibrated["v"], calibrated["c"]
        )
        assert iterated == pytest.approx(closed, rel=1e-6)

    def test_fixed_point_from_custom_start(self, model, calibrated):
        closed = model.optimal_prices(calibrated["v"], calibrated["c"])
        iterated = model.optimize_prices_fixed_point(
            calibrated["v"],
            calibrated["c"],
            initial_prices=calibrated["c"] + 100.0,
        )
        assert iterated == pytest.approx(closed, rel=1e-6)

    def test_optimal_beats_perturbed_prices(self, model, calibrated, rng):
        v, c = calibrated["v"], calibrated["c"]
        p_star = model.optimal_prices(v, c)
        best = model.profit(v, c, p_star)
        for _ in range(50):
            perturbed = p_star + rng.normal(0, 0.5, p_star.size)
            if np.any(perturbed <= 0):
                continue
            assert model.profit(v, c, perturbed) <= best + 1e-12

    def test_single_flow_monopoly_price(self):
        # One flow: profit s(p)(p-c) maximized; verify against a grid.
        model = LogitDemand(alpha=2.0, s0=0.2)
        v = np.array([3.0])
        c = np.array([1.0])
        p_star = model.optimal_prices(v, c)[0]
        best = model.profit(v, c, np.array([p_star]))
        grid = np.linspace(1.0, 6.0, 400)
        profits = [model.profit(v, c, np.array([p])) for p in grid]
        assert best >= max(profits) - 1e-10


class TestBundleComposition:
    def test_eq10_valuation(self, model):
        v = np.array([1.0, 2.0, 0.5])
        c = np.array([1.0, 1.0, 1.0])
        v_bundle, _ = model.compose_bundle(v, c)
        expected = np.log(np.sum(np.exp(model.alpha * v))) / model.alpha
        assert v_bundle == pytest.approx(expected)

    def test_eq11_cost_weighting(self, model):
        v = np.array([1.0, 2.0])
        c = np.array([4.0, 1.0])
        _, c_bundle = model.compose_bundle(v, c)
        w = np.exp(model.alpha * v)
        assert c_bundle == pytest.approx(float(np.sum(c * w) / np.sum(w)))

    def test_composition_is_exact_for_shares(self, model):
        # The composite flow at price P has exactly the summed share of the
        # members at price P.
        v = np.array([1.0, 1.7, 0.2])
        c = np.array([1.0, 2.0, 0.5])
        v_b, _ = model.compose_bundle(v, c)
        for price in (0.5, 1.0, 2.5):
            member_shares = model.shares(v, np.full(3, price)).sum()
            composite_share = model.shares(
                np.array([v_b]), np.array([price])
            )[0]
            assert composite_share == pytest.approx(member_shares)

    def test_composition_is_exact_for_profit(self, model):
        v = np.array([1.0, 1.7, 0.2])
        c = np.array([1.0, 2.0, 0.5])
        v_b, c_b = model.compose_bundle(v, c)
        for price in (1.0, 2.0, 3.0):
            direct = model.profit(v, c, np.full(3, price))
            composite = model.profit(
                np.array([v_b]), np.array([c_b]), np.array([price])
            )
            assert composite == pytest.approx(direct)

    def test_bundle_prices_recover_per_flow_optimum_for_singletons(
        self, model, calibrated
    ):
        bundles = [np.array([i]) for i in range(4)]
        prices = model.bundle_prices(calibrated["v"], calibrated["c"], bundles)
        assert prices == pytest.approx(
            model.optimal_prices(calibrated["v"], calibrated["c"])
        )

    def test_bundle_prices_equal_within_bundle(self, model, calibrated):
        bundles = [np.array([0, 2]), np.array([1, 3])]
        prices = model.bundle_prices(calibrated["v"], calibrated["c"], bundles)
        assert prices[0] == prices[2]
        assert prices[1] == prices[3]

    def test_bundle_prices_are_optimal_among_uniform_vectors(
        self, model, calibrated
    ):
        v, c = calibrated["v"], calibrated["c"]
        bundles = [np.array([0, 2]), np.array([1, 3])]
        prices = model.bundle_prices(v, c, bundles)
        best = model.profit(v, c, prices)
        for p_a in np.linspace(10.0, 40.0, 30):
            for p_b in np.linspace(10.0, 60.0, 30):
                candidate = np.array([p_a, p_b, p_a, p_b])
                assert model.profit(v, c, candidate) <= best + 1e-10


class TestSurplusAndPotentialProfit:
    def test_surplus_decreases_with_price(self, model):
        v = np.array([2.0, 1.0])
        low = model.consumer_surplus(v, np.array([1.0, 1.0]))
        high = model.consumer_surplus(v, np.array([2.0, 2.0]))
        assert high < low

    def test_surplus_nonnegative(self, model):
        # Relative to the outside option, surplus is at least zero.
        v = np.array([0.1])
        assert model.consumer_surplus(v, np.array([100.0])) >= 0.0

    def test_potential_profits_order_by_net_valuation(self, model):
        v = np.array([2.0, 2.0, 1.0])
        c = np.array([0.5, 1.5, 0.5])
        pi = model.potential_profits(v, c)
        assert pi[0] > pi[1]  # cheaper of two equal-v flows
        assert pi[0] > pi[2]  # higher-v of two equal-c flows

    def test_potential_profits_sum_to_total_optimal_profit(
        self, model, calibrated
    ):
        v, c = calibrated["v"], calibrated["c"]
        pi = model.potential_profits(v, c)
        total = model.profit(v, c, model.optimal_prices(v, c))
        assert pi.sum() == pytest.approx(total)


class TestBundleObjective:
    def test_slice_score_proportional_to_attractiveness(self, model):
        v = np.array([1.0, 1.5, 0.7])
        c = np.array([1.0, 2.0, 0.5])
        objective = model.bundle_objective(v, c)
        # Score of slice [i, j) must be proportional to
        # exp(alpha*(v_b - c_b)) with a global constant.
        def attractiveness(i, j):
            vb, cb = model.compose_bundle(v[i:j], c[i:j])
            return np.exp(model.alpha * (vb - cb))

        ratio = objective.slice_score(0, 1) / attractiveness(0, 1)
        for i, j in [(0, 2), (1, 3), (0, 3), (2, 3)]:
            assert objective.slice_score(i, j) / attractiveness(i, j) == (
                pytest.approx(ratio)
            )

    def test_total_profit_monotone_in_total_score(self, model, rng):
        # Partitions with a higher summed slice score earn more profit.
        v = rng.normal(20.0, 1.0, 6)
        c = rng.uniform(1.0, 6.0, 6)
        order = np.argsort(c)
        v, c = v[order], c[order]
        objective = model.bundle_objective(v, c)
        cuts_options = [[0, 3, 6], [0, 2, 6], [0, 1, 6], [0, 5, 6], [0, 4, 6]]
        scored = []
        for cuts in cuts_options:
            score = sum(
                objective.slice_score(a, b) for a, b in zip(cuts, cuts[1:])
            )
            bundles = [
                np.arange(a, b) for a, b in zip(cuts, cuts[1:])
            ]
            profit = model.profit(v, c, model.bundle_prices(v, c, bundles))
            scored.append((score, profit))
        scored.sort()
        profits = [profit for _, profit in scored]
        assert profits == sorted(profits)
