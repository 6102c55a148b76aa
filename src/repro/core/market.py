"""The calibrated transit market and counterfactual engine (paper §3-4).

:class:`Market` ties the pieces together, mirroring the paper's Figure 7
pipeline:

1. **Cost** — a :class:`~repro.core.cost.CostModel` maps flow distances
   (and labels) to relative costs ``f_i``.
2. **Demand** — a :class:`~repro.core.demand.DemandModel` fits per-flow
   valuations ``v_i`` from the demand observed at the blended rate ``P0``,
   then fits the dollar scale ``gamma`` under the assumption that the ISP
   is already profit-maximizing at ``P0``; unit costs are
   ``c_i = gamma * f_i``.
3. **Bundling** — a :class:`~repro.core.bundling.BundlingStrategy`
   partitions the flows into ``B`` tiers; each tier is priced at its
   profit-maximizing uniform price; the result is scored by *profit
   capture*.

Profit capture (§4.2.2) is
``(pi_new - pi_original) / (pi_max - pi_original)`` where ``pi_original``
is profit at the blended rate and ``pi_max`` is profit with per-flow
(infinitely tiered) pricing.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.core.bundling import BundlingInputs, BundlingStrategy
from repro.core.cost import CostModel
from repro.core.demand import DemandModel, as_price_vector, validate_positive
from repro.core.flow import FlowSet
from repro.errors import ModelParameterError
from repro.obs import METRICS

#: Treat a max-vs-blended profit gap below this relative size as "no gap".
_CAPTURE_EPS = 1e-12


@dataclasses.dataclass(frozen=True)
class TierSummary:
    """One pricing tier of a counterfactual outcome."""

    price: float
    n_flows: int
    demand_mbps: float
    mean_cost: float

    @property
    def margin(self) -> float:
        """Average per-unit margin of the tier at its price."""
        return self.price - self.mean_cost


@dataclasses.dataclass(frozen=True)
class TieredOutcome:
    """Result of one bundling counterfactual.

    Attributes:
        strategy: Name of the bundling strategy used.
        n_bundles: The tier budget requested (the partition may use fewer).
        bundles: The partition, as index arrays into the market's flows.
        prices: Per-flow prices (equal within each bundle).
        profit: Absolute ISP profit at those prices ($/month).
        profit_capture: Fraction of the blended-to-max profit gap closed.
        consumer_surplus: Aggregate customer surplus at those prices.
        tiers: Per-tier summaries sorted by price.
    """

    strategy: str
    n_bundles: int
    bundles: list
    prices: np.ndarray
    profit: float
    profit_capture: float
    consumer_surplus: float
    tiers: "list[TierSummary]"

    @property
    def welfare(self) -> float:
        """Social welfare: ISP profit plus consumer surplus."""
        return self.profit + self.consumer_surplus


class Market:
    """A transit market calibrated to observed traffic.

    Args:
        flows: The observed traffic (demand + distance per flow).
        demand_model: CED or logit demand.
        cost_model: One of the §3.3 cost models.
        blended_rate: The current single price ``P0`` ($/Mbps/month).

    Raises:
        CalibrationError: If the observed data is inconsistent with the
            ISP profit-maximizing at ``P0`` (see the demand models).
    """

    def __init__(
        self,
        flows: FlowSet,
        demand_model: DemandModel,
        cost_model: CostModel,
        blended_rate: float = 20.0,
    ) -> None:
        METRICS.incr("markets_built")
        self.blended_rate = validate_positive(blended_rate, "blended_rate")
        self.demand_model = demand_model
        self.cost_model = cost_model

        costed = cost_model.prepare(flows)
        self.flows = costed.flows
        self.relative_costs = costed.relative_costs
        self.class_codes = costed.class_codes
        self.class_table = costed.class_table
        self._costed = costed  # classes label tuple decoded lazily

        demands = self.flows.demands
        self.valuations = demand_model.fit_valuations(demands, self.blended_rate)
        self.gamma = demand_model.fit_gamma(
            self.valuations, self.relative_costs, self.blended_rate
        )
        self.costs = self.gamma * self.relative_costs
        if np.any(self.costs >= self.blended_rate):
            # Not an error — blended-rate pricing can sell some flows below
            # cost (that inefficiency is the paper's point) — but flag it.
            self.flows_below_cost = int(np.sum(self.costs >= self.blended_rate))
        else:
            self.flows_below_cost = 0
        self._scale = demand_model.population(demands)
        # Per-market memo for the shared aggregates every counterfactual
        # re-reads (blended/max profit, bundling inputs).  The calibrated
        # market is immutable after construction, so these never go stale.
        self._memo: dict = {}

    # ------------------------------------------------------------------
    # Reference profits
    # ------------------------------------------------------------------

    @property
    def n_flows(self) -> int:
        return len(self.flows)

    @property
    def classes(self) -> "Optional[tuple]":
        """Cost-class labels as a tuple (decoded lazily; compat view)."""
        return self._costed.classes

    def blended_prices(self) -> np.ndarray:
        return as_price_vector(self.blended_rate, self.n_flows)

    def blended_profit(self) -> float:
        """ISP profit at the current blended rate (``pi_original``).

        Memoized: every :meth:`tiered_outcome` re-reads it via
        :meth:`profit_capture`, and the market never changes.
        """
        if "blended_profit" not in self._memo:
            self._memo["blended_profit"] = self._scale * self.demand_model.profit(
                self.valuations, self.costs, self.blended_prices()
            )
        return self._memo["blended_profit"]

    def max_profit(self) -> float:
        """Profit with per-flow optimal prices (``pi_max``, infinite tiers).

        Memoized — the per-flow price optimization (a fixed point under
        logit demand) is the most expensive shared aggregate.
        """
        if "max_profit" not in self._memo:
            prices = self.demand_model.optimal_prices(self.valuations, self.costs)
            self._memo["max_profit"] = self._scale * self.demand_model.profit(
                self.valuations, self.costs, prices
            )
        return self._memo["max_profit"]

    def optimal_flow_prices(self) -> np.ndarray:
        """The per-flow profit-maximizing price vector."""
        return self.demand_model.optimal_prices(self.valuations, self.costs)

    def blended_surplus(self) -> float:
        """Consumer surplus at the blended rate."""
        return self._scale * self.demand_model.consumer_surplus(
            self.valuations, self.blended_prices()
        )

    def quantities(self, prices: np.ndarray) -> np.ndarray:
        """Absolute per-flow demand (Mbps) at the given prices."""
        return self._scale * self.demand_model.quantities(self.valuations, prices)

    def profit_at(self, prices: np.ndarray) -> float:
        """Absolute ISP profit at an arbitrary per-flow price vector."""
        return self._scale * self.demand_model.profit(
            self.valuations, self.costs, prices
        )

    def profit_capture(self, profit: float) -> float:
        """Map an absolute profit to the paper's capture metric."""
        original = self.blended_profit()
        maximum = self.max_profit()
        gap = maximum - original
        if abs(gap) <= _CAPTURE_EPS * max(1.0, abs(maximum)):
            return 1.0
        return (profit - original) / gap

    # ------------------------------------------------------------------
    # Counterfactuals
    # ------------------------------------------------------------------

    def bundling_inputs(self) -> BundlingInputs:
        """Snapshot consumed by bundling strategies.

        Memoized: the potential-profit vector is shared by every strategy
        and bundle count, and the snapshot's arrays are read-only.
        """
        if "bundling_inputs" not in self._memo:
            self._memo["bundling_inputs"] = BundlingInputs(
                model=self.demand_model,
                demands=self.flows.demands,
                valuations=self.valuations,
                costs=self.costs,
                potential_profits=self.demand_model.potential_profits(
                    self.valuations, self.costs
                ),
                class_codes=self.class_codes,
                class_table=self.class_table,
            )
        return self._memo["bundling_inputs"]

    def tiered_outcome(
        self, strategy: BundlingStrategy, n_bundles: int
    ) -> TieredOutcome:
        """Run one counterfactual: bundle, price, and score."""
        if n_bundles < 1:
            raise ModelParameterError(f"n_bundles must be >= 1, got {n_bundles}")
        bundles = strategy.bundle(self.bundling_inputs(), n_bundles)
        prices = self.demand_model.bundle_prices(self.valuations, self.costs, bundles)
        return self.score(bundles, prices, strategy.name, n_bundles)

    def score(
        self, bundles: list, prices: np.ndarray, strategy: str, n_bundles: int
    ) -> TieredOutcome:
        """Score a partition priced at ``prices``: profit, capture, surplus
        and price-sorted tier summaries.

        The one scorer behind :meth:`tiered_outcome` and every pricing
        mechanism's partition (:func:`repro.mechanisms.score_partition`);
        ``strategy`` names whatever produced the partition.
        """
        profit = self.profit_at(prices)
        surplus = self._scale * self.demand_model.consumer_surplus(
            self.valuations, prices
        )
        quantities = self.quantities(prices)
        tiers = sorted(
            (
                TierSummary(
                    price=float(prices[members[0]]),
                    n_flows=int(members.size),
                    demand_mbps=float(np.sum(quantities[members])),
                    mean_cost=float(np.mean(self.costs[members])),
                )
                for members in bundles
            ),
            key=lambda t: t.price,
        )
        return TieredOutcome(
            strategy=strategy,
            n_bundles=n_bundles,
            bundles=bundles,
            prices=prices,
            profit=profit,
            profit_capture=self.profit_capture(profit),
            consumer_surplus=surplus,
            tiers=tiers,
        )

    def capture_curve(
        self,
        strategy: BundlingStrategy,
        bundle_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    ) -> "list[TieredOutcome]":
        """Profit capture as the tier budget grows (one figure line)."""
        return [self.tiered_outcome(strategy, b) for b in bundle_counts]

    def describe(self) -> str:
        return (
            f"Market(n={self.n_flows}, {self.demand_model.describe()}, "
            f"{self.cost_model.describe()}, P0=${self.blended_rate}/Mbps, "
            f"gamma={self.gamma:.4g})"
        )

    def __repr__(self) -> str:
        return self.describe()


def capture_table(
    market: Market,
    strategies: Sequence[BundlingStrategy],
    bundle_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
) -> dict:
    """Capture curves for several strategies (one paper-figure panel).

    Returns a mapping ``strategy name -> list of profit captures`` aligned
    with ``bundle_counts``.
    """
    return {
        strategy.name: [
            outcome.profit_capture
            for outcome in market.capture_curve(strategy, bundle_counts)
        ]
        for strategy in strategies
    }
