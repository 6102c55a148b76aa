"""Hybrid mechanism: a posted tier book with spot overflow.

Real transit markets are not all-posted or all-auction: contracted
customers buy committed tiers while price-sensitive, substitutable
traffic chases the spot rate.  :class:`Hybrid` models that split
per flow, by an elasticity proxy:

* **Assignment** — rank flows by cost-to-valuation ratio ``c_i / v_i``.
  A flow with a thin margin between what the route costs and what the
  customer values it at responds sharply to price — the elastic tail.
  The top ``elasticity_split`` fraction trades on spot; the rest buy
  posted tiers.
* **Posted side** — the configured bundling strategy runs on the posted
  subset (via :meth:`BundlingInputs.subset`), priced at uniform optima:
  tiers ``1..B``.
* **Spot side** — cost-ordered contiguous lots, one per auction window,
  each at its clearing price (see :mod:`repro.mechanisms.spot`): tiers
  ``B+1..B+W``.

In the streaming repricer the two halves age differently: the drift
gate governs only the posted book (:meth:`reclear_on` pins held posted
rates), while spot lots — and any *overflow*, destinations that appear
in a window but are not in the held posted book — re-clear every
window.
"""

from __future__ import annotations

import numpy as np

from repro.accounting.tier_designer import TierDesign
from repro.core.bundling import BundlingStrategy, ProfitWeightedBundling
from repro.core.market import Market
from repro.errors import MechanismError
from repro.mechanisms.base import (
    ASSIGN_POSTED,
    ASSIGN_SPOT,
    Mechanism,
    MechanismDesign,
    score_partition,
)


class Hybrid(Mechanism):
    """Posted tiers for committed flows, spot lots for the elastic tail.

    Args:
        strategy: Bundling strategy for the posted book.
        n_tiers: Posted tier budget.
        spot_windows: Auction windows for the spot side.
        elasticity_split: Fraction of flows (most elastic first) sent to
            spot; 0 is pure posted, 1 pure spot.
    """

    name = "hybrid"
    reclears = True

    def __init__(
        self,
        strategy: "BundlingStrategy | None" = None,
        n_tiers: int = 3,
        spot_windows: int = 24,
        elasticity_split: float = 0.5,
    ) -> None:
        if n_tiers < 1:
            raise MechanismError(f"n_tiers must be >= 1, got {n_tiers}")
        if int(spot_windows) < 1:
            raise MechanismError(f"spot_windows must be >= 1, got {spot_windows}")
        if not 0.0 <= elasticity_split <= 1.0:
            raise MechanismError(
                f"elasticity_split must be in [0, 1], got {elasticity_split}"
            )
        self.strategy = strategy or ProfitWeightedBundling()
        self.n_tiers = int(n_tiers)
        self.spot_windows = int(spot_windows)
        self.elasticity_split = float(elasticity_split)

    # ------------------------------------------------------------------

    def spot_flows(self, market: Market) -> np.ndarray:
        """Indices of the flows assigned to spot (sorted ascending).

        Deterministic: a stable argsort of ``c/v`` decides, so equal
        ratios break by flow index.
        """
        n = market.n_flows
        if self.elasticity_split <= 0.0:
            return np.empty(0, dtype=np.intp)
        if self.elasticity_split >= 1.0:
            return np.arange(n)
        n_spot = int(round(self.elasticity_split * n))
        n_spot = min(max(n_spot, 1), n - 1)
        ratio = market.costs / market.valuations
        order = np.argsort(ratio, kind="stable")
        return np.sort(order[n - n_spot:])

    def _spot_lots(self, market: Market, spot_idx: np.ndarray) -> "list[np.ndarray]":
        by_cost = spot_idx[np.argsort(market.costs[spot_idx], kind="stable")]
        k = min(self.spot_windows, by_cost.size)
        return list(np.array_split(by_cost, k))

    def design_on(self, market: Market, provider_asn: int = 64500) -> MechanismDesign:
        spot_idx = self.spot_flows(market)
        mask = np.zeros(market.n_flows, dtype=bool)
        mask[spot_idx] = True
        posted_idx = np.flatnonzero(~mask)

        posted_bundles: "list[np.ndarray]" = []
        if posted_idx.size:
            budget = min(self.n_tiers, int(posted_idx.size))
            sub = self.strategy.bundle(
                market.bundling_inputs().subset(posted_idx), budget
            )
            posted_bundles = [posted_idx[members] for members in sub]
        spot_bundles = self._spot_lots(market, spot_idx) if spot_idx.size else []

        bundles = posted_bundles + spot_bundles
        prices = market.demand_model.bundle_prices(
            market.valuations, market.costs, bundles
        )
        assignment = np.where(mask, ASSIGN_SPOT, ASSIGN_POSTED).astype(np.int8)
        return score_partition(
            market,
            bundles,
            prices,
            mechanism=self.name,
            posted_tiers=len(posted_bundles),
            provider_asn=provider_asn,
            assignment=assignment,
        )

    def reclear_on(
        self,
        market: Market,
        prior_design: TierDesign,
        posted_tiers: int,
        provider_asn: int = 64500,
    ) -> MechanismDesign:
        """Re-clear spot against this window, pinning the held posted book.

        Flows toward destinations in the held posted tiers keep their
        posted rates; everything else — the spot-assigned tail *and*
        overflow destinations the posted book has never seen — clears
        on fresh cost-ordered lots at this window's prices.
        """
        codes = market.flows.dst_codes
        if codes is None or posted_tiers <= 0:
            return self.design_on(market, provider_asn=provider_asn)
        # NO_LABEL (-1) indexes the trailing untiered slot.
        held = np.append(prior_design.tiers_of(market.flows.dst_table), 0)[codes]
        held[held > posted_tiers] = 0  # prior spot lots do not pin prices

        posted_bundles = []
        posted_rates = []
        for tier in sorted(set(held[held > 0].tolist())):
            posted_bundles.append(np.flatnonzero(held == tier))
            posted_rates.append(prior_design.rates[int(tier)])
        spot_idx = np.flatnonzero(held == 0)
        spot_bundles = self._spot_lots(market, spot_idx) if spot_idx.size else []
        bundles = posted_bundles + spot_bundles
        if not bundles:
            raise MechanismError("hybrid reclear: window has no flows")

        prices = np.empty(market.n_flows, dtype=float)
        for members, rate in zip(posted_bundles, posted_rates):
            prices[members] = rate
        for members in spot_bundles:
            prices[members] = market.demand_model.uniform_price(
                market.valuations[members], market.costs[members]
            )
        assignment = np.where(held > 0, ASSIGN_POSTED, ASSIGN_SPOT).astype(np.int8)
        return score_partition(
            market,
            bundles,
            prices,
            mechanism=self.name,
            posted_tiers=len(posted_bundles),
            provider_asn=provider_asn,
            assignment=assignment,
        )

    def describe(self) -> str:
        return (
            f"{self.name}({self.strategy.name}, B={self.n_tiers}, "
            f"W={self.spot_windows}, split={self.elasticity_split:g})"
        )
