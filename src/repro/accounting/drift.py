"""Tier-design drift: when should an ISP re-derive its tiers?

A tier design is computed from one traffic snapshot, but traffic drifts —
destinations grow, shrink, appear.  This module quantifies how much
profit a *stale* design leaves on the table against fresh measurements
and recommends re-tiering when the gap crosses a threshold.

The comparison holds the market model fixed (same demand family, cost
model, blended reference) and re-calibrates it on the **new** flows; the
stale design is then replayed as a price vector on the new market:

* destinations still in the design keep their tier's price;
* new destinations — which the stale design has no tier for — are
  assumed to be quoted the blended rate (the operator's safe default).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.accounting.tier_designer import TierDesign
from repro.core.bundling import BundlingStrategy, ProfitWeightedBundling
from repro.core.cost import CostModel
from repro.core.demand import DemandModel
from repro.core.flow import FlowSet
from repro.core.market import Market
from repro.errors import AccountingError


@dataclasses.dataclass(frozen=True)
class DriftReport:
    """How a stale design performs on fresh traffic.

    Attributes:
        stale_profit: Profit of replaying the old prices on new traffic.
        refreshed_profit: Profit of re-deriving the tiers on new traffic.
        blended_profit: The blended-rate floor on the new market.
        max_profit: The per-flow ceiling on the new market.
        stale_capture / refreshed_capture: The two designs' capture of
            the new market's blended-to-max gap.
        unknown_destinations: New destinations absent from the design.
        missing_destinations: Designed destinations absent from the new
            traffic (churned away).
    """

    stale_profit: float
    refreshed_profit: float
    blended_profit: float
    max_profit: float
    stale_capture: float
    refreshed_capture: float
    unknown_destinations: int
    missing_destinations: int

    @property
    def regret(self) -> float:
        """Profit given up by keeping the stale design, $/month."""
        return self.refreshed_profit - self.stale_profit

    @property
    def capture_drop(self) -> float:
        return self.refreshed_capture - self.stale_capture

    def should_retier(self, capture_drop_threshold: float = 0.1) -> bool:
        """Recommend re-tiering when the capture gap crosses a threshold."""
        return self.capture_drop > capture_drop_threshold

    def render(self, design: TierDesign, new_flows: FlowSet) -> str:
        """The report of scoring ``design`` against ``new_flows``, ending
        in a keep-or-re-tier recommendation."""
        verdict = "RE-TIER" if self.should_retier() else "keep current tiers"
        return "\n".join(
            [
                f"design: {design.n_tiers} tiers over "
                f"{len(design.tier_of_destination)} destinations",
                f"new matrix: {len(new_flows)} flows, "
                f"{self.unknown_destinations} unknown / "
                f"{self.missing_destinations} churned destinations",
                f"stale design:     profit ${self.stale_profit:,.0f} "
                f"(capture {self.stale_capture:.3f})",
                f"refreshed design: profit ${self.refreshed_profit:,.0f} "
                f"(capture {self.refreshed_capture:.3f})",
                f"monthly regret:   ${self.regret:,.0f}",
                f"recommendation:   {verdict}",
            ]
        )


def replay_design_prices(
    design: TierDesign, market: Market
) -> "tuple[np.ndarray, int, int]":
    """Replay a design as a price vector on a (re)calibrated market.

    Returns ``(prices, unknown, missing)``: per-flow prices where designed
    destinations keep their tier's rate and unknown destinations fall back
    to the market's blended rate; the count of distinct labelled
    destinations in the market's traffic the design has no tier for; and
    the count of designed destinations absent from the market's traffic.

    Raises:
        AccountingError: If the market's flows carry no destination
            addresses to join against the design.
    """
    codes = market.flows.dst_codes
    if codes is None:
        raise AccountingError(
            "market flows carry no destination addresses; cannot replay "
            "a tier design against them"
        )
    # Join by destination *label table*, not per flow: the design lookup
    # runs once per distinct destination, then tiers and rates fan out to
    # the flows with code-array gathers.  NO_LABEL (-1) indexes the
    # trailing unknown slot.
    tier_by_code = np.append(design.tiers_of(market.flows.dst_table), 0)
    tiers = tier_by_code[codes]
    levels, level_of_flow = np.unique(tiers, return_inverse=True)
    blended = float(market.blended_rate)
    level_rates = np.array(
        [design.rates[t] if t else blended for t in levels.tolist()], dtype=float
    )
    prices = level_rates[level_of_flow]
    present = np.zeros(tier_by_code.size, dtype=bool)
    present[codes] = True
    tiered = tier_by_code[:-1] != 0
    unknown = int(np.count_nonzero(present[:-1] & ~tiered))
    missing = len(design.tier_of_destination) - int(
        np.count_nonzero(present[:-1] & tiered)
    )
    return prices, unknown, missing


def evaluate_drift(
    design: TierDesign,
    new_flows: FlowSet,
    demand_model: DemandModel,
    cost_model: CostModel,
    blended_rate: float,
    strategy: "BundlingStrategy | None" = None,
) -> DriftReport:
    """Score a stale design against fresh traffic.

    Args:
        design: The design in production (rates + destination tiers).
        new_flows: The fresh traffic matrix; must carry destination
            addresses (``dsts``) to join against the design.
        demand_model / cost_model / blended_rate: The market model to
            recalibrate on the new flows (use the same settings the
            design was derived with).
        strategy: Bundling used for the refreshed design (defaults to
            profit-weighted at the stale design's tier count).
    """
    if new_flows.dst_codes is None:
        raise AccountingError(
            "new flows carry no destination addresses; cannot join them "
            "against the design"
        )
    market = Market(new_flows, demand_model, cost_model, blended_rate)
    if market.flows.dst_codes is None:
        raise AccountingError(
            "the cost model dropped destination addresses; drift evaluation "
            "needs a non-splitting cost model"
        )

    stale_prices, unknown, missing = replay_design_prices(design, market)
    stale_profit = market.profit_at(stale_prices)
    strategy = strategy or ProfitWeightedBundling()
    refreshed = market.tiered_outcome(strategy, max(1, design.n_tiers))
    return DriftReport(
        stale_profit=stale_profit,
        refreshed_profit=refreshed.profit,
        blended_profit=market.blended_profit(),
        max_profit=market.max_profit(),
        stale_capture=market.profit_capture(stale_profit),
        refreshed_capture=refreshed.profit_capture,
        unknown_destinations=unknown,
        missing_destinations=missing,
    )
