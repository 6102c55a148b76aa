"""Customer routing policy under tier-tagged routes (paper §5.1).

The paper's deployment story: the upstream ISP tags routes with their
pricing tier; a customer that runs its own backbone can then stop
hot-potato routing ("offload to the transit network as early as
possible") for destinations whose routes are tagged expensive, and
instead carry the traffic across its own backbone to a hand-off point
where the destination falls in a cheaper tier.

:class:`ExitSelector` models that decision per flow:

* **hot-potato** — hand off at the customer PoP closest to the traffic
  source (classic behaviour, ignores price tags);
* **tier-aware** — hand off at the PoP minimizing
  ``backbone_cost_per_mile * own_carriage + tier_price * volume``, i.e.
  trade backbone miles against the provider's tier price at each exit.

The provider's tier for a (exit PoP, destination) pair comes from a
caller-supplied pricing function — in the simplest case the provider's
regional cost model evaluated at the exit-to-destination distance.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from repro.errors import TopologyError
from repro.topology.network import Topology

#: Signature: (exit PoP code, destination key) -> $/Mbps/month tier price.
TierPriceFn = Callable[[str, str], float]
#: Signature: (exit PoP code, destination key) -> miles (provider side).
ProviderDistanceFn = Callable[[str, str], float]


@dataclasses.dataclass(frozen=True)
class ExitDecision:
    """The chosen hand-off for one flow."""

    source_pop: str
    exit_pop: str
    destination: str
    demand_mbps: float
    backbone_miles: float
    tier_price: float


@dataclasses.dataclass(frozen=True)
class PolicyOutcome:
    """Aggregate result of routing a traffic matrix under one policy."""

    policy: str
    decisions: tuple
    backbone_mile_mbps: float
    transit_bill: float

    def total_cost(self, backbone_cost_per_mile_mbps: float) -> float:
        return (
            self.backbone_mile_mbps * backbone_cost_per_mile_mbps
            + self.transit_bill
        )


@dataclasses.dataclass(frozen=True)
class FlowSpec:
    """One customer flow: where it enters the backbone and where it goes."""

    source_pop: str
    destination: str
    demand_mbps: float

    def __post_init__(self) -> None:
        if self.demand_mbps <= 0:
            raise TopologyError("flow demand must be positive")


class ExitSelector:
    """Chooses hand-off PoPs for a customer with its own backbone.

    Args:
        backbone: The customer's own topology (hand-off PoPs are its
            nodes; carriage distances are its routed path lengths).
        handoff_pops: PoP codes where the customer can reach the
            provider (must exist in ``backbone``).
        tier_price: Provider's tier price for (exit, destination).
        backbone_cost_per_mile_mbps: The customer's amortized cost of
            carrying 1 Mbps for 1 mile on its own backbone, $/month.
    """

    def __init__(
        self,
        backbone: Topology,
        handoff_pops: Sequence[str],
        tier_price: TierPriceFn,
        backbone_cost_per_mile_mbps: float,
    ) -> None:
        if not handoff_pops:
            raise TopologyError("need at least one hand-off PoP")
        for code in handoff_pops:
            backbone.pop(code)  # raises for unknown codes
        if backbone_cost_per_mile_mbps < 0:
            raise TopologyError("backbone cost must be >= 0")
        self.backbone = backbone
        self.handoff_pops = list(dict.fromkeys(handoff_pops))
        self.tier_price = tier_price
        self.backbone_cost_per_mile_mbps = float(backbone_cost_per_mile_mbps)

    # ------------------------------------------------------------------

    def hot_potato_exit(self, flow: FlowSpec) -> str:
        """The nearest hand-off to the source (price-blind)."""
        return min(
            self.handoff_pops,
            key=lambda code: (
                self.backbone.routed_distance(flow.source_pop, code),
                code,
            ),
        )

    def tier_aware_exit(self, flow: FlowSpec) -> str:
        """The hand-off minimizing backbone carriage + tier price."""

        def monthly_cost(code: str) -> float:
            miles = self.backbone.routed_distance(flow.source_pop, code)
            return flow.demand_mbps * (
                miles * self.backbone_cost_per_mile_mbps
                + self.tier_price(code, flow.destination)
            )

        return min(self.handoff_pops, key=lambda code: (monthly_cost(code), code))

    # ------------------------------------------------------------------

    def route_all(
        self, flows: Sequence[FlowSpec], policy: str = "tier-aware"
    ) -> PolicyOutcome:
        """Route a traffic matrix under one policy and aggregate costs."""
        if policy == "hot-potato":
            choose = self.hot_potato_exit
        elif policy == "tier-aware":
            choose = self.tier_aware_exit
        else:
            raise TopologyError(
                f"unknown policy {policy!r}; use 'hot-potato' or 'tier-aware'"
            )
        decisions = []
        backbone_mile_mbps = 0.0
        transit_bill = 0.0
        for flow in flows:
            exit_pop = choose(flow)
            miles = self.backbone.routed_distance(flow.source_pop, exit_pop)
            price = self.tier_price(exit_pop, flow.destination)
            decisions.append(
                ExitDecision(
                    source_pop=flow.source_pop,
                    exit_pop=exit_pop,
                    destination=flow.destination,
                    demand_mbps=flow.demand_mbps,
                    backbone_miles=miles,
                    tier_price=price,
                )
            )
            backbone_mile_mbps += miles * flow.demand_mbps
            transit_bill += price * flow.demand_mbps
        return PolicyOutcome(
            policy=policy,
            decisions=tuple(decisions),
            backbone_mile_mbps=backbone_mile_mbps,
            transit_bill=transit_bill,
        )

    def savings(self, flows: Sequence[FlowSpec]) -> dict:
        """Monthly cost of both policies and the tag-awareness savings."""
        hot = self.route_all(flows, "hot-potato")
        aware = self.route_all(flows, "tier-aware")
        rate = self.backbone_cost_per_mile_mbps
        hot_cost = hot.total_cost(rate)
        aware_cost = aware.total_cost(rate)
        return {
            "hot_potato": hot,
            "tier_aware": aware,
            "hot_potato_cost": hot_cost,
            "tier_aware_cost": aware_cost,
            "savings": hot_cost - aware_cost,
            "savings_fraction": (
                (hot_cost - aware_cost) / hot_cost if hot_cost > 0 else 0.0
            ),
        }
