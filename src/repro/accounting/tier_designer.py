"""From a bundling counterfactual to an operable tier configuration (§5).

:class:`TierDesign` is the bridge between the economics (a
:class:`~repro.core.market.Market` counterfactual) and the operations (BGP
tagging, accounting, billing): it freezes a tiered outcome into

* per-destination tier assignments,
* per-tier rates ($/Mbps/month),
* a tier-tagged :class:`~repro.accounting.bgp.RoutingTable`, and
* ready-to-use link- or flow-based accounting instances.

This is the "re-factor pricing without touching the network" workflow the
paper describes: recompute the bundling offline, re-tag the routes, keep
collecting the same NetFlow.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.accounting.bgp import (
    RoutingTable,
    make_route,
    tag_routes_with_tiers,
)
from repro.accounting.flow_based import FlowBasedAccounting
from repro.accounting.link_based import LinkBasedAccounting
from repro.core.flow import NO_LABEL, encode_labels
from repro.core.market import Market, TieredOutcome
from repro.errors import AccountingError


@dataclasses.dataclass(frozen=True)
class TierDesign:
    """An operable tiered-pricing configuration.

    Attributes:
        provider_asn: AS number used in the tier communities.
        rates: Tier index (1-based) -> price in $/Mbps/month.
        tier_of_destination: Destination address/prefix host -> tier.
    """

    provider_asn: int
    rates: dict
    tier_of_destination: dict

    @classmethod
    def from_outcome(
        cls,
        market: Market,
        outcome: TieredOutcome,
        provider_asn: int = 64500,
        destinations: Optional[list] = None,
    ) -> "TierDesign":
        """Freeze a counterfactual into a design.

        Args:
            market: The calibrated market the outcome came from.
            outcome: A :meth:`Market.tiered_outcome` result.
            provider_asn: ASN for the route communities.
            destinations: Per-flow destination addresses; defaults to the
                market flows' ``dsts`` column.

        Raises:
            AccountingError: When destinations are missing or collide
                across tiers (the same address cannot bill at two rates).
        """
        return cls.from_bundles(
            market,
            outcome.bundles,
            outcome.prices,
            provider_asn=provider_asn,
            destinations=destinations,
        )

    @classmethod
    def from_bundles(
        cls,
        market: Market,
        bundles: list,
        prices,
        provider_asn: int = 64500,
        destinations: Optional[list] = None,
    ) -> "TierDesign":
        """Freeze an explicit partition + price vector into a design.

        The generalized form of :meth:`from_outcome` used by the pricing
        mechanisms (:mod:`repro.mechanisms`), whose partitions — spot
        lots, peering splits, hybrid books — do not come from a
        :class:`~repro.core.bundling.BundlingStrategy`.  Bundle order
        defines the 1-based tier ids.
        """
        if destinations is None:
            codes = market.flows.dst_codes
            if codes is None:
                raise AccountingError(
                    "market flows carry no destination addresses; pass "
                    "destinations= explicitly"
                )
            table = market.flows.dst_table
        else:
            if len(destinations) != market.n_flows:
                raise AccountingError(
                    f"got {len(destinations)} destinations for "
                    f"{market.n_flows} flows"
                )
            codes, table = encode_labels(destinations, market.n_flows, "destinations")
            if codes is None:  # no flow has a destination
                codes = np.full(market.n_flows, NO_LABEL, dtype=np.int32)
        members = [np.asarray(m, dtype=np.intp).reshape(-1) for m in bundles]
        rates = {t: float(prices[m[0]]) for t, m in enumerate(members, start=1)}
        flows = np.concatenate(members) if members else np.empty(0, np.intp)
        tiers = np.repeat(np.arange(1, len(members) + 1), [m.size for m in members])
        # Flows in bundle order; a destination's first flow sets its tier.
        # NO_LABEL (-1) indexes the trailing slot.
        dsts = codes[flows]
        labels, first = np.unique(dsts, return_index=True)
        first_tier = np.zeros(len(table) + 1, dtype=np.int64)
        first_tier[labels] = tiers[first]
        bad = np.flatnonzero((dsts < 0) | (tiers != first_tier[dsts]))
        if bad.size:
            at = int(bad[0])
            if dsts[at] < 0:
                raise AccountingError(f"flow {int(flows[at])} has no destination")
            raise AccountingError(
                f"destination {table[dsts[at]]} appears in tiers "
                f"{int(first_tier[dsts[at]])} and {int(tiers[at])}; tiers "
                "must partition destinations"
            )
        first.sort()
        tier_of_destination = dict(
            zip([table[c] for c in dsts[first].tolist()], tiers[first].tolist())
        )
        return cls(
            provider_asn=provider_asn,
            rates=rates,
            tier_of_destination=tier_of_destination,
        )

    # ------------------------------------------------------------------

    @property
    def n_tiers(self) -> int:
        return len(self.rates)

    def tiers_of(self, labels: Sequence) -> np.ndarray:
        """One ``int64`` tier per label of a label table (0 where the
        design has no tier for it): the destination join, one lookup
        per distinct destination.  Gather it with a flow set's code
        column to get per-flow tiers."""
        tiers = map(self.tier_of_destination.get, labels, itertools.repeat(0))
        return np.fromiter(tiers, np.int64, len(labels))

    def tier_for(self, destination: str) -> int:
        try:
            return self.tier_of_destination[destination]
        except KeyError as exc:
            raise AccountingError(
                f"destination {destination!r} is not part of this design"
            ) from exc

    def rate_for(self, tier: int) -> float:
        try:
            return self.rates[tier]
        except KeyError as exc:
            raise AccountingError(f"no tier {tier} in this design") from exc

    # ------------------------------------------------------------------
    # Operational artifacts
    # ------------------------------------------------------------------

    def routing_table(
        self, prefix_length: int = 32, aggregate: bool = False
    ) -> RoutingTable:
        """A RIB announcing tagged routes for every destination (§5.1).

        Args:
            prefix_length: Host-route length when not aggregating.
            aggregate: Summarize same-tier destinations into covering
                prefixes (see
                :mod:`repro.accounting.prefix_aggregation`) — far fewer
                routes, same longest-prefix-match tier for every
                designed destination.
        """
        if aggregate:
            from repro.accounting.prefix_aggregation import (
                aggregate_tier_prefixes,
            )

            prefix_tiers = aggregate_tier_prefixes(self.tier_of_destination)
            routes = [
                make_route(str(network), next_hop="upstream")
                for network in sorted(
                    prefix_tiers, key=lambda n: (int(n.network_address), n.prefixlen)
                )
            ]
            tagged = tag_routes_with_tiers(
                routes,
                lambda route: prefix_tiers[route.prefix],
                self.provider_asn,
            )
            rib = RoutingTable()
            rib.insert_many(tagged)
            return rib
        if not 0 < prefix_length <= 32:
            raise AccountingError(f"bad prefix length {prefix_length}")
        routes = [
            make_route(f"{dst}/{prefix_length}", next_hop="upstream")
            for dst in sorted(self.tier_of_destination)
        ]
        tagged = tag_routes_with_tiers(
            routes,
            lambda route: self.tier_of_destination[
                str(route.prefix.network_address)
            ],
            self.provider_asn,
        )
        rib = RoutingTable()
        rib.insert_many(tagged)
        return rib

    def link_accounting(self) -> LinkBasedAccounting:
        """Per-tier links + SNMP accounting wired to this design (§5.2a)."""
        return LinkBasedAccounting(
            tiers=sorted(self.rates),
            rib=self.routing_table(),
            provider_asn=self.provider_asn,
        )

    def flow_accounting(self, window_seconds: float) -> FlowBasedAccounting:
        """NetFlow + RIB accounting wired to this design (§5.2b)."""
        return FlowBasedAccounting(
            rib=self.routing_table(),
            window_seconds=window_seconds,
            provider_asn=self.provider_asn,
        )

    def describe(self) -> str:
        lines = [
            f"TierDesign(asn={self.provider_asn}, tiers={self.n_tiers}, "
            f"destinations={len(self.tier_of_destination)})"
        ]
        counts: dict = {}
        for tier in self.tier_of_destination.values():
            counts[tier] = counts.get(tier, 0) + 1
        for tier in sorted(self.rates):
            lines.append(
                f"  tier {tier}: ${self.rates[tier]:.2f}/Mbps, "
                f"{counts.get(tier, 0)} destinations"
            )
        return "\n".join(lines)
