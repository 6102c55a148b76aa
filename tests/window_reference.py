"""Per-destination references for the columnar window → snapshot chain.

These are the object implementations the columnar code replaced: the
snapshot digest payload with every ``[dst, tier]`` pair walked by the
canonical hash, the drift replay's per-code loop, hybrid's per-flow
held-tier join, and the per-member loop that froze a partition into a
tier design.  The tests hold the columnar code to them, byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AccountingError


def snapshot_payload(
    design,
    *,
    config_digest,
    blended_rate,
    gamma,
    reference_distance_miles=None,
) -> dict:
    """The payload a snapshot digest hashes, built pair by pair."""
    blended_rate = float(blended_rate)
    tier_ids = sorted(design.rates)
    items = sorted(design.tier_of_destination.items())
    reference = (
        None if reference_distance_miles is None else float(reference_distance_miles)
    )
    return {
        "config_digest": config_digest,
        "blended_rate": blended_rate,
        "gamma": float(gamma),
        "reference_distance_miles": reference,
        "provider_asn": int(design.provider_asn),
        "rates": {str(t): float(design.rates[t]) for t in tier_ids},
        "destinations": [[dst, int(tier)] for dst, tier in items],
    }


def replay_design_prices(design, market) -> "tuple[np.ndarray, int, int]":
    """The per-code replay loop: one dict lookup per present code; the
    unknown count is of distinct labelled destinations."""
    codes = market.flows.dst_codes
    table = market.flows.dst_table
    rate_by_code = np.full(len(table) + 1, float(market.blended_rate))
    seen = set()
    unseen = set()
    for code in (int(c) for c in np.unique(codes) if c >= 0):
        dst = table[code]
        tier = design.tier_of_destination.get(dst)
        if tier is None:
            unseen.add(dst)
        else:
            rate_by_code[code] = design.rates[tier]
            seen.add(dst)
    prices = rate_by_code[codes]
    missing = len(set(design.tier_of_destination) - seen)
    return prices, len(unseen), missing


def held_tiers(design, dsts) -> np.ndarray:
    """Hybrid's per-flow join: each flow's tier, 0 for no tier."""
    tier_of = design.tier_of_destination
    return np.asarray([tier_of.get(dst, 0) for dst in dsts], dtype=np.int64)


def design_map(bundles, prices, destinations) -> "tuple[dict, dict]":
    """The per-member loop freezing a partition into ``(rates,
    tier_of_destination)``, the map in first-seen order."""
    rates = {}
    tier_of_destination: dict = {}
    for tier_index, members in enumerate(bundles, start=1):
        rates[tier_index] = float(prices[members[0]])
        for i in members:
            dst = destinations[int(i)]
            if dst is None:
                raise AccountingError(f"flow {int(i)} has no destination")
            existing = tier_of_destination.get(dst)
            if existing is not None and existing != tier_index:
                raise AccountingError(
                    f"destination {dst} appears in tiers {existing} "
                    f"and {tier_index}; tiers must partition destinations"
                )
            tier_of_destination[dst] = tier_index
    return rates, tier_of_destination
