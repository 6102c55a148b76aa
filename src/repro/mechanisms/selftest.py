"""``python -m repro mechanisms``: the capture table and its self-test.

Only the command imports this module; the package does not.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import MECHANISMS, MechanismConfig
from repro.core.bundling import paper_strategies
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.core.flow import FlowSet
from repro.core.market import Market
from repro.errors import MechanismError
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.runner import demand_model
from repro.mechanisms import (
    MECHANISM_NAMES,
    PostedTiers,
    cleared_supply,
    clearing_price,
)
from repro.synth.datasets import load_dataset


def capture_table(
    dataset: str,
    *,
    n_flows: int,
    seed: int,
    n_tiers: int,
    config: MechanismConfig,
) -> "tuple[list[str], FlowSet, dict, dict]":
    """Price ``dataset`` under every registered mechanism (``config``'s
    spot windows, ``n_tiers`` tiers) across three demand families: the
    table's lines, the flows, the market of each family, and the profit
    capture of each (family, mechanism) design that was made."""
    flows = load_dataset(dataset, n_flows=n_flows, seed=seed)
    cost_model = LinearDistanceCost(theta=DEFAULT_CONFIG.theta)
    families = [
        ("ced a=1.1", CEDDemand(alpha=1.1)),
        ("ced a=3.0", CEDDemand(alpha=3.0)),
        ("logit", demand_model("logit")),
    ]
    lines = [
        f"dataset {dataset}: {len(flows)} flows, "
        f"{flows.aggregate_gbps():.1f} Gbps (seed {seed}, "
        f"blended ${DEFAULT_CONFIG.blended_rate:.0f}/Mbps, "
        f"tier budget {n_tiers}, "
        f"spot windows {config.spot_windows})",
        "",
        f"{'demand family':<13} {'mechanism':<13} {'capture':>9} "
        f"{'profit $/mo':>13} {'tiers':>6} {'posted':>7}",
    ]
    captures: dict = {}
    markets: dict = {}
    for label, demand in families:
        market = Market(
            flows, demand, cost_model, DEFAULT_CONFIG.blended_rate
        )
        markets[label] = market
        for name in MECHANISM_NAMES:
            mechanism = dataclasses.replace(config, mechanism=name).build(
                n_tiers=n_tiers
            )
            try:
                design = mechanism.design_on(market)
            except MechanismError as exc:
                lines.append(
                    f"{label:<13} {name:<13} {'n/a':>9} "
                    f"{'—':>13} {'—':>6} {'—':>7}  ({exc})"
                )
                continue
            captures[(label, name)] = design.profit_capture
            lines.append(
                f"{label:<13} {name:<13} {design.profit_capture:>9.4f} "
                f"{design.profit:>13,.0f} {design.n_tiers:>6} "
                f"{design.posted_tiers:>7}"
            )
    lines.append("")
    lines.append(
        "capture = (pi_mechanism - pi_blended) / (pi_max - pi_blended); "
        "negative means the mechanism earns less than blended-rate "
        "pricing (the paid-peering bypass threat can force near-cost "
        "peering rates)."
    )
    return lines, flows, markets, captures


def selftest(
    flows: FlowSet, markets: dict, captures: dict, n_tiers: int
) -> "list[str]":
    """Check what the capture table rests on: the registries agree,
    posted tiers match the legacy bundling path bit for bit, spot
    clearing is monotone and invertible, and spot beats posted tiers on
    elastic demand (*Spot Transit*, PAPERS.md).  One line per check, or
    a MechanismError."""
    if tuple(MECHANISMS) != tuple(MECHANISM_NAMES):
        raise MechanismError(
            "config MECHANISMS and mechanisms MECHANISM_NAMES diverged"
        )
    lines = [f"selftest: registry in sync ({len(MECHANISMS)} mechanisms)"]

    # Posted-tiers byte-identity: the mechanism's design must carry
    # exactly what the bundling path scores, strategy by strategy —
    # same prices, same profit, same capture, bit for bit.
    market = markets["ced a=1.1"]
    for strategy in paper_strategies():
        outcome = market.tiered_outcome(strategy, n_tiers)
        design = PostedTiers(
            strategy=strategy, n_tiers=n_tiers
        ).design_on(market)
        identical = (
            design.profit == outcome.profit
            and design.profit_capture == outcome.profit_capture
            and design.consumer_surplus == outcome.consumer_surplus
            and [t.price for t in design.tiers]
            == [t.price for t in outcome.tiers]
            and [t.n_flows for t in design.tiers]
            == [t.n_flows for t in outcome.tiers]
        )
        if not identical:
            raise MechanismError(
                f"posted-tiers diverged from the legacy path for "
                f"strategy {strategy.name!r}"
            )
    lines.append(
        f"selftest: posted-tiers byte-identical to the legacy "
        f"bundling path ({len(paper_strategies())} strategies)"
    )

    # Spot clearing invariants: the clearing price is strictly
    # decreasing in supply, and clearing/cleared_supply are inverses.
    valuations = markets["ced a=3.0"].valuations
    supply = float(np.sum(flows.demands))
    prices = [
        clearing_price(valuations, s, 3.0)
        for s in (0.5 * supply, supply, 2.0 * supply)
    ]
    if not (prices[0] > prices[1] > prices[2]):
        raise MechanismError(
            "clearing price is not strictly decreasing in supply"
        )
    round_trip = cleared_supply(valuations, prices[1], 3.0)
    if abs(round_trip - supply) > 1e-6 * supply:
        raise MechanismError(
            f"clearing price round-trip drifted: cleared "
            f"{round_trip:.6f} vs supply {supply:.6f}"
        )
    lines.append(
        "selftest: clearing price monotone in supply, round-trip exact"
    )

    # On the elastic family, per-window uniform-price clearing must
    # beat one posted book (the paper's spot-vs-tiers comparison).
    spot = captures.get(("ced a=3.0", "spot-auction"))
    posted = captures.get(("ced a=3.0", "posted-tiers"))
    if spot is None or posted is None or spot < posted:
        raise MechanismError(
            f"spot capture {spot} did not reach posted capture "
            f"{posted} on the elastic family"
        )
    lines.append(
        f"selftest: spot capture {spot:.4f} >= posted {posted:.4f} "
        f"on ced a=3.0"
    )
    return lines
