"""Posted tiered prices — the paper's mechanism, behind the seam.

:class:`PostedTiers` prices through :meth:`Market.tiered_outcome`: the
partition comes from one of the six bundling strategies and each tier
is priced at its profit-maximizing uniform price.  The design wraps the
outcome's own scores, so its profit, capture, surplus and tiers are the
outcome's values, and its frozen tier design is the one
:meth:`~repro.accounting.tier_designer.TierDesign.from_outcome` would
build.  It is the default mechanism everywhere one is taken: the
streaming repricer, ``design_for_as`` and the CLI.
"""

from __future__ import annotations

from repro.core.bundling import BundlingStrategy, ProfitWeightedBundling
from repro.core.market import Market
from repro.errors import MechanismError
from repro.mechanisms.base import Mechanism, MechanismDesign


class PostedTiers(Mechanism):
    """The default mechanism: posted tiers from a bundling strategy.

    Args:
        strategy: Bundling strategy (default: profit-weighted, the
            paper's recommendation).
        n_tiers: Tier budget.
    """

    name = "posted-tiers"
    reclears = False

    def __init__(
        self, strategy: "BundlingStrategy | None" = None, n_tiers: int = 3
    ) -> None:
        if n_tiers < 1:
            raise MechanismError(f"n_tiers must be >= 1, got {n_tiers}")
        self.strategy = strategy or ProfitWeightedBundling()
        self.n_tiers = int(n_tiers)

    def design_on(self, market: Market, provider_asn: int = 64500) -> MechanismDesign:
        outcome = market.tiered_outcome(self.strategy, self.n_tiers)
        return MechanismDesign.from_outcome(
            market,
            outcome,
            mechanism=self.name,
            posted_tiers=len(outcome.bundles),
            provider_asn=provider_asn,
        )

    def describe(self) -> str:
        return f"{self.name}({self.strategy.name}, B={self.n_tiers})"
