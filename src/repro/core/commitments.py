"""Commit-level (volume-discount) pricing — the paper's other tier axis.

§2 of the paper taxonomizes today's transit offers: besides
destination-based tiers (the paper's focus, :mod:`repro.core.bundling`),
"most transit ISPs offer volume discounts for higher commit levels".
This module models that axis as second-degree price discrimination:

* the ISP publishes a **menu** of :class:`CommitContract`s — pairs of a
  committed minimum (Mbps) and a unit price, with bigger commits cheaper
  per Mbps;
* heterogeneous customers (constant-elasticity demand with individual
  valuations) **self-select**: each picks the contract maximizing its own
  surplus, paying ``price * max(commit, usage)``, or stays out of the
  market;
* the ISP's profit sums payments minus delivery cost over the chosen
  usage.

Under CED utility ``U(q) = alpha/(alpha-1) * v * q^((alpha-1)/alpha)``:

* a customer whose unconstrained optimum ``(v/p)^alpha`` clears the
  commit simply buys that much, with surplus ``p q/(alpha-1)``;
* a smaller customer pays for the commit anyway, consumes exactly the
  commit (marginal utility is positive), and may earn negative surplus —
  which is why it self-selects a smaller contract.

:func:`optimize_menu_prices` tunes the menu's prices for a customer
population (commits fixed, e.g. at usage quantiles) with Nelder-Mead on
log-prices; the tests verify the optimized menu extracts at least as much
profit as the best single blended price.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.errors import ModelParameterError, OptimizationError


@dataclasses.dataclass(frozen=True)
class CommitContract:
    """One menu entry: commit ``C`` Mbps at ``p`` $/Mbps/month."""

    commit_mbps: float
    price_per_mbps: float

    def __post_init__(self) -> None:
        if self.commit_mbps < 0:
            raise ModelParameterError(
                f"commit must be >= 0, got {self.commit_mbps}"
            )
        if self.price_per_mbps <= 0:
            raise ModelParameterError(
                f"price must be positive, got {self.price_per_mbps}"
            )


@dataclasses.dataclass(frozen=True)
class ContractChoice:
    """One customer's self-selection outcome."""

    contract_index: Optional[int]
    usage_mbps: float
    payment: float
    surplus: float


class CommitMarket:
    """A transit market sold through commit contracts.

    Args:
        alpha: CED price sensitivity shared by all customers (> 1).
        unit_cost: The ISP's delivery cost per Mbps actually used.
    """

    def __init__(self, alpha: float, unit_cost: float) -> None:
        if not np.isfinite(alpha) or alpha <= 1.0:
            raise ModelParameterError(f"alpha must exceed 1, got {alpha}")
        if unit_cost <= 0:
            raise ModelParameterError(f"unit_cost must be positive, got {unit_cost}")
        self.alpha = float(alpha)
        self.unit_cost = float(unit_cost)

    # ------------------------------------------------------------------
    # Single customer vs single contract
    # ------------------------------------------------------------------

    def utility(self, valuation: float, usage: float) -> float:
        """Alpha-fair utility of consuming ``usage`` Mbps."""
        if usage < 0:
            raise ModelParameterError("usage must be >= 0")
        exponent = (self.alpha - 1.0) / self.alpha
        return self.alpha / (self.alpha - 1.0) * valuation * usage**exponent

    def evaluate(self, valuation: float, contract: CommitContract) -> ContractChoice:
        """Usage, payment, and surplus of one customer on one contract."""
        if valuation <= 0:
            raise ModelParameterError(f"valuation must be positive, got {valuation}")
        price = contract.price_per_mbps
        unconstrained = (valuation / price) ** self.alpha
        if unconstrained >= contract.commit_mbps:
            usage = unconstrained
            payment = price * usage
            surplus = payment / (self.alpha - 1.0)
        else:
            # Paying for the commit regardless: consume it (marginal
            # utility is positive), surplus may go negative.
            usage = contract.commit_mbps
            payment = price * contract.commit_mbps
            surplus = self.utility(valuation, usage) - payment
        return ContractChoice(
            contract_index=None, usage_mbps=usage, payment=payment, surplus=surplus
        )

    # ------------------------------------------------------------------
    # Self-selection over a menu
    # ------------------------------------------------------------------

    def choose(
        self, valuation: float, menu: Sequence[CommitContract]
    ) -> ContractChoice:
        """The customer's surplus-maximizing contract (or opting out)."""
        if not menu:
            raise ModelParameterError("menu must contain at least one contract")
        best = ContractChoice(
            contract_index=None, usage_mbps=0.0, payment=0.0, surplus=0.0
        )
        for index, contract in enumerate(menu):
            candidate = self.evaluate(valuation, contract)
            if candidate.surplus > best.surplus + 1e-12:
                best = dataclasses.replace(candidate, contract_index=index)
        return best

    def simulate(
        self, valuations: Sequence[float], menu: Sequence[CommitContract]
    ) -> "list[ContractChoice]":
        """Every customer's choice against the menu."""
        return [self.choose(v, menu) for v in valuations]

    def profit(
        self, valuations: Sequence[float], menu: Sequence[CommitContract]
    ) -> float:
        """ISP profit: payments minus delivery cost of served usage."""
        choices = self.simulate(valuations, menu)
        return float(
            sum(
                choice.payment - self.unit_cost * choice.usage_mbps
                for choice in choices
            )
        )

    def consumer_surplus(
        self, valuations: Sequence[float], menu: Sequence[CommitContract]
    ) -> float:
        return float(
            sum(choice.surplus for choice in self.simulate(valuations, menu))
        )

    # ------------------------------------------------------------------
    # Menu design
    # ------------------------------------------------------------------

    def best_single_price(self, valuations: Sequence[float]) -> CommitContract:
        """The profit-maximizing no-commit blended rate (the baseline).

        With zero commit every customer buys its unconstrained quantity,
        so the optimum is the Eq. 5 blended price with equal relative
        weights reduced to the Eq. 4 markup over cost.
        """
        del valuations  # the CED markup is valuation-free
        price = self.alpha * self.unit_cost / (self.alpha - 1.0)
        return CommitContract(commit_mbps=0.0, price_per_mbps=price)

    def optimize_menu_prices(
        self,
        valuations: Sequence[float],
        commits: Sequence[float],
        max_iter: int = 400,
    ) -> "list[CommitContract]":
        """Tune menu prices for fixed commit levels.

        Starts every level at the blended optimum and lets Nelder-Mead
        move log-prices to maximize profit under self-selection.  Returns
        the menu sorted by commit; prices are not forced monotone, but a
        profitable menu discounts volume (asserted in tests).
        """
        commits = sorted(float(c) for c in commits)
        if not commits:
            raise ModelParameterError("need at least one commit level")
        if any(c < 0 for c in commits):
            raise ModelParameterError("commits must be >= 0")
        valuations = np.asarray(list(valuations), dtype=float)
        if valuations.size == 0 or np.any(valuations <= 0):
            raise ModelParameterError("valuations must be positive and non-empty")
        base_price = self.best_single_price(valuations).price_per_mbps

        def menu_from(log_prices: np.ndarray) -> "list[CommitContract]":
            return [
                CommitContract(commit_mbps=commit, price_per_mbps=float(np.exp(lp)))
                for commit, lp in zip(commits, log_prices)
            ]

        def objective(log_prices: np.ndarray) -> float:
            return -self.profit(valuations, menu_from(log_prices))

        start = np.log(
            base_price * np.linspace(1.2, 0.9, len(commits))
        )
        from scipy import optimize

        result = optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"maxiter": max_iter, "xatol": 1e-6, "fatol": 1e-9},
        )
        if not np.all(np.isfinite(result.x)):
            raise OptimizationError("menu optimization diverged")
        menu = menu_from(result.x)
        # Never return a menu worse than the blended baseline.
        baseline = [self.best_single_price(valuations)]
        if self.profit(valuations, menu) < self.profit(valuations, baseline):
            return baseline
        return menu
