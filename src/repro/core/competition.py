"""Multi-ISP price competition over logit demand (extension).

The paper's demand model is a monopoly view: competitors only appear
implicitly, through the residual-demand elasticity (§3.2).  It explicitly
notes that "our model does not capture full dynamic interaction between
competing ISPs (e.g., price wars)".  This module adds that interaction
for the logit family, where it has a clean game-theoretic form:

* Each :class:`Firm` sells connectivity to (a subset of) the same
  destinations; consumer ``j`` choosing firm ``F``'s flow ``i`` gets
  utility ``alpha (v_i + quality_F - p_{F,i}) + eps``.  All firms' offers
  plus the outside option form one logit choice set.
* A multiproduct logit firm's best response carries a **single markup**
  over its own costs: ``m_F = 1 / (alpha (1 - S_F))`` with ``S_F`` the
  firm's total share.  (Same derivation as the paper's Eq. 9; a monopoly
  is the one-firm special case with ``1 - S_F = s_0``.)  Given rival
  prices, the markup has the closed form
  ``alpha m_F = 1 + omega(ln(A_F / D_F) - 1)`` where ``A_F`` is the
  firm's aggregate attractiveness at cost pricing and ``D_F`` the rest of
  the choice set's weight.
* :meth:`LogitCompetition.equilibrium` iterates best responses to the
  Bertrand-Nash equilibrium (a contraction here; convergence is checked).

Firms may be constrained to **tiered** pricing: a firm with bundles prices
each bundle uniformly (composition is exact, as in the monopoly model),
so one can ask how tiering interacts with competition — e.g. whether a
blended-rate incumbent loses profit to a tiered entrant.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core import logit
from repro.core.demand import validate_arrays
from repro.errors import ModelParameterError, OptimizationError


@dataclasses.dataclass
class Firm:
    """One competing ISP.

    Attributes:
        name: Display name.
        costs: Per-flow unit delivery costs on this firm's network.
        quality: Additive utility offset (brand/performance advantage).
        bundles: Optional pricing-tier partition (index arrays over the
            flow set).  ``None`` means unconstrained per-flow pricing;
            a single all-flows bundle models a blended rate.
    """

    name: str
    costs: np.ndarray
    quality: float = 0.0
    bundles: Optional[list] = None

    def __post_init__(self) -> None:
        self.costs = np.asarray(self.costs, dtype=float)
        if self.costs.ndim != 1 or np.any(self.costs <= 0):
            raise ModelParameterError(
                f"firm {self.name!r}: costs must be a positive 1-D array"
            )
        if self.bundles is not None:
            seen: set = set()
            for members in self.bundles:
                for i in np.asarray(members).ravel():
                    if int(i) in seen:
                        raise ModelParameterError(
                            f"firm {self.name!r}: bundles overlap at flow {int(i)}"
                        )
                    seen.add(int(i))
            if seen != set(range(self.costs.size)):
                raise ModelParameterError(
                    f"firm {self.name!r}: bundles must partition all flows"
                )


class LogitCompetition:
    """A logit market shared by several competing ISPs.

    Args:
        valuations: Per-destination valuations ``v_i`` (common across
            firms; quality offsets differentiate the firms).
        firms: The competitors.  Every firm must cover all flows.
        alpha: Logit price sensitivity.
    """

    def __init__(
        self,
        valuations: np.ndarray,
        firms: "list[Firm]",
        alpha: float,
    ) -> None:
        validate_arrays(valuations)
        if alpha <= 0 or not np.isfinite(alpha):
            raise ModelParameterError(f"alpha must be positive, got {alpha}")
        if not firms:
            raise ModelParameterError("need at least one firm")
        self.valuations = np.asarray(valuations, dtype=float)
        for firm in firms:
            if firm.costs.shape != self.valuations.shape:
                raise ModelParameterError(
                    f"firm {firm.name!r} covers {firm.costs.size} flows, "
                    f"market has {self.valuations.size}"
                )
        names = [firm.name for firm in firms]
        if len(names) != len(set(names)):
            raise ModelParameterError("firm names must be unique")
        self.firms = list(firms)
        self.alpha = float(alpha)

    # ------------------------------------------------------------------
    # Demand
    # ------------------------------------------------------------------

    def _utilities(self, prices: "dict[str, np.ndarray]") -> np.ndarray:
        """Stacked alpha*(v + quality - p), one row per firm."""
        rows = []
        for firm in self.firms:
            p = np.asarray(prices[firm.name], dtype=float)
            rows.append(self.alpha * (self.valuations + firm.quality - p))
        return np.vstack(rows)

    def shares(self, prices: "dict[str, np.ndarray]") -> "dict[str, np.ndarray]":
        """Per-firm per-flow market shares at the given prices."""
        x = self._utilities(prices)
        log_z = logit.logsumexp(np.concatenate((x.ravel(), [0.0])))
        shares = np.exp(x - log_z)
        return {
            firm.name: shares[row] for row, firm in enumerate(self.firms)
        }

    def outside_share(self, prices: "dict[str, np.ndarray]") -> float:
        x = self._utilities(prices)
        return float(np.exp(-logit.logsumexp(np.concatenate((x.ravel(), [0.0])))))

    def profit(self, firm_name: str, prices: "dict[str, np.ndarray]") -> float:
        """A firm's per-consumer profit at the given price profile."""
        firm = self._firm(firm_name)
        s = self.shares(prices)[firm_name]
        p = np.asarray(prices[firm_name], dtype=float)
        return float(np.sum(s * (p - firm.costs)))

    # ------------------------------------------------------------------
    # Best response and equilibrium
    # ------------------------------------------------------------------

    def best_response(
        self, firm_name: str, prices: "dict[str, np.ndarray]"
    ) -> np.ndarray:
        """The firm's profit-maximizing prices given rivals' prices.

        Equal markup over the firm's own costs; under a bundling
        constraint the markup applies to the bundle composites, which is
        exact for logit.  Closed form via Wright omega (module docstring).
        """
        firm = self._firm(firm_name)
        # Rival weight (including the outside option's e^0 = 1).
        rival_rows = [
            self.alpha
            * (self.valuations + other.quality - np.asarray(prices[other.name]))
            for other in self.firms
            if other.name != firm_name
        ]
        if rival_rows:
            log_d = float(
                logit.logsumexp(np.concatenate([row for row in rival_rows] + [[0.0]]))
            )
        else:
            log_d = 0.0
        # Firm attractiveness at cost pricing: the firm's offers are its
        # bundle composites (exact for logit), so a tiering constraint
        # lowers A_F — a blended firm is strictly less attractive than a
        # per-flow-priced one at the same markup.
        base = self.alpha * (self.valuations + firm.quality)
        if firm.bundles is None:
            log_a = float(logit.logsumexp(base - self.alpha * firm.costs))
            effective_costs = firm.costs
        else:
            bundle_logs = []
            effective_costs = np.empty_like(firm.costs)
            for members in firm.bundles:
                idx = np.asarray(members, dtype=int)
                weights = np.exp(base[idx] - base[idx].max())
                bundle_cost = float(
                    np.sum(firm.costs[idx] * weights) / weights.sum()
                )
                effective_costs[idx] = bundle_cost
                bundle_logs.append(
                    float(logit.logsumexp(base[idx])) - self.alpha * bundle_cost
                )
            log_a = float(logit.logsumexp(np.asarray(bundle_logs)))
        omega = float(np.real(logit.wrightomega(log_a - log_d - 1.0)))
        markup = (1.0 + omega) / self.alpha
        if not np.isfinite(markup) or markup <= 0:
            raise OptimizationError(
                f"best response for {firm_name!r} produced markup {markup}"
            )
        return effective_costs + markup

    def equilibrium(
        self,
        initial_prices: Optional[dict] = None,
        tol: float = 1e-10,
        max_rounds: int = 10_000,
    ) -> "CompetitionEquilibrium":
        """Iterate best responses to the Bertrand-Nash equilibrium."""
        if initial_prices is None:
            prices = {
                firm.name: firm.costs + 1.0 / self.alpha for firm in self.firms
            }
        else:
            prices = {
                name: np.asarray(p, dtype=float).copy()
                for name, p in initial_prices.items()
            }
        for round_index in range(1, max_rounds + 1):
            worst_move = 0.0
            for firm in self.firms:
                updated = self.best_response(firm.name, prices)
                worst_move = max(
                    worst_move, float(np.max(np.abs(updated - prices[firm.name])))
                )
                prices[firm.name] = updated
            if worst_move < tol:
                return CompetitionEquilibrium(
                    market=self, prices=prices, rounds=round_index
                )
        raise OptimizationError(
            f"best-response dynamics did not converge in {max_rounds} rounds"
        )

    def _firm(self, name: str) -> Firm:
        for firm in self.firms:
            if firm.name == name:
                return firm
        raise ModelParameterError(f"unknown firm {name!r}")


@dataclasses.dataclass(frozen=True)
class CompetitionEquilibrium:
    """A converged Bertrand-Nash price profile."""

    market: LogitCompetition
    prices: dict
    rounds: int

    def profit(self, firm_name: str) -> float:
        return self.market.profit(firm_name, self.prices)

    def share(self, firm_name: str) -> float:
        return float(self.market.shares(self.prices)[firm_name].sum())

    def markup(self, firm_name: str) -> float:
        """The firm's (bundle-average) equilibrium markup."""
        firm = self.market._firm(firm_name)
        markups = np.asarray(self.prices[firm_name]) - firm.costs
        return float(markups.mean())

    def outside_share(self) -> float:
        return self.market.outside_share(self.prices)

    def is_nash(self, tol: float = 1e-6) -> bool:
        """Every firm's prices are (numerically) its best response."""
        for firm in self.market.firms:
            response = self.market.best_response(firm.name, self.prices)
            if np.max(np.abs(response - self.prices[firm.name])) > tol:
                return False
        return True
