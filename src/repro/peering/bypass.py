"""Direct-peering bypass economics (paper §2.2.2, Figure 2).

A customer (say a CDN with a backbone presence at the ISP's NYC PoP) pays
the blended rate ``R`` for *all* traffic, including cheap short-haul flows
to a nearby exchange.  If the customer can procure a private link to that
exchange at amortized unit cost ``c_direct < R``, it will bypass the ISP.

Bypass is *efficient* when the customer genuinely delivers the traffic
more cheaply; it is a **market failure** when the customer pays more than
the ISP would have needed to charge in a tiered market:

    ``c_direct > (M + 1) * c_isp + A``

where ``c_isp`` is the ISP's unit cost for that traffic, ``M`` its profit
margin, and ``A`` the per-unit accounting overhead of tiered pricing.  In
that regime the blended rate pushed a customer onto a strictly more
expensive path — capacity was deployed at a higher cost than the tiered
price would have been.

Two evaluation surfaces:

* :class:`BypassScenario` — one scalar customer-vs-ISP decision (the
  worked-example form, also the rate floor in
  :class:`repro.mechanisms.PaidPeering`).
* :class:`BypassTable` — the columnar form: every candidate evaluated at
  once over NumPy columns, built either from an explicit ``c_direct``
  sweep (:meth:`BypassTable.evaluate`) or straight from a calibrated
  market's per-flow cost columns (:meth:`BypassTable.from_market`,
  :func:`bypass_for_flows`), no per-object Python loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ModelParameterError


@dataclasses.dataclass(frozen=True)
class BypassScenario:
    """One customer-vs-ISP interconnection decision.

    Attributes:
        blended_rate: The ISP's blended price ``R`` ($/Mbps/month).
        isp_unit_cost: The ISP's true unit cost ``c_isp`` for the flows
            the customer would offload.
        direct_unit_cost: The customer's amortized unit cost ``c_direct``
            of the private link (capex amortization + opex, per Mbps).
        margin: The ISP's profit margin ``M`` (0.25 = 25 %).
        accounting_overhead: Per-unit cost ``A`` of operating a tiered
            contract (extra sessions, metering, billing).
    """

    blended_rate: float
    isp_unit_cost: float
    direct_unit_cost: float
    margin: float = 0.25
    accounting_overhead: float = 0.0

    def __post_init__(self) -> None:
        for name in ("blended_rate", "isp_unit_cost", "direct_unit_cost"):
            if getattr(self, name) <= 0:
                raise ModelParameterError(f"{name} must be positive")
        if self.margin < 0:
            raise ModelParameterError(f"margin must be >= 0, got {self.margin}")
        if self.accounting_overhead < 0:
            raise ModelParameterError("accounting_overhead must be >= 0")

    @property
    def tiered_price(self) -> float:
        """What the ISP could profitably charge in a tiered market:
        ``(M + 1) * c_isp + A``."""
        return (self.margin + 1.0) * self.isp_unit_cost + self.accounting_overhead

    @property
    def customer_bypasses(self) -> bool:
        """The customer provisions its own link iff ``c_direct < R``."""
        return self.direct_unit_cost < self.blended_rate

    @property
    def is_market_failure(self) -> bool:
        """Bypass happens *and* wastes resources: the customer's link costs
        more than the tiered price the ISP could have offered."""
        return self.customer_bypasses and self.direct_unit_cost > self.tiered_price

    @property
    def efficiency_loss_per_mbps(self) -> float:
        """Extra cost per Mbps society pays when the failure occurs."""
        if not self.is_market_failure:
            return 0.0
        return self.direct_unit_cost - self.tiered_price

    def outcome(self) -> str:
        """One of ``"stays"``, ``"efficient-bypass"``, ``"market-failure"``."""
        if not self.customer_bypasses:
            return "stays"
        return "market-failure" if self.is_market_failure else "efficient-bypass"


@dataclasses.dataclass(frozen=True)
class BypassSweepPoint:
    """One point of a ``c_direct`` sweep (for the Figure 2 bench)."""

    direct_unit_cost: float
    outcome: str
    efficiency_loss_per_mbps: float


#: Outcome labels in :attr:`BypassTable.outcomes` code order.
OUTCOME_LABELS = ("stays", "efficient-bypass", "market-failure")
OUTCOME_STAYS, OUTCOME_EFFICIENT, OUTCOME_FAILURE = 0, 1, 2


@dataclasses.dataclass(frozen=True)
class BypassTable:
    """Columnar bypass decisions: every candidate evaluated at once.

    Struct-of-arrays counterpart of a list of :class:`BypassScenario`
    objects — same §2.2.2 economics, but one vectorized pass over NumPy
    columns instead of a per-object Python loop, so it prices a
    million-flow matrix as readily as a 25-point figure sweep.

    Attributes:
        direct_unit_costs: Candidate ``c_direct`` column ($/Mbps).
        tiered_prices: Per-candidate ``(M+1) c_isp + A`` column.
        outcomes: Int8 codes into :data:`OUTCOME_LABELS`.
        efficiency_loss_per_mbps: Zero except where the code is
            :data:`OUTCOME_FAILURE`, there ``c_direct - tiered_price``.
    """

    direct_unit_costs: np.ndarray
    tiered_prices: np.ndarray
    outcomes: np.ndarray
    efficiency_loss_per_mbps: np.ndarray

    def __len__(self) -> int:
        return int(self.direct_unit_costs.size)

    @classmethod
    def evaluate(
        cls,
        blended_rate: float,
        isp_unit_costs,
        direct_unit_costs,
        margin: float = 0.25,
        accounting_overhead: float = 0.0,
    ) -> "BypassTable":
        """Vectorized bypass decision over cost columns.

        ``isp_unit_costs`` and ``direct_unit_costs`` broadcast against
        each other, so this covers both the figure sweep (scalar ISP
        cost, swept ``c_direct``) and the per-flow case (both columns).
        """
        if blended_rate <= 0:
            raise ModelParameterError("blended_rate must be positive")
        if margin < 0:
            raise ModelParameterError(f"margin must be >= 0, got {margin}")
        if accounting_overhead < 0:
            raise ModelParameterError("accounting_overhead must be >= 0")
        isp = np.atleast_1d(np.asarray(isp_unit_costs, dtype=np.float64))
        direct = np.atleast_1d(np.asarray(direct_unit_costs, dtype=np.float64))
        if isp.size == 0 or direct.size == 0:
            raise ModelParameterError("cost columns must be non-empty")
        if np.any(isp <= 0):
            raise ModelParameterError("isp_unit_cost must be positive")
        if np.any(direct <= 0):
            raise ModelParameterError("direct_unit_cost must be positive")
        isp, direct = np.broadcast_arrays(isp, direct)
        tiered = (margin + 1.0) * isp + accounting_overhead
        bypasses = direct < blended_rate
        failure = bypasses & (direct > tiered)
        outcomes = np.where(
            failure,
            np.int8(OUTCOME_FAILURE),
            np.where(bypasses, np.int8(OUTCOME_EFFICIENT), np.int8(OUTCOME_STAYS)),
        ).astype(np.int8)
        loss = np.where(failure, direct - tiered, 0.0)
        return cls(
            direct_unit_costs=np.ascontiguousarray(direct),
            tiered_prices=np.ascontiguousarray(tiered),
            outcomes=outcomes,
            efficiency_loss_per_mbps=loss,
        )

    @classmethod
    def from_market(
        cls,
        market,
        direct_cost_factor: float = 1.5,
        margin: float = 0.25,
        accounting_overhead: float = 0.0,
    ) -> "BypassTable":
        """Per-flow bypass decisions on a calibrated market's columns.

        Each flow's ISP unit cost is the market's calibrated ``gamma *
        relative_cost`` column; the customer's private-link cost is
        modeled as ``direct_cost_factor`` times that (building a single
        link is more expensive than riding the ISP's amortized backbone).
        """
        if direct_cost_factor <= 0:
            raise ModelParameterError("direct_cost_factor must be positive")
        return cls.evaluate(
            blended_rate=market.blended_rate,
            isp_unit_costs=market.costs,
            direct_unit_costs=direct_cost_factor * market.costs,
            margin=margin,
            accounting_overhead=accounting_overhead,
        )

    def counts(self) -> "dict[str, int]":
        """Outcome label -> candidate count (all labels always present)."""
        tallies = np.bincount(self.outcomes, minlength=len(OUTCOME_LABELS))
        return {
            label: int(tallies[code])
            for code, label in enumerate(OUTCOME_LABELS)
        }

    def total_loss(self, demands_mbps=None) -> float:
        """Aggregate efficiency loss, optionally demand-weighted ($/mo)."""
        if demands_mbps is None:
            return float(np.sum(self.efficiency_loss_per_mbps))
        return float(
            np.dot(self.efficiency_loss_per_mbps, np.asarray(demands_mbps))
        )

    def points(self) -> "list[BypassSweepPoint]":
        """The sweep as one :class:`BypassSweepPoint` per direct-link cost."""
        return [
            BypassSweepPoint(
                direct_unit_cost=float(self.direct_unit_costs[i]),
                outcome=OUTCOME_LABELS[self.outcomes[i]],
                efficiency_loss_per_mbps=float(self.efficiency_loss_per_mbps[i]),
            )
            for i in range(len(self))
        ]


def bypass_for_flows(
    flows,
    demand_model,
    cost_model,
    blended_rate: float = 20.0,
    direct_cost_factor: float = 1.5,
    margin: float = 0.25,
    accounting_overhead: float = 0.0,
) -> BypassTable:
    """Per-flow bypass decisions straight from columnar flows.

    Calibrates a :class:`~repro.core.market.Market` (for the ``gamma``
    that turns relative costs into $/Mbps) and evaluates every flow's
    bypass decision in one vectorized pass — the FlowTable-direct entry
    point the figure drivers and the paid-peering mechanism share.
    """
    from repro.core.market import Market

    market = Market(flows, demand_model, cost_model, blended_rate)
    return BypassTable.from_market(
        market,
        direct_cost_factor=direct_cost_factor,
        margin=margin,
        accounting_overhead=accounting_overhead,
    )


def failure_window(
    blended_rate: float,
    isp_unit_cost: float,
    margin: float = 0.25,
    accounting_overhead: float = 0.0,
) -> "tuple[float, float]":
    """The ``c_direct`` interval in which blended pricing causes waste.

    Returns ``(lo, hi)`` with ``lo = (M+1) c_isp + A`` and
    ``hi = R``; the window is empty (``lo >= hi``) when the blended rate
    is already close to cost — i.e. tiering would not retain the traffic.
    """
    scenario = BypassScenario(
        blended_rate=blended_rate,
        isp_unit_cost=isp_unit_cost,
        direct_unit_cost=blended_rate,  # placeholder, unused
        margin=margin,
        accounting_overhead=accounting_overhead,
    )
    return scenario.tiered_price, blended_rate
