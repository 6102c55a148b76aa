"""Incremental market recalibration and drift-triggered re-tiering.

Each closed window becomes one run of the paper's pipeline in miniature:
the window's flow set recalibrates the market (same demand family, cost
model, and blended reference as the design in force), the current tier
design is replayed as a price vector through the drift machinery
(:func:`~repro.accounting.drift.replay_design_prices`), and the
repricer's pricing mechanism (posted tiers unless another is given)
derives a refreshed design for comparison.  Tiers are *re-derived* — the
design in force replaced and a re-tier event recorded — only when the
stale-vs-refreshed profit-capture gap crosses the configured threshold,
so a stationary stream keeps its tiers and only genuine structural drift
forces repricing.

Destinations are first aggregated (one flow per destination address,
demand-summed, demand-weighted distance) because a tier design prices
*destinations*: two 5-tuples toward the same address must land in the
same tier.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.accounting.drift import replay_design_prices
from repro.accounting.tier_designer import TierDesign
from repro.core.cost import CostModel
from repro.core.demand import DemandModel
from repro.core.flow import NO_LABEL, FlowSet
from repro.core.market import Market
from repro import obs
from repro.errors import MechanismError, ReproError
from repro.mechanisms.base import Mechanism
from repro.mechanisms.posted import PostedTiers
from repro.obs import METRICS
from repro.stream.window import ClosedWindow, WindowBounds

#: Window statuses a :class:`WindowResult` can report.
STATUS_PRICED = "priced"
STATUS_EMPTY = "empty"
STATUS_SKIPPED = "skipped"


@dataclasses.dataclass(frozen=True)
class WindowResult:
    """What happened to one window.

    ``stale_profit``/``refreshed_profit`` are $/month at the window's
    demand rates; ``capture_drop`` is the profit-capture gap between
    replaying the prior design and re-deriving tiers (the re-tier
    trigger).  On the first priced window there is no prior design, so
    the stale-side fields are ``None`` and ``retier`` is ``True`` with
    reason ``"initial design"``.
    """

    start_ms: int
    end_ms: int
    status: str
    n_records: int
    n_flows: int
    retier: bool
    reason: str
    stale_profit: "Optional[float]" = None
    refreshed_profit: "Optional[float]" = None
    capture_drop: "Optional[float]" = None
    n_tiers: int = 0

    @classmethod
    def empty(cls, bounds: WindowBounds, n_tiers: int) -> "WindowResult":
        return cls(
            start_ms=bounds.start_ms,
            end_ms=bounds.end_ms,
            status=STATUS_EMPTY,
            n_records=0,
            n_flows=0,
            retier=False,
            reason="no traffic",
            n_tiers=n_tiers,
        )

    @classmethod
    def skipped(
        cls, bounds: WindowBounds, n_records: int, reason: str, n_tiers: int
    ) -> "WindowResult":
        return cls(
            start_ms=bounds.start_ms,
            end_ms=bounds.end_ms,
            status=STATUS_SKIPPED,
            n_records=n_records,
            n_flows=0,
            retier=False,
            reason=reason,
            n_tiers=n_tiers,
        )


@dataclasses.dataclass(frozen=True)
class DesignPublication:
    """One accepted re-tiering, as delivered to publish subscribers.

    Carries everything a consumer needs to build a quote-ready view of the
    design without holding a reference to the repricer: the frozen design,
    the calibration scale of the market it was derived on (``gamma`` maps
    relative costs to $/Mbps), the calibration set's maximum haul distance
    (the cost-normalization frame quote costs must be computed in), the
    blended reference rate, the event time the design took effect, and a
    monotonically increasing sequence number.
    """

    design: TierDesign
    gamma: float
    blended_rate: float
    window_end_ms: int
    sequence: int
    reference_distance_miles: "Optional[float]" = None


def aggregate_by_destination(flows: FlowSet) -> FlowSet:
    """One flow per destination: demand summed, distance demand-weighted.

    Flow sets without destination addresses pass through unchanged.
    Output order is sorted by destination, so repeated runs over the same
    window are bit-identical.

    Grouping runs entirely on the destination *code* column: demand sums
    and demand-weighted distances are ``bincount`` reductions over the
    group inverse (which add members in the same index order the old
    per-group Python sums did, so results are bit-identical), and each
    group's dominant-flow region falls out of one ``lexsort``.
    """
    codes = flows.dst_codes
    if codes is None:
        return flows
    uniq, inverse = np.unique(codes, return_inverse=True)
    if uniq.size == codes.size:
        return flows
    demand_sums = np.bincount(inverse, weights=flows.demands)
    distance_means = (
        np.bincount(inverse, weights=flows.demands * flows.distances)
        / demand_sums
    )
    region_codes = None
    if flows.region_codes is not None:
        # Dominant flow per group: highest demand, earliest index on ties.
        by_group = np.lexsort((np.arange(len(flows)), -flows.demands, inverse))
        dominant = by_group[np.unique(inverse[by_group], return_index=True)[1]]
        region_codes = flows.region_codes[dominant]

    # Emit groups sorted by destination label (the legacy iteration order).
    table = flows.dst_table
    labels = [table[c] if c >= 0 else None for c in uniq]
    group_order = sorted(
        range(len(labels)), key=lambda g: (labels[g] is None, labels[g] or "")
    )
    dst_codes = np.empty(len(labels), dtype=np.int32)
    dst_table: list = []
    for position, g in enumerate(group_order):
        if labels[g] is None:
            dst_codes[position] = NO_LABEL
        else:
            dst_codes[position] = len(dst_table)
            dst_table.append(labels[g])
    g_order = np.asarray(group_order)
    return FlowSet.from_columns(
        demand_sums[g_order],
        distance_means[g_order],
        region_codes=None if region_codes is None else region_codes[g_order],
        dst_codes=dst_codes,
        dst_table=tuple(dst_table),
        validate=False,
    )


class OnlineRepricer:
    """Holds the design in force and reprices it window by window.

    Args:
        demand_model / cost_model / blended_rate: The market model every
            window is recalibrated under (keep them fixed across the
            stream, as the drift comparison assumes).
        n_tiers: Tier budget of the default mechanism.
        drift_threshold: Re-tier when the refreshed design's profit
            capture exceeds the stale design's by more than this.
        provider_asn: ASN stamped into derived designs.
        mechanism: The :class:`~repro.mechanisms.Mechanism` that designs
            every window; ``None`` means
            :class:`~repro.mechanisms.PostedTiers` (profit-weighted,
            ``n_tiers``), the paper's posted tiers.  Mechanisms that
            re-clear per window (spot, hybrid) publish every priced
            window; the drift gate then governs only whether the
            *posted* component is re-derived (``retier``), while the
            spot component re-clears regardless via
            :meth:`Mechanism.reclear_on`.
    """

    def __init__(
        self,
        demand_model: DemandModel,
        cost_model: CostModel,
        blended_rate: float = 20.0,
        n_tiers: int = 3,
        drift_threshold: float = 0.1,
        provider_asn: int = 64500,
        mechanism: "Mechanism | None" = None,
    ) -> None:
        self.demand_model = demand_model
        self.cost_model = cost_model
        self.blended_rate = float(blended_rate)
        self.drift_threshold = float(drift_threshold)
        self.provider_asn = int(provider_asn)
        if mechanism is None:
            mechanism = PostedTiers(n_tiers=n_tiers)
        self.mechanism = mechanism
        #: Leading tiers of the design in force that are posted contracts
        #: (re-clearing mechanisms only; checkpointed with the design, so
        #: a restored stream's next re-clear pins the same book).
        self._posted_tiers: "Optional[int]" = None
        #: The tier design currently in force (``None`` before the first
        #: successfully priced window).
        self.design: "Optional[TierDesign]" = None
        #: Optional subscriber invoked with a :class:`DesignPublication`
        #: after every accepted re-tiering (the checkpoint write used to be
        #: the only way to observe a new design; the serving layer
        #: subscribes here instead of polling).  Publishing is best-effort:
        #: a failing subscriber is counted, not allowed to kill the stream.
        self.on_design_published: "Optional[Callable[[DesignPublication], None]]" = (
            None
        )
        self._subscribers: "list[Callable[[DesignPublication], None]]" = []
        self._publications = 0

    def subscribe(
        self, subscriber: "Callable[[DesignPublication], None]"
    ) -> "Callable[[DesignPublication], None]":
        """Register an *additional* publish subscriber.

        ``on_design_published`` remains the single-subscriber fast path;
        ``subscribe`` lets several consumers (a snapshot registry *and* a
        shard fleet, say) each receive every accepted re-tiering.  Same
        best-effort contract: one failing subscriber is counted
        (``stream.publish_errors``) and the rest still run.  Returns the
        subscriber, so it can be used as a decorator.
        """
        self._subscribers.append(subscriber)
        return subscriber

    @property
    def current_tiers(self) -> int:
        return 0 if self.design is None else self.design.n_tiers

    def price_window(self, window: ClosedWindow, flows: FlowSet) -> WindowResult:
        """Recalibrate on one window's flows and decide whether to re-tier.

        The design in force is replayed and compared against a fresh
        design from the mechanism; the re-tier verdict governs only
        re-*derivation*.  Mechanisms with a spot component
        (:attr:`Mechanism.reclears`) additionally re-clear that component
        at every priced window, pinning the held posted book, and
        publish the result.

        Model-layer failures (calibration on degenerate windows, bundling
        on too-few flows) mark the window ``skipped`` rather than killing
        the stream — live traffic does not get to crash the pricer.
        """
        flows = aggregate_by_destination(flows)
        mechanism = self.mechanism
        try:
            if flows.dst_codes is None:
                raise MechanismError(
                    "streaming mechanisms need destination addresses"
                )
            with METRICS.stage("stream.calibrate"):
                market = Market(
                    flows, self.demand_model, self.cost_model, self.blended_rate
                )
            with METRICS.stage("stream.rebundle"):
                refreshed = mechanism.design_on(
                    market, provider_asn=self.provider_asn
                )
            if self.design is None:
                stale_profit = None
                capture_drop = None
                retier = True
                reason = "initial design"
            else:
                prices, unknown, missing = replay_design_prices(
                    self.design, market
                )
                stale_profit = market.profit_at(prices)
                capture_drop = market.profit_capture(
                    refreshed.profit
                ) - market.profit_capture(stale_profit)
                retier = capture_drop > self.drift_threshold
                reason = (
                    f"capture drop {capture_drop:.3f} "
                    f"{'>' if retier else '<='} threshold "
                    f"{self.drift_threshold:.3f} "
                    f"({unknown} unknown / {missing} churned destinations)"
                )
            adopted = refreshed if retier else None
            if not retier and mechanism.reclears:
                with METRICS.stage("stream.reclear"):
                    adopted = mechanism.reclear_on(
                        market,
                        self.design,
                        self._posted_tiers or 0,
                        provider_asn=self.provider_asn,
                    )
                reason += "; spot re-cleared"
            # The drift-gate verdict, on the enclosing window span: why
            # this window did (or did not) replace the design in force.
            obs.event(
                "drift.decision",
                retier=retier,
                capture_drop=_opt_float(capture_drop),
                threshold=self.drift_threshold,
                reason=reason,
            )
            if adopted is not None:
                with METRICS.stage("stream.retier"):
                    self.design = adopted.tier_design
                    if mechanism.reclears:
                        self._posted_tiers = adopted.posted_tiers
                if retier:
                    METRICS.incr("stream.retier_events")
                else:
                    METRICS.incr("stream.reclear_events")
        except ReproError as exc:
            METRICS.incr("stream.windows_skipped")
            return WindowResult.skipped(
                window.bounds,
                window.n_records,
                f"{type(exc).__name__}: {exc}",
                self.current_tiers,
            )
        if adopted is not None:
            self._publish(market, window)
        METRICS.incr("stream.windows_priced")
        return WindowResult(
            start_ms=window.bounds.start_ms,
            end_ms=window.bounds.end_ms,
            status=STATUS_PRICED,
            n_records=window.n_records,
            n_flows=len(flows),
            retier=retier,
            reason=reason,
            stale_profit=_opt_float(stale_profit),
            refreshed_profit=float(refreshed.profit),
            capture_drop=_opt_float(capture_drop),
            n_tiers=self.current_tiers,
        )

    def _publish(self, market: Market, window: ClosedWindow) -> None:
        """Deliver the design now in force to every publish subscriber."""
        targets = [
            target
            for target in [self.on_design_published, *self._subscribers]
            if target is not None
        ]
        if not targets:
            return
        self._publications += 1
        publication = DesignPublication(
            design=self.design,
            gamma=float(market.gamma),
            blended_rate=self.blended_rate,
            window_end_ms=window.bounds.end_ms,
            sequence=self._publications,
            reference_distance_miles=float(market.flows.distances.max()),
        )
        delivered = 0
        for target in targets:
            try:
                target(publication)
            except Exception:  # noqa: BLE001 - subscriber bugs must not kill the stream
                METRICS.incr("stream.publish_errors")
            else:
                delivered += 1
        if delivered:
            METRICS.incr("stream.designs_published")

    def empty_window(self, window: ClosedWindow) -> WindowResult:
        """Record a window with no (surviving) traffic: never a re-tier."""
        METRICS.incr("stream.windows_empty")
        return WindowResult.empty(window.bounds, self.current_tiers)


def _opt_float(value: "float | np.floating | None") -> "Optional[float]":
    return None if value is None else float(value)
