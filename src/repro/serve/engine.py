"""Answering pricing questions against the active snapshot.

The engine turns "a flow of ``v`` Mbps over ``d`` miles toward
destination ``dst``" into "tier ``t`` at ``p`` $/Mbps, expected profit
contribution ``(p - c) * v`` $/month", where the unit cost ``c`` comes
from the same cost-model plumbing the batch pipeline calibrates with
(``c = gamma * f``, :class:`~repro.core.cost.CostModel` relative costs
scaled by the snapshot's calibration).

Batches are the native shape, and columns are the native batch:
:meth:`QuoteEngine.quote_columns` is the one pricing core (one snapshot
grab, one vectorized destination→tier lookup, one cost-model pass — no
per-flow Python loop), and its payload becomes answers in one of two
spellings: :func:`quote_rows` makes dicts keyed by :class:`Quote`'s
fields (through :func:`quotes_from_columns`, :class:`Quote` objects),
and :func:`quote_texts` writes each of those dicts' compact JSON
straight from the columns, for the fleet's front door to send.
:meth:`QuoteEngine.quote_batch` and :meth:`QuoteEngine.quote` are
adapters over the core; the shard fleet sends the same columns
(:class:`RequestColumns`) over its pipes.  :func:`check_request` holds
the one set of request checks, which :class:`QuoteRequest` and the
front door's column parse both run.

Degradation, not exceptions, is the failure mode: with no snapshot
published (or a request pinned to a different regime than the active
snapshot, or one whose cost or profit overflows a float), the quote
comes back at the blended rate ``P0`` with ``degraded=True`` — the
operator's safe default, the same fallback the drift replay uses for
unknown destinations.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.core.cost import CostModel
from repro.core.flow import FlowSet, VALID_REGIONS, encode_regions
from repro.errors import ConfigurationError, DataError
from repro import obs
from repro.obs import METRICS
from repro.serve.registry import SnapshotRegistry
from repro.serve.snapshot import PricingSnapshot

#: The reason a row whose cost or profit overflows a float degrades.
COST_OUT_OF_RANGE = "cost out of range"


@dataclasses.dataclass(frozen=True)
class QuoteRequest:
    """One pricing question.

    Attributes:
        dst: Destination address the flow heads toward (``None`` quotes
            an anonymous flow: always the blended fallback tier).
        volume_mbps: Flow volume (must be positive).
        distance_miles: Haul distance, the delivery-cost proxy.
        region: Optional region label for regional cost models.
        regime: Optional pinned configuration digest; a mismatch with the
            active snapshot's regime degrades the quote instead of pricing
            it off the wrong market model.
    """

    dst: Optional[str] = None
    volume_mbps: float = 1.0
    distance_miles: float = 1.0
    region: Optional[str] = None
    regime: Optional[str] = None

    def __post_init__(self) -> None:
        check_request(
            self.dst, self.volume_mbps, self.distance_miles, self.region,
            self.regime,
        )


#: The fields a quote request carries, with their defaults.
REQUEST_DEFAULTS = {f.name: f.default for f in dataclasses.fields(QuoteRequest)}


def check_request(dst, volume_mbps, distance_miles, region, regime) -> None:
    """The one set of request checks, run by :class:`QuoteRequest` and by
    the front door's column parse: a ``DataError`` for a field out of its
    domain (a ``dst`` or ``regime`` UTF-8 cannot encode, a number too
    large for a float), a ``TypeError`` for a volume or distance that is
    no number.
    """
    # Straight-line checks: this runs once per quote served.
    if not (isinstance(dst, str) or dst is None):
        raise DataError(
            f"quote dst must be a string or null, got {type(dst).__name__}"
        )
    if not (regime is None or isinstance(regime, str)):
        raise DataError(
            f"quote regime must be a string or null, got "
            f"{type(regime).__name__}"
        )
    if dst is not None and not dst.isascii():
        _check_utf8("dst", dst)
    if regime is not None and not regime.isascii():
        _check_utf8("regime", regime)
    try:
        volume_ok = math.isfinite(volume_mbps)
        distance_ok = math.isfinite(distance_miles)
    except OverflowError:
        raise DataError("quote volume and distance must fit a float") from None
    if not volume_ok or volume_mbps <= 0:
        raise DataError(f"quote volume must be positive, got {volume_mbps!r}")
    if not distance_ok or distance_miles < 0:
        raise DataError(
            f"quote distance must be non-negative, got {distance_miles!r}"
        )
    if region is not None and region not in VALID_REGIONS:
        raise DataError(
            f"unknown region {region!r}; expected one of {VALID_REGIONS}"
        )


def _check_utf8(field: str, text: str) -> None:
    """Reject text UTF-8 cannot encode (a lone surrogate): routing and
    the shared-memory lookup encode every destination."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(
            f"quote {field} is not valid Unicode text: {text!r} ({exc.reason})"
        ) from None


@dataclasses.dataclass(frozen=True)
class Quote:
    """One pricing answer.

    ``degraded`` quotes price at the blended rate with no tier, cost, or
    profit attribution (there is no calibrated snapshot to attribute
    against).  ``known`` is ``False`` when the destination is absent from
    the design (quoted at the blended fallback, but *not* degraded — the
    snapshot itself answered).
    """

    unit_price: float
    tier: Optional[int]
    known: bool
    degraded: bool
    unit_cost: Optional[float] = None
    profit_contribution: Optional[float] = None
    snapshot_version: Optional[int] = None
    snapshot_digest: Optional[str] = None
    reason: Optional[str] = None


class QuoteEngine:
    """Prices quote requests against a registry's active snapshot.

    Args:
        registry: Where published snapshots are read from.
        cost_model: The delivery-cost model quotes attribute costs with;
            must match the model the designs were calibrated under and
            must not split flows (destination-type models do).
        fallback_blended_rate: ``P0`` used for degraded quotes when not
            even a snapshot is available to supply one.
    """

    def __init__(
        self,
        registry: SnapshotRegistry,
        cost_model: CostModel,
        fallback_blended_rate: float = 20.0,
    ) -> None:
        if fallback_blended_rate <= 0:
            raise ConfigurationError(
                f"fallback blended rate must be positive, got "
                f"{fallback_blended_rate}"
            )
        self.registry = registry
        self.cost_model = cost_model
        self.fallback_blended_rate = float(fallback_blended_rate)

    # ------------------------------------------------------------------
    # Quoting
    # ------------------------------------------------------------------

    def quote(self, request: QuoteRequest, strict: bool = False) -> Quote:
        """Price one request.

        ``strict=True`` raises
        :class:`~repro.errors.SnapshotUnavailableError` instead of
        degrading when nothing is published.
        """
        if strict:
            self.registry.require()
        return self.quote_batch([request])[0]

    def quote_batch(self, requests: "Sequence[QuoteRequest]") -> "list[Quote]":
        """Price a batch under one consistent snapshot.

        An adapter over :meth:`quote_columns`: the requests become
        columns, the columns are priced, and :func:`quotes_from_columns`
        builds the answers.  A region label or a pinned regime applies
        to its own request only, whatever else shares the batch.
        """
        requests = list(requests)
        if not requests:
            return []
        payload = self.quote_columns(*request_columns(requests).as_args())
        return quotes_from_columns(payload, len(requests))

    def quote_columns(
        self, dsts, volumes_mbps, distances_miles, regions=None, regimes=None
    ) -> dict:
        """Price a batch given as columns: the one pricing core.

        ``regions`` and ``regimes`` are optional columns whose ``None``
        entries mark rows without a label or pin; a ``None`` destination
        is unknown.  The snapshot is grabbed once, so every row is
        answered by the same published state; a row pinned to another
        regime, or whose cost or profit overflows a float
        (:data:`COST_OUT_OF_RANGE`), degrades on its own.

        Returns a dict of flat columns that pickles at buffer-copy speed
        (the shard pipe carries it as is) and that :func:`quote_rows` and
        :func:`quote_texts` turn into answers: the
        :func:`degraded_columns` payload when no snapshot is published,
        else ``prices``, ``tiers``, ``unit_costs`` and ``profits`` arrays
        aligned to the input plus ``reasons``, the degraded rows' reasons
        by row (``None`` when every row priced).  The contract
        :func:`quote_texts` relies on: each row's price is its tier's
        rate (``snapshot.prices_for_tiers(tiers)``), and every row
        without a reason has a finite unit cost and profit.
        """
        n = len(dsts)
        METRICS.incr("serve.quotes", n)
        snapshot = self.registry.current()
        if snapshot is None:
            METRICS.incr("serve.degraded", n)
            obs.event(
                "engine.degraded",
                reason="no snapshot published",
                requests=n,
            )
            return degraded_columns(
                "no snapshot published", None, self.fallback_blended_rate
            )
        reasons = {}
        if regimes is not None:
            active = snapshot.config_digest
            for i, regime in enumerate(regimes):
                if regime is not None and regime != active:
                    reasons[i] = (
                        f"regime mismatch: request pinned {regime[:12]}, "
                        f"active {active[:12]}"
                    )
                    METRICS.incr("serve.degraded")
                    obs.event("engine.degraded", reason="regime mismatch")
        with METRICS.stage("serve.lookup"):
            # No label ends in U+0000 (``PricingSnapshot.build`` rejects
            # it), so "\0" looks a missing destination up as unknown.
            tiers = snapshot.tiers_for(
                ["\0" if dst is None else dst for dst in dsts]
            )
            prices = snapshot.prices_for_tiers(tiers)
        with METRICS.stage("serve.cost"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            flows = FlowSet.from_columns(
                np.asarray(volumes_mbps, dtype=float),
                np.asarray(distances_miles, dtype=float),
                region_codes=encode_regions(regions, n),
                validate=False,
            )
            if not reasons:
                unit_costs = self._unit_costs(snapshot, flows)
            else:
                # Cost the live rows alone, so a degraded row never moves
                # the frame of a batch-normalized cost model.
                unit_costs = np.full(n, np.nan)
                live = np.setdiff1d(np.arange(n), list(reasons))
                if live.size:
                    unit_costs[live] = self._unit_costs(
                        snapshot, flows.subset(live)
                    )
            profits = (prices - unit_costs) * flows.demands
        # A profit is finite only if its price and cost are (volumes are
        # positive): a live row whose floats overflow degrades.
        for i in np.flatnonzero(~np.isfinite(profits)).tolist():
            if i not in reasons:
                reasons[i] = COST_OUT_OF_RANGE
                METRICS.incr("serve.degraded")
                obs.event("engine.degraded", reason=COST_OUT_OF_RANGE)
        return {
            "degraded": False,
            "prices": prices,
            "tiers": tiers,
            "unit_costs": unit_costs,
            "profits": profits,
            "blended": snapshot.blended_rate,
            "version": snapshot.version,
            "digest": snapshot.digest,
            "reasons": reasons or None,
        }

    def _unit_costs(
        self, snapshot: PricingSnapshot, flows: FlowSet
    ) -> np.ndarray:
        """Calibrated unit costs of pre-validated flows (an unlabelled
        flow's region code is ``NO_LABEL``)."""
        costed = self.cost_model.prepare_quotes(
            flows, snapshot.reference_distance_miles
        )
        if len(costed.flows) != len(flows):
            raise ConfigurationError(
                f"cost model {self.cost_model.name!r} splits flows "
                f"({len(flows)} requests became {len(costed.flows)}); quote "
                "serving needs a non-splitting cost model"
            )
        return snapshot.unit_costs(costed.relative_costs)


# ----------------------------------------------------------------------
# Columns in, quotes out
# ----------------------------------------------------------------------


class RequestColumns:
    """Quote requests as columns: the batch :meth:`QuoteEngine.quote_columns`
    prices and the shard pipe carries.  ``len()`` is the row count;
    ``regions`` and ``regimes`` are ``None`` unless a row carries one."""

    __slots__ = ("dsts", "volumes_mbps", "distances_miles", "regions", "regimes")

    def __init__(
        self, dsts, volumes_mbps, distances_miles, regions=None, regimes=None
    ) -> None:
        self.dsts = dsts
        self.volumes_mbps = volumes_mbps
        self.distances_miles = distances_miles
        self.regions = regions
        self.regimes = regimes

    def __len__(self) -> int:
        return len(self.dsts)

    def as_args(self) -> tuple:
        """The columns, in :meth:`QuoteEngine.quote_columns` order."""
        return tuple(getattr(self, name) for name in self.__slots__)


def request_columns(requests: "Sequence[QuoteRequest]") -> RequestColumns:
    """Requests as the columns :meth:`QuoteEngine.quote_columns` takes."""
    pinned = False
    for r in requests:  # a plain loop: this runs once per quote served
        if r.region is not None or r.regime is not None:
            pinned = True
            break
    return RequestColumns(
        [r.dst for r in requests],
        [r.volume_mbps for r in requests],
        [r.distance_miles for r in requests],
        [r.region for r in requests] if pinned else None,
        [r.regime for r in requests] if pinned else None,
    )


def degraded_columns(
    reason: str,
    snapshot: "Optional[PricingSnapshot]",
    fallback_blended_rate: float,
) -> dict:
    """The payload of a batch answered wholly at the blended rate: the
    snapshot's, or ``fallback_blended_rate`` when there is none."""
    return {
        "degraded": True,
        "reason": reason,
        "blended": (
            fallback_blended_rate if snapshot is None else snapshot.blended_rate
        ),
        "version": None if snapshot is None else snapshot.version,
        "digest": None if snapshot is None else snapshot.digest,
    }


def quote_rows(payload: dict, n: int) -> "list[dict]":
    """The ``n`` answers of one :meth:`QuoteEngine.quote_columns` or
    :func:`degraded_columns` payload, as wire rows keyed by
    :class:`Quote`'s fields, in order.

    The answers' meaning is written here: :func:`quotes_from_columns`
    makes these rows quotes, and :func:`quote_texts` must spell each as
    its compact JSON.  Degraded answers price at the blended rate with
    no tier, cost or profit attribution.
    """
    version = payload["version"]
    digest = payload["digest"]
    blended = float(payload["blended"])

    def degraded(reason: str) -> dict:
        return {"unit_price": blended, "tier": None, "known": False,
                "degraded": True, "unit_cost": None, "profit_contribution": None,
                "snapshot_version": version, "snapshot_digest": digest,
                "reason": reason}

    if payload["degraded"]:
        return [degraded(payload["reason"]) for _ in range(n)]
    rows = [
        {
            "unit_price": price,
            "tier": tier if tier else None,  # UNKNOWN_TIER is 0
            "known": tier != 0,
            "degraded": False,
            "unit_cost": cost,
            "profit_contribution": profit,
            "snapshot_version": version,
            "snapshot_digest": digest,
            "reason": None,
        }
        for price, tier, cost, profit in zip(
            payload["prices"].tolist(),
            payload["tiers"].tolist(),
            payload["unit_costs"].tolist(),
            payload["profits"].tolist(),
        )
    ]
    for i, reason in (payload["reasons"] or {}).items():
        rows[i] = degraded(reason)
    return rows


def quote_texts(payload: dict, n: int) -> "list[str]":
    """The ``n`` answers of one payload as JSON text, in order: text
    ``i`` is ``json.dumps(row, separators=(",", ":"))`` of row ``i`` of
    :func:`quote_rows`, written from the columns with no row dict.

    The tail every row shares (snapshot version, digest and reason) is
    written once per payload, and a priced row's head (price, tier,
    ``known``, ``degraded``) once per tier, because a row's price is its
    tier's rate.  Each priced row adds its unit cost and profit through
    ``float.__repr__``, json's spelling of a finite float, so the payload
    must keep :meth:`QuoteEngine.quote_columns`' contract: every row
    without a reason has finite floats.  A degraded row adds one
    ``json.dumps``, of its reason.
    """
    dumps = json.dumps
    shared = (
        f',"snapshot_version":{dumps(payload["version"])}'
        f',"snapshot_digest":{dumps(payload["digest"])},"reason":'
    )
    degraded_head = (
        f'{{"unit_price":{dumps(float(payload["blended"]))},"tier":null,'
        '"known":false,"degraded":true,"unit_cost":null,'
        '"profit_contribution":null' + shared
    )
    if payload["degraded"]:
        return [f"{degraded_head}{dumps(payload['reason'])}}}"] * n
    tiers = payload["tiers"].tolist()
    # One rate per tier, so one head per tier (UNKNOWN_TIER is 0).
    heads = {
        tier: (
            f'{{"unit_price":{dumps(price)},"tier":{tier or "null"},'
            f'"known":{"true" if tier else "false"},"degraded":false,'
            '"unit_cost":'
        )
        for tier, price in dict(zip(tiers, payload["prices"].tolist())).items()
    }
    tail = shared + "null}"
    texts = [
        f'{heads[tier]}{cost!r},"profit_contribution":{profit!r}{tail}'
        for tier, cost, profit in zip(
            tiers, payload["unit_costs"].tolist(), payload["profits"].tolist()
        )
    ]
    for i, reason in (payload["reasons"] or {}).items():
        texts[i] = f"{degraded_head}{dumps(reason)}}}"
    return texts


def quotes_from_columns(payload: dict, n: int) -> "list[Quote]":
    """The ``n`` quotes of one payload: :func:`quote_rows` as
    :class:`Quote` objects."""
    return [Quote(**row) for row in quote_rows(payload, n)]


def quote_to_wire(quote: Quote) -> dict:
    """A quote as the wire row :func:`quote_rows` makes for it."""
    return dataclasses.asdict(quote)
