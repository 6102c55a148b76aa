"""Immutable, quote-ready views of a published tier design.

A :class:`PricingSnapshot` is everything the quote path needs, frozen at
publish time: the tier rate card, a vectorized destination→tier index,
the calibration scale ``gamma`` (relative cost → $/Mbps), the blended
reference rate ``P0``, and two identity fields — a monotonic ``version``
and a content ``digest`` — that let every quote prove which snapshot
priced it.  Snapshots are never mutated after construction (the lookup
arrays are read-only numpy arrays), so a reader that grabbed a snapshot
reference can keep quoting from it while the registry swaps in a newer
one: there is no torn state to observe, only an older consistent one.

The destination index is the column a shared-memory segment stores
(:mod:`repro.fleet.shm`): each label's text as fixed-width UTF-8 bytes
(``S<w>``), sorted, with the tier ids aligned to it.  UTF-8 byte order
is code-point order, so ``searchsorted`` on the bytes orders ``str``
labels as ``sorted`` does.  numpy pads the column with NUL bytes, so a
label whose text ends in U+0000 cannot be told from the one without it:
:meth:`PricingSnapshot.build` rejects it, and such a query is unknown.

``config_digest`` records the *regime* the snapshot was derived under
(the streaming pipeline's configuration fingerprint, or any caller-chosen
string).  Quote requests may pin a regime; a mismatch degrades the quote
to the blended rate rather than pricing it off the wrong market model.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.accounting.tier_designer import TierDesign
from repro.errors import DataError
from repro.runtime.cache import Canonical, config_hash
from repro.stream.repricer import DesignPublication

#: Sentinel tier id for destinations the design has no tier for.
UNKNOWN_TIER = 0

#: Stands in for a query no label can equal: no UTF-8 text holds 0xFF.
_NO_MATCH = b"\xff"


def _destination_column(
    labels: list, label_tiers: np.ndarray, *, resort: bool
) -> "tuple[np.ndarray, np.ndarray]":
    """Sorted labels → their ``S<w>`` UTF-8 text column and aligned tiers.

    Sorted ``str`` labels are in column order already; other labels are
    keyed by their text, so the column is re-sorted (``resort``).

    Raises:
        DataError: A label's text is not UTF-8 or ends in U+0000.
    """
    texts = list(map(str, labels))
    try:
        column = np.array(list(map(str.encode, texts)))
    except UnicodeEncodeError as exc:
        raise DataError(f"destination label is not UTF-8 text: {exc}") from None
    if "\0" in "".join(texts) and any(text.endswith("\0") for text in texts):
        raise DataError("a destination label ends in U+0000")
    if not resort:
        return column, label_tiers
    order = np.argsort(column, kind="stable")
    return column[order], label_tiers[order]


@dataclasses.dataclass(frozen=True)
class PricingSnapshot:
    """One immutable, versioned pricing state.

    Attributes:
        version: Monotonic publish counter (assigned by the registry).
        digest: Content hash of the snapshot (rates, destinations, model
            parameters) — the per-quote consistency proof.
        config_digest: Fingerprint of the regime (pipeline configuration)
            the design was derived under.
        published_at_ms: Event time the design took effect.
        blended_rate: The blended reference rate ``P0`` ($/Mbps/month).
        gamma: Dollar scale mapping relative costs to $/Mbps.
        reference_distance_miles: Maximum haul distance of the calibration
            flow set — the cost-normalization frame quote costs are
            computed in (``None``: normalize per batch, the legacy
            behavior for hand-built snapshots).
        provider_asn: ASN of the design's route communities.
        rates: Tier id (1-based) -> $/Mbps/month.
    """

    version: int
    digest: str
    config_digest: str
    published_at_ms: int
    blended_rate: float
    gamma: float
    reference_distance_miles: Optional[float]
    provider_asn: int
    rates: dict
    _dsts: np.ndarray = dataclasses.field(repr=False)
    _tiers: np.ndarray = dataclasses.field(repr=False)
    _rate_by_tier: np.ndarray = dataclasses.field(repr=False)

    @classmethod
    def build(
        cls,
        design: TierDesign,
        *,
        version: int,
        config_digest: str,
        blended_rate: float,
        gamma: float,
        reference_distance_miles: "Optional[float]" = None,
        published_at_ms: int = 0,
    ) -> "PricingSnapshot":
        """Freeze a :class:`TierDesign` into a quote-ready snapshot."""
        if not design.rates:
            raise DataError("cannot snapshot a design with no tiers")
        if not design.tier_of_destination:
            raise DataError("cannot snapshot a design with no destinations")
        blended_rate = float(blended_rate)
        tier_ids = sorted(design.rates)
        if tier_ids != list(range(1, len(tier_ids) + 1)):
            raise DataError(
                f"design tiers must be contiguous from 1, got {tier_ids}"
            )
        # The digest hashes the ``[dst, tier]`` pairs in label order.
        tier_of = design.tier_of_destination
        dst_list = sorted(tier_of)
        all_text = set(map(type, dst_list)) == {str}
        label_tiers = np.array([tier_of[dst] for dst in dst_list], dtype=np.int64)
        dsts, tiers = _destination_column(dst_list, label_tiers, resort=not all_text)
        # Index 0 is the unknown-destination fallback: the blended rate,
        # matching replay_design_prices' safe default.
        rate_by_tier = np.array(
            [blended_rate] + [float(design.rates[t]) for t in tier_ids]
        )
        dsts.setflags(write=False)
        tiers.setflags(write=False)
        rate_by_tier.setflags(write=False)
        reference = (
            None
            if reference_distance_miles is None
            else float(reference_distance_miles)
        )
        # ``[dst, tier]`` pairs; ``str`` labels and ``int`` tiers are
        # already canonical, so the hash skips walking them.
        pairs = list(zip(dst_list, label_tiers.tolist()))
        if all_text:
            pairs = Canonical(pairs)
        digest = config_hash(
            {
                "config_digest": config_digest,
                "blended_rate": blended_rate,
                "gamma": float(gamma),
                "reference_distance_miles": reference,
                "provider_asn": int(design.provider_asn),
                "rates": {str(t): float(design.rates[t]) for t in tier_ids},
                "destinations": pairs,
            }
        )
        return cls(
            version=int(version),
            digest=digest,
            config_digest=str(config_digest),
            published_at_ms=int(published_at_ms),
            blended_rate=blended_rate,
            gamma=float(gamma),
            reference_distance_miles=reference,
            provider_asn=int(design.provider_asn),
            rates={t: float(design.rates[t]) for t in tier_ids},
            _dsts=dsts,
            _tiers=tiers,
            _rate_by_tier=rate_by_tier,
        )

    @classmethod
    def from_publication(
        cls,
        publication: DesignPublication,
        *,
        version: int,
        config_digest: str,
    ) -> "PricingSnapshot":
        """Snapshot of a streaming re-tier publication."""
        return cls.build(
            publication.design,
            version=version,
            config_digest=config_digest,
            blended_rate=publication.blended_rate,
            gamma=publication.gamma,
            reference_distance_miles=publication.reference_distance_miles,
            published_at_ms=publication.window_end_ms,
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @property
    def n_tiers(self) -> int:
        return len(self.rates)

    @property
    def n_destinations(self) -> int:
        return int(self._dsts.size)

    @property
    def destinations(self) -> tuple:
        """The designed destinations' text, sorted (load generators
        sample it)."""
        return tuple(raw.decode("utf-8") for raw in self._dsts.tolist())

    def tiers_for(self, destinations) -> np.ndarray:
        """Vectorized destination→tier lookup, by each query's text.

        Returns one tier id per destination; :data:`UNKNOWN_TIER` (0) for
        destinations the design has no tier for — among them a query
        wider than the column or ending in U+0000.
        """
        # A lone surrogate encodes to bytes no UTF-8 label holds.
        encoded = [str(dst).encode("utf-8", "surrogatepass") for dst in destinations]
        if not encoded:
            return np.zeros(0, dtype=np.int64)
        width = self._dsts.dtype.itemsize
        queries = np.array(
            [
                raw if len(raw) <= width and not raw.endswith(b"\0") else _NO_MATCH
                for raw in encoded
            ],
            dtype=self._dsts.dtype,
        )
        positions = np.searchsorted(self._dsts, queries)
        positions = np.minimum(positions, self._dsts.size - 1)
        hits = self._dsts[positions] == queries
        return np.where(hits, self._tiers[positions], UNKNOWN_TIER)

    def prices_for_tiers(self, tiers: np.ndarray) -> np.ndarray:
        """Tier ids → unit prices; unknown (0) maps to the blended rate."""
        return self._rate_by_tier[np.asarray(tiers, dtype=np.int64)]

    def tier_for(self, destination: str) -> int:
        """Single-destination lookup (0 = unknown)."""
        return int(self.tiers_for([destination])[0])

    def unit_costs(self, relative_costs: np.ndarray) -> np.ndarray:
        """Relative delivery costs → calibrated $/Mbps unit costs."""
        return self.gamma * np.asarray(relative_costs, dtype=float)

    def describe(self) -> str:
        tiers = ", ".join(
            f"{t}:${self.rates[t]:.2f}" for t in sorted(self.rates)
        )
        return (
            f"PricingSnapshot(v{self.version}, digest={self.digest[:12]}, "
            f"{self.n_tiers} tiers [{tiers}], "
            f"{self.n_destinations} destinations, "
            f"P0=${self.blended_rate}/Mbps, gamma={self.gamma:.4g})"
        )
