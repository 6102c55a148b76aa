"""Turning deduplicated records into the model's flow set (§4.1.1).

The demand model consumes per-destination *rates*; this module converts a
collector's byte volumes over a capture window into Mbps demands and
attaches the per-network distance heuristic supplied by the caller.  The
volumes and rates stay numpy columns; only the distinct flow keys handed
to the caller's heuristics become objects.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional

import numpy as np

from repro.core.flow import FlowSet, encode_regions
from repro.errors import DataError
from repro.netflow.collector import FlowCollector
from repro.netflow.records import FlowKey

#: Signature of a distance heuristic: flow key -> miles.
DistanceFn = Callable[[FlowKey], float]
#: Signature of an optional region classifier: flow key -> region label.
RegionFn = Callable[[FlowKey], Optional[str]]


def aggregate_to_flowset(
    collector: FlowCollector,
    window_seconds: float,
    distance_fn: DistanceFn,
    region_fn: Optional[RegionFn] = None,
    min_demand_mbps: float = 0.0,
) -> FlowSet:
    """Build a :class:`FlowSet` from collected records.

    Args:
        collector: Records from all routers, already ingested.
        window_seconds: Length of the capture (24 h in the paper).
        distance_fn: The per-network distance heuristic (entry/exit
            geographic distance, GeoIP endpoint distance, or routed path
            length — see §4.1.1).
        region_fn: Optional region classifier for the regional cost model.
        min_demand_mbps: Flows whose mean rate falls below this are
            dropped (sampling can leave dust entries).

    Raises:
        DataError: If the window is non-positive or no flow survives.
    """
    if window_seconds <= 0:
        raise DataError(f"window_seconds must be positive, got {window_seconds}")
    keys, volumes = collector.deduplicated()
    if not len(keys):
        raise DataError("collector holds no records")
    mbps = np.asarray(volumes * 8.0 / window_seconds / 1e6, dtype=float)
    kept = np.flatnonzero(~(mbps <= min_demand_mbps))
    if not kept.size:
        raise DataError(
            "no flows above the demand threshold "
            f"({min_demand_mbps} Mbps) in a {window_seconds:.0f}s window"
        )

    # Flow keys exist only for the kept distinct keys: the distance and
    # region callbacks take them.  The endpoint code columns come from
    # the address columns, and their label tables from the keys.
    kept_keys = keys.take(kept)
    flow_keys = kept_keys.flow_keys()
    distances = []
    regions = []
    for key in flow_keys:
        distances.append(float(distance_fn(key)))
        if region_fn is not None:
            regions.append(region_fn(key))
    src_codes, src_rows = _first_appearance_codes(kept_keys.src)
    dst_codes, dst_rows = _first_appearance_codes(kept_keys.dst)
    return FlowSet.from_columns(
        mbps[kept],
        np.asarray(distances, dtype=float),
        region_codes=(
            encode_regions(regions, len(kept)) if region_fn is not None else None
        ),
        src_codes=src_codes,
        src_table=tuple([flow_keys[i].src_addr for i in src_rows]),
        dst_codes=dst_codes,
        dst_table=tuple([flow_keys[i].dst_addr for i in dst_rows]),
    )


def _first_appearance_codes(values: np.ndarray) -> "tuple[np.ndarray, list[int]]":
    """``int32`` codes of a column's distinct values, numbered in order
    of first appearance, and the row where each code first appears."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    code = np.empty(order.size, np.int32)
    code[order] = np.arange(order.size, dtype=np.int32)
    return code[inverse], first[order].tolist()
