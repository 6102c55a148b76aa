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
    # region callbacks take them.  Endpoint labels are interned on the
    # way, so the result assembles straight into code columns.
    distances = []
    regions = []
    src_codes = []
    dst_codes = []
    src_index: "dict[str, int]" = {}
    dst_index: "dict[str, int]" = {}
    for key in keys.take(kept).flow_keys():
        distances.append(float(distance_fn(key)))
        regions.append(region_fn(key) if region_fn is not None else None)
        src_codes.append(_intern(key.src_addr, src_index))
        dst_codes.append(_intern(key.dst_addr, dst_index))
    n = len(kept)
    return FlowSet.from_columns(
        mbps[kept],
        np.asarray(distances, dtype=float),
        region_codes=encode_regions(regions, n),
        src_codes=np.asarray(src_codes, dtype=np.int32),
        src_table=tuple(src_index),
        dst_codes=np.asarray(dst_codes, dtype=np.int32),
        dst_table=tuple(dst_index),
    )


def _intern(label: str, index: "dict[str, int]") -> int:
    code = index.get(label)
    if code is None:
        code = len(index)
        index[label] = code
    return code
