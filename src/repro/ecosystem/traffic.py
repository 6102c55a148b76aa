"""Per-AS traffic: gravity-model FlowTables and NetFlow v5 emission.

Every AS sources a gravity-shaped traffic matrix toward every other AS:
its total egress scales with its kind (content ASes are heavy sources)
and a per-AS lognormal size factor; per-destination demand splits by the
destinations' attraction weights with seeded jitter.  Distances are the
routing layer's valley-free hop counts times a per-region hop length
(metro/national/international classified from the endpoint home cities),
so demand *and* cost structure both emerge from the generated ecosystem.

The same flows export as NetFlow v5: each AS's routers emit sampled
records over its ``10.x.y.0/24`` address plan, which round-trip through
the binary codec, the deduplicating collector, and
:func:`~repro.netflow.aggregation.aggregate_to_flowset` — the full
measure chain — before :func:`design_for_as` calibrates a market and
designs tiers on the result.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.flow import FlowTable, REGION_CODE
from repro.ecosystem.base import (
    CONTENT,
    Ecosystem,
    Layer,
    STUB,
    TIER1,
    TIER2,
    index_for_address,
)
from repro.errors import DataError, TopologyError
from repro.geo.regions import classify_by_endpoints
from repro.obs import METRICS
from repro import obs

#: Base egress per AS kind, Mbps (scaled by the per-AS size factor).
BASE_MBPS = {TIER1: 8000.0, TIER2: 3000.0, CONTENT: 20000.0, STUB: 500.0}

#: Gravity attraction per destination kind.
ATTRACTION = {TIER1: 2.0, TIER2: 1.5, CONTENT: 4.0, STUB: 1.0}

#: Miles one valley-free AS hop represents, by endpoint region class.
HOP_MILES = {"metro": 40.0, "national": 250.0, "international": 1200.0}

#: Mean packet size for deriving packet counts from octets.
_MEAN_PACKET_BYTES = 800

_TCP = 6
_HTTPS_PORT = 443


@dataclasses.dataclass(frozen=True)
class TrafficModel:
    """Frozen per-AS traffic parameters; tables generate on demand.

    Flow tables are *derived*, not stored: ``flow_table(eco, index)``
    redraws AS ``index``'s rows from a stream seeded by (world seed, AS
    index), so any of a million ASes' tables materializes independently
    and two renders of the same world are byte-identical.
    """

    seed: int
    window_seconds: float
    sampling_interval: int
    scale: float
    size_factor: np.ndarray  # per-AS lognormal egress multiplier
    attraction: np.ndarray  # per-AS gravity weight (kind x size factor)

    # ------------------------------------------------------------------

    def _hop_distances(
        self, eco: Ecosystem, src: int, dests: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(distance miles, region codes) for one source's destinations."""
        lens = eco.tables.path_len[src, dests].astype(float)
        if lens.min() < 0:
            unreachable = int(dests[int(np.argmin(lens))])
            raise TopologyError(
                f"AS index {src} has no valley-free route to {unreachable}"
            )
        home = eco.ases[src].home
        regions = np.array(
            [
                REGION_CODE[classify_by_endpoints(home, eco.ases[int(d)].home)]
                for d in dests
            ],
            dtype=np.int32,
        )
        hop_miles = np.array(
            [HOP_MILES[label] for label in REGION_CODE], dtype=float
        )[regions]
        return lens * hop_miles, regions

    def distance_between(self, eco: Ecosystem, src: int, dst: int) -> float:
        """The hop-count x region-hop-miles distance for one pair."""
        miles, _ = self._hop_distances(eco, src, np.array([dst]))
        return float(miles[0])

    def flow_table(self, eco: Ecosystem, index: int) -> FlowTable:
        """AS ``index``'s per-destination demand table (deterministic)."""
        n = eco.n_ases
        if n < 2:
            raise DataError("traffic needs at least two ASes")
        source = eco.ases[index]
        dests = np.array(
            [d for d in range(n) if d != index], dtype=np.int64
        )
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(self.seed, 0x7472, index))
        )
        weights = self.attraction[dests] * np.exp(
            rng.normal(0.0, 0.35, size=dests.size)
        )
        total_mbps = (
            BASE_MBPS[source.kind] * float(self.size_factor[index]) * self.scale
        )
        demands = total_mbps * weights / weights.sum()
        distances, region_codes = self._hop_distances(eco, index, dests)
        names = tuple(eco.ases[int(d)].name for d in dests)
        demands.setflags(write=False)
        distances.setflags(write=False)
        return FlowTable.from_columns(
            demands,
            distances,
            region_codes=region_codes,
            src_codes=np.zeros(dests.size, dtype=np.int32),
            src_table=(source.name,),
            dst_codes=np.arange(dests.size, dtype=np.int32),
            dst_table=names,
            validate=False,
        )

    # ------------------------------------------------------------------
    # NetFlow emission
    # ------------------------------------------------------------------

    def netflow_records(self, eco: Ecosystem, index: int) -> list:
        """Sampled NetFlow v5 records for AS ``index``'s flow table.

        Each flow becomes one record on one of the AS's routers
        (round-robin), with endpoint addresses drawn from the source and
        destination ASes' ``10.x.y.0/24`` plans, deterministic 1-in-N
        thinning, and counters kept under the 32-bit wire fields.
        """
        from repro.netflow.records import FlowKey, NetFlowRecord

        table = self.flow_table(eco, index)
        source = eco.ases[index]
        routers = source.routers
        dests = [d for d in range(eco.n_ases) if d != index]
        window_ms = int(self.window_seconds * 1000)
        records = []
        for i, (demand, d) in enumerate(zip(table.demands, dests)):
            true_octets = int(float(demand) * 1e6 / 8.0 * self.window_seconds)
            octets = max(1, true_octets // self.sampling_interval)
            packets = max(1, octets // _MEAN_PACKET_BYTES)
            records.append(
                NetFlowRecord(
                    key=FlowKey(
                        src_addr=source.address(2 + (i % 250)),
                        dst_addr=eco.ases[d].address(1),
                        src_port=1024 + (i % 50000),
                        dst_port=_HTTPS_PORT,
                        protocol=_TCP,
                    ),
                    octets=octets,
                    packets=packets,
                    first_ms=0,
                    last_ms=window_ms - 1,
                    router=routers[i % len(routers)],
                    input_if=0,
                    output_if=1,
                    sampling_interval=self.sampling_interval,
                )
            )
        METRICS.incr("ecosystem.netflow_records", len(records))
        return records


class Traffic(Layer):
    """The layer that fits the world's :class:`TrafficModel`.

    Args:
        window_seconds: Capture-window length the NetFlow export covers.
        sampling_interval: Routers export 1-in-N (keeps big content
            flows' sampled counters under the 32-bit wire field).
        scale: Global multiplier on every AS's egress.
    """

    name = "traffic"
    requires = ("base", "relationships", "routing")

    def __init__(
        self,
        window_seconds: float = 120.0,
        sampling_interval: int = 500,
        scale: float = 1.0,
    ) -> None:
        if window_seconds <= 0:
            raise DataError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        if sampling_interval < 1:
            raise DataError(
                f"sampling_interval must be >= 1, got {sampling_interval}"
            )
        if scale <= 0:
            raise DataError(f"scale must be positive, got {scale}")
        self.window_seconds = float(window_seconds)
        self.sampling_interval = int(sampling_interval)
        self.scale = float(scale)

    def render(self, eco: Ecosystem, rng: np.random.Generator) -> None:
        n = eco.n_ases
        size_factor = np.exp(rng.normal(0.0, 0.5, size=n))
        attraction = np.array(
            [ATTRACTION[a.kind] for a in eco.ases]
        ) * size_factor
        size_factor.setflags(write=False)
        attraction.setflags(write=False)
        eco.traffic = TrafficModel(
            seed=eco.seed,
            window_seconds=self.window_seconds,
            sampling_interval=self.sampling_interval,
            scale=self.scale,
            size_factor=size_factor,
            attraction=attraction,
        )


# ----------------------------------------------------------------------
# The measure -> model -> design chain for one AS
# ----------------------------------------------------------------------


def measured_flowset_for(
    eco: Ecosystem, asn: int, through_wire: bool = True
) -> FlowTable:
    """Re-measure one AS's traffic the way an operator would.

    Export the AS's NetFlow, optionally round-trip it through the binary
    v5 codec (``through_wire``), ingest into the deduplicating collector,
    and aggregate back to a flow set with the ecosystem's own
    distance/region heuristics (destination address → AS index → hop
    distance).  Sampling means recovered demands differ from the ground
    truth by quantization only.
    """
    from repro.netflow.aggregation import aggregate_to_flowset
    from repro.netflow.codec import decode_packets, encode_packets
    from repro.netflow.collector import FlowCollector
    from repro.netflow.records import RecordBatch

    model = eco._traffic_model()
    eco.as_by_asn(asn)  # fail fast on unknown ASNs
    with obs.span("ecosystem.emit", asn=asn, wire=through_wire):
        records = eco.netflow_records_for(asn)
        if through_wire:
            engines = eco.engine_map()
            batch = decode_packets(encode_packets(records, engines), engines)
        else:
            batch = RecordBatch.from_records(records)
        collector = FlowCollector()
        collector.ingest_batch(batch)

        def distance_fn(key) -> float:
            return model.distance_between(
                eco, index_for_address(key.src_addr), index_for_address(key.dst_addr)
            )

        def region_fn(key) -> str:
            src = eco.ases[index_for_address(key.src_addr)]
            dst = eco.ases[index_for_address(key.dst_addr)]
            return classify_by_endpoints(src.home, dst.home)

        flows = aggregate_to_flowset(
            collector,
            window_seconds=model.window_seconds,
            distance_fn=distance_fn,
            region_fn=region_fn,
        )
    return flows


def write_netflow(eco: Ecosystem, directory) -> str:
    """Write every AS's sampled NetFlow v5 packets to
    ``directory/<as>.nf5``, making the directory if it is missing;
    returns a one-line account of what was written."""
    import pathlib

    from repro.netflow.codec import encode_packets

    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    engines = eco.engine_map()
    total_packets = 0
    for a in eco.ases:
        packets = encode_packets(eco.netflow_records_for(a.asn), engines)
        (out_dir / f"{a.name}.nf5").write_bytes(b"".join(packets))
        total_packets += len(packets)
    return (
        f"netflow: wrote {len(eco.ases)} .nf5 files "
        f"({total_packets} packets) to {out_dir}"
    )


def design_for_as(
    eco: Ecosystem,
    asn: int,
    n_tiers: int = 3,
    family: str = "ced",
    alpha: float = 1.1,
    theta: float = 0.2,
    blended_rate: float = 20.0,
    through_wire: bool = True,
    mechanism=None,
) -> dict:
    """Measure -> model -> design for one AS of the ecosystem.

    Returns a plain-data summary (floats/ints/strings only)::

        {"asn", "kind", "n_flows", "aggregate_gbps", "profit_capture",
         "tier_prices", "tier_flows"}

    ``mechanism`` selects the :mod:`repro.mechanisms` pricing mechanism
    that designs the AS's tiers — a :class:`~repro.mechanisms.Mechanism`
    instance or registry name, posted tiers when ``None``.  A mechanism
    other than posted tiers adds a ``"mechanism"`` key.
    """
    from repro.core.ced import CEDDemand
    from repro.core.cost import LinearDistanceCost
    from repro.core.logit import LogitDemand
    from repro.core.market import Market
    from repro.mechanisms import DEFAULT_MECHANISM, mechanism_by_name

    if mechanism is None or isinstance(mechanism, str):
        mechanism = mechanism_by_name(
            mechanism or DEFAULT_MECHANISM, n_tiers=n_tiers
        )

    source = eco.as_by_asn(asn)
    flows = measured_flowset_for(eco, asn, through_wire=through_wire)
    if family == "ced":
        demand = CEDDemand(alpha=alpha)
    elif family == "logit":
        demand = LogitDemand(alpha=alpha, s0=0.2)
    else:
        raise DataError(
            f"unknown demand family {family!r}; use 'ced' or 'logit'"
        )
    with obs.span("ecosystem.design", asn=asn, n_tiers=n_tiers):
        market = Market(
            flows,
            demand,
            LinearDistanceCost(theta=theta),
            blended_rate=blended_rate,
        )
        design = mechanism.design_on(market)
    summary = {
        "asn": int(asn),
        "kind": source.kind,
        "n_flows": len(flows),
        "aggregate_gbps": round(flows.aggregate_gbps(), 4),
        "profit_capture": round(design.profit_capture, 6),
        "tier_prices": [round(t.price, 4) for t in design.tiers],
        "tier_flows": [int(t.n_flows) for t in design.tiers],
    }
    if mechanism.name != DEFAULT_MECHANISM:
        summary["mechanism"] = mechanism.name
    return summary


def as_table1_row(eco: Ecosystem, asn: int) -> dict:
    """The paper's Table 1 statistics for one AS's emergent traffic."""
    source = eco.as_by_asn(asn)
    measured = eco.flow_table_for(asn).table1_row()
    return {"as": source.name, "kind": source.kind, "measured": measured}
