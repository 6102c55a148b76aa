"""AS taxonomy, the ecosystem container, and the layer-builder API.

The ecosystem generator follows the seed-emulator idiom: a world is
composed by stacking *layers* onto a builder —

* :class:`Base` — the AS population (tier-1/tier-2/stub/content) with
  geographic placement over the :mod:`repro.geo` gazetteer, plus IXP
  sites;
* :class:`~repro.ecosystem.relationships.Relationships` — customer/
  provider and peering edges (tier-1 clique, proximity-weighted transit,
  IXP peering meshes);
* :class:`~repro.ecosystem.routing.Routing` — Gao–Rexford valley-free
  best paths as dense int32 matrices;
* :class:`~repro.ecosystem.traffic.Traffic` — the gravity traffic model
  every AS's :class:`~repro.core.flow.FlowTable` and NetFlow export is
  drawn from.

``EcosystemBuilder(seed).add_layer(...)....render()`` applies the layers
in order (dependencies checked by name) and returns the finished
:class:`Ecosystem`.  Every layer draws from its own seeded RNG stream, so
one seed determines the whole world byte-for-byte.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import DataError, TopologyError
from repro.geo.coords import (
    City,
    EUROPEAN_CITIES,
    US_RESEARCH_CITIES,
    WORLD_CITIES,
)
from repro.obs import METRICS

#: AS kinds, in index-assignment order.
TIER1 = "tier1"
TIER2 = "tier2"
CONTENT = "content"
STUB = "stub"
AS_KINDS = (TIER1, TIER2, CONTENT, STUB)

#: Routers each AS kind exports NetFlow from.
ROUTERS_PER_KIND = {TIER1: 4, TIER2: 2, CONTENT: 1, STUB: 1}

#: First ASN assigned (the 16-bit private range).
BASE_ASN = 64512

#: Largest AS index representable in the ``10.hi.lo.host`` address plan.
MAX_ASES = 65536


def as_address(index: int, host: int) -> str:
    """The deterministic ``10.x.y.z`` address of a host inside one AS.

    Each AS index owns the ``10.(index >> 8).(index & 255).0/24`` prefix,
    so an address maps back to its AS with :func:`index_for_address` —
    the distance/region heuristics the measure chain needs.
    """
    if not 0 <= index < MAX_ASES:
        raise DataError(f"AS index {index} outside the /24 address plan")
    if not 0 <= host <= 255:
        raise DataError(f"host byte {host} out of range")
    return f"10.{(index >> 8) & 0xFF}.{index & 0xFF}.{host}"


def index_for_address(address: str) -> int:
    """Recover the AS index an :func:`as_address` belongs to."""
    parts = address.split(".")
    if len(parts) != 4 or parts[0] != "10":
        raise DataError(f"{address!r} is not an ecosystem 10.x.y.z address")
    try:
        hi, lo = int(parts[1]), int(parts[2])
    except ValueError:
        raise DataError(f"{address!r} is not an ecosystem address") from None
    return (hi << 8) | lo


@dataclasses.dataclass(frozen=True)
class AutonomousSystem:
    """One AS: number, kind, and its geographic footprint.

    Attributes:
        index: Dense 0-based index (row/column in the routing matrices).
        asn: AS number (``BASE_ASN + index``).
        kind: One of :data:`AS_KINDS`.
        cities: Presence cities, home city first.
    """

    index: int
    asn: int
    kind: str
    cities: "tuple[City, ...]"

    def __post_init__(self) -> None:
        if self.kind not in AS_KINDS:
            raise DataError(
                f"unknown AS kind {self.kind!r}; expected one of {AS_KINDS}"
            )
        if not self.cities:
            raise DataError(f"AS {self.asn} needs at least one city")

    @property
    def name(self) -> str:
        return f"as{self.asn}"

    @property
    def home(self) -> City:
        return self.cities[0]

    @property
    def routers(self) -> "tuple[str, ...]":
        return tuple(
            f"{self.name}-r{i}" for i in range(ROUTERS_PER_KIND[self.kind])
        )

    def address(self, host: int) -> str:
        return as_address(self.index, host)


class Ecosystem:
    """A rendered multi-AS world.

    Populated layer by layer: :class:`Base` fills ``ases``/``ixps``,
    ``Relationships`` the edge arrays, ``Routing`` the ``tables``, and
    ``Traffic`` the ``traffic`` model.  After ``render()`` returns the
    object is treated as immutable.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.spec = None  # set by spec.render_ecosystem
        self.ases: "tuple[AutonomousSystem, ...]" = ()
        self.ixps: tuple = ()
        #: (E, 2) int32 rows of (customer index, provider index).
        self.up_edges = np.empty((0, 2), dtype=np.int32)
        #: (P, 2) int32 rows of (a, b) with a < b.
        self.peer_edges = np.empty((0, 2), dtype=np.int32)
        self.tables = None  # RoutingTables, set by the Routing layer
        self.traffic = None  # TrafficModel, set by the Traffic layer
        self._by_asn: dict = {}
        self._up_set: set = set()
        self._peer_set: set = set()

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def _adopt_ases(self, ases: "list[AutonomousSystem]") -> None:
        self.ases = tuple(ases)
        self._by_asn = {a.asn: a for a in self.ases}

    def _adopt_edges(
        self, up_edges: np.ndarray, peer_edges: np.ndarray
    ) -> None:
        self.up_edges = up_edges
        self.peer_edges = peer_edges
        self._up_set = {(int(c), int(p)) for c, p in up_edges}
        self._peer_set = set()
        for a, b in peer_edges:
            self._peer_set.add((int(a), int(b)))
            self._peer_set.add((int(b), int(a)))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def n_ases(self) -> int:
        return len(self.ases)

    def as_by_asn(self, asn: int) -> AutonomousSystem:
        try:
            return self._by_asn[asn]
        except KeyError as exc:
            raise TopologyError(f"no AS {asn} in this ecosystem") from exc

    def ases_of_kind(self, kind: str) -> "list[AutonomousSystem]":
        if kind not in AS_KINDS:
            raise DataError(
                f"unknown AS kind {kind!r}; expected one of {AS_KINDS}"
            )
        return [a for a in self.ases if a.kind == kind]

    def relationship(self, a: int, b: int) -> "str | None":
        """Edge class between two AS indices: up/down/peer, or ``None``.

        ``"up"`` means ``a`` is a customer of ``b`` (traffic from ``a``
        to ``b`` climbs the hierarchy); ``"down"`` the reverse.
        """
        if (a, b) in self._up_set:
            return "up"
        if (b, a) in self._up_set:
            return "down"
        if (a, b) in self._peer_set:
            return "peer"
        return None

    def router_names(self) -> "list[str]":
        """Every router in the world, in deterministic AS-index order."""
        return [r for a in self.ases for r in a.routers]

    def engine_map(self):
        """The NetFlow engine mapping covering every router."""
        from repro.netflow.codec import EngineMap

        return EngineMap(self.router_names())

    # ------------------------------------------------------------------
    # Traffic delegation (filled in by the Traffic layer)
    # ------------------------------------------------------------------

    def _traffic_model(self):
        if self.traffic is None:
            raise TopologyError(
                "ecosystem has no traffic model; add a Traffic layer"
            )
        return self.traffic

    def flow_table_for(self, asn: int):
        """The AS's deterministic per-destination :class:`FlowTable`."""
        return self._traffic_model().flow_table(self, self.as_by_asn(asn).index)

    def netflow_records_for(self, asn: int) -> list:
        """The AS's NetFlow v5 export of its flow table."""
        return self._traffic_model().netflow_records(
            self, self.as_by_asn(asn).index
        )

    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Deterministic shape/route statistics (the CLI report)."""
        counts = {kind: len(self.ases_of_kind(kind)) for kind in AS_KINDS}
        out = {
            "ases": self.n_ases,
            "kinds": counts,
            "ixps": len(self.ixps),
            "up_edges": int(self.up_edges.shape[0]),
            "peer_edges": int(self.peer_edges.shape[0]),
            "routers": len(self.router_names()),
        }
        if self.tables is not None:
            out["routing"] = self.tables.summary()
        return out


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------


class Layer:
    """One composable build step; subclasses fill in a slice of the world."""

    #: Unique layer name (dependency vocabulary).
    name = "layer"
    #: Names of layers that must render before this one.
    requires: "tuple[str, ...]" = ()

    def render(self, eco: Ecosystem, rng: np.random.Generator) -> None:
        raise NotImplementedError


def _layer_seed(seed: int, position: int, name: str) -> np.random.SeedSequence:
    """Each layer draws from its own stream: one world seed, no coupling."""
    name_code = sum(ord(ch) * (31**i) for i, ch in enumerate(name)) % (2**31)
    return np.random.SeedSequence(entropy=(seed, position, name_code))


def _city_pool() -> "tuple[City, ...]":
    """The full gazetteer, deduplicated by key, in stable order."""
    pool: "dict[str, City]" = {}
    for table in (WORLD_CITIES, EUROPEAN_CITIES, US_RESEARCH_CITIES):
        for city in table:
            pool.setdefault(city.key, city)
    return tuple(pool.values())


#: Presence-city count by kind: (minimum, maximum) inclusive.
_CITIES_PER_KIND = {TIER1: (4, 7), TIER2: (2, 4), CONTENT: (2, 4), STUB: (1, 1)}


class Base(Layer):
    """The AS population and IXP sites.

    Args:
        n_tier1: Transit-free backbone ASes (full peering clique).
        n_tier2: Regional transit ASes.
        n_stub: Single-homed or dual-homed edge ASes.
        n_content: Content/CDN ASes (traffic-heavy, peer aggressively).
        n_ixps: Internet-exchange sites, placed in the most popular
            presence cities.
    """

    name = "base"

    def __init__(
        self,
        n_tier1: int = 4,
        n_tier2: int = 12,
        n_stub: int = 30,
        n_content: int = 4,
        n_ixps: int = 3,
    ) -> None:
        for label, value in (
            ("n_tier1", n_tier1),
            ("n_tier2", n_tier2),
            ("n_stub", n_stub),
            ("n_content", n_content),
            ("n_ixps", n_ixps),
        ):
            if value < 0:
                raise DataError(f"{label} must be >= 0, got {value}")
        if n_tier1 < 1:
            raise DataError("need at least one tier-1 AS")
        total = n_tier1 + n_tier2 + n_stub + n_content
        if total > MAX_ASES:
            raise DataError(
                f"{total} ASes exceed the address plan's {MAX_ASES}"
            )
        self.n_tier1 = n_tier1
        self.n_tier2 = n_tier2
        self.n_stub = n_stub
        self.n_content = n_content
        self.n_ixps = n_ixps

    def render(self, eco: Ecosystem, rng: np.random.Generator) -> None:
        pool = _city_pool()
        counts = (
            (TIER1, self.n_tier1),
            (TIER2, self.n_tier2),
            (CONTENT, self.n_content),
            (STUB, self.n_stub),
        )
        ases: "list[AutonomousSystem]" = []
        index = 0
        for kind, count in counts:
            lo, hi = _CITIES_PER_KIND[kind]
            for _ in range(count):
                n_cities = min(len(pool), int(rng.integers(lo, hi + 1)))
                picks = rng.choice(len(pool), size=n_cities, replace=False)
                cities = tuple(pool[int(i)] for i in picks)
                ases.append(
                    AutonomousSystem(
                        index=index,
                        asn=BASE_ASN + index,
                        kind=kind,
                        cities=cities,
                    )
                )
                index += 1
        eco._adopt_ases(ases)

        # IXPs go where the presence mass is: rank cities by how many
        # ASes touch them (ties broken by key for determinism).
        from repro.topology.ixp import IXP

        popularity: "dict[str, int]" = {}
        by_key = {c.key: c for c in pool}
        for a in ases:
            for city in a.cities:
                popularity[city.key] = popularity.get(city.key, 0) + 1
        ranked = sorted(popularity, key=lambda k: (-popularity[k], k))
        sites = ranked[: self.n_ixps]
        eco.ixps = tuple(
            IXP(name=f"ix{i}-{key}", city=by_key[key])
            for i, key in enumerate(sites)
        )
        METRICS.incr("ecosystem.ases", len(ases))


class EcosystemBuilder:
    """Composes layers into a world (the seed-emulator builder idiom)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._layers: "list[Layer]" = []

    def add_layer(self, layer: Layer) -> "EcosystemBuilder":
        """Append a layer; names must be unique.  Returns ``self``."""
        if any(existing.name == layer.name for existing in self._layers):
            raise DataError(f"duplicate layer {layer.name!r}")
        self._layers.append(layer)
        return self

    def render(self) -> Ecosystem:
        """Apply the layers in order; dependencies are checked by name."""
        from repro import obs

        if not self._layers:
            raise DataError("no layers to render")
        eco = Ecosystem(seed=self.seed)
        seen: "set[str]" = set()
        for position, layer in enumerate(self._layers):
            missing = [req for req in layer.requires if req not in seen]
            if missing:
                raise DataError(
                    f"layer {layer.name!r} requires {missing} to render "
                    f"first; have {sorted(seen)}"
                )
            rng = np.random.default_rng(
                _layer_seed(self.seed, position, layer.name)
            )
            with obs.span(f"ecosystem.{layer.name}", seed=self.seed):
                layer.render(eco, rng)
            seen.add(layer.name)
        return eco
