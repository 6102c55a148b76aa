"""AS-level internet ecosystem generator (multi-AS worlds, end to end).

The package grows seeded miniature internets — tier-1 transit cliques,
regional tier-2s, content networks, stub edge ASes, IXP meshes — routes
them with Gao–Rexford valley-free path selection, and emits per-AS
traffic as flow tables and sampled NetFlow v5, so *every* AS in the
world can run the paper's measure → model → design chain against
emergent (not hand-drawn) demand.

Layered builder idiom::

    from repro.ecosystem import EcosystemSpec, build_ecosystem

    eco = build_ecosystem(EcosystemSpec.from_counts(ases=50, ixps=3))
    eco.tables.summary()            # valley-free routing statistics
    eco.flow_table_for(64512)       # any AS's emergent traffic
"""

from repro.ecosystem.base import (
    AS_KINDS,
    AutonomousSystem,
    BASE_ASN,
    Base,
    CONTENT,
    Ecosystem,
    EcosystemBuilder,
    Layer,
    MAX_ASES,
    STUB,
    TIER1,
    TIER2,
    as_address,
    index_for_address,
)
from repro.ecosystem.pricing import (
    backbone_for,
    composite_key,
    exit_selector_for,
    published_snapshot_for,
    snapshot_tier_price,
    transit_flows_for,
)
from repro.ecosystem.relationships import Relationships
from repro.ecosystem.routing import (
    CLASS_CUSTOMER,
    CLASS_LOCAL,
    CLASS_PEER,
    CLASS_PROVIDER,
    Routing,
    RoutingTables,
    UNREACHABLE,
    compute_routes,
    verify_path_valley_free,
    verify_valley_free,
)
from repro.ecosystem.spec import (
    EcosystemSpec,
    build_ecosystem,
    render_ecosystem,
)
from repro.ecosystem.traffic import (
    Traffic,
    TrafficModel,
    as_table1_row,
    design_for_as,
    measured_flowset_for,
    write_netflow,
)

__all__ = [
    "AS_KINDS",
    "AutonomousSystem",
    "BASE_ASN",
    "Base",
    "CLASS_CUSTOMER",
    "CLASS_LOCAL",
    "CLASS_PEER",
    "CLASS_PROVIDER",
    "CONTENT",
    "Ecosystem",
    "EcosystemBuilder",
    "EcosystemSpec",
    "Layer",
    "MAX_ASES",
    "Relationships",
    "Routing",
    "RoutingTables",
    "STUB",
    "TIER1",
    "TIER2",
    "Traffic",
    "TrafficModel",
    "UNREACHABLE",
    "as_address",
    "as_table1_row",
    "backbone_for",
    "build_ecosystem",
    "composite_key",
    "compute_routes",
    "design_for_as",
    "exit_selector_for",
    "index_for_address",
    "measured_flowset_for",
    "published_snapshot_for",
    "render_ecosystem",
    "snapshot_tier_price",
    "transit_flows_for",
    "verify_path_valley_free",
    "verify_valley_free",
    "write_netflow",
]
