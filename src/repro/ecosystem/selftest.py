"""``python -m repro ecosystem --selftest``: the world, checked.

Only the command imports this module; the package does not.
"""

from __future__ import annotations

import json

from repro.config import MechanismConfig
from repro.ecosystem.base import STUB, TIER2, Ecosystem
from repro.ecosystem.routing import verify_valley_free
from repro.ecosystem.spec import EcosystemSpec, render_ecosystem
from repro.ecosystem.traffic import (
    as_table1_row,
    design_for_as,
    measured_flowset_for,
)
from repro.errors import DataError


def selftest(
    eco: Ecosystem,
    spec: EcosystemSpec,
    mechanism: MechanismConfig,
    n_tiers: int,
) -> "list[str]":
    """Check that ``eco``'s sampled paths are valley-free, that ``spec``
    rebuilds it byte for byte and that the NetFlow v5 wire leaves demands
    exact, then design ``n_tiers`` tiers under ``mechanism`` for one stub
    and one tier-2 AS.  One line per check and design, or a DataError."""
    checked = verify_valley_free(eco)
    lines = [f"selftest: {checked} paths valley-free"]
    rebuilt = render_ecosystem(spec)
    identical = (
        eco.up_edges.tobytes() == rebuilt.up_edges.tobytes()
        and eco.peer_edges.tobytes() == rebuilt.peer_edges.tobytes()
        and eco.tables.path_len.tobytes() == rebuilt.tables.path_len.tobytes()
        and eco.tables.next_hop.tobytes() == rebuilt.tables.next_hop.tobytes()
    )
    if not identical:
        raise DataError("rebuild of the same spec diverged")
    lines.append("selftest: rebuild byte-identical")
    probes = [eco.ases_of_kind(STUB)[0], eco.ases_of_kind(TIER2)[0]]
    wired = measured_flowset_for(eco, probes[0].asn, through_wire=True)
    direct = measured_flowset_for(eco, probes[0].asn, through_wire=False)
    if wired.demands.tobytes() != direct.demands.tobytes():
        raise DataError("NetFlow v5 wire round-trip changed demands")
    lines.append(f"selftest: wire round-trip exact ({len(wired)} flows)")
    built = mechanism.build(n_tiers=n_tiers)
    for probe in probes:
        design = design_for_as(
            eco, probe.asn, n_tiers=n_tiers, mechanism=built
        )
        lines.append(
            f"design {probe.name}: " + json.dumps(design, sort_keys=True)
        )
    lines.append(
        "table1 "
        + json.dumps(as_table1_row(eco, probes[0].asn), sort_keys=True)
    )
    return lines
