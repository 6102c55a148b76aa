"""``python -m repro fleet``: the fleet's end-to-end self-test.

Only the command imports this module; the package does not.
"""

from __future__ import annotations

import asyncio
import json

from repro.config import FleetConfig
from repro.fleet.frontdoor import FrontDoor, run_socket_load
from repro.fleet.shard import ShardFleet
from repro.serve.loadgen import generate_requests


def selftest(
    pipeline,
    config: FleetConfig,
    *,
    n_requests: int,
    seed: int,
    unknown_fraction: float,
) -> "list[str]":
    """Run ``pipeline`` (built, not yet run) into a fleet, then send it
    ``n_requests`` seeded requests through the socket, republishing
    halfway; every later answer must carry the new version."""
    fleet = ShardFleet(
        pipeline.repricer.cost_model,
        config,
        fallback_blended_rate=pipeline.config.blended_rate,
    )
    pipeline.repricer.subscribe(fleet.subscriber(pipeline.config_digest))
    stream_report = pipeline.run()
    snapshot = fleet.snapshot
    requests = generate_requests(
        n_requests,
        seed=seed,
        snapshot=snapshot,
        unknown_fraction=unknown_fraction,
    )

    async def _load():
        async with FrontDoor(fleet, config) as door:
            half = len(requests) // 2
            first = await run_socket_load(
                door.host, door.port, requests[:half]
            )
            if snapshot is not None:
                fleet.publish(snapshot)
            second = await run_socket_load(
                door.host, door.port, requests[half:]
            )
            return door.port, first, second

    with fleet:
        if snapshot is not None:
            fleet.publish(snapshot)
        port, first, second = asyncio.run(_load())
        stats = fleet.stats()
        pids = [pid for pid in stats["pids"] if pid is not None]
    stale = [v for v in second.versions if v != fleet.version]
    answered = first.answered + second.answered
    wall = first.wall_time_s + second.wall_time_s
    summary = {
        "shards": fleet.n_shards,
        "pids": pids,
        "distinct_pids": len(set(pids)),
        "port": port,
        "answered": answered,
        "priced": first.priced + second.priced,
        "degraded": first.degraded + second.degraded,
        "quotes_per_second": round(answered / max(wall, 1e-9), 1),
        "p99_ms": second.latency_ms.get("p99"),
        "versions": sorted(set(first.versions) | set(second.versions)),
        "cutovers": stats["cutovers"],
        "respawns": stats["respawns"],
        "stale_after_cutover": len(stale),
    }
    return [
        f"stream warm-up: {len(stream_report.results)} windows, "
        f"{stream_report.windows_priced} priced, "
        f"{stream_report.retier_events} re-tier events",
        (
            "active snapshot: none (degraded serving)"
            if snapshot is None
            else f"active {snapshot.describe()}"
        ),
        f"fleet: {fleet.n_shards} shards (pids {pids}), front door on "
        f"port {port}, segment version {fleet.version}",
        first.render(),
        f"-- live cutover to v{fleet.version} --",
        second.render(),
        "fleet-report: " + json.dumps(summary, sort_keys=True),
    ]
