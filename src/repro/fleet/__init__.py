"""Quote serving: sharded processes over shared-memory snapshots.

The fleet is the one quote server.  Every quote a caller asks for comes
in through the front door and is priced by a shard process running
:class:`~repro.serve.engine.QuoteEngine`; pricing in process, without a
server, is ``QuoteEngine.quote_batch`` over a
:class:`~repro.serve.registry.SnapshotRegistry`.  The parts:

* :mod:`~repro.fleet.shm` — :class:`SharedSnapshot` freezes a
  :class:`~repro.serve.snapshot.PricingSnapshot` into a versioned,
  named shared-memory segment (``repro-snap-<digest>-v<N>``);
  :class:`AttachedSnapshot` maps it back **lock-free and zero-copy** in
  any process (read-only numpy views straight into the segment).
* :mod:`~repro.fleet.shard` — :class:`ShardFleet`: worker processes
  keyed by destination hash, each running the existing
  :class:`~repro.serve.engine.QuoteEngine` against its attached
  segment, with heartbeat liveness, automatic respawn of crashed
  shards, and one-shard-at-a-time snapshot cutover (old segments are
  unlinked only after every reader detached).
* :mod:`~repro.fleet.frontdoor` — :class:`FrontDoor`: an asyncio socket
  front-end (length-prefixed JSON frames), columnar from the socket to
  the shard and back, that batches each frame's rows per shard behind
  admission queues bounded in rows (drop-oldest shedding, degraded
  blended-rate answers), plus :class:`FleetClient` and the socket load
  generator behind ``python -m repro fleet --selftest``.

Wiring a live stream to a fleet is one line, same shape as the
registry::

    fleet = ShardFleet(cost_model, FleetConfig(shards=4))
    pipeline.repricer.subscribe(fleet.subscriber(pipeline.config_digest))

Every accepted re-tiering then becomes a new segment version and a
fleet-wide cutover, and every quote carries the version that priced it.
"""

from repro.config import FleetConfig
from repro.fleet.frontdoor import (
    FleetClient,
    FleetLoadReport,
    FrontDoor,
    run_socket_load,
)
from repro.fleet.shard import ShardFleet, shard_of
from repro.fleet.shm import (
    AttachedSnapshot,
    SharedSnapshot,
    segment_name,
)

__all__ = [
    "AttachedSnapshot",
    "FleetClient",
    "FleetConfig",
    "FleetLoadReport",
    "FrontDoor",
    "SharedSnapshot",
    "ShardFleet",
    "run_socket_load",
    "segment_name",
    "shard_of",
]
