"""The benchmark's workloads: traffic shape, pricing mode and load shape.

Stdlib only, so the orchestrator can read it without importing the
system under test.  Every run of every workload drives the same chain

    NetFlow v5 packets -> V5PacketSource -> StreamingPipeline
    -> ShardFleet.publish cutover -> socket FrontDoor quotes

in two phases: a *stream* phase of whole passes over the cached packet
file (records/s in, per-window reprice latency) and a *quote* phase of
closed-loop front-door load (quotes/s out, per-frame latency).  The
workloads differ in which layers each phase exercises; NOTES.md records
why each exists and the traced layer shares that confirm it.
"""

from __future__ import annotations

import dataclasses


#: Size of the generated AS ecosystem; the pricing AS is one of its
#: content ASes and every other AS is a destination AS.
ASES = 201
#: Active-timeout re-export interval of every flow.
EXPORT_MS = 60_000
#: Windows of traffic generated; all but the last close on a record past
#: their end and so yield a latency sample.
WINDOWS = 101
#: Share of ``--seconds`` given to the quote phase.
QUOTE_SHARE = 0.35
#: Slices of the quote phase; the loop drains and the host's speed is
#: timed between them (``speed``).
QUOTE_SLICES = 20
#: Closed-loop depth of the load generator.
FRAMES_IN_FLIGHT = 4
#: Quotes per request frame.
FRAME_SIZE = 64
#: Share of quotes toward destinations the design does not price.
UNKNOWN_SHARE = 0.15


@dataclasses.dataclass(frozen=True)
class Workload:
    """What sets one workload apart (the seed picks the world inside it).

    Attributes:
        name: Workload name, as passed to ``--workload``.
        hosts_per_as: Destination addresses per destination AS.
        tuples_per_dst: 5-tuples toward each destination address.
        routers: Routers exporting every flow (1 = the content AS's own
            router, 2 = that router plus its first transit provider's).
        window_ms: Tumbling window length of the stream.
        mechanism: ``posted-tiers`` (the legacy repricer path) or a
            re-clearing mechanism name from ``repro.mechanisms``.
        cutover_ms: Cadence at which the quote phase re-publishes the
            current snapshot as a full fleet cutover (0: read-only).
    """

    name: str
    hosts_per_as: int
    tuples_per_dst: int
    routers: int
    window_ms: int
    mechanism: str
    cutover_ms: int


WORKLOADS = {
    w.name: w
    for w in (
        # The heavy wire side: ~200 destinations x 2 5-tuples, each
        # exported by two routers every minute into 5-minute windows
        # (about 4,000 records per window, 10 per deduplicated flow).
        # Stationary demand under posted tiers, so the drift gate holds
        # after the first design and design/snapshot/fleet barely run;
        # its quote phase is read-only.
        Workload(
            name="ingest",
            hosts_per_as=1,
            tuples_per_dst=2,
            routers=2,
            window_ms=300_000,
            mechanism="posted-tiers",
            cutover_ms=0,
        ),
        # The heavy design/publish side: ~2,000 destinations with one
        # record each per 1-minute window under the hybrid mechanism,
        # which re-clears and publishes (snapshot build + fleet
        # cutover) on every priced window.  Its quote phase quotes the
        # 2,000-destination snapshot with a full cutover every 250 ms,
        # so the fleet's writes also run beside its reads.
        Workload(
            name="reclear",
            hosts_per_as=10,
            tuples_per_dst=1,
            routers=1,
            window_ms=60_000,
            mechanism="hybrid",
            cutover_ms=250,
        ),
    )
}

#: The hold-out seed a claimed gain must also hold on; the benchmark's
#: own tuning used seeds 1-10 and never this one.
HOLDOUT_SEED = 1009
