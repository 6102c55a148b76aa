"""The system-under-test driver: one fresh process per measured run.

The orchestrator (``run.py``) starts this with ``PYTHONPATH=src`` and
talks to it over stdin/stdout, one JSON object per line:

1. set-up — import the chain, build the pipeline and mechanism, fork the
   fleet's one shard and bind the front door — then ``{"ready": t}``,
   where ``t`` is ``time.perf_counter()`` (CLOCK_MONOTONIC, shared with
   the orchestrator, which stamped the spawn);
2. with ``--setup-only``, tear down and exit;
3. otherwise the stream phase: whole passes over the cached packet file,
   each through a fresh ``V5PacketSource`` -> ``StreamingPipeline`` with
   every publication cut over on the fleet, until ``--stream-seconds``
   have passed; then ``{"stream": ...}``;
4. ``quote`` starts the quote phase: the current snapshot is re-published
   every ``cutover_ms`` as a full cutover (each ack stamped) until
   ``stop``; then teardown and ``{"result": ...}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import signal
import statistics
import struct
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_LEN = struct.Struct(">H")
clock = time.perf_counter
#: Fewest stream passes per run: one 100-window pass is too little work
#: for steady stream figures on a host whose speed drifts (NOTES.md).
MIN_PASSES = 2
#: The CPUs the driver was started with, before pinning narrows them.
CPUS = sorted(os.sched_getaffinity(0))


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class PacketFeed:
    """Streams the cached packet file and stamps window-closing packets.

    ``handover[end_ms]`` is when the packet carrying the first record past
    window ``end_ms`` was handed to the source, ``first`` when the first
    packet was.  Before each such packet is handed over, a calibration
    slice is timed (:mod:`speed`): ``slices`` holds their times in order,
    ``marks`` when each began and when its packet was handed over, and
    ``slice_of[end_ms]`` the slice before window ``end_ms`` closed.
    Packets are read one at a time, so the input's bytes never sit in
    the driver's memory.
    """

    def __init__(self, path: pathlib.Path, boundaries: list) -> None:
        self.path = path
        self._closing: "dict[int, list[int]]" = {}
        for end_ms, index in boundaries:
            self._closing.setdefault(int(index), []).append(int(end_ms))
        self.handover: "dict[int, float]" = {}
        self.first: "float | None" = None
        self.slices: "list[float]" = []
        self.marks: "list[tuple[float, float]]" = []
        self.slice_of: "dict[int, int]" = {}

    def __iter__(self):
        closing = self._closing
        with self.path.open("rb") as f:
            read = f.read
            index = 0
            self.first = clock()
            while True:
                head = read(2)
                if not head:
                    return
                packet = read(_LEN.unpack(head)[0])
                ends = closing.get(index)
                if ends is not None:
                    began = clock()
                    self.slices.append(speed.slice_s())
                    now = clock()
                    self.marks.append((began, now))
                    for end_ms in ends:
                        self.handover[end_ms] = now
                        self.slice_of[end_ms] = len(self.slices) - 1
                index += 1
                yield packet

    def walls(self, end: float) -> "tuple[float, float]":
        """``(raw, scaled)`` seconds from the first packet to ``end``,
        without the calibration slices.  Each stretch between two slices
        is scaled by the slices on either side of it; the last one by the
        last slice and one more, timed after ``end``."""
        self.slices.append(speed.slice_s())
        raw = scaled = 0.0
        start = self.first
        for i, (began, handed) in enumerate([*self.marks, (end, end)]):
            stretch = began - start
            raw += stretch
            scaled += stretch * speed.scale(self.slices[max(0, i - 1) : i + 1])
            start = handed
        return raw, scaled


class Ledger(list):
    """``pipeline.results`` that stamps when each window was recorded."""

    def __init__(self, on_append=None) -> None:
        super().__init__()
        self.times: "list[float]" = []
        self._on_append = on_append

    def append(self, result) -> None:
        super().append(result)
        self.times.append(clock())
        if self._on_append is not None:
            self._on_append()


def pin() -> None:
    """Pin the system under test to one CPU (the last): the driver, and
    the shard it forks, which inherits the driver's CPU.  The load
    generator has the other CPU to itself.  No-op on a one-CPU machine."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, {CPUS[-1]})


def _vm_hwm_kb(pid="self") -> int:
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def ledger_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(repr(tuple(vars(r).values())).encode("utf-8"))
    return h.hexdigest()


class Chain:
    """The assembled chain for one workload and its cached input."""

    def __init__(self, workload: str, packets: pathlib.Path, meta: dict, probes=None) -> None:
        import asyncio

        from repro.config import FleetConfig, StreamConfig
        from repro.core.ced import CEDDemand
        from repro.core.cost import LinearDistanceCost
        from repro.fleet import FrontDoor, ShardFleet
        from repro.mechanisms import mechanism_by_name
        from repro.netflow.codec import EngineMap

        self.workload = WORKLOADS[workload]
        self.packets = packets
        self.meta = meta
        self.probes = probes
        self.engines = EngineMap(meta["engines"])
        self.demand_model = CEDDemand(1.1)
        self.cost_model = LinearDistanceCost(0.2)
        self.config = StreamConfig(window_ms=self.workload.window_ms, checkpoint_every=1 << 30)
        self.mechanism = None
        if self.workload.mechanism != "posted-tiers":
            self.mechanism = mechanism_by_name(
                self.workload.mechanism, n_tiers=self.config.n_tiers
            )
        self.fleet = ShardFleet(
            self.cost_model,
            FleetConfig(shards=1),
            fallback_blended_rate=self.config.blended_rate,
        ).start()
        self.snapshot = None
        self.acks: "list[list]" = []
        self.loop = (
            asyncio.SelectorEventLoop(probes.selector())
            if probes is not None
            else asyncio.new_event_loop()
        )
        self._loop_thread = threading.Thread(
            target=self.loop.run_forever, name="front-door", daemon=True
        )
        self._loop_thread.start()
        self.door = FrontDoor(self.fleet)
        asyncio.run_coroutine_threadsafe(self.door.start(), self.loop).result()
        # The first pass's pipeline is part of set-up.
        self._next = self._build_pass()

    def _build_pass(self):
        from repro.serve.snapshot import PricingSnapshot
        from repro.stream import StreamingPipeline, V5PacketSource

        distances = self.meta["distances"]
        feed = PacketFeed(self.packets, self.meta["boundaries"])
        packets = feed if self.probes is None else self.probes.timed_feed(feed)
        source = V5PacketSource(packets, self.engines)
        pipeline = StreamingPipeline(
            source,
            distance_fn=lambda key: distances[key.dst_addr],
            demand_model=self.demand_model,
            cost_model=self.cost_model,
            config=self.config,
            mechanism=self.mechanism,
        )
        pipeline.results = Ledger(None if self.probes is None else self.probes.flush)
        in_force: "dict[int, float]" = {}
        digest = pipeline.config_digest

        def on_publication(publication) -> None:
            self.snapshot = self.fleet.publish(
                PricingSnapshot.from_publication(
                    publication, version=self.fleet.version + 1, config_digest=digest
                )
            )
            in_force[publication.window_end_ms] = clock()

        pipeline.repricer.subscribe(on_publication)
        return feed, source, pipeline, in_force

    def _run_pass(self) -> dict:
        feed, source, pipeline, in_force = self._next
        self._next = None
        scope = self.probes.stream_pass() if self.probes else contextlib.nullcontext()
        with scope:
            report = pipeline.run()
        ledger = pipeline.results
        raw_wall, scaled_wall = feed.walls(ledger.times[-1])
        latencies, scaled = [], []
        for result, recorded in zip(ledger, ledger.times):
            handed = feed.handover.get(result.end_ms)
            if handed is not None:  # None: closed by the end-of-stream flush
                ms = (in_force.get(result.end_ms, recorded) - handed) * 1000.0
                at = feed.slice_of[result.end_ms]
                latencies.append(ms)
                scaled.append(ms * speed.scale(feed.slices[at : at + 2]))
        statuses = [r.status for r in report.results]
        return {
            "wall_s": raw_wall,
            "scaled_wall_s": scaled_wall,
            "slice_ms": statistics.median(feed.slices) * 1000.0,
            "records": report.records_consumed,
            "packets": source.packets_decoded,
            "windows": len(report.results),
            "priced": statuses.count("priced"),
            "skipped": statuses.count("skipped"),
            "retier": report.retier_events,
            "published": len(in_force),
            "queue_dropped": report.queue_dropped,
            "queue_blocked": report.queue_blocked,
            "late_dropped": report.late_dropped,
            "reprice_ms": latencies,
            "scaled_reprice_ms": scaled,
            "ledger_digest": ledger_digest(report.results),
            "design": report.design,
        }

    def stream(self, seconds: float) -> dict:
        """Whole passes filling about ``seconds`` of stream wall-clock
        (as many as the first pass's length fits, at least
        ``MIN_PASSES``)."""
        passes = [self._run_pass()]
        for _ in range(max(MIN_PASSES, round(seconds / passes[0]["wall_s"])) - 1):
            self._next = self._build_pass()
            passes.append(self._run_pass())
        design = passes[-1].pop("design")
        for p in passes[:-1]:
            p.pop("design")
        return {
            "passes": passes,
            "snapshot_digest": self.snapshot.digest,
            "design": {
                "blended": float(self.snapshot.blended_rate),
                "rates": {
                    dst: float(design.rates[tier])
                    for dst, tier in design.tier_of_destination.items()
                },
            },
        }

    def republish(self, stop: threading.Event) -> None:
        """Re-publish the current snapshot on the cadence until ``stop``."""
        period = self.workload.cutover_ms / 1000.0
        deadline = clock()
        scope = self.probes.cutover_span() if self.probes else contextlib.nullcontext()
        with scope:
            while True:
                deadline += period
                if stop.wait(max(0.0, deadline - clock())):
                    return
                published = self.fleet.publish(self.snapshot)
                self.acks.append([published.version, clock()])

    def close(self) -> dict:
        import asyncio

        shard_pid = self.fleet.pids()[0]
        rss_kb = _vm_hwm_kb() + (_vm_hwm_kb(shard_pid) if shard_pid else 0)
        asyncio.run_coroutine_threadsafe(self.door.stop(), self.loop).result()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._loop_thread.join()
        self.loop.close()
        self.fleet.stop()
        return {"peak_rss_mb": rss_kb / 1024.0, "shed": self.door.shed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pipebench system driver")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--packets", type=pathlib.Path, required=True)
    parser.add_argument("--meta", type=pathlib.Path, required=True)
    parser.add_argument("--stream-seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    # Exit through the interpreter on SIGTERM, so the fleet's exit
    # handlers unlink the shared memory segments it published.  The
    # forked shard inherits this handler; it keeps the default action.
    driver_pid = os.getpid()

    def on_sigterm(*_) -> None:
        if os.getpid() != driver_pid:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
        sys.exit(143)

    signal.signal(signal.SIGTERM, on_sigterm)
    meta = json.loads(args.meta.read_text(encoding="utf-8"))
    pin()

    probes = None
    if args.trace is not None:
        import layers

        probes = layers.Probes(args.trace)
    chain = Chain(args.workload, args.packets, meta, probes)
    import numpy

    emit(
        {
            "ready": clock(),
            "port": chain.door.port,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
    )
    if args.setup_only:
        chain.close()
        return 0

    stream = chain.stream(args.stream_seconds)
    emit({"stream": stream})
    commands = (line.strip() for line in sys.stdin)
    if next(commands, "stop") != "quote":
        chain.close()
        return 1
    stop = threading.Event()
    phase = probes.quote_phase() if probes else contextlib.nullcontext()
    with phase:
        publisher = None
        if chain.workload.cutover_ms:
            publisher = threading.Thread(target=chain.republish, args=(stop,))
            publisher.start()
        for command in commands:
            if command == "stop":
                break
        stop.set()
        if publisher is not None:
            publisher.join()
    result = chain.close()
    result["acks"] = chain.acks
    if probes is not None:
        import layers

        quote = probes.finish(chain.fleet.config.max_batch)
        per_layer, summary = layers.attribute(args.trace)
        per_layer.update({k: v for k, v in quote.items() if k in per_layer})
        passes = stream["passes"]
        per_layer["stream.queue_blocked"] = sum(p["queue_blocked"] for p in passes)
        per_layer["stream.late_dropped"] = sum(p["late_dropped"] for p in passes)
        per_layer["stream.windows_skipped"] = sum(p["skipped"] for p in passes)
        per_layer["stream.adopt_ratio"] = sum(p["retier"] for p in passes) / max(
            1, sum(p["priced"] for p in passes)
        )
        per_layer["fleet.shed"] = chain.door.shed
        result["layers"] = per_layer
        result["unprobed"] = quote["unprobed"]
        result["trace_summary"] = summary
    emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
