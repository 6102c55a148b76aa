"""Shard worker processes and the fleet coordinator.

Topology: one coordinator (this process) owns the shared-memory
segments and ``N`` forked shard workers, each running the *existing*
:class:`~repro.serve.engine.QuoteEngine` against its attached segment.
Requests route by destination hash (:func:`shard_of`), so a given
destination is always priced by the same shard — cache-friendly and
deterministic.

Per-shard transport is one duplex pipe driven strictly
request/reply under a per-shard lock, which buys three guarantees
cheaply:

* replies can never interleave (no correlation bookkeeping);
* a cutover ack returned ⇒ every later reply on that pipe was priced on
  the new segment (the stale-quote proof the cutover test leans on);
* a shard holding its lock is *busy*, so the watchdog only pings idle
  shards and liveness never competes with traffic.

Failure handling: any pipe error or round-trip timeout declares the
shard dead — its in-flight batch resolves to degraded blended-rate
quotes (reason ``"shard crashed"``), the process is killed if still
alive (a wedged worker could otherwise answer a *later* request with a
stale reply), and the watchdog respawns a fresh worker attached to the
current segment version within about one heartbeat.

Cutover: :meth:`ShardFleet.publish` freezes the new design into a new
segment version, flips shards **one at a time** (each worker attaches
the new segment, drops its old attachment, then acks), and unlinks the
old segment only after every reader has detached.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import zlib
from typing import Optional

from repro import obs
from repro.config import FleetConfig
from repro.core.cost import CostModel
from repro.obs import METRICS
from repro.serve.engine import QuoteEngine, RequestColumns, degraded_columns
from repro.serve.registry import SnapshotRegistry
from repro.serve.snapshot import PricingSnapshot
from repro.fleet.shm import AttachedSnapshot, SharedSnapshot
from repro.stream.repricer import DesignPublication

#: How long a cutover/stop handshake may take before the shard is
#: declared wedged (generous: attach is milliseconds).
_HANDSHAKE_TIMEOUT_S = 30.0


def shard_of(dst: "Optional[str]", n_shards: int) -> int:
    """Stable destination→shard routing (``None`` routes to shard 0).

    crc32 rather than ``hash()``: stable across processes and runs
    (``PYTHONHASHSEED`` randomizes ``str.__hash__``), cheap, and
    uniform enough for address-shaped keys.
    """
    if n_shards <= 1 or dst is None:
        return 0
    return zlib.crc32(dst.encode("utf-8")) % n_shards


# ----------------------------------------------------------------------
# Worker side (runs in the forked shard process)
# ----------------------------------------------------------------------


def _shard_main(
    shard_id: int,
    conn,
    cost_model: CostModel,
    fallback_blended_rate: float,
    segment: "Optional[str]",
) -> None:
    """One shard worker: attach, price, repeat until told to stop."""
    # The fork may have captured another coordinator thread mid-critical-
    # section; re-initializing the registry replaces any held lock with a
    # fresh one and gives this worker its own counters (shipped back to
    # the coordinator in the stop handshake).  Tracing stays off in
    # workers — spans don't survive a pipe built for quote rows.
    METRICS.__init__()
    obs.set_tracer(obs.NoopTracer())

    registry = SnapshotRegistry()
    engine = QuoteEngine(
        registry, cost_model, fallback_blended_rate=fallback_blended_rate
    )
    attached: "Optional[AttachedSnapshot]" = None

    def _attach(name: str) -> int:
        nonlocal attached
        fresh = AttachedSnapshot(name)
        registry.adopt(fresh.snapshot)
        previous, attached = attached, fresh
        if previous is not None:
            # Detach *before* acking, so the coordinator's "every reader
            # detached" precondition for unlinking the old segment is
            # true the moment the ack arrives.
            previous.close()
        return fresh.version

    try:
        if segment is not None:
            _attach(segment)
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "quotec":
                _, batch_id, *columns = message
                payload = engine.quote_columns(*columns)
                conn.send(("quotesc", batch_id, payload, registry.version))
            elif op == "attach":
                conn.send(("attached", _attach(message[1]), os.getpid()))
            elif op == "ping":
                conn.send(("pong", os.getpid(), registry.version))
            elif op == "stop":
                conn.send(("stopped", os.getpid(), METRICS.snapshot()))
                break
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown op {op!r}"))
    finally:
        if attached is not None:
            attached.close()
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class _Shard:
    """One worker process plus its pipe, lock, and liveness flag."""

    __slots__ = ("index", "process", "conn", "lock", "pid", "dead")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.pid = process.pid
        self.dead = False


class ShardFleet:
    """Coordinator for N shard workers over shared snapshot segments.

    Args:
        cost_model: The delivery-cost model every shard's engine quotes
            with (must match the published designs' calibration).
        config: The fleet's :class:`~repro.config.FleetConfig` (``None``
            resolves one from the environment/defaults).
        fallback_blended_rate: ``P0`` for degraded quotes before the
            first publication.
    """

    def __init__(
        self,
        cost_model: CostModel,
        config: "Optional[FleetConfig]" = None,
        *,
        fallback_blended_rate: float = 20.0,
    ) -> None:
        self.config = config or FleetConfig.resolve()
        self.n_shards = self.config.shard_count()
        self.cost_model = cost_model
        self.fallback_blended_rate = float(fallback_blended_rate)
        methods = multiprocessing.get_all_start_methods()
        # fork: workers inherit the already-imported numpy stack instead
        # of re-importing it per respawn.
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._shards: "list[Optional[_Shard]]" = [None] * self.n_shards
        self._segment: "Optional[SharedSnapshot]" = None
        self._snapshot: "Optional[PricingSnapshot]" = None
        self._version = 0
        self._publish_lock = threading.Lock()
        self._respawn_lock = threading.Lock()
        self._batch_counter = 0
        self._batch_lock = threading.Lock()
        self._watchdog: "Optional[threading.Thread]" = None
        self._stop_event = threading.Event()
        self._running = False
        #: Lifetime counters (ints; reads need no lock).
        self.respawns = 0
        self.cutovers = 0
        self.shard_failures = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardFleet":
        if self._running:
            return self
        self._running = True
        self._stop_event.clear()
        for index in range(self.n_shards):
            self._shards[index] = self._spawn(index)
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="fleet-watchdog", daemon=True
        )
        self._watchdog.start()
        return self

    def stop(self) -> None:
        """Stop workers (merging their metrics back) and unlink segments."""
        if not self._running:
            return
        self._running = False
        self._stop_event.set()
        if self._watchdog is not None:
            self._watchdog.join()
            self._watchdog = None
        for shard in self._shards:
            if shard is None:
                continue
            with shard.lock:
                if not shard.dead:
                    try:
                        shard.conn.send(("stop",))
                        reply = self._recv(shard, _HANDSHAKE_TIMEOUT_S)
                        if reply[0] == "stopped":
                            # Fold the worker's counters into ours, so
                            # fleet-wide serve.quotes / serve.degraded
                            # totals survive the processes.
                            METRICS.merge(reply[2])
                    except (EOFError, OSError, TimeoutError):
                        pass
                self._reap(shard)
        self._shards = [None] * self.n_shards
        if self._segment is not None:
            self._segment.unlink()
            self._segment = None

    def __enter__(self) -> "ShardFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    @property
    def version(self) -> int:
        """Version of the segment currently in force (0 before any)."""
        return self._version

    @property
    def snapshot(self) -> "Optional[PricingSnapshot]":
        """The snapshot in force, as versioned here (``None`` before any)."""
        return self._snapshot

    def pids(self) -> "list[Optional[int]]":
        """Current worker pids, by shard index."""
        return [
            None if shard is None else shard.pid for shard in self._shards
        ]

    # ------------------------------------------------------------------
    # Publication / cutover
    # ------------------------------------------------------------------

    def publish(self, snapshot: PricingSnapshot) -> PricingSnapshot:
        """Freeze a snapshot into a new segment and cut the fleet over.

        The fleet assigns the version (monotonic, fleet-wide).  Shards
        flip one at a time — the rest keep answering on the old segment —
        and the old segment is unlinked only after every shard has
        detached from it.  Returns the (re-versioned) snapshot.
        """
        with self._publish_lock:
            version = self._version + 1
            if snapshot.version != version:
                snapshot = dataclasses.replace(snapshot, version=version)
            segment = SharedSnapshot.publish(snapshot)
            previous = self._segment
            self._segment = segment
            self._snapshot = snapshot
            self._version = version
            if self._running:
                with obs.span(
                    "fleet.cutover", version=version, segment=segment.name
                ):
                    for shard in list(self._shards):
                        if shard is not None:
                            self._cutover_shard(shard, segment)
                self.cutovers += 1
                METRICS.incr("fleet.cutovers")
            if previous is not None:
                # Every live shard acked after detaching; crashed shards
                # were reaped (their mappings died with them).  No reader
                # remains, so removal is safe.
                previous.unlink()
        return snapshot

    def subscriber(self, config_digest: str):
        """An ``on_design_published``-shaped callback that publishes here.

        Wire a streaming pipeline straight into the fleet::

            pipeline.repricer.subscribe(
                fleet.subscriber(pipeline.config_digest)
            )

        Every accepted re-tiering then becomes a new segment version and
        a fleet-wide cutover.
        """

        def _on_publication(publication: DesignPublication) -> None:
            self.publish(
                PricingSnapshot.from_publication(
                    publication,
                    version=self._version + 1,
                    config_digest=config_digest,
                )
            )

        return _on_publication

    def _cutover_shard(self, shard: _Shard, segment: SharedSnapshot) -> None:
        with shard.lock:
            if shard.dead:
                return
            try:
                shard.conn.send(("attach", segment.name))
                reply = self._recv(shard, _HANDSHAKE_TIMEOUT_S)
                if reply[0] != "attached" or reply[1] != segment.version:
                    raise OSError(f"bad cutover ack {reply[:2]!r}")
            except (EOFError, OSError, TimeoutError):
                self._declare_dead(shard)

    # ------------------------------------------------------------------
    # Quoting
    # ------------------------------------------------------------------

    def quote_shard(
        self,
        shard_id: int,
        batch: RequestColumns,
        timeout_s: "Optional[float]" = None,
    ) -> dict:
        """Round-trip one batch to one shard (the front door's unit).

        The batch crosses the pipe as its columns; the shard engine's
        :meth:`~repro.serve.engine.QuoteEngine.quote_columns` payload
        (or :meth:`degraded_payload`) comes back, for
        :func:`~repro.serve.engine.quote_rows` to answer from.  Route a
        batch with :func:`shard_of` first: a shard prices any
        destination it is sent.
        """
        if timeout_s is None:
            timeout_s = self.config.timeout_ms / 1000.0
        shard = self._shards[shard_id]
        if shard is None or shard.dead:
            return self.degraded_payload(len(batch), "shard down")
        with self._batch_lock:
            self._batch_counter += 1
            batch_id = self._batch_counter
        with shard.lock:
            if shard.dead:
                return self.degraded_payload(len(batch), "shard down")
            try:
                shard.conn.send(("quotec", batch_id, *batch.as_args()))
                reply = self._recv(shard, timeout_s)
                if reply[0] != "quotesc" or reply[1] != batch_id:
                    raise OSError(f"mismatched reply {reply[:2]!r}")
            except (EOFError, OSError, BrokenPipeError, TimeoutError):
                self._declare_dead(shard)
                return self.degraded_payload(len(batch), "shard crashed")
        METRICS.incr("fleet.batches")
        return reply[2]

    def degraded_payload(self, n: int, reason: str) -> dict:
        """The blended-rate payload for ``n`` requests no shard priced,
        counted in ``fleet.degraded``."""
        METRICS.incr("fleet.degraded", n)
        obs.event("fleet.degraded", reason=reason, requests=n)
        return degraded_columns(
            reason, self._snapshot, self.fallback_blended_rate
        )

    def _recv(self, shard: _Shard, timeout_s: float):
        """``recv`` with a deadline (caller holds the shard lock)."""
        if not shard.conn.poll(timeout_s):
            raise TimeoutError(
                f"shard {shard.index} did not reply within {timeout_s} s"
            )
        return shard.conn.recv()

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def _spawn(self, index: int) -> _Shard:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_main,
            args=(
                index,
                child_conn,
                self.cost_model,
                self.fallback_blended_rate,
                None if self._segment is None else self._segment.name,
            ),
            name=f"quote-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Shard(index, process, parent_conn)

    def _declare_dead(self, shard: _Shard) -> None:
        """Mark a shard unusable (caller holds the shard lock)."""
        if shard.dead:
            return
        shard.dead = True
        self.shard_failures += 1
        METRICS.incr("fleet.shard_failures")
        obs.event("fleet.shard_failure", shard=shard.index, pid=shard.pid)

    def _reap(self, shard: _Shard) -> None:
        """Kill (if needed) and clean up one worker process."""
        try:
            shard.conn.close()
        except OSError:
            pass
        if shard.process.is_alive():
            shard.process.terminate()
        shard.process.join(timeout=5.0)
        if shard.process.is_alive():  # pragma: no cover - last resort
            shard.process.kill()
            shard.process.join(timeout=5.0)
        shard.process.close()

    def _respawn(self, index: int, expected: _Shard) -> None:
        """Replace a dead worker (idempotent via the identity check)."""
        with self._respawn_lock:
            if not self._running or self._shards[index] is not expected:
                return
            with expected.lock:
                expected.dead = True
                self._reap(expected)
                # The replacement attaches the *current* segment on its
                # way up (the name is passed to _shard_main), so a
                # respawned shard can never answer from a stale design.
                self._shards[index] = self._spawn(index)
            self.respawns += 1
            METRICS.incr("fleet.respawns")
            obs.event(
                "fleet.respawn",
                shard=index,
                pid=self._shards[index].pid,
            )

    def _watchdog_loop(self) -> None:
        interval_s = self.config.heartbeat_ms / 1000.0
        while not self._stop_event.wait(interval_s):
            for index in range(self.n_shards):
                shard = self._shards[index]
                if shard is None:
                    continue
                if shard.dead or not shard.process.is_alive():
                    self._respawn(index, shard)
                    continue
                # Only ping idle shards: a held lock means a quote (or
                # cutover) round-trip is mid-flight, which is liveness
                # evidence in itself.
                if shard.lock.acquire(blocking=False):
                    try:
                        shard.conn.send(("ping",))
                        reply = self._recv(shard, interval_s * 10 + 1.0)
                        if reply[0] != "pong":
                            raise OSError(f"bad pong {reply[:1]!r}")
                    except (EOFError, OSError, TimeoutError):
                        self._declare_dead(shard)
                    finally:
                        shard.lock.release()

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Operational snapshot: topology, liveness, cutover counters."""
        return {
            "shards": self.n_shards,
            "pids": self.pids(),
            "version": self._version,
            "segment": None if self._segment is None else self._segment.name,
            "cutovers": self.cutovers,
            "respawns": self.respawns,
            "shard_failures": self.shard_failures,
            "batches": METRICS.counter("fleet.batches"),
            "degraded": METRICS.counter("fleet.degraded"),
        }
