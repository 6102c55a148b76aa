"""The asyncio front door: sockets in, shard batches out.

Wire protocol — :mod:`repro.wire`'s length-prefixed JSON frames, both
directions.  A request frame::

    {"id": 7, "quotes": [{"dst": "10.0.0.1", "volume_mbps": 4.0,
                          "distance_miles": 120.0}, ...]}

is answered (eventually, not necessarily in submission order — frames
are correlated by ``id``) with::

    {"id": 7, "quotes": [{"unit_price": 14.25, "tier": 2, ...}, ...]}

``{"id": N, "op": "stats"}`` returns the fleet's operational snapshot.
A frame that is JSON but not a quote or stats request gets an
``{"id": ..., "error": ...}`` reply, as does a quote frame whose reply
would not fit a frame, and (with ``"id": null``) one whose id holds
``NaN`` or ``Infinity`` or is too long to echo; a quote with a bad field
gets its own ``{"error": ...}`` entry; a length over the bound, or a
body that is not JSON, closes the connection (``fleet.bad_frames``).

Inside, the front door is columnar from the socket to the shard and
back.  One pass over a frame's ``quotes`` checks each row and appends it
to its shard's columns (routed by :func:`~repro.fleet.shard.shard_of`),
so a frame becomes at most one slice per shard, waiting with one
future.  A shard's admission queue holds slices, bounded at
``queue_depth`` rows: an overflow evicts the *oldest* rows (splitting a
slice if it must), answered at once as degraded blended-rate quotes and
counted per row in ``fleet.shed``.  One dispatcher task per shard joins
the slices at its queue's head into a batch of up to ``max_batch`` rows
and round-trips it via :meth:`~repro.fleet.shard.ShardFleet.quote_shard`
on an executor thread, so the loop never blocks on a pipe.  Answers stay
text from there to the socket: :func:`~repro.serve.engine.quote_texts`
writes each row's JSON straight from the shard's payload columns (the
compact ``json.dumps`` of its :func:`~repro.serve.engine.quote_rows`
dict, without building the dict), a bad row's answer is the JSON of its
``{"error": ...}``, and a quote reply's frame joins them under the
frame's ``id``.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.config import FleetConfig
from repro.errors import DataError, ReproError
from repro.obs import METRICS
from repro.serve.engine import (
    REQUEST_DEFAULTS,
    RequestColumns,
    check_request,
    quote_texts,
)
from repro.fleet.shard import ShardFleet, shard_of
from repro.wire import MAX_FRAME_BYTES, encode_frame, read_frame

if TYPE_CHECKING:
    from repro.serve.engine import QuoteRequest

#: The fields a frame's quote objects may carry.
_REQUEST_FIELDS = frozenset(REQUEST_DEFAULTS)


class _Slice:
    """One frame's rows bound for one shard: they queue, split, shed and
    are answered as one unit, with one future.  Row ``j``'s JSON text
    answers ``answers[rows[j]]``; rows ``start:`` are still queued."""

    __slots__ = ("columns", "pinned", "rows", "answers", "start", "pending",
                 "future", "submitted_at")

    def __init__(self, answers: list, future: asyncio.Future) -> None:
        self.columns = RequestColumns([], [], [], [], [])
        self.pinned = False  # some row carries a region or a regime
        self.rows: "list[int]" = []
        self.answers = answers
        self.start = self.pending = 0
        self.future = future
        self.submitted_at = time.perf_counter()

    def answer(self, lo: int, hi: int, texts: "list[str]") -> None:
        """Answer rows ``lo:hi`` with their JSON ``texts``."""
        if self.future.done():  # the frame's task was cancelled
            return
        for at, text in zip(self.rows[lo:hi], texts):
            self.answers[at] = text
        METRICS.observe_latency(
            "fleet.request", time.perf_counter() - self.submitted_at, hi - lo
        )
        self.pending -= hi - lo
        if not self.pending:
            self.future.set_result(None)


def _parse_quotes(raw: list, n_shards: int, new_future) -> tuple:
    """One pass over a frame's ``quotes``: ``(answers, slices by shard,
    bad rows)``, each bad row already answered with its own error's
    JSON."""
    answers: list = [None] * len(raw)
    slices: "dict[int, _Slice]" = {}
    bad = 0
    for i, obj in enumerate(raw):
        try:
            if not isinstance(obj, dict):
                raise DataError(
                    f"quote must be an object, got {type(obj).__name__}"
                )
            if not obj.keys() <= _REQUEST_FIELDS:
                unknown = sorted(obj.keys() - _REQUEST_FIELDS)
                raise DataError(f"unknown quote field(s) {unknown}")
            row = {**REQUEST_DEFAULTS, **obj}
            dst, region, regime = row["dst"], row["region"], row["regime"]
            volume, distance = row["volume_mbps"], row["distance_miles"]
            check_request(dst, volume, distance, region, regime)
        except (ReproError, TypeError) as exc:
            bad += 1
            error = {"error": f"{type(exc).__name__}: {exc}"}
            answers[i] = json.dumps(error, separators=(",", ":"))
            continue
        sid = shard_of(dst, n_shards)
        piece = slices.get(sid)
        if piece is None:
            piece = slices[sid] = _Slice(answers, new_future())
        columns = piece.columns
        columns.dsts.append(dst)
        columns.volumes_mbps.append(volume)
        columns.distances_miles.append(distance)
        columns.regions.append(region)
        columns.regimes.append(regime)
        if region is not None or regime is not None:
            piece.pinned = True
        piece.rows.append(i)
    return answers, slices, bad


class FrontDoor:
    """Asyncio socket front-end over a running :class:`ShardFleet`."""

    def __init__(
        self, fleet: ShardFleet, config: "Optional[FleetConfig]" = None
    ) -> None:
        self.fleet = fleet
        self.config = config or fleet.config
        self.host = self.config.host
        self.port: "Optional[int]" = None  # bound port, known after start
        self._server: "Optional[asyncio.base_events.Server]" = None
        self._pool: "Optional[ThreadPoolExecutor]" = None
        self._queues: "list[collections.deque[_Slice]]" = []
        self._queued: "list[int]" = []  # rows queued, by shard
        self._wakeups: "list[asyncio.Event]" = []
        self._dispatchers: "list[asyncio.Task]" = []
        #: Connection handler -> its writer; ``_reading`` await a frame.
        self._connections: "dict[asyncio.Task, asyncio.StreamWriter]" = {}
        self._reading: "set[asyncio.Task]" = set()
        self._stopping = False
        self.shed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "FrontDoor":
        self._stopping = False
        n = self.fleet.n_shards
        self._pool = ThreadPoolExecutor(
            max_workers=n, thread_name_prefix="fleet-dispatch"
        )
        self._queues = [collections.deque() for _ in range(n)]
        self._queued = [0] * n
        self._wakeups = [asyncio.Event() for _ in range(n)]
        self._dispatchers = [
            asyncio.create_task(
                self._dispatch_loop(sid), name=f"fleet-dispatch-{sid}"
            )
            for sid in range(n)
        ]
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Close the listener and stop reading, then stop the dispatchers:
        requests queued or mid round trip, or admitted later, resolve
        degraded (``"front door stopped"`` — the fleet behind may already
        be stopping).  Each connection then writes the replies to the
        frames it read and is closed (aborted if it cannot flush within
        ``timeout_ms``), never waiting for the client to hang up."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        self._stopping = True
        for handler in self._reading:
            handler.cancel()
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._dispatchers = []
        for sid, queued in enumerate(self._queued):
            if queued:
                self._answer(
                    self._take(sid, queued),
                    self.fleet.degraded_payload(queued, "front door stopped"),
                )
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        while self._connections:
            _, late = await asyncio.wait(
                list(self._connections), timeout=self.config.timeout_ms / 1000
            )
            for handler in late:
                self._connections[handler].transport.abort()
        if server is not None:
            await server.wait_closed()

    async def __aenter__(self) -> "FrontDoor":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        frame_tasks: "set[asyncio.Task]" = set()
        handler = asyncio.current_task()
        self._connections[handler] = writer
        handler.add_done_callback(self._connections.pop)
        try:
            while not self._stopping:
                self._reading.add(handler)
                try:
                    frame = await read_frame(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    break
                except DataError:
                    METRICS.incr("fleet.bad_frames")
                    break  # unframeable input: the stream is unrecoverable
                except asyncio.CancelledError:
                    break  # stop(): read no further, answer what was read
                finally:
                    self._reading.discard(handler)
                # Serve each frame in its own task so a big batch doesn't
                # head-of-line block later frames on the same connection.
                task = asyncio.create_task(
                    self._serve_frame(frame, writer, write_lock)
                )
                frame_tasks.add(task)
                task.add_done_callback(frame_tasks.discard)
        finally:
            if frame_tasks:
                await asyncio.gather(*frame_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_frame(
        self,
        frame,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        frame_id = frame.get("id") if isinstance(frame, dict) else None
        try:
            # json.loads reads NaN and Infinity, which strict JSON has not.
            id_text = json.dumps(frame_id, separators=(",", ":"), allow_nan=False)
        except ValueError:
            id_text = None
        if not isinstance(frame, dict):
            reply = {"id": None, "error": "frame must be a JSON object"}
        elif id_text is None:
            METRICS.incr("fleet.bad_frames")
            reply = {"id": None, "error": "frame id holds NaN or Infinity"}
        elif frame.get("op") == "stats":
            stats = dict(self.fleet.stats())
            stats["shed"] = self.shed
            stats["request_latency_ms"] = {
                name: round(seconds * 1000.0, 3)
                for name, seconds in METRICS.latency_quantiles(
                    "fleet.request"
                ).items()
            }
            reply = {"id": frame_id, "stats": stats}
        elif not isinstance(frame.get("quotes"), list) or not frame["quotes"]:
            METRICS.incr("fleet.bad_frames")
            reply = {
                "id": frame_id,
                "error": "frame needs a non-empty 'quotes' array "
                "(or 'op': 'stats')",
            }
        else:
            reply = await self._serve_quotes(id_text, frame["quotes"])
        try:
            data = encode_frame(reply)
        except DataError:  # the id is too long; quote replies are measured
            METRICS.incr("fleet.bad_frames")
            reply = {"id": None, "error": "frame id is too long to echo"}
            data = encode_frame(reply)
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # client went away; nothing left to route to

    async def _serve_quotes(self, id_text: str, raw: list) -> str:
        """The reply text of a frame whose id's JSON is ``id_text`` and
        whose quotes are ``raw``, or an error if it would not fit a frame."""
        answers, slices, bad = _parse_quotes(
            raw, self.fleet.n_shards, asyncio.get_running_loop().create_future
        )
        if bad:
            METRICS.incr("fleet.bad_requests", bad)
        if len(raw) > bad:
            METRICS.incr("fleet.requests", len(raw) - bad)
        for sid, piece in slices.items():
            self._admit(sid, piece)
        for piece in slices.values():
            await piece.future
        # The reply is {"id":<id>,"quotes":[<answer>,...]}, ASCII because
        # json.dumps escapes the rest, so its characters are its bytes.
        size = 19 + len(id_text) + sum(map(len, answers)) + len(answers) - 1
        if size > MAX_FRAME_BYTES:
            METRICS.incr("fleet.bad_frames")
            return (
                f'{{"id":{id_text},"error":"reply of {size} bytes would '
                f'exceed MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"}}'
            )
        return f'{{"id":{id_text},"quotes":[{",".join(answers)}]}}'

    # ------------------------------------------------------------------
    # Admission queues and shard dispatch
    # ------------------------------------------------------------------

    def _admit(self, sid: int, piece: _Slice) -> None:
        """Queue a slice, then shed the oldest rows past ``queue_depth``
        (on the loop thread, so their answers are written at once)."""
        piece.pending = len(piece.rows)
        self._queues[sid].append(piece)
        self._queued[sid] += piece.pending
        if self._stopping:  # no dispatcher is left to answer it
            self._answer(
                self._take(sid, self._queued[sid]),
                self.fleet.degraded_payload(
                    self._queued[sid], "front door stopped"
                ),
            )
            return
        excess = self._queued[sid] - self.config.queue_depth
        if excess > 0:
            self.shed += excess
            METRICS.incr("fleet.shed", excess)
            obs.event("fleet.shed", requests=excess)
            self._answer(
                self._take(sid, excess),
                self.fleet.degraded_payload(
                    excess, "shed by admission control"
                ),
            )
        self._wakeups[sid].set()

    def _take(self, sid: int, n: int) -> "list[tuple[_Slice, int, int]]":
        """Dequeue the oldest ``n`` rows of a shard's queue as ``(slice,
        lo, hi)`` parts, splitting the last slice if it must."""
        queue = self._queues[sid]
        parts = []
        while n and queue:
            piece = queue[0]
            lo = piece.start
            hi = min(len(piece.rows), lo + n)
            parts.append((piece, lo, hi))
            n -= hi - lo
            self._queued[sid] -= hi - lo
            piece.start = hi
            if hi == len(piece.rows):
                queue.popleft()
        return parts

    @staticmethod
    def _answer(parts, payload: dict) -> None:
        """Answer ``parts`` in order with the rows of one payload."""
        texts = quote_texts(payload, sum(hi - lo for _, lo, hi in parts))
        at = 0
        for piece, lo, hi in parts:
            piece.answer(lo, hi, texts[at : at + hi - lo])
            at += hi - lo

    @staticmethod
    def _batch(parts) -> RequestColumns:
        """The columns of ``parts``, joined (regions and regimes only if
        some row carries one)."""
        joined: "list[Optional[list]]" = [[], [], [], [], []]
        for piece, lo, hi in parts:
            for into, column in zip(joined, piece.columns.as_args()):
                into += column[lo:hi]
        if not any(piece.pinned for piece, _, _ in parts):
            joined[3] = joined[4] = None
        return RequestColumns(*joined)

    async def _dispatch_loop(self, sid: int) -> None:
        queue = self._queues[sid]
        wakeup = self._wakeups[sid]
        loop = asyncio.get_running_loop()
        while True:
            await wakeup.wait()
            wakeup.clear()
            while queue:
                parts = self._take(sid, self.config.max_batch)
                batch = self._batch(parts)
                try:
                    payload = await loop.run_in_executor(
                        self._pool, self.fleet.quote_shard, sid, batch
                    )
                except asyncio.CancelledError:
                    # stop() cancelled us mid-round-trip; the batch still
                    # owes its callers an answer.
                    self._answer(
                        parts,
                        self.fleet.degraded_payload(
                            len(batch), "front door stopped"
                        ),
                    )
                    raise
                self._answer(parts, payload)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FleetLoadReport:
    """What one socket load run did.

    ``answered`` counts every quote that came back, priced or degraded;
    latency quantiles are per-quote milliseconds (a frame's round trip
    split over its quotes); ``versions`` lists the snapshot versions
    that priced them.
    """

    n_requests: int
    answered: int
    priced: int
    degraded: int
    known: int
    wall_time_s: float
    latency_ms: dict
    versions: tuple

    @property
    def quotes_per_second(self) -> float:
        return self.answered / max(self.wall_time_s, 1e-9)

    def render(self) -> str:
        tail = ", ".join(
            f"{name} {value:.2f} ms"
            for name, value in sorted(self.latency_ms.items())
        )
        return "\n".join(
            [
                f"fleet load: {self.n_requests} requests in "
                f"{self.wall_time_s:.2f} s ({self.quotes_per_second:,.0f} "
                f"quotes/s)",
                f"  answered: {self.answered} ({self.priced} priced / "
                f"{self.degraded} degraded, {self.known} known "
                f"destinations), snapshot versions {list(self.versions)}",
                f"  latency: {tail or 'n/a'}",
            ]
        )


class FleetClient:
    """A pipelining asyncio client for the front-door frame protocol."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._pending: "dict[int, asyncio.Future]" = {}
        self._read_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "FleetClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
            DataError,  # an unreadable reply ends the connection too
        ):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("front door connection closed")
                    )
            self._pending.clear()

    async def request(self, payload: dict) -> dict:
        """Send one frame (an ``id`` is stamped in) and await its reply;
        a frame past ``MAX_FRAME_BYTES`` raises ``DataError``, unsent."""
        self._next_id += 1
        frame_id = self._next_id
        frame = encode_frame({**payload, "id": frame_id})
        future = asyncio.get_running_loop().create_future()
        self._pending[frame_id] = future
        self._writer.write(frame)
        await self._writer.drain()
        return await future

    async def quote_batch(self, quotes: "list[dict]") -> "list[dict]":
        reply = await self.request({"quotes": quotes})
        if "error" in reply:
            raise DataError(f"front door rejected the frame: {reply['error']}")
        return reply["quotes"]

    async def stats(self) -> dict:
        return (await self.request({"op": "stats"}))["stats"]

    async def close(self) -> None:
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "FleetClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def run_socket_load(
    host: str,
    port: int,
    requests: "list[QuoteRequest]",
    *,
    frame_size: int = 64,
    pipeline_depth: int = 8,
) -> FleetLoadReport:
    """Drive a front door over a real socket and gather every answer.

    Requests go out ``frame_size`` to a frame with up to
    ``pipeline_depth`` frames in flight — enough concurrency to keep
    every shard busy without the client timing itself out.
    """
    client = await FleetClient.connect(host, port)
    try:
        frames = [
            [
                {
                    "dst": r.dst,
                    "volume_mbps": r.volume_mbps,
                    "distance_miles": r.distance_miles,
                    "region": r.region,
                    "regime": r.regime,
                }
                for r in requests[at : at + frame_size]
            ]
            for at in range(0, len(requests), max(1, frame_size))
        ]
        answered = priced = degraded = known = 0
        versions: "set" = set()
        latencies: "list[float]" = []
        start = time.perf_counter()

        async def _send(batch: "list[dict]") -> None:
            nonlocal answered, priced, degraded, known
            sent_at = time.perf_counter()
            answers = await client.quote_batch(batch)
            per_request = (time.perf_counter() - sent_at) / max(
                1, len(answers)
            )
            for answer in answers:
                if "error" in answer:
                    continue
                answered += 1
                latencies.append(per_request * 1000.0)
                if answer["degraded"]:
                    degraded += 1
                else:
                    priced += 1
                if answer["known"]:
                    known += 1
                versions.add(answer["snapshot_version"])

        for at in range(0, len(frames), max(1, pipeline_depth)):
            await asyncio.gather(
                *(_send(batch) for batch in frames[at : at + pipeline_depth])
            )
        wall = time.perf_counter() - start
    finally:
        await client.close()
    latencies.sort()

    def _quantile(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return FleetLoadReport(
        n_requests=len(requests),
        answered=answered,
        priced=priced,
        degraded=degraded,
        known=known,
        wall_time_s=wall,
        latency_ms={
            "p50": _quantile(0.50),
            "p95": _quantile(0.95),
            "p99": _quantile(0.99),
        },
        versions=tuple(sorted(v for v in versions if v is not None)),
    )
