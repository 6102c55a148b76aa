"""Closed-loop quote load over one front-door connection.

Stdlib only: the load generator runs in the orchestrator's process,
apart from the system under test, and speaks the front door's wire
(4-byte big-endian length, then a UTF-8 JSON object) itself, so a change
to the program's own client cannot change the load.

The loop keeps ``frames_in_flight`` request frames of ``frame_size``
quotes outstanding: each reply read sends the next frame, so a slower
system receives less load and no queue builds up.  Frames are encoded
once, before the clock starts.  The phase runs in equal slices; between
two slices the loop drains and the host's speed is timed, so each
slice's timings can be scaled to the reference speed (``speed``).
"""

from __future__ import annotations

import json
import socket
import statistics
import struct
import time

import speed

_LEN = struct.Struct(">I")
#: A reply slower than this fails the run (the fleet's own deadline is 5 s).
TIMEOUT_S = 30.0


def encode_frames(requests: list, frame_size: int) -> "tuple[list, list]":
    """``(wire frames, destinations per frame)``; frame ids are indices."""
    frames, dsts = [], []
    for k, at in enumerate(range(0, len(requests), frame_size)):
        chunk = requests[at : at + frame_size]
        quotes = [
            {"dst": dst, "volume_mbps": volume, "distance_miles": miles}
            for dst, volume, miles in chunk
        ]
        body = json.dumps({"id": k, "quotes": quotes}).encode("utf-8")
        frames.append(_LEN.pack(len(body)) + body)
        dsts.append([dst for dst, _, _ in chunk])
    return frames, dsts


class Checker:
    """Checks every answer against the final design and counts failures.

    A known destination must be quoted its tier's rate from the final
    design, an unknown one the blended rate; an answer that is degraded
    (shed or failed over) or an error is a failed quote and, for the
    price check, a wrong one.
    """

    def __init__(self, design: dict) -> None:
        self.rates = design["rates"]
        self.blended = design["blended"]
        self.answered = 0
        self.failed = 0
        self.degraded = 0
        self.errors = 0
        self.wrong = []

    def check(self, dsts: list, reply: dict) -> int:
        """Check one reply; return its lowest snapshot version (or -1)."""
        answers = reply.get("quotes")
        if not isinstance(answers, list) or len(answers) != len(dsts):
            self.errors += len(dsts)
            self.failed += len(dsts)
            self.wrong.append(f"malformed reply {str(reply)[:120]}")
            return -1
        lowest = None
        for dst, answer in zip(dsts, answers):
            self.answered += 1
            if "error" in answer:
                self.errors += 1
                self.failed += 1
                self.wrong.append(f"{dst}: error {answer['error']}")
                continue
            if answer["degraded"]:
                self.degraded += 1
                self.failed += 1
            expected = self.rates.get(dst)
            ok = (
                answer["known"] and answer["unit_price"] == expected
                if expected is not None
                else not answer["known"] and answer["unit_price"] == self.blended
            )
            if not ok:
                self.wrong.append(
                    f"{dst}: quoted {answer['unit_price']} "
                    f"(known={answer['known']}), design says {expected}"
                )
                if not answer["degraded"]:
                    self.failed += 1
            version = answer["snapshot_version"]
            if version is not None and (lowest is None or version < lowest):
                lowest = version
        return -1 if lowest is None else lowest


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _Polled:
    """One connection read and written by polling, never by blocking.

    The load generator has a CPU of its own; polling keeps that CPU from
    idling while frames are in flight, so a reply is read when it
    arrives instead of after the CPU has been woken up again, a delay
    that varies with the host's load."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.sock = sock
        self.buffer = bytearray()

    def send(self, data: bytes) -> None:
        view = memoryview(data)
        deadline = time.monotonic() + TIMEOUT_S
        while view:
            try:
                view = view[self.sock.send(view):]
            except BlockingIOError:
                if time.monotonic() > deadline:
                    raise TimeoutError("front door stopped reading") from None

    def reply(self) -> dict:
        buffer = self.buffer
        deadline = time.monotonic() + TIMEOUT_S
        while True:
            if len(buffer) >= _LEN.size:
                end = _LEN.size + _LEN.unpack_from(buffer)[0]
                if len(buffer) >= end:
                    body = bytes(buffer[_LEN.size:end])
                    del buffer[:end]
                    return json.loads(body)
            try:
                chunk = self.sock.recv(1 << 16)
            except BlockingIOError:
                if time.monotonic() > deadline:
                    raise TimeoutError("no reply from the front door") from None
                continue
            if not chunk:
                raise ConnectionError("front door closed the connection")
            buffer += chunk


def closed_loop(
    port: int,
    requests: list,
    checker: Checker,
    *,
    frame_size: int,
    in_flight: int,
    seconds: float,
    slices: int,
    calibrate,
) -> dict:
    """Run the closed loop for ``seconds`` in ``slices`` equal slices;
    return its samples.

    Between slices the loop drains and ``calibrate()`` times the host's
    speed (seconds of a :mod:`speed` slice), once before the first slice
    and after each.  A slice's timings are scaled by the calibrations on
    either side of it.

    Returns ``{"wall_s", "scaled_wall_s", "quotes", "frame_ms",
    "scaled_frame_ms", "slice_ms", "sent", "attempted"}``: ``frame_ms``
    is the latency of every frame answered within its slice, and
    ``sent`` lists ``(send time, lowest answered version)`` per frame,
    for the stale-after-cutover check against the driver's cutover acks.
    Replies still in flight at a slice's end are drained and checked but
    not counted in the throughput.
    """
    frames, frame_dsts = encode_frames(requests, frame_size)
    clock = time.perf_counter
    sock = _connect(port)
    conn = _Polled(sock)
    n = len(frames)
    sent_at = {}
    samples, scaled_samples = [], []
    sent = []
    calibrations = [calibrate()]
    wall = scaled_wall = 0.0
    counted = 0
    k = 0
    try:
        for _ in range(slices):
            start = clock()
            deadline = start + seconds / slices
            for _ in range(in_flight):
                sent_at[k % n] = clock()
                conn.send(frames[k % n])
                k += 1
            last = start
            latencies = []
            while sent_at:
                reply = conn.reply()
                now = clock()
                frame_id = reply.get("id")
                t_send = sent_at.pop(frame_id, None)
                if t_send is None:
                    raise ConnectionError(f"reply for a frame not in flight: {frame_id}")
                version = checker.check(frame_dsts[frame_id], reply)
                sent.append((t_send, version))
                if now <= deadline:
                    latencies.append((now - t_send) * 1000.0)
                    counted += frame_size
                    last = now
                    sent_at[k % n] = clock()
                    conn.send(frames[k % n])
                    k += 1
            calibrations.append(calibrate())
            factor = speed.scale(calibrations[-2:])
            wall += last - start
            scaled_wall += (last - start) * factor
            samples += latencies
            scaled_samples += [ms * factor for ms in latencies]
    finally:
        sock.close()
    return {
        "wall_s": wall,
        "scaled_wall_s": scaled_wall,
        "quotes": counted,
        "frame_ms": samples,
        "scaled_frame_ms": scaled_samples,
        "slice_ms": statistics.median(calibrations) * 1000.0,
        "sent": sent,
        "attempted": k * frame_size,
    }


def sweep(port: int, requests: list, checker: Checker, frame_size: int) -> int:
    """Quote every request once, untimed; return the answers received."""
    frames, frame_dsts = encode_frames(requests, frame_size)
    answered = checker.answered
    sock = _connect(port)
    conn = _Polled(sock)
    try:
        for frame, dsts in zip(frames, frame_dsts):
            conn.send(frame)
            checker.check(dsts, conn.reply())
    finally:
        sock.close()
    return checker.answered - answered
