"""Tests for the length-prefixed JSON frame (:mod:`repro.wire`), the one
wire of the fleet's front door and the socket executor.

The contract holds in both directions and for both readers: a body over
``MAX_FRAME_BYTES`` is never sent and never read (the length is refused
before a body byte is consumed), a body that is not UTF-8 JSON is a
``DataError`` naming a malformed frame, and any JSON value comes back.
A seeded mutation fuzz holds the blocking reader (``recv_frame``) and
the asyncio reader (``read_frame``) to a reference reading of the same
bytes.  Runs cleanly under ``-W error::ResourceWarning``.
"""

import asyncio
import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.errors import DataError
from repro.wire import (
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)

#: Bodies that are not UTF-8 JSON: each must be a DataError.
MALFORMED_BODIES = [
    pytest.param(b"\xff\xfe{}", id="invalid-utf8"),
    pytest.param(b'{"op": "pull"', id="invalid-json"),
    pytest.param(b"[" * 100_000, id="deep-nesting"),  # RecursionError
    # json.loads reads these as bytes, so decoding must not hand it any.
    pytest.param('{"op": "pull"}'.encode("utf-16"), id="utf-16"),
    pytest.param(b'\xef\xbb\xbf{"op": "pull"}', id="utf-8-bom"),
]
#: JSON values that are not objects: the wire carries them, and each
#: protocol decides what to do with one.
VALUE_BODIES = [
    pytest.param(b"[1, 2]", [1, 2], id="array"),
    pytest.param(b"7", 7, id="scalar"),
]
#: Length headers the fuzz writes over a frame's own.
EDGE_LENGTHS = (0, MAX_FRAME_BYTES, MAX_FRAME_BYTES + 1, 2**32 - 1)
#: Byte runs that make a body invalid UTF-8: a bad byte, a lone lead
#: byte, an encoded surrogate and an overlong NUL.
BAD_UTF8 = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\x80")
#: What the fuzz frames carry before it mutates them (no top-level
#: string: ``encode_frame`` takes text as a body already written).
VALUES = [
    {"op": "pull"},
    {"id": 7, "quotes": [{"dst": "10.0.0.1", "volume_mbps": 4.0}]},
    [1, 2.5, "x", None, True],
    ["café 中 \U0001f600"],
    {"n": [1, {"k": "vé"}], "s": None},
    -0.5,
]
#: How long a reader may take before the fuzz calls it hung.
TIMEOUT_S = 5.0


def _raw_frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _pair():
    a, b = socket.socketpair()
    b.settimeout(TIMEOUT_S)
    return a, b


class TestWire:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "pull", "n": [1, 2.5, "x"]})
            assert recv_frame(b) == {"op": "pull", "n": [1, 2.5, "x"]}
        finally:
            a.close()
            b.close()

    def test_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_oversize_send_refused(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(DataError, match="MAX_FRAME_BYTES"):
                send_frame(a, {"blob": "x" * (8 * 1024 * 1024)})
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_frame_is_a_data_error(self, body):
        a, b = socket.socketpair()
        try:
            a.sendall(_raw_frame(body))
            with pytest.raises(DataError, match="malformed frame"):
                recv_frame(b)
        finally:
            a.close()
            b.close()
        assert _async_read(_raw_frame(body)) == ([], "malformed", b"")

    @pytest.mark.parametrize("body, value", VALUE_BODIES)
    def test_a_value_that_is_not_an_object_comes_back(self, body, value):
        a, b = socket.socketpair()
        try:
            a.sendall(_raw_frame(body))
            assert recv_frame(b) == value
        finally:
            a.close()
            b.close()

    def test_the_bound_is_on_the_body_s_utf8_bytes(self):
        # Text is taken as a body already written, so the bound is exact.
        assert len(encode_frame("x" * MAX_FRAME_BYTES)) == MAX_FRAME_BYTES + 4
        with pytest.raises(DataError, match=f"{MAX_FRAME_BYTES + 1} bytes"):
            encode_frame("x" * (MAX_FRAME_BYTES + 1))
        with pytest.raises(DataError, match=f"{MAX_FRAME_BYTES + 2} bytes"):
            encode_frame("é" * (MAX_FRAME_BYTES // 2 + 1))

    def test_values_are_written_as_compact_json(self):
        frame = encode_frame({"id": 7, "quotes": [1, "é"]})
        assert frame[4:] == b'{"id":7,"quotes":[1,"\\u00e9"]}'
        assert struct.unpack(">I", frame[:4]) == (len(frame) - 4,)
        assert encode_frame('{"id": 7}')[4:] == b'{"id": 7}'


# ----------------------------------------------------------------------
# Seeded mutation fuzz of both readers
# ----------------------------------------------------------------------


def _key(value) -> str:
    """A value's identity, ``NaN`` included (``NaN != NaN``)."""
    return json.dumps(value, sort_keys=True)


def _reference(stream: bytes):
    """What reading ``stream`` frame by frame must give: ``(values, end,
    unread)``, where ``end`` is ``"eof"`` (the stream ran out mid-frame
    or between frames), ``"too-large"`` (a length over the limit, with
    no body byte read) or ``"malformed"``, and ``unread`` is what a
    reader that stopped there left in the stream."""
    values, at = [], 0
    while len(stream) - at >= 4:
        (length,) = struct.unpack_from(">I", stream, at)
        at += 4
        if length > MAX_FRAME_BYTES:
            return values, "too-large", stream[at:]
        if len(stream) - at < length:
            break
        body, at = stream[at : at + length], at + length
        try:
            values.append(_key(json.loads(body.decode("utf-8"))))
        except (ValueError, RecursionError):
            return values, "malformed", stream[at:]
    return values, "eof", b""


def _end_of(exc: DataError) -> str:
    return "too-large" if "MAX_FRAME_BYTES" in str(exc) else "malformed"


def _sync_read(stream: bytes):
    """``stream`` read with ``recv_frame`` over a socket pair, in
    :func:`_reference`'s terms."""
    a, b = _pair()
    writer = threading.Thread(target=_send_and_close, args=(a, stream))
    writer.start()
    values, rest = [], b""
    started = time.monotonic()
    try:
        while True:
            try:
                value = recv_frame(b)
            except DataError as exc:
                end = _end_of(exc)
                rest = b"".join(iter(lambda: b.recv(65536), b""))
                break
            if value is None:  # EOF; the fuzz frames hold no ``null``
                end = "eof"
                break
            values.append(_key(value))
    finally:
        writer.join(TIMEOUT_S)
        b.close()
    assert not writer.is_alive()
    assert time.monotonic() - started < TIMEOUT_S, "recv_frame hung"
    return values, end, rest


def _send_and_close(sock: socket.socket, stream: bytes) -> None:
    try:
        sock.sendall(stream)
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # the reader stopped early and closed its end
    finally:
        sock.close()


async def _async_read_on(stream: bytes):
    reader = asyncio.StreamReader()
    reader.feed_data(stream)
    reader.feed_eof()
    values = []
    while True:
        try:
            values.append(_key(await read_frame(reader)))
        except asyncio.IncompleteReadError:
            return values, "eof", b""
        except DataError as exc:
            return values, _end_of(exc), await reader.read()


def _async_read(stream: bytes):
    """``stream`` read with ``read_frame`` over a fed ``StreamReader``."""

    async def run():
        return await asyncio.wait_for(_async_read_on(stream), TIMEOUT_S)

    return asyncio.run(run())


def _mutate(rng: random.Random, frames: "list[bytes]") -> bytes:
    """One of the fuzz's mutations of a few frames, joined."""
    kind = rng.choice(
        ["none", "truncate", "length", "flip", "insert", "utf8", "deep"]
    )
    frames = list(frames)
    i = rng.randrange(len(frames))
    frame = bytearray(frames[i])
    if kind == "length":
        frame[:4] = struct.pack(">I", rng.choice(EDGE_LENGTHS))
    elif kind == "utf8" and len(frame) > 4:
        at = rng.randrange(4, len(frame))
        frame[at : at + 1] = rng.choice(BAD_UTF8)
        frame[:4] = struct.pack(">I", len(frame) - 4)
    elif kind == "deep":
        frame = bytearray(_raw_frame(b"[" * rng.choice([2_000, 100_000])))
    frames[i] = bytes(frame)
    stream = bytearray(b"".join(frames))
    if kind == "truncate":
        del stream[rng.randrange(len(stream)) :]
    elif kind == "flip":
        for _ in range(rng.randint(1, 3)):
            stream[rng.randrange(len(stream))] ^= rng.randint(1, 255)
    elif kind == "insert":
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(stream) + 1)
            stream[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 3)))
    return bytes(stream)


class TestFrameFuzz:
    """Each mutated stream reads, on both readers, as the reference says:
    the same values, then EOF (``None`` or ``IncompleteReadError``) or a
    ``DataError``, after which exactly the bytes the reference did not
    consume are still unread: all of a too-large frame's body, and what
    follows a malformed one."""

    @pytest.mark.parametrize("seed", range(4))
    def test_both_readers_follow_the_reference(self, seed):
        rng = random.Random(seed)
        encoded = [encode_frame(value) for value in VALUES]
        ends = set()
        for _ in range(150):
            frames = rng.sample(encoded, rng.randint(1, 3))
            stream = _mutate(rng, frames)
            expected = _reference(stream)
            assert _sync_read(stream) == expected, stream
            assert _async_read(stream) == expected, stream
            ends.add(expected[1])
        assert ends == {"eof", "too-large", "malformed"}

    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_each_edge_length(self, length):
        body = encode_frame({"op": "pull"})[4:]
        stream = struct.pack(">I", length) + body
        expected = _reference(stream)
        assert _sync_read(stream) == _async_read(stream) == expected
        if length > MAX_FRAME_BYTES:
            assert expected == ([], "too-large", body)
