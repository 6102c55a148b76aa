"""The length-prefixed JSON frame: the one wire of the fleet's front door
and the socket executor.

A frame is a 4-byte big-endian body length, then the body, UTF-8 JSON.
A body over :data:`MAX_FRAME_BYTES` is never sent and never read: the
readers refuse the length before they consume a body byte.  A body that
is not UTF-8 JSON, too-deep nesting included, raises ``DataError(
"malformed frame: ...")``.  Any JSON value is a frame; whether it must
be an object is each protocol's rule.  :func:`read_frame` only awaits
its reader's ``readexactly``, so this module does not import asyncio.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Optional

from repro.errors import DataError

_FRAME_LEN = struct.Struct(">I")
#: Largest frame body in either direction, in bytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024


def _checked(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise DataError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return length


def _decode(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers invalid UTF-8 and invalid JSON; a body nested
        # too deep for the decoder raises RecursionError.
        raise DataError(f"malformed frame: {exc}") from None


def encode_frame(payload: Any) -> bytes:
    """One frame of ``payload``: a value to write as compact JSON, or a
    body already written as JSON text.  Raises ``DataError`` past the
    bound."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, separators=(",", ":"))
    body = payload.encode("utf-8")
    return _FRAME_LEN.pack(_checked(len(body))) + body


async def read_frame(reader) -> Any:
    """Read one frame's JSON value from an ``asyncio.StreamReader``
    (``IncompleteReadError`` at EOF)."""
    (length,) = _FRAME_LEN.unpack(await reader.readexactly(_FRAME_LEN.size))
    return _decode(await reader.readexactly(_checked(length)))


def send_frame(sock: socket.socket, payload: Any) -> None:
    """Write one frame of ``payload`` (see :func:`encode_frame`)."""
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    while n:
        try:
            chunk = sock.recv(n)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Any:
    """Read one frame's JSON value; ``None`` means the peer went away
    (EOF or reset), or sent ``null``."""
    header = _recv_exact(sock, _FRAME_LEN.size)
    if header is None:
        return None
    body = _recv_exact(sock, _checked(_FRAME_LEN.unpack(header)[0]))
    return None if body is None else _decode(body)
