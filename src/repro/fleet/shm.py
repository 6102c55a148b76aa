"""Shared-memory publication of pricing snapshots.

A :class:`~repro.serve.snapshot.PricingSnapshot` is already the right
shape for cross-process sharing: its lookup state is three flat arrays
(the sorted fixed-width destination column, aligned tier ids, the tier
rate card) plus a handful of scalars.  :class:`SharedSnapshot` copies
one snapshot's arrays as they are into a named
``multiprocessing.shared_memory`` segment that any process on the
machine can attach **lock-free** and reconstruct **zero-copy**:
:class:`AttachedSnapshot` builds a plain ``PricingSnapshot`` whose
arrays are read-only numpy views straight into the mapped buffer, the
same ``from_columns(validate=False)`` adoption discipline the columnar
core uses for pre-validated data.

Segment layout (versioned by name, immutable once published)::

    repro-snap-<digest[:12]>-v<version>
    +--------------------------------------------------------------+
    | u64 LE header length H                                       |
    | H bytes of JSON: the snapshot's scalar fields (version,      |
    |   digest, gamma, ...) plus per-array {dtype, offset, count}  |
    |   descriptors                                                |
    | ... padding to a 64-byte boundary ...                        |
    | dsts:         S<w> fixed-width UTF-8 bytes, sorted           |
    | tiers:        int64, aligned to dsts                         |
    | rate_by_tier: float64, index 0 = blended fallback            |
    +--------------------------------------------------------------+

The header's scalar fields and the three arrays are read off
``PricingSnapshot``'s own dataclass fields (the arrays are its
``_``-prefixed ones), so a field added there travels without a second
list here.  The destination column is already bytes, because object
strings cannot cross a process boundary without pickling;
``PricingSnapshot.tiers_for`` is the one lookup on both sides.

Lifecycle discipline (the part that keeps ``-W error::ResourceWarning``
clean): exactly one process — the publisher — owns each segment and is
the only one that ``unlink()``\\ s it; attachers map and unmap but never
register with the interpreter's resource tracker (which would otherwise
double-register the segment and either unlink it prematurely or warn at
exit).  Publisher-side segments are additionally unlinked by an
``atexit`` hook guarded by the creating PID, so a crashed coordinator
cannot strand segments in ``/dev/shm`` — and a forked worker inheriting
the registry cannot vandalize live ones.
"""

from __future__ import annotations

import atexit
import dataclasses
import gc
import json
import os
import struct
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from repro.errors import DataError
from repro.obs import METRICS
from repro.serve.snapshot import PricingSnapshot

#: Data block alignment (covers every numpy dtype's requirement).
_ALIGN = 64
#: Per-array alignment inside the data block.
_ARRAY_ALIGN = 16
_HEADER_LEN = struct.Struct("<Q")
#: ``PricingSnapshot`` fields: the header's scalars, and the arrays
#: (``_``-prefixed; a segment labels each without its underscore).
_SCALARS = [f.name for f in dataclasses.fields(PricingSnapshot) if f.name[0] != "_"]
_ARRAYS = [f.name for f in dataclasses.fields(PricingSnapshot) if f.name[0] == "_"]

#: Segments created by this process, by name — the atexit safety net.
_OWNED: "dict[str, SharedSnapshot]" = {}
#: Mappings whose close() was blocked by live array views; retried at
#: exit (by then the views are collectable).
_ZOMBIES: "list[shared_memory.SharedMemory]" = []


def segment_name(digest: str, version: int) -> str:
    """The canonical segment name: ``repro-snap-<digest>-v<N>``."""
    return f"repro-snap-{digest[:12]}-v{int(version)}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without resource-tracker registration.

    Python's ``SharedMemory(name=...)`` registers *attachers* with the
    resource tracker too (bpo-39959), so a worker that merely mapped a
    segment would unlink it — or warn about a "leak" — when it exits.
    Ownership here is explicit: only the publisher unlinks.  3.13+ has
    ``track=False`` for exactly this; older interpreters get the same
    effect by stubbing out registration for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    real_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = real_register


def _close_segment(shm: shared_memory.SharedMemory) -> None:
    """Unmap, tolerating stray array views (collect and retry once).

    A mapping that still cannot close (the caller kept a view alive) is
    parked for an atexit retry rather than left to a noisy ``__del__``.
    """
    try:
        shm.close()
    except BufferError:
        gc.collect()
        try:
            shm.close()
        except BufferError:
            _ZOMBIES.append(shm)


class SharedSnapshot:
    """One published segment, owned by the publishing process.

    Only the publisher holds one of these; it is the sole party allowed
    to :meth:`unlink`.  Readers go through :func:`attach` /
    :class:`AttachedSnapshot` instead.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        *,
        version: int,
        digest: str,
        n_destinations: int,
    ) -> None:
        self._shm = shm
        self.name = shm.name
        self.version = int(version)
        self.digest = digest
        self.n_destinations = int(n_destinations)
        self.owner_pid = os.getpid()
        self._unlinked = False
        _OWNED[self.name] = self

    @classmethod
    def publish(cls, snapshot: PricingSnapshot) -> "SharedSnapshot":
        """Freeze a snapshot's arrays into a fresh named segment."""
        if snapshot.n_destinations == 0:
            raise DataError("cannot share a snapshot with no destinations")
        arrays = {name[1:]: getattr(snapshot, name) for name in _ARRAYS}
        layout = {}
        offset = 0
        for label, array in arrays.items():
            offset = -(-offset // _ARRAY_ALIGN) * _ARRAY_ALIGN
            layout[label] = {
                "dtype": array.dtype.str,
                "offset": offset,
                "count": int(array.size),
            }
            offset += array.nbytes
        meta = {name: getattr(snapshot, name) for name in _SCALARS}
        meta["rates"] = {str(tier): rate for tier, rate in meta["rates"].items()}
        header = json.dumps(dict(meta, arrays=layout), sort_keys=True).encode()
        data_start = -(-(8 + len(header)) // _ALIGN) * _ALIGN
        total = data_start + offset

        name = segment_name(snapshot.digest, snapshot.version)
        try:
            shm = shared_memory.SharedMemory(
                create=True, name=name, size=total
            )
        except FileExistsError:
            # A previous run crashed hard enough to strand this name (the
            # atexit hook never ran).  Segments are content-addressed, so
            # replacing it is safe — no live publisher can own it.
            stale = _attach_untracked(name)
            _close_segment(stale)
            stale.unlink()
            shm = shared_memory.SharedMemory(
                create=True, name=name, size=total
            )
        try:
            shm.buf[0:8] = _HEADER_LEN.pack(len(header))
            shm.buf[8 : 8 + len(header)] = header
            for label, array in arrays.items():
                spec = layout[label]
                view = np.frombuffer(
                    shm.buf,
                    dtype=np.dtype(spec["dtype"]),
                    count=spec["count"],
                    offset=data_start + spec["offset"],
                )
                view[:] = array
                del view  # drop the buffer reference before any close()
        except BaseException:
            _close_segment(shm)
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            raise
        METRICS.incr("fleet.segments_published")
        return cls(
            shm,
            version=snapshot.version,
            digest=snapshot.digest,
            n_destinations=snapshot.n_destinations,
        )

    @property
    def size(self) -> int:
        return self._shm.size

    def unlink(self) -> None:
        """Unmap and remove the segment (idempotent, owner only)."""
        if self._unlinked:
            return
        self._unlinked = True
        _OWNED.pop(self.name, None)
        _close_segment(self._shm)
        if self.owner_pid == os.getpid():
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            METRICS.incr("fleet.segments_unlinked")

    # ``close`` is an alias: an owner releasing a segment removes it.
    close = unlink

    def __enter__(self) -> "SharedSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedSnapshot({self.name}, v{self.version}, "
            f"{self.n_destinations} destinations, {self.size} bytes)"
        )


class AttachedSnapshot:
    """A reader's zero-copy view of a published segment.

    ``.snapshot`` is a :class:`~repro.serve.snapshot.PricingSnapshot`
    whose arrays alias the mapped buffer — nothing is copied at attach time, and the
    segment cannot change under the reader (segments are immutable;
    new designs get new segments).  Call :meth:`close` (or use as a
    context manager) to drop the views and unmap.
    """

    def __init__(self, name: str) -> None:
        shm = _attach_untracked(name)
        try:
            (header_len,) = _HEADER_LEN.unpack_from(shm.buf, 0)
            meta = json.loads(bytes(shm.buf[8 : 8 + header_len]))
            data_start = -(-(8 + header_len) // _ALIGN) * _ALIGN
            columns = {}
            for label, spec in meta.pop("arrays").items():
                view = np.frombuffer(
                    shm.buf,
                    dtype=np.dtype(spec["dtype"]),
                    count=spec["count"],
                    offset=data_start + spec["offset"],
                )
                view.setflags(write=False)
                columns["_" + label] = view
            meta["rates"] = {int(tier): rate for tier, rate in meta["rates"].items()}
            self.snapshot: "Optional[PricingSnapshot]" = PricingSnapshot(
                **meta, **columns
            )
        except BaseException:
            _close_segment(shm)
            raise
        self._shm = shm
        self.name = name
        METRICS.incr("fleet.segments_attached")

    @property
    def version(self) -> int:
        assert self.snapshot is not None
        return self.snapshot.version

    def close(self) -> None:
        """Drop the views and unmap (idempotent; never unlinks)."""
        if self.snapshot is None:
            return
        self.snapshot = None
        _close_segment(self._shm)

    detach = close

    def __enter__(self) -> "AttachedSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _cleanup_owned() -> None:
    """atexit: unlink whatever this process published and still owns."""
    for segment in list(_OWNED.values()):
        if segment.owner_pid == os.getpid():
            segment.unlink()
    zombies, _ZOMBIES[:] = list(_ZOMBIES), []
    gc.collect()
    for shm in zombies:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - caller pinned the view
            pass


atexit.register(_cleanup_owned)
