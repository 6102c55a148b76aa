"""The host's speed at the moment, from a fixed calibration slice.

The measuring host flips between speed states about 1.8x apart, each
lasting seconds (NOTES.md, "Machine noise").  A raw timing then reports
the mix of states during the run more than it reports the program.  So
the benchmark times a fixed slice of stdlib-only work on the measured
CPU at every window boundary and every quote slice, and scales each
timing to the slice's reference time:

    scaled = raw * REF_S / slice time nearby

A program change cannot move the slice (it runs no code of ``src/``), so
a scaled timing moves with the program and not with the host's state.

Stdlib only; the driver and the load generator both import it.
"""

from __future__ import annotations

import struct
import time

#: Time of one slice at the reference speed, the unit scaled timings are
#: expressed in (about this host's median).
REF_S = 0.002

_RECORD = struct.Struct(">IIH")
_BUFFER = bytes(range(256)) * 160
_STRIDE = _RECORD.size
_TABLE = {k: 0 for k in range(4096)}


def slice_s() -> float:
    """Seconds one fixed slice takes now: record unpacking and dict
    updates, like the chain's own per-record work, allocating nothing
    that outlives the slice (so the caller's garbage collector is not
    disturbed)."""
    unpack = _RECORD.unpack_from
    table = _TABLE
    start = time.perf_counter()
    for offset in range(0, len(_BUFFER) - _STRIDE, _STRIDE):
        a, b, c = unpack(_BUFFER, offset)
        key = (a ^ b ^ c) & 4095
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def scale(slices: "list[float]") -> float:
    """The factor that brings a timing made between ``slices`` to the
    reference speed: ``REF_S`` over their mean."""
    return REF_S * len(slices) / sum(slices)
