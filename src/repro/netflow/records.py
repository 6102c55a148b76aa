"""NetFlow-style flow export records (paper §4.1.1).

The paper's demand data is 24 hours of sampled NetFlow from each network's
core routers.  :class:`NetFlowRecord` models the v5-style export record the
pipeline consumes: a 5-tuple key, byte/packet counters, a time range, the
exporting router, and the sampling interval needed to scale counters back
to true volumes.

:class:`RecordBatch` holds many records as struct-of-arrays columns.  The
wire decoder, the stream and the collector work on batches; record
objects are built only when a caller asks for them.
"""

from __future__ import annotations

import dataclasses
import ipaddress
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import DataError

#: IANA protocol numbers used by the trace generator.
PROTO_TCP = 6
PROTO_UDP = 17


@dataclasses.dataclass(frozen=True)
class FlowKey:
    """The 5-tuple identifying a flow."""

    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    protocol: int

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise DataError(f"port out of range: {port}")
        if not 0 <= self.protocol <= 255:
            raise DataError(f"protocol out of range: {self.protocol}")


@dataclasses.dataclass(frozen=True)
class NetFlowRecord:
    """One exported flow record.

    Attributes:
        key: The flow 5-tuple.
        octets: Bytes observed *after* sampling (multiply by
            ``sampling_interval`` to estimate the true volume).
        packets: Packets observed after sampling.
        first_ms: Flow start (ms since trace epoch).
        last_ms: Flow end (ms since trace epoch, inclusive).
        router: Code of the exporting router/PoP.
        input_if: SNMP index of the input interface.
        output_if: SNMP index of the output interface.
        sampling_interval: The router samples one packet in this many.
    """

    key: FlowKey
    octets: int
    packets: int
    first_ms: int
    last_ms: int
    router: str
    input_if: int = 0
    output_if: int = 0
    sampling_interval: int = 1

    def __post_init__(self) -> None:
        if self.octets < 0 or self.packets < 0:
            raise DataError("octets and packets must be non-negative")
        if self.packets > 0 and self.octets == 0:
            raise DataError("a record with packets must carry octets")
        if self.last_ms < self.first_ms:
            raise DataError(
                f"record ends ({self.last_ms}) before it starts ({self.first_ms})"
            )
        if self.sampling_interval < 1:
            raise DataError(
                f"sampling_interval must be >= 1, got {self.sampling_interval}"
            )
        if not self.router:
            raise DataError("router must be non-empty")

    @property
    def estimated_octets(self) -> int:
        """Estimated true bytes: observed bytes times the sampling interval."""
        return self.octets * self.sampling_interval

    @property
    def duration_ms(self) -> int:
        return self.last_ms - self.first_ms

    def mean_rate_mbps(self, window_ms: int) -> float:
        """Estimated average rate over an accounting window, in Mbit/s."""
        if window_ms <= 0:
            raise DataError(f"window must be positive, got {window_ms}")
        return self.estimated_octets * 8.0 / (window_ms / 1000.0) / 1e6


#: Decimal text of each octet value.
_OCTET_TEXT = tuple(str(i) for i in range(256))
#: Rank of each octet's decimal string among all 256 of them: packing
#: four ranks orders addresses the way their dotted strings sort.
_OCTET_RANK = np.argsort(np.argsort(_OCTET_TEXT)).astype(np.uint32)


def dotted(value: int) -> str:
    """The dotted-quad string of an IPv4 address held as an integer."""
    return f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


def address_value(text: str) -> int:
    """The integer of a dotted-quad IPv4 address string.

    Raises:
        DataError: If ``text`` is not a dotted IPv4 address in the
            canonical form :func:`dotted` writes back.
    """
    try:
        value = int(ipaddress.IPv4Address(text))
    except ValueError as exc:
        raise DataError(f"not a dotted IPv4 address: {text!r}") from exc
    if dotted(value) != text:
        raise DataError(f"not a dotted IPv4 address: {text!r}")
    return value


def _dotted_column(values: np.ndarray) -> "list[str]":
    """Dotted strings of an address column, formatting each distinct
    address once from the octet text table."""
    distinct, inverse = np.unique(values, return_inverse=True)
    t = _OCTET_TEXT
    octets = zip(
        (distinct >> 24).tolist(),
        ((distinct >> 16) & 255).tolist(),
        ((distinct >> 8) & 255).tolist(),
        (distinct & 255).tolist(),
    )
    text = [f"{t[a]}.{t[b]}.{t[c]}.{t[d]}" for a, b, c, d in octets]
    return [text[i] for i in inverse.tolist()]


def _string_order(addresses: np.ndarray) -> np.ndarray:
    """A ``uint32`` sort key ordering addresses as their dotted strings."""
    rank = _OCTET_RANK
    return (
        (rank[addresses >> 24] << 24)
        | (rank[(addresses >> 16) & 255] << 16)
        | (rank[(addresses >> 8) & 255] << 8)
        | rank[addresses & 255]
    )


#: Column name -> dtype, in :class:`NetFlowRecord` field order.
_COLUMNS = {
    "src": np.uint32,
    "dst": np.uint32,
    "src_port": np.uint16,
    "dst_port": np.uint16,
    "protocol": np.uint8,
    "octets": np.int64,
    "packets": np.int64,
    "first_ms": np.int64,
    "last_ms": np.int64,
    "router": np.int32,
    "input_if": np.int64,
    "output_if": np.int64,
    "interval": np.int64,
}


class RecordBatch:
    """NetFlow records as struct-of-arrays columns, one row per record.

    Addresses are ``uint32`` IPv4 values, ports ``uint16``, the protocol
    ``uint8``, counters, timestamps, interface indexes and the sampling
    interval ``int64``.  ``router`` holds codes into the ``routers``
    name table.  Rows keep arrival order; :meth:`sorted` gives the
    deterministic record order.

    The constructor trusts its columns: batches come from
    :meth:`from_records`, :func:`~repro.netflow.codec.decode_packet`, or
    another batch (:meth:`take`, :meth:`concat`).
    """

    __slots__ = (*_COLUMNS, "routers")

    def __init__(self, routers: "tuple[str, ...]", **columns: np.ndarray) -> None:
        self.routers = routers
        for name in _COLUMNS:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return len(self.last_ms)

    def __repr__(self) -> str:
        return f"RecordBatch({len(self)} records)"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, routers: "tuple[str, ...]" = ()) -> "RecordBatch":
        return cls(
            routers, **{name: np.empty(0, dtype) for name, dtype in _COLUMNS.items()}
        )

    @classmethod
    def from_records(cls, records: Iterable[NetFlowRecord]) -> "RecordBatch":
        """Columns of record objects, in the given order.

        Raises:
            DataError: If an address is not dotted IPv4, or a counter or
                timestamp does not fit 64 bits.
        """
        records = records if isinstance(records, Sequence) else list(records)
        n = len(records)
        keys = [r.key for r in records]
        values = {
            text: address_value(text)
            for text in {k.src_addr for k in keys} | {k.dst_addr for k in keys}
        }
        routers = tuple(dict.fromkeys(r.router for r in records))
        code = {name: i for i, name in enumerate(routers)}
        fields = {
            "src": (values[k.src_addr] for k in keys),
            "dst": (values[k.dst_addr] for k in keys),
            "src_port": (k.src_port for k in keys),
            "dst_port": (k.dst_port for k in keys),
            "protocol": (k.protocol for k in keys),
            "octets": (r.octets for r in records),
            "packets": (r.packets for r in records),
            "first_ms": (r.first_ms for r in records),
            "last_ms": (r.last_ms for r in records),
            "router": (code[r.router] for r in records),
            "input_if": (r.input_if for r in records),
            "output_if": (r.output_if for r in records),
            "interval": (r.sampling_interval for r in records),
        }
        try:
            columns = {
                name: np.fromiter(fields[name], dtype, n)
                for name, dtype in _COLUMNS.items()
            }
        except OverflowError as exc:
            raise DataError(f"record field does not fit 64 bits: {exc}") from exc
        return cls(routers, **columns)

    @classmethod
    def concat(
        cls, batches: Sequence["RecordBatch"], routers: "tuple[str, ...]" = ()
    ) -> "RecordBatch":
        """One batch holding ``batches``' rows in order.

        Router tables are merged when they differ; ``routers`` is the
        table of the result when ``batches`` is empty.
        """
        if not batches:
            return cls.empty(routers)
        if len(batches) == 1:
            return batches[0]
        first = batches[0].routers
        codes = [b.router for b in batches]
        if any(b.routers is not first and b.routers != first for b in batches):
            first = tuple(dict.fromkeys(n for b in batches for n in b.routers))
            position = {name: i for i, name in enumerate(first)}
            codes = [
                np.array([position[n] for n in b.routers], np.int32)[b.router]
                for b in batches
            ]
        columns = {
            name: np.concatenate([getattr(b, name) for b in batches])
            for name in _COLUMNS
            if name != "router"
        }
        return cls(first, router=np.concatenate(codes), **columns)

    def take(self, rows) -> "RecordBatch":
        """The rows ``rows`` selects (a slice, mask or index array)."""
        return RecordBatch(
            self.routers, **{name: getattr(self, name)[rows] for name in _COLUMNS}
        )

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------

    def estimated_octets(self) -> np.ndarray:
        """Octets times sampling interval per row, exactly.

        ``int64`` when no sum over the rows can pass ``2**63``; Python
        integers (``object``) otherwise, so sums never wrap.
        """
        n = len(self)
        if n and int(self.octets.max()) * int(self.interval.max()) * n >= 1 << 63:
            return self.octets.astype(object) * self.interval.astype(object)
        return self.octets * self.interval

    def key_words(self) -> "tuple[np.ndarray, np.ndarray]":
        """Two ``uint64`` words whose lexicographic order is the flow-key
        order (source and destination as dotted strings, then ports and
        protocol); equal words mean an equal key."""
        high = (_string_order(self.src).astype(np.uint64) << 32) | _string_order(
            self.dst
        )
        low = (
            (self.src_port.astype(np.uint64) << 24)
            | (self.dst_port.astype(np.uint64) << 8)
            | self.protocol
        )
        return high, low

    def sorted(self) -> "RecordBatch":
        """Rows in record order: ``last_ms``, ``first_ms``, the flow key,
        then the router name; ties keep arrival order."""
        n_routers = len(self.routers)
        rank = np.empty(n_routers, np.int64)
        rank[sorted(range(n_routers), key=self.routers.__getitem__)] = np.arange(n_routers)
        high, low = self.key_words()
        order = np.lexsort((rank[self.router], low, high, self.first_ms, self.last_ms))
        return self.take(order)

    # ------------------------------------------------------------------
    # Objects, on request
    # ------------------------------------------------------------------

    def flow_keys(self) -> "list[FlowKey]":
        """One :class:`FlowKey` per row.

        The keys skip :class:`FlowKey`'s range checks, which the
        ``uint16`` port and ``uint8`` protocol columns already hold;
        they are equal to, hash, print and pickle as checked keys.
        """
        new = object.__new__
        keys = []
        for src, dst, sport, dport, proto in zip(
            _dotted_column(self.src),
            _dotted_column(self.dst),
            self.src_port.tolist(),
            self.dst_port.tolist(),
            self.protocol.tolist(),
        ):
            key = new(FlowKey)
            fields = key.__dict__
            fields["src_addr"] = src
            fields["dst_addr"] = dst
            fields["src_port"] = sport
            fields["dst_port"] = dport
            fields["protocol"] = proto
            keys.append(key)
        return keys

    def to_records(self) -> "list[NetFlowRecord]":
        """One :class:`NetFlowRecord` per row, in row order."""
        names = self.routers
        return [
            NetFlowRecord(
                key=key,
                octets=octets,
                packets=packets,
                first_ms=first,
                last_ms=last,
                router=names[router],
                input_if=input_if,
                output_if=output_if,
                sampling_interval=interval,
            )
            for key, octets, packets, first, last, router, input_if, output_if, interval in zip(
                self.flow_keys(),
                self.octets.tolist(),
                self.packets.tolist(),
                self.first_ms.tolist(),
                self.last_ms.tolist(),
                self.router.tolist(),
                self.input_if.tolist(),
                self.output_if.tolist(),
                self.interval.tolist(),
            )
        ]
