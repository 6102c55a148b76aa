"""Traffic-flow containers.

The paper's unit of analysis is the *flow*: an aggregate of traffic from the
ISP's customers toward one destination (or destination group), characterized
by the demand observed at the current blended rate and by the distance the
traffic travels inside the ISP (which proxies for delivery cost, §4.1.1).

:class:`FlowSet` (alias :data:`FlowTable`) is the columnar
struct-of-arrays container the demand/cost/bundling machinery operates
on: float64 ``demands``/``distances`` columns plus optional label columns
stored as ``int32`` *code* arrays with interned label tables:

* ``region_codes`` — indices into the fixed :data:`VALID_REGIONS` table
  (``metro`` / ``national`` / ``international``);
* ``class_codes`` / ``class_table`` — free-form cost-class labels (e.g.
  ``"on-net"``/``"off-net"``) that class-aware bundling must not mix;
* ``src_codes`` / ``dst_codes`` — endpoint identifiers, interned so
  grouping (one flow per destination, design replay) is a pure integer
  operation.

Code ``-1`` (:data:`NO_LABEL`) means "no label".  The legacy tuple
accessors (``regions`` / ``classes`` / ``srcs`` / ``dsts``) decode the
code columns lazily and are kept for compatibility, as are per-record
:class:`Flow` objects (``FlowSet.from_flows``, indexing and
iteration) — million-flow paths should stay on the code arrays and
never materialize ``Flow`` records.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

import numpy as np

from repro.errors import DataError

#: Region label for traffic that stays within one metropolitan area.
METRO = "metro"
#: Region label for traffic that stays within one country.
NATIONAL = "national"
#: Region label for traffic that crosses a national boundary.
INTERNATIONAL = "international"

VALID_REGIONS = (METRO, NATIONAL, INTERNATIONAL)

#: Sentinel code meaning "no label" in a label-code column.
NO_LABEL = -1

#: Fixed code of each region label (the region table never varies).
REGION_CODE = {label: code for code, label in enumerate(VALID_REGIONS)}


@dataclasses.dataclass(frozen=True)
class Flow:
    """One traffic aggregate toward a destination.

    Per-record objects are the *compatibility* view of a
    :class:`FlowSet`; bulk paths operate on the columnar arrays and
    never construct ``Flow`` instances.

    Attributes:
        demand_mbps: Traffic volume observed at the blended rate, in Mbit/s.
        distance_miles: Distance the traffic travels (cost proxy).  The
            paper computes it per network: entry-to-exit geographic distance
            (EU ISP), GeoIP source-destination distance (CDN), or the sum of
            traversed link lengths (Internet2).
        region: Optional region label (``metro``/``national``/``international``).
        cost_class: Optional cost-class label (e.g. ``on-net``/``off-net``).
        src: Optional source endpoint identifier (IP, PoP code, ...).
        dst: Optional destination endpoint identifier.
    """

    demand_mbps: float
    distance_miles: float
    region: Optional[str] = None
    cost_class: Optional[str] = None
    src: Optional[str] = None
    dst: Optional[str] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.demand_mbps) or self.demand_mbps <= 0:
            raise DataError(f"flow demand must be positive, got {self.demand_mbps!r}")
        if not math.isfinite(self.distance_miles) or self.distance_miles < 0:
            raise DataError(
                f"flow distance must be non-negative, got {self.distance_miles!r}"
            )
        if self.region is not None and self.region not in VALID_REGIONS:
            raise DataError(
                f"unknown region {self.region!r}; expected one of {VALID_REGIONS}"
            )


# ----------------------------------------------------------------------
# Label interning
# ----------------------------------------------------------------------


def encode_labels(
    labels: Optional[Sequence[Optional[str]]], n: int, name: str = "labels"
) -> "tuple[Optional[np.ndarray], tuple]":
    """Intern a label sequence into ``(codes, table)``.

    ``codes`` is an ``int32`` array where ``codes[i]`` indexes ``table``
    (first-appearance order) and :data:`NO_LABEL` stands for ``None``.
    An absent or all-``None`` column collapses to ``(None, ())``.
    """
    if labels is None:
        return None, ()
    seq = list(labels)
    if len(seq) != n:
        raise DataError(f"{name} has length {len(seq)}, expected {n}")
    index: dict = {}
    codes = np.empty(n, dtype=np.int32)
    for i, label in enumerate(seq):
        if label is None:
            codes[i] = NO_LABEL
            continue
        code = index.get(label)
        if code is None:
            code = len(index)
            index[label] = code
        codes[i] = code
    if not index:
        return None, ()
    codes.setflags(write=False)
    return codes, tuple(index)


def decode_labels(
    codes: Optional[np.ndarray], table: Sequence[Optional[str]]
) -> Optional[tuple]:
    """Materialize a code column back into a tuple of labels (or ``None``)."""
    if codes is None:
        return None
    lut = np.empty(len(table) + 1, dtype=object)
    for i, label in enumerate(table):
        lut[i] = label
    lut[len(table)] = None  # NO_LABEL indexes the trailing slot
    return tuple(lut[codes])


def encode_regions(
    regions: Optional[Sequence[Optional[str]]], n: int
) -> Optional[np.ndarray]:
    """Region labels to codes over the fixed :data:`VALID_REGIONS` table."""
    codes, table = encode_labels(regions, n, "regions")
    if codes is None:
        return None
    remap = np.empty(len(table), dtype=np.int32)
    bad = []
    for i, label in enumerate(table):
        fixed = REGION_CODE.get(label)
        if fixed is None:
            bad.append(label)
            remap[i] = NO_LABEL
        else:
            remap[i] = fixed
    if bad:
        raise DataError(f"unknown region labels: {sorted(bad)}")
    out = np.where(codes < 0, np.int32(NO_LABEL), remap[np.maximum(codes, 0)])
    out = out.astype(np.int32, copy=False)
    out.setflags(write=False)
    return out


def _validated_numeric_columns(
    demands_mbps: Sequence[float], distances_miles: Sequence[float]
) -> "tuple[np.ndarray, np.ndarray]":
    """Validate and freeze the two numeric columns (the slow, safe path)."""
    demands = np.asarray(demands_mbps, dtype=float)
    distances = np.asarray(distances_miles, dtype=float)
    if demands.ndim != 1 or distances.ndim != 1:
        raise DataError("demands and distances must be one-dimensional")
    if demands.shape != distances.shape:
        raise DataError(
            f"demands ({demands.shape}) and distances ({distances.shape}) "
            "must have the same length"
        )
    if demands.size == 0:
        raise DataError("a FlowSet must contain at least one flow")
    if not np.all(np.isfinite(demands)) or np.any(demands <= 0):
        raise DataError("all demands must be finite and positive")
    if not np.all(np.isfinite(distances)) or np.any(distances < 0):
        raise DataError("all distances must be finite and non-negative")
    demands.setflags(write=False)
    distances.setflags(write=False)
    return demands, distances


def _adopt_codes(
    codes, n: int, table_size: int, name: str, validate: bool
) -> Optional[np.ndarray]:
    """Normalize one label-code column for columnar construction."""
    if codes is None:
        return None
    codes = np.asarray(codes)
    if validate:
        if codes.dtype.kind not in "iu":
            raise DataError(f"{name} must be an integer array, got {codes.dtype}")
        if codes.shape != (n,):
            raise DataError(f"{name} has length {codes.size}, expected {n}")
        if codes.size and (
            int(codes.min()) < NO_LABEL or int(codes.max()) >= table_size
        ):
            raise DataError(
                f"{name} contains codes outside [{NO_LABEL}, {table_size - 1}]"
            )
    if codes.size and int(codes.max()) < 0:
        return None  # all unlabeled: collapse, like the label-sequence path
    codes = codes.astype(np.int32, copy=False)
    codes.setflags(write=False)
    return codes


class FlowSet:
    """An immutable columnar (struct-of-arrays) collection of flows.

    Numeric columns are read-only float64 arrays; label columns are
    read-only ``int32`` code arrays over interned tables (see the module
    docstring).  The demand-model, cost, and bundling code operate on
    these arrays directly, so a million-flow set is a handful of numpy
    allocations rather than a million Python objects.
    """

    def __init__(
        self,
        demands_mbps: Sequence[float],
        distances_miles: Sequence[float],
        regions: Optional[Sequence[Optional[str]]] = None,
        classes: Optional[Sequence[Optional[str]]] = None,
        srcs: Optional[Sequence[Optional[str]]] = None,
        dsts: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        demands, distances = _validated_numeric_columns(
            demands_mbps, distances_miles
        )
        n = demands.size
        self._demands = demands
        self._distances = distances
        self._region_codes = encode_regions(regions, n)
        self._class_codes, self._class_table = encode_labels(classes, n, "classes")
        self._src_codes, self._src_table = encode_labels(srcs, n, "srcs")
        self._dst_codes, self._dst_table = encode_labels(dsts, n, "dsts")
        self._decoded: dict = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        demands_mbps: Sequence[float],
        distances_miles: Sequence[float],
        *,
        region_codes: Optional[np.ndarray] = None,
        class_codes: Optional[np.ndarray] = None,
        class_table: Sequence[str] = (),
        src_codes: Optional[np.ndarray] = None,
        src_table: Sequence[str] = (),
        dst_codes: Optional[np.ndarray] = None,
        dst_table: Sequence[str] = (),
        validate: bool = True,
    ) -> "FlowSet":
        """Zero-copy columnar construction (the bulk path).

        Adopts the arrays as given — they are marked read-only in place,
        never copied — so generators can emit million-flow sets without
        materializing any :class:`Flow` objects or label tuples.  Region
        codes index :data:`VALID_REGIONS`; the other code columns index
        their accompanying tables, with :data:`NO_LABEL` for ``None``.

        ``validate=False`` is the pre-validated fast path: the caller
        vouches that demands are finite and positive, distances finite
        and non-negative, and codes in range.  :meth:`from_flows` uses it
        because ``Flow.__post_init__`` already validated every record.
        """
        self = object.__new__(cls)
        if validate:
            demands, distances = _validated_numeric_columns(
                demands_mbps, distances_miles
            )
        else:
            demands = np.asarray(demands_mbps, dtype=float)
            distances = np.asarray(distances_miles, dtype=float)
            demands.setflags(write=False)
            distances.setflags(write=False)
        n = demands.size
        self._demands = demands
        self._distances = distances
        self._region_codes = _adopt_codes(
            region_codes, n, len(VALID_REGIONS), "region_codes", validate
        )
        self._class_codes = _adopt_codes(
            class_codes, n, len(class_table), "class_codes", validate
        )
        self._class_table = tuple(class_table) if self._class_codes is not None else ()
        self._src_codes = _adopt_codes(
            src_codes, n, len(src_table), "src_codes", validate
        )
        self._src_table = tuple(src_table) if self._src_codes is not None else ()
        self._dst_codes = _adopt_codes(
            dst_codes, n, len(dst_table), "dst_codes", validate
        )
        self._dst_table = tuple(dst_table) if self._dst_codes is not None else ()
        self._decoded = {}
        return self

    @classmethod
    def from_flows(cls, flows: Iterable[Flow]) -> "FlowSet":
        """Build a :class:`FlowSet` from an iterable of :class:`Flow`.

        ``Flow.__post_init__`` has already validated every record, so
        this takes the pre-validated fast path instead of re-validating
        the assembled arrays.
        """
        flows = list(flows)
        if not flows:
            raise DataError("cannot build a FlowSet from zero flows")
        n = len(flows)
        demands = np.fromiter((f.demand_mbps for f in flows), dtype=float, count=n)
        distances = np.fromiter(
            (f.distance_miles for f in flows), dtype=float, count=n
        )
        region_codes = encode_regions([f.region for f in flows], n)
        class_codes, class_table = encode_labels(
            [f.cost_class for f in flows], n, "classes"
        )
        src_codes, src_table = encode_labels([f.src for f in flows], n, "srcs")
        dst_codes, dst_table = encode_labels([f.dst for f in flows], n, "dsts")
        return cls.from_columns(
            demands,
            distances,
            region_codes=region_codes,
            class_codes=class_codes,
            class_table=class_table,
            src_codes=src_codes,
            src_table=src_table,
            dst_codes=dst_codes,
            dst_table=dst_table,
            validate=False,
        )

    def replace(
        self,
        demands_mbps: Optional[Sequence[float]] = None,
        distances_miles: Optional[Sequence[float]] = None,
        regions: Optional[Sequence[Optional[str]]] = None,
        classes: Optional[Sequence[Optional[str]]] = None,
    ) -> "FlowSet":
        """Return a copy with some columns replaced."""
        demands, distances = _validated_numeric_columns(
            self._demands if demands_mbps is None else demands_mbps,
            self._distances if distances_miles is None else distances_miles,
        )
        n = demands.size
        if n != len(self):
            for name, codes, replacement in (
                ("regions", self._region_codes, regions),
                ("classes", self._class_codes, classes),
                ("srcs", self._src_codes, None),
                ("dsts", self._dst_codes, None),
            ):
                if replacement is None and codes is not None:
                    raise DataError(f"{name} has length {len(self)}, expected {n}")
        region_codes = (
            self._region_codes if regions is None else encode_regions(regions, n)
        )
        if classes is None:
            class_codes, class_table = self._class_codes, self._class_table
        else:
            class_codes, class_table = encode_labels(classes, n, "classes")
        return FlowSet.from_columns(
            demands,
            distances,
            region_codes=region_codes,
            class_codes=class_codes,
            class_table=class_table,
            src_codes=self._src_codes,
            src_table=self._src_table,
            dst_codes=self._dst_codes,
            dst_table=self._dst_table,
            validate=False,
        )

    def subset(self, indices: Sequence[int]) -> "FlowSet":
        """Return the flows at ``indices`` (in that order) as a new set."""
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise DataError("cannot build an empty FlowSet subset")

        def pick(codes: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if codes is None else codes[idx]

        return FlowSet.from_columns(
            self._demands[idx],
            self._distances[idx],
            region_codes=pick(self._region_codes),
            class_codes=pick(self._class_codes),
            class_table=self._class_table,
            src_codes=pick(self._src_codes),
            src_table=self._src_table,
            dst_codes=pick(self._dst_codes),
            dst_table=self._dst_table,
            validate=False,
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------

    @property
    def demands(self) -> np.ndarray:
        """Per-flow demand in Mbit/s (read-only array)."""
        return self._demands

    @property
    def distances(self) -> np.ndarray:
        """Per-flow distance in miles (read-only array)."""
        return self._distances

    @property
    def region_codes(self) -> Optional[np.ndarray]:
        """Per-flow region codes into :data:`VALID_REGIONS`, or ``None``."""
        return self._region_codes

    @property
    def region_table(self) -> tuple:
        """The region label table (fixed: :data:`VALID_REGIONS`)."""
        return VALID_REGIONS if self._region_codes is not None else ()

    @property
    def class_codes(self) -> Optional[np.ndarray]:
        """Per-flow cost-class codes into :attr:`class_table`, or ``None``."""
        return self._class_codes

    @property
    def class_table(self) -> tuple:
        return self._class_table

    @property
    def src_codes(self) -> Optional[np.ndarray]:
        return self._src_codes

    @property
    def src_table(self) -> tuple:
        return self._src_table

    @property
    def dst_codes(self) -> Optional[np.ndarray]:
        """Per-flow destination codes into :attr:`dst_table`, or ``None``."""
        return self._dst_codes

    @property
    def dst_table(self) -> tuple:
        return self._dst_table

    # -- decoded (compatibility) label views ---------------------------

    @property
    def regions(self) -> Optional[tuple]:
        """Per-flow region labels, or ``None`` if not set (decoded lazily)."""
        return self._decode("regions", self._region_codes, VALID_REGIONS)

    @property
    def classes(self) -> Optional[tuple]:
        """Per-flow cost-class labels, or ``None`` if not set."""
        return self._decode("classes", self._class_codes, self._class_table)

    @property
    def srcs(self) -> Optional[tuple]:
        return self._decode("srcs", self._src_codes, self._src_table)

    @property
    def dsts(self) -> Optional[tuple]:
        return self._decode("dsts", self._dst_codes, self._dst_table)

    def _decode(self, key: str, codes, table) -> Optional[tuple]:
        if codes is None:
            return None
        if key not in self._decoded:
            self._decoded[key] = decode_labels(codes, table)
        return self._decoded[key]

    def __len__(self) -> int:
        return int(self._demands.size)

    def __iter__(self) -> Iterator[Flow]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> Flow:
        return Flow(
            demand_mbps=float(self._demands[i]),
            distance_miles=float(self._distances[i]),
            region=_label_at(self._region_codes, VALID_REGIONS, i),
            cost_class=_label_at(self._class_codes, self._class_table, i),
            src=_label_at(self._src_codes, self._src_table, i),
            dst=_label_at(self._dst_codes, self._dst_table, i),
        )

    def __repr__(self) -> str:
        return (
            f"FlowSet(n={len(self)}, aggregate={self.aggregate_gbps():.3f} Gbps, "
            f"w_avg_distance={self.weighted_average_distance():.1f} mi)"
        )

    # ------------------------------------------------------------------
    # Summary statistics (the columns of the paper's Table 1)
    # ------------------------------------------------------------------

    def aggregate_gbps(self) -> float:
        """Total traffic across all flows in Gbit/s."""
        return float(self._demands.sum()) / 1000.0

    def weighted_average_distance(self) -> float:
        """Demand-weighted average flow distance in miles."""
        return float(np.average(self._distances, weights=self._demands))

    def distance_cv(self) -> float:
        """Demand-weighted coefficient of variation of flow distance."""
        mean = self.weighted_average_distance()
        if mean == 0:
            return 0.0
        var = float(
            np.average((self._distances - mean) ** 2, weights=self._demands)
        )
        return math.sqrt(var) / mean

    def demand_cv(self) -> float:
        """Coefficient of variation of per-flow demand."""
        mean = float(self._demands.mean())
        return float(self._demands.std()) / mean

    def table1_row(self) -> dict:
        """The statistics reported for one dataset in the paper's Table 1."""
        return {
            "w_avg_distance_miles": self.weighted_average_distance(),
            "distance_cv": self.distance_cv(),
            "aggregate_gbps": self.aggregate_gbps(),
            "demand_cv": self.demand_cv(),
        }


def _label_at(codes: Optional[np.ndarray], table: tuple, i: int) -> Optional[str]:
    if codes is None:
        return None
    code = int(codes[i])
    return None if code < 0 else table[code]


#: The columnar container under its struct-of-arrays name.  ``FlowTable``
#: and ``FlowSet`` are the same type; the alias exists so bulk columnar
#: call sites read naturally (``FlowTable.from_columns(...)``).
FlowTable = FlowSet
