"""ISP cost models (paper §3.3).

Cost data is proprietary and volatile, so the paper works with *relative*
costs: each model maps a flow's distance (and labels) to a dimensionless
relative cost ``f_i``; calibration later finds the dollar scale ``gamma``
such that ``c_i = gamma * f_i`` is consistent with the observed blended
rate (§4.1.3).  Four models are provided, each with a tuning parameter
``theta``:

* :class:`LinearDistanceCost` — ``f_i = d_i + beta`` with base cost
  ``beta = theta * max_j d_j``.  ``theta`` is the relative base-cost
  fraction; small ``theta`` means distance dominates total cost.
* :class:`ConcaveDistanceCost` — ``f_i = a log_b(d_i) + c + beta``, the
  shape observed in public leased-line price lists (ITU, NTT; Figure 6).
* :class:`RegionalCost` — flows are metro / national / international with
  relative costs ``1``, ``2**theta``, ``3**theta`` (``theta = 0``: no
  difference; ``theta = 1``: linear 1:2:3; ``theta > 1``: magnitudes).
* :class:`DestinationTypeCost` — "on-net" traffic (to the ISP's own
  customers, who also pay) versus "off-net" traffic (to peers) at twice
  the unit cost.  ``theta`` is the on-net fraction of every flow; this
  model *splits* each flow into an on-net and an off-net part.

All distance-based models floor the distance at ``min_distance_miles``
(default 1.0) so intra-PoP flows keep a positive cost and the concave
model's logarithm stays in domain.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Optional

import numpy as np

from repro.core.flow import (
    FlowSet,
    INTERNATIONAL,
    METRO,
    NATIONAL,
    VALID_REGIONS,
    decode_labels,
    encode_labels,
)
from repro.errors import DataError, ModelParameterError

#: Cost-class labels emitted by :class:`DestinationTypeCost`.
ON_NET = "on-net"
OFF_NET = "off-net"


class CostedFlows:
    """A flow set annotated with relative delivery costs.

    Cost classes are carried columnar — an ``int32`` code array over an
    interned label table — so downstream grouped reductions (class-aware
    bundling, peering offerings) never touch per-flow Python strings.
    The ``classes`` label tuple is decoded lazily for compatibility, and
    constructing with ``classes=`` label sequences still works.

    Attributes:
        flows: The (possibly transformed) flow set.  The destination-type
            model splits each input flow in two, so ``flows`` may differ
            from the input set.
        relative_costs: Per-flow dimensionless cost ``f_i > 0``.
        class_codes: Per-flow cost-class codes when the model defines
            natural traffic classes (regions, on/off-net), else ``None``.
            The class-aware bundling heuristic (§4.3.1) never mixes
            classes.
        class_table: Label table the class codes index.
    """

    def __init__(
        self,
        flows: FlowSet,
        relative_costs: np.ndarray,
        classes: Optional[tuple] = None,
        class_codes: Optional[np.ndarray] = None,
        class_table: "tuple[str, ...]" = (),
    ) -> None:
        f = np.asarray(relative_costs, dtype=float)
        if f.shape != (len(flows),):
            raise DataError(
                f"relative_costs shape {f.shape} does not match "
                f"{len(flows)} flows"
            )
        if np.any(f <= 0) or not np.all(np.isfinite(f)):
            raise DataError("relative costs must be finite and positive")
        self.flows = flows
        self.relative_costs = f
        if class_codes is not None:
            codes = np.asarray(class_codes)
            if codes.shape != (len(flows),):
                raise DataError("classes length does not match flows")
            self.class_codes: Optional[np.ndarray] = codes
            self.class_table = tuple(class_table)
        else:
            if classes is not None and len(classes) != len(flows):
                raise DataError("classes length does not match flows")
            self.class_codes, self.class_table = encode_labels(
                classes, len(flows), "classes"
            )
        self._classes: Optional[tuple] = None

    @property
    def classes(self) -> Optional[tuple]:
        """The class labels as a tuple (decoded lazily; compat view)."""
        if self.class_codes is None:
            return None
        if self._classes is None:
            self._classes = decode_labels(self.class_codes, self.class_table)
        return self._classes


class CostModel(abc.ABC):
    """Maps a :class:`FlowSet` to relative delivery costs."""

    #: Short machine-readable name.
    name: str = ""

    def __init__(self, theta: float, min_distance_miles: float = 1.0) -> None:
        theta = float(theta)
        if not math.isfinite(theta) or theta < 0:
            raise ModelParameterError(f"theta must be finite and >= 0, got {theta}")
        if min_distance_miles <= 0:
            raise ModelParameterError("min_distance_miles must be positive")
        self.theta = theta
        self.min_distance_miles = float(min_distance_miles)

    @abc.abstractmethod
    def prepare(self, flows: FlowSet) -> CostedFlows:
        """Compute relative costs (and possibly transform the flow set)."""

    def prepare_quotes(
        self, flows: FlowSet, reference_distance_miles: "Optional[float]" = None
    ) -> CostedFlows:
        """Relative costs in a *pinned* normalization frame.

        :meth:`prepare` normalizes against the flow set itself (the
        distance models set their base cost from the batch's longest
        haul), which is right for calibration but wrong for quoting: a
        quote's cost must be batch-independent and expressed in the same
        frame the design's ``gamma`` was calibrated under.  Passing the
        calibration set's maximum distance as
        ``reference_distance_miles`` reproduces that frame exactly;
        models whose costs never depend on the rest of the batch (the
        regional model) ignore it.
        """
        del reference_distance_miles  # batch-independent models ignore it
        return self.prepare(flows)

    def _floored_distances(self, flows: FlowSet) -> np.ndarray:
        return np.maximum(flows.distances, self.min_distance_miles)

    def _floored_reference(self, reference_distance_miles: float) -> float:
        # Calibration floors every distance, the longest haul included, so
        # a 0-mile reference (every calibration flow local) is the floor.
        reference = float(reference_distance_miles)
        if not math.isfinite(reference) or reference < 0:
            raise ModelParameterError(
                f"reference distance must be finite and non-negative, got "
                f"{reference_distance_miles!r}"
            )
        return max(reference, self.min_distance_miles)

    def describe(self) -> str:
        return f"{self.name} cost model (theta={self.theta})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(theta={self.theta})"


class LinearDistanceCost(CostModel):
    """Cost linear in distance with a relative base cost (§3.3).

    ``f_i = d_i + beta`` where ``beta = theta * max_j d_j``.  The paper's
    worked example: distances (1, 10, 100) miles with ``theta = 0.1`` give
    ``beta = 10`` and relative costs (11, 20, 110).
    """

    name = "linear"

    def prepare(self, flows: FlowSet) -> CostedFlows:
        d = self._floored_distances(flows)
        beta = self.theta * float(d.max())
        return CostedFlows(flows=flows, relative_costs=d + beta)

    def prepare_quotes(
        self, flows: FlowSet, reference_distance_miles: "Optional[float]" = None
    ) -> CostedFlows:
        if reference_distance_miles is None:
            return self.prepare(flows)
        d = self._floored_distances(flows)
        beta = self.theta * self._floored_reference(reference_distance_miles)
        return CostedFlows(flows=flows, relative_costs=d + beta)


class ConcaveDistanceCost(CostModel):
    """Cost concave in distance, ``f_i = a log_b(d_i) + c + beta`` (§3.3).

    Defaults ``a = 0.5, b = 6, c = 1`` come from the paper's fit to ITU and
    NTT leased-line prices (Figure 6).  ``beta = theta * max_j g(d_j)``
    mirrors the linear model's base cost.
    """

    name = "concave"

    def __init__(
        self,
        theta: float,
        a: float = 0.5,
        b: float = 6.0,
        c: float = 1.0,
        min_distance_miles: float = 1.0,
    ) -> None:
        super().__init__(theta, min_distance_miles)
        if a <= 0 or c < 0:
            raise ModelParameterError(f"concave shape needs a > 0, c >= 0; got a={a}, c={c}")
        if b <= 1:
            raise ModelParameterError(f"log base b must exceed 1, got {b}")
        self.a = float(a)
        self.b = float(b)
        self.c = float(c)

    def prepare(self, flows: FlowSet) -> CostedFlows:
        d = self._floored_distances(flows)
        g = self._shape(d)
        beta = self.theta * float(g.max())
        return CostedFlows(flows=flows, relative_costs=g + beta)

    def prepare_quotes(
        self, flows: FlowSet, reference_distance_miles: "Optional[float]" = None
    ) -> CostedFlows:
        if reference_distance_miles is None:
            return self.prepare(flows)
        d = self._floored_distances(flows)
        g = self._shape(d)
        reference = self._floored_reference(reference_distance_miles)
        beta = self.theta * float(self._shape(np.array([reference]))[0])
        costs = g + beta
        if np.any(costs <= 0):
            raise ModelParameterError(
                "concave quote cost is non-positive at the shortest "
                "distance; raise min_distance_miles or the intercept c"
            )
        return CostedFlows(flows=flows, relative_costs=costs)

    def _shape(self, distances: np.ndarray) -> np.ndarray:
        g = self.a * np.log(distances) / math.log(self.b) + self.c
        if np.any(g <= 0):
            raise ModelParameterError(
                "concave cost is non-positive at the shortest distance; "
                "raise min_distance_miles or the intercept c"
            )
        return g


class RegionalCost(CostModel):
    """Destination-region cost: metro / national / international (§3.3).

    Relative costs are ``1``, ``2**theta``, ``3**theta``.  Flows are
    classified by their ``region`` labels when present; otherwise by the
    paper's EU-ISP distance thresholds: under ``metro_miles`` (10) is
    metro, under ``national_miles`` (100) is national, else international.
    """

    name = "regional"

    def __init__(
        self,
        theta: float,
        metro_miles: float = 10.0,
        national_miles: float = 100.0,
        min_distance_miles: float = 1.0,
    ) -> None:
        super().__init__(theta, min_distance_miles)
        if not 0 < metro_miles < national_miles:
            raise ModelParameterError(
                "need 0 < metro_miles < national_miles, got "
                f"{metro_miles}, {national_miles}"
            )
        self.metro_miles = float(metro_miles)
        self.national_miles = float(national_miles)

    def classify_codes(self, flows: FlowSet) -> np.ndarray:
        """Per-flow region codes over :data:`~repro.core.flow.VALID_REGIONS`.

        Stored region codes win over the distance thresholds; the whole
        classification is two threshold comparisons and a ``where`` merge.
        """
        codes = np.searchsorted(
            np.array([self.metro_miles, self.national_miles]),
            flows.distances,
            side="right",
        ).astype(np.int32)
        stored = flows.region_codes
        if stored is not None:
            codes = np.where(stored >= 0, stored, codes).astype(np.int32)
        return codes

    def classify(self, flows: FlowSet) -> tuple:
        """Per-flow region labels (stored labels win over thresholds)."""
        return decode_labels(self.classify_codes(flows), VALID_REGIONS)

    def prepare(self, flows: FlowSet) -> CostedFlows:
        codes = self.classify_codes(flows)
        cost_of = np.array([1.0, 2.0**self.theta, 3.0**self.theta])
        return CostedFlows(
            flows=flows,
            relative_costs=cost_of[codes],
            class_codes=codes,
            class_table=VALID_REGIONS,
        )


class DestinationTypeCost(CostModel):
    """On-net versus off-net cost (§3.3).

    ``theta`` is the fraction of each flow's traffic destined to the ISP's
    own customers ("on-net"); the remainder goes to peers ("off-net") at
    **twice** the unit cost — when the ISP carries customer-to-customer
    traffic it is paid twice, customer-to-peer traffic only once.

    :meth:`prepare` therefore splits every input flow into an on-net part
    (demand ``theta * q``, relative cost 1) and an off-net part (demand
    ``(1-theta) * q``, relative cost 2), labelling the parts so
    class-aware bundling can keep them separate.  Costs are flat per
    class — the paper analyzes this model as having exactly "two distinct
    cost classes", which is why two well-chosen bundles already capture
    most of the profit (its §4.3.1).
    """

    name = "destination-type"

    #: Relative unit costs of the two classes (§3.3: off-net traffic is
    #: twice as costly because only one side pays the ISP).
    ON_NET_COST = 1.0
    OFF_NET_COST = 2.0

    def __init__(self, theta: float, min_distance_miles: float = 1.0) -> None:
        super().__init__(theta, min_distance_miles)
        if not 0.0 < self.theta < 1.0:
            raise ModelParameterError(
                f"destination-type theta is an on-net traffic fraction and "
                f"must lie in (0, 1), got {self.theta}"
            )

    def prepare(self, flows: FlowSet) -> CostedFlows:
        d = self._floored_distances(flows)
        q = flows.demands
        n = len(flows)
        demands = np.concatenate((self.theta * q, (1.0 - self.theta) * q))
        distances = np.concatenate((d, d))
        costs = np.concatenate(
            (np.full(n, self.ON_NET_COST), np.full(n, self.OFF_NET_COST))
        )
        class_codes = np.repeat(np.array([0, 1], dtype=np.int32), n)
        region_codes = None
        if flows.region_codes is not None:
            region_codes = np.tile(flows.region_codes, 2)
        # The inputs were validated on construction and theta in (0, 1)
        # keeps both halves positive, so take the pre-validated fast path.
        split = FlowSet.from_columns(
            demands,
            distances,
            region_codes=region_codes,
            class_codes=class_codes,
            class_table=(ON_NET, OFF_NET),
            validate=False,
        )
        return CostedFlows(
            flows=split,
            relative_costs=costs,
            class_codes=split.class_codes,
            class_table=(ON_NET, OFF_NET),
        )


class StepDistanceCost(CostModel):
    """Piecewise-constant cost in distance (§3.3's small-scale reality).

    The paper notes that "on a small scale the bandwidth cost is a step
    function ... equipment manufacturers sell several classes of optical
    transceivers, where each more powerful transceiver able to reach
    longer distances costs progressively more".  This model keeps the
    steps instead of smoothing them: reach classes at ``thresholds``
    miles cost ``levels`` relative units.

    Defaults follow typical optical reach classes (SR/LR/ER/ZR + long-haul
    DWDM): 0.3 / 6 / 25 / 50 miles of metro fiber, then regional and
    long-haul line systems.  ``theta`` is the §3.3 base-cost fraction, as
    in the linear model.

    With only a few distinct cost levels, the optimal tier count equals
    the number of occupied levels — a crisp test case for the "how many
    tiers?" question (compare Figure 13's two-class behaviour).
    """

    name = "step"

    #: Upper distance bound (miles) of each reach class...
    DEFAULT_THRESHOLDS = (0.3, 6.0, 25.0, 50.0, 600.0)
    #: ...and the classes' relative costs (last entry: beyond all bounds).
    DEFAULT_LEVELS = (1.0, 2.0, 4.0, 7.0, 12.0, 30.0)

    def __init__(
        self,
        theta: float,
        thresholds: "tuple[float, ...]" = DEFAULT_THRESHOLDS,
        levels: "tuple[float, ...]" = DEFAULT_LEVELS,
        min_distance_miles: float = 1e-3,
    ) -> None:
        super().__init__(theta, min_distance_miles)
        thresholds = tuple(float(t) for t in thresholds)
        levels = tuple(float(v) for v in levels)
        if len(levels) != len(thresholds) + 1:
            raise ModelParameterError(
                f"need len(levels) == len(thresholds) + 1, got "
                f"{len(levels)} and {len(thresholds)}"
            )
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ModelParameterError("thresholds must be strictly increasing")
        if any(v <= 0 for v in levels):
            raise ModelParameterError("levels must be positive")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ModelParameterError(
                "levels must be strictly increasing (longer reach costs more)"
            )
        self.thresholds = thresholds
        self.levels = levels

    def prepare(self, flows: FlowSet) -> CostedFlows:
        d = self._floored_distances(flows)
        indices = np.searchsorted(np.asarray(self.thresholds), d, side="right")
        g = np.asarray(self.levels)[indices]
        beta = self.theta * float(g.max())
        return CostedFlows(
            flows=flows,
            relative_costs=g + beta,
            class_codes=indices.astype(np.int32),
            class_table=tuple(f"reach-{i}" for i in range(len(self.levels))),
        )


class CallableCost(CostModel):
    """Adapter: any ``distance -> relative cost`` function as a cost model.

    Lets users plug in their own cost curves (fiber-lease price lists,
    internal TCO models) without subclassing.  ``theta`` adds the same
    relative base cost as the built-in models.
    """

    name = "callable"

    def __init__(
        self,
        fn,
        theta: float = 0.0,
        min_distance_miles: float = 1.0,
        fn_name: Optional[str] = None,
    ) -> None:
        super().__init__(theta, min_distance_miles)
        if not callable(fn):
            raise ModelParameterError("fn must be callable")
        self._fn = fn
        self.fn_name = fn_name or getattr(fn, "__name__", "custom")

    def prepare(self, flows: FlowSet) -> CostedFlows:
        d = self._floored_distances(flows)
        # Try one vectorized call first; fall back to the per-element loop
        # for scalar-only functions (e.g. anything built on math.*).
        try:
            g = np.asarray(self._fn(d), dtype=float)
            if g.shape != d.shape:
                raise TypeError
        except (TypeError, ValueError):
            g = np.asarray([float(self._fn(float(x))) for x in d])
        if np.any(g <= 0) or not np.all(np.isfinite(g)):
            raise ModelParameterError(
                f"cost function {self.fn_name!r} produced non-positive or "
                "non-finite values"
            )
        beta = self.theta * float(g.max())
        return CostedFlows(flows=flows, relative_costs=g + beta)

    def describe(self) -> str:
        return f"callable cost model ({self.fn_name}, theta={self.theta})"


@dataclasses.dataclass(frozen=True)
class ConcaveFit:
    """Result of fitting ``y = k ln(x) + c`` to price-list data (Figure 6).

    The paper reports the equivalent form ``y = a log_b(x) + c``; since
    ``a`` and ``b`` only enter through ``k = a / ln(b)``, the pair is not
    identifiable and we expose the canonical slope ``k`` plus a converter.
    """

    k: float
    c: float
    residual: float

    def a_for_base(self, b: float) -> float:
        """The ``a`` coefficient that pairs with log base ``b``."""
        if b <= 1:
            raise ModelParameterError(f"log base b must exceed 1, got {b}")
        return self.k * math.log(b)

    def predict(self, distances: np.ndarray) -> np.ndarray:
        x = np.asarray(distances, dtype=float)
        return self.k * np.log(x) + self.c


def fit_concave_price_curve(
    distances: np.ndarray, prices: np.ndarray
) -> ConcaveFit:
    """Least-squares fit of the concave price curve to (distance, price) data.

    Reproduces the paper's Figure 6 procedure on leased-line price lists.
    Distances must be positive; prices may be normalized or absolute.
    """
    x = np.asarray(distances, dtype=float)
    y = np.asarray(prices, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise DataError("need matching 1-D arrays with at least two points")
    if np.any(x <= 0):
        raise DataError("distances must be positive (log domain)")

    def model(xs: np.ndarray, k: float, c: float) -> np.ndarray:
        return k * np.log(xs) + c

    from scipy import optimize

    (k, c), _ = optimize.curve_fit(model, x, y, p0=(0.1, 1.0))
    residual = float(np.sqrt(np.mean((model(x, k, c) - y) ** 2)))
    return ConcaveFit(k=float(k), c=float(c), residual=residual)


def default_cost_models(theta: Optional[float] = None) -> list:
    """The paper's four cost models at their §4.2.2 default settings."""
    return [
        LinearDistanceCost(theta=0.2 if theta is None else theta),
        ConcaveDistanceCost(theta=0.2 if theta is None else theta),
        RegionalCost(theta=1.1 if theta is None else theta),
        DestinationTypeCost(theta=0.1 if theta is None else theta),
    ]
