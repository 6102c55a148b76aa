"""Bundling strategies (paper §4.2.1).

A *bundling* is a partition of the flows into ``B`` tiers; every flow in a
tier carries the same price.  The paper compares six strategies:

* :class:`OptimalBundling` — search for the profit-maximizing partition.
* :class:`DemandWeightedBundling` — token-bucket grouping by demand.
* :class:`CostWeightedBundling` — token-bucket grouping by inverse cost
  (models today's practice: local/cheap flows get their own tiers).
* :class:`ProfitWeightedBundling` — token-bucket grouping by *potential
  profit*, which accounts for demand and cost together (the paper's
  recommended strategy).
* :class:`CostDivisionBundling` — equal-width cost ranges.
* :class:`IndexDivisionBundling` — equal-count cost ranks.

plus the class-aware wrapper of §4.3.1 (:class:`ClassAwareBundling`), which
never mixes flows from different cost classes (e.g. on-net / off-net).

All strategies consume a :class:`BundlingInputs` snapshot and return a list
of index arrays partitioning ``range(n)``.  Strategies may return fewer
than ``B`` bundles (empty tiers are dropped); they never return more.

Every strategy is vectorized over the columnar arrays — partitioning a
million flows is a sort plus a handful of prefix-sum/``bincount`` passes,
with no per-flow Python.  The original per-flow implementations live in
``tests/bundling_reference.py`` as ground truth for the equivalence
tests.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator, Sequence
from typing import Optional

import numpy as np

from repro.core.demand import DemandModel
from repro.core.flow import decode_labels, encode_labels
from repro.errors import BundlingError, DataError


class BundlingInputs:
    """Everything a bundling strategy may look at.

    Cost classes are carried as an interned code column
    (``class_codes``/``class_table``, the columnar form produced by
    :class:`~repro.core.market.Market`); the ``classes`` label tuple is
    decoded lazily for compatibility.  Constructing with ``classes=``
    label sequences still works and interns them on the way in.

    Attributes:
        model: The calibrated demand model (used by optimal search).
        demands: Observed per-flow demand at the blended rate (Mbps).
        valuations: Fitted per-flow valuations.
        costs: Per-flow dollar unit costs ``gamma * f_i``.
        potential_profits: Per-flow profit if priced alone at its optimum
            (Eq. 12 / Eq. 13) — the profit-weighted strategy's weights.
        class_codes: Optional per-flow cost-class codes (int array).
        class_table: Label table the class codes index.
    """

    def __init__(
        self,
        model: DemandModel,
        demands: np.ndarray,
        valuations: np.ndarray,
        costs: np.ndarray,
        potential_profits: np.ndarray,
        classes: Optional[Sequence[Optional[str]]] = None,
        class_codes: Optional[np.ndarray] = None,
        class_table: Sequence[str] = (),
    ) -> None:
        self.model = model
        self.demands = np.asarray(demands, dtype=float)
        self.valuations = np.asarray(valuations, dtype=float)
        self.costs = np.asarray(costs, dtype=float)
        self.potential_profits = np.asarray(potential_profits, dtype=float)
        if class_codes is not None:
            self.class_codes: Optional[np.ndarray] = np.asarray(class_codes)
            self.class_table = tuple(class_table)
        else:
            self.class_codes, self.class_table = encode_labels(
                classes, self.demands.size, "classes"
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

    @property
    def n_flows(self) -> int:
        return int(self.demands.size)

    def subset(self, indices: np.ndarray) -> "BundlingInputs":
        idx = np.asarray(indices, dtype=int)
        return BundlingInputs(
            model=self.model,
            demands=self.demands[idx],
            valuations=self.valuations[idx],
            costs=self.costs[idx],
            potential_profits=self.potential_profits[idx],
            class_codes=(
                None if self.class_codes is None else self.class_codes[idx]
            ),
            class_table=self.class_table,
        )


Bundles = "list[np.ndarray]"


class BundlingStrategy(abc.ABC):
    """Interface: partition ``n`` flows into at most ``n_bundles`` tiers."""

    #: Short machine-readable name used in figures and registries.
    name: str = ""

    def bundle(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        """Return a partition of ``range(inputs.n_flows)``."""
        n = inputs.n_flows
        if n == 0:
            raise BundlingError("cannot bundle an empty flow set")
        if n_bundles < 1:
            raise BundlingError(f"need at least one bundle, got {n_bundles}")
        if n_bundles >= n:
            # One tier per flow is the finest possible partition.
            return [np.array([i]) for i in range(n)]
        bundles = self._bundle(inputs, n_bundles)
        return _validated(bundles, n, n_bundles, self.name)

    @abc.abstractmethod
    def _bundle(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        """Strategy-specific partition; ``1 <= n_bundles < n`` guaranteed."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# Token-bucket family (demand / cost / profit weighted)
# ----------------------------------------------------------------------


class TokenBucketBundling(BundlingStrategy):
    """The paper's token-bucket grouping algorithm, parameterized by weight.

    The total token budget ``T`` is the sum of all flow weights; each of the
    ``B`` bundles starts with budget ``T / B``.  Flows are visited in
    decreasing weight order and each is assigned to the first bundle that is
    empty or still has positive budget; the flow's weight is deducted, and
    any deficit is carried into the next bundle's budget.

    The paper's worked example: demands (30, 10, 10, 10) into two bundles
    yield {30} and {10, 10, 10} — heavy flows get their own tiers, light
    flows share.
    """

    @abc.abstractmethod
    def weights(self, inputs: BundlingInputs) -> np.ndarray:
        """Per-flow token weights (must be positive)."""

    def _bundle(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        w = np.asarray(self.weights(inputs), dtype=float)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise BundlingError(f"{self.name}: weights must be finite and positive")
        return token_bucket_partition(w, n_bundles)


def token_bucket_partition(weights: np.ndarray, n_bundles: int) -> Bundles:
    """The paper's token-bucket grouping over explicit weights.

    Vectorized form of the sequential budget scan: with flows sorted by
    decreasing weight and ``C_i`` the exclusive prefix sum of sorted
    weights, bundle ``j`` has closed before flow ``i`` exactly when
    ``(j+1) * T/B <= C_i`` — but an *empty* bundle is always open, so the
    bundle index follows the capped recurrence
    ``j_i = min(n_i, j_{i-1} + 1)`` with ``n_i`` the count of crossed
    budget thresholds.  Unrolling gives
    ``j_i = min(B-1, i + min_{m<=i}(n_m - m))``, a running minimum — the
    whole partition is one sort plus O(n) array passes.
    """
    w = np.asarray(weights, dtype=float)
    n = w.size
    order = np.argsort(-w, kind="stable")
    budget = w.sum() / n_bundles
    consumed_before = np.cumsum(w[order]) - w[order]
    thresholds = budget * np.arange(1, n_bundles)
    crossed = np.searchsorted(thresholds, consumed_before, side="right")
    position = np.arange(n)
    bundle_of = np.minimum(
        position + np.minimum.accumulate(crossed - position), n_bundles - 1
    )
    return [order[bundle_of == b] for b in range(int(bundle_of[-1]) + 1)]


class DemandWeightedBundling(TokenBucketBundling):
    """Token-bucket bundling weighted by observed demand."""

    name = "demand-weighted"

    def weights(self, inputs: BundlingInputs) -> np.ndarray:
        return np.asarray(inputs.demands, dtype=float)


class CostWeightedBundling(TokenBucketBundling):
    """Token-bucket bundling weighted by inverse unit cost.

    Gives cheap (local) flows their own tiers and lumps expensive
    long-haul flows together — the shape of today's regional-pricing and
    backplane-peering offerings.
    """

    name = "cost-weighted"

    def weights(self, inputs: BundlingInputs) -> np.ndarray:
        return 1.0 / np.asarray(inputs.costs, dtype=float)


class ProfitWeightedBundling(TokenBucketBundling):
    """Token-bucket bundling driven by per-flow potential profit.

    Accounts for demand and cost *together*; the paper finds it nearly as
    good as exhaustive search with only 3-4 tiers.

    Reproduction note (DESIGN.md §5): the paper weights flows by their
    total potential profit (Eq. 12).  At the evaluation's ``alpha = 1.1``
    that weight is ``~ q * c**-0.1`` — indistinguishable from plain demand
    weighting, which contradicts the clear profit-vs-demand separation in
    the paper's Figure 8.  We therefore build token-bucket candidates from
    both readings of "the potential profit metric" — the **total**
    potential profit of the flow and the potential profit **per Mbps of
    demand** (profit density, which is cost-monotone) — and keep whichever
    partition earns more, restoring the reported ordering
    optimal >= profit-weighted >= cost-weighted.
    """

    name = "profit-weighted"

    def weights(self, inputs: BundlingInputs) -> np.ndarray:
        return np.asarray(inputs.potential_profits, dtype=float)

    def _bundle(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        total = np.asarray(inputs.potential_profits, dtype=float)
        if np.any(total <= 0) or not np.all(np.isfinite(total)):
            raise BundlingError(f"{self.name}: weights must be finite and positive")
        per_unit = total / np.asarray(inputs.demands, dtype=float)
        best = None
        best_profit = -np.inf
        for weights in (total, per_unit):
            candidate = token_bucket_partition(weights, n_bundles)
            profit = evaluate_partition(
                inputs.model, inputs.valuations, inputs.costs, candidate
            )
            if profit > best_profit:
                best_profit = profit
                best = candidate
        assert best is not None
        return best


# ----------------------------------------------------------------------
# Division family
# ----------------------------------------------------------------------


class CostDivisionBundling(BundlingStrategy):
    """Equal-width cost ranges over ``[0, max cost]``.

    The paper's example: with two bundles and a $10 most-expensive flow,
    $0-$4.99 flows form tier one and $5-$10 flows tier two.  Ranges with no
    flows are dropped.
    """

    name = "cost-division"

    def _bundle(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        c = np.asarray(inputs.costs, dtype=float)
        edges = np.linspace(0.0, float(c.max()), n_bundles + 1)
        # Right-inclusive last bin so the max-cost flow lands in a bundle.
        assignment = np.clip(
            np.searchsorted(edges, c, side="right") - 1, 0, n_bundles - 1
        )
        return [
            np.flatnonzero(assignment == b)
            for b in range(n_bundles)
            if np.any(assignment == b)
        ]


class IndexDivisionBundling(BundlingStrategy):
    """Equal-count cost ranks: sort by cost, split into ``B`` even chunks."""

    name = "index-division"

    def _bundle(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        order = np.argsort(inputs.costs, kind="stable")
        return [chunk for chunk in np.array_split(order, n_bundles) if chunk.size]


# ----------------------------------------------------------------------
# Optimal search
# ----------------------------------------------------------------------


def evaluate_partition(
    model: DemandModel,
    valuations: np.ndarray,
    costs: np.ndarray,
    bundles: Sequence[np.ndarray],
) -> float:
    """Exact ISP profit of a partition at its optimal bundle prices."""
    prices = model.bundle_prices(valuations, costs, list(bundles))
    return model.profit(valuations, costs, prices)


def iter_partitions(n: int, max_blocks: int) -> Iterator[list]:
    """Yield every partition of ``range(n)`` into at most ``max_blocks`` blocks.

    Uses restricted-growth strings; the count is the Bell-number prefix, so
    keep ``n`` small (the exhaustive path is for ground truth in tests).
    """

    def recurse(i: int, blocks: list) -> Iterator[list]:
        if i == n:
            yield [list(block) for block in blocks]
            return
        for block in blocks:
            block.append(i)
            yield from recurse(i + 1, blocks)
            block.pop()
        if len(blocks) < max_blocks:
            blocks.append([i])
            yield from recurse(i + 1, blocks)
            blocks.pop()

    yield from recurse(0, [])


#: Default ceiling on the optimal DP's input size.  The contiguous DP is
#: O(n^2 * B) in slice evaluations; at this bound a search stays in the
#: seconds range, while a silent million-flow call would hang for hours.
DEFAULT_MAX_OPTIMAL_FLOWS = 5000


class OptimalBundling(BundlingStrategy):
    """Profit-maximizing partition search (the paper's "Optimal" curve).

    For small inputs (``n <= exhaustive_limit``) every partition into at
    most ``B`` blocks is enumerated and evaluated exactly.  Beyond that,
    exhaustive search is intractable (the paper notes a billion ways to
    split one hundred flows into six bundles), so we run an
    ``O(n^2 B)`` dynamic program over *contiguous* partitions of the flows
    sorted by several 1-D keys (unit cost, valuation, potential profit and
    its negation), score slices with the demand model's separable bundle
    objective, and return the candidate with the highest exact profit.
    On every small instance the DP recovers the exhaustive optimum
    (asserted by the test suite).

    Either way the search is quadratic-or-worse in ``n``, so inputs above
    ``max_flows`` (default :data:`DEFAULT_MAX_OPTIMAL_FLOWS`) raise
    :class:`~repro.errors.DataError` instead of silently grinding; use a
    token-bucket strategy at larger scales or raise the limit explicitly.
    """

    name = "optimal"

    def __init__(
        self,
        exhaustive_limit: int = 10,
        max_flows: int = DEFAULT_MAX_OPTIMAL_FLOWS,
    ) -> None:
        if exhaustive_limit < 0:
            raise BundlingError("exhaustive_limit must be >= 0")
        if max_flows < 1:
            raise BundlingError(f"max_flows must be >= 1, got {max_flows}")
        self.exhaustive_limit = exhaustive_limit
        self.max_flows = int(max_flows)

    def _bundle(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        if inputs.n_flows > self.max_flows:
            raise DataError(
                f"optimal bundling searches O(n^2) partitions and would not "
                f"finish on n_flows={inputs.n_flows} (limit {self.max_flows}); "
                "use a token-bucket strategy at this scale, or raise "
                "OptimalBundling(max_flows=...) explicitly"
            )
        if inputs.n_flows <= self.exhaustive_limit:
            return self._exhaustive(inputs, n_bundles)
        return self._dynamic_program(inputs, n_bundles)

    def _exhaustive(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        best_profit = -np.inf
        best: Optional[list] = None
        for blocks in iter_partitions(inputs.n_flows, n_bundles):
            bundles = [np.array(block) for block in blocks]
            profit = evaluate_partition(
                inputs.model, inputs.valuations, inputs.costs, bundles
            )
            if profit > best_profit:
                best_profit = profit
                best = bundles
        assert best is not None  # n >= 1 guarantees at least one partition
        return best

    def _dynamic_program(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        orders = self._candidate_orders(inputs)
        best_profit = -np.inf
        best: Optional[list] = None
        for order in orders:
            v = inputs.valuations[order]
            c = inputs.costs[order]
            objective = inputs.model.bundle_objective(v, c)
            cuts = _contiguous_dp(objective, len(order), n_bundles)
            bundles = [
                order[cuts[k] : cuts[k + 1]]
                for k in range(len(cuts) - 1)
                if cuts[k + 1] > cuts[k]
            ]
            profit = evaluate_partition(
                inputs.model, inputs.valuations, inputs.costs, bundles
            )
            if profit > best_profit:
                best_profit = profit
                best = bundles
        assert best is not None
        return best

    @staticmethod
    def _candidate_orders(inputs: BundlingInputs) -> list:
        keys = (
            inputs.costs,
            inputs.valuations,
            inputs.potential_profits,
            -np.asarray(inputs.potential_profits),
        )
        orders = []
        seen = set()
        for key in keys:
            order = np.argsort(key, kind="stable")
            fingerprint = order.tobytes()
            if fingerprint not in seen:
                seen.add(fingerprint)
                orders.append(order)
        return orders


def _contiguous_dp(objective, n: int, max_bundles: int) -> list:
    """Best partition of ``0..n-1`` into at most ``max_bundles`` slices.

    Returns the cut positions ``[0, ..., n]``.  ``dp[b][i]`` is the best
    total slice score covering the first ``i`` flows with ``b`` slices.
    The inner minimization over the last cut is vectorized through the
    objective's ``slice_scores``, so each ``(b, i)`` cell is one fused
    array pass instead of a Python loop.
    """
    n_bundles = min(max_bundles, n)
    neg_inf = -np.inf
    dp = np.full((n_bundles + 1, n + 1), neg_inf)
    dp[0, 0] = 0.0
    choice = np.zeros((n_bundles + 1, n + 1), dtype=int)
    starts_all = np.arange(n + 1)
    for b in range(1, n_bundles + 1):
        prev = dp[b - 1]
        for i in range(b, n + 1):
            starts = starts_all[b - 1 : i]
            vals = prev[b - 1 : i] + objective.slice_scores(starts, i)
            k = int(np.argmax(vals))
            dp[b, i] = vals[k]
            choice[b, i] = b - 1 + k
    # Fewer bundles can never beat more under either model's objective, but
    # compare anyway in case of score ties.
    best_b = int(np.argmax(dp[1:, n])) + 1
    cuts = [n]
    i = n
    for b in range(best_b, 0, -1):
        i = int(choice[b][i])
        cuts.append(i)
    cuts.reverse()
    if cuts[0] != 0:
        cuts.insert(0, 0)
    return cuts


# ----------------------------------------------------------------------
# Class-aware wrapper (§4.3.1, destination-type cost model)
# ----------------------------------------------------------------------


class ClassAwareBundling(BundlingStrategy):
    """Never group flows from different cost classes into one bundle.

    The paper observes that the plain profit-weighted heuristic misbehaves
    when there are a few discrete cost classes (on-net/off-net): a bundle
    straddling two classes wastes a tier.  This wrapper partitions the
    flows by class code, allocates the tier budget across classes
    proportionally to their total potential profit (a ``bincount`` grouped
    reduction; each class gets at least one tier), and runs the inner
    strategy within each class.

    When ``n_bundles`` is smaller than the number of classes, the
    constraint is unsatisfiable; we then fall back to the inner strategy on
    the whole flow set.
    """

    def __init__(self, inner: BundlingStrategy) -> None:
        self.inner = inner
        self.name = f"class-aware({inner.name})"

    def _bundle(self, inputs: BundlingInputs, n_bundles: int) -> Bundles:
        codes = inputs.class_codes
        if codes is None:
            return self.inner.bundle(inputs, n_bundles)
        if int(codes.min()) < 0:
            raise BundlingError(
                f"{self.name}: every flow needs a class label; "
                "got a partially-labeled class column"
            )
        present = np.unique(codes)
        if present.size > n_bundles:
            return self.inner.bundle(inputs, n_bundles)
        totals = np.bincount(
            codes,
            weights=inputs.potential_profits,
            minlength=len(inputs.class_table),
        )
        label_of = {int(code): inputs.class_table[code] for code in present}
        allocation = _allocate_bundles(
            {label_of[int(code)]: float(totals[code]) for code in present},
            n_bundles,
        )
        bundles = []
        # Iterate classes in label order (matches the legacy tuple path
        # regardless of how the codes were interned).
        for code in sorted(present, key=lambda c: label_of[int(c)]):
            idx = np.flatnonzero(codes == code)
            inner_bundles = self.inner.bundle(
                inputs.subset(idx), min(allocation[label_of[int(code)]], idx.size)
            )
            bundles.extend(idx[members] for members in inner_bundles)
        return bundles


def _allocate_bundles(weights: dict, n_bundles: int) -> dict:
    """Largest-remainder apportionment with a floor of one bundle per class."""
    labels = sorted(weights)
    total = sum(weights.values())
    if total <= 0:
        shares = {label: n_bundles / len(labels) for label in labels}
    else:
        shares = {label: n_bundles * weights[label] / total for label in labels}
    allocation = {label: max(1, int(shares[label])) for label in labels}
    # Trim over-allocation caused by the floor, taking from smallest shares.
    while sum(allocation.values()) > n_bundles:
        takeable = [label for label in labels if allocation[label] > 1]
        victim = min(takeable, key=lambda lbl: shares[lbl])
        allocation[victim] -= 1
    # Distribute any remainder by largest fractional part.
    remainders = sorted(
        labels, key=lambda lbl: shares[lbl] - int(shares[lbl]), reverse=True
    )
    k = 0
    while sum(allocation.values()) < n_bundles:
        allocation[remainders[k % len(labels)]] += 1
        k += 1
    return allocation


# ----------------------------------------------------------------------
# Registry and validation
# ----------------------------------------------------------------------


def paper_strategies(class_aware: bool = False) -> "list[BundlingStrategy]":
    """The six strategies in the order the paper's figures plot them."""
    strategies = [
        OptimalBundling(),
        CostWeightedBundling(),
        ProfitWeightedBundling(),
        DemandWeightedBundling(),
        CostDivisionBundling(),
        IndexDivisionBundling(),
    ]
    if class_aware:
        strategies = [ClassAwareBundling(s) for s in strategies]
    return strategies


def strategy_by_name(name: str) -> BundlingStrategy:
    """Look up one of the paper's strategies by its figure-legend name."""
    for strategy in paper_strategies():
        if strategy.name == name:
            return strategy
    raise BundlingError(
        f"unknown strategy {name!r}; expected one of "
        f"{[s.name for s in paper_strategies()]}"
    )


def _validated(bundles: Bundles, n: int, n_bundles: int, name: str) -> Bundles:
    """Check that a strategy returned a partition of ``range(n)``.

    Vectorized: membership multiplicity is one ``bincount`` over the
    concatenated index arrays instead of a Python set over every index.
    """
    if not bundles:
        raise BundlingError(f"{name}: strategy returned no bundles")
    if len(bundles) > n_bundles:
        raise BundlingError(
            f"{name}: returned {len(bundles)} bundles, allowed {n_bundles}"
        )
    arrays = [np.asarray(members, dtype=int).ravel() for members in bundles]
    for members in arrays:
        if members.size == 0:
            raise BundlingError(f"{name}: returned an empty bundle")
    flat = np.concatenate(arrays)
    in_range = flat[(flat >= 0) & (flat < n)]
    counts = np.bincount(in_range, minlength=n)
    if np.any(counts > 1):
        raise BundlingError(f"{name}: bundles overlap")
    if flat.size != n or in_range.size != n:
        raise BundlingError(
            f"{name}: bundles cover {int(np.count_nonzero(counts))} of {n} "
            "flows; must partition all"
        )
    return arrays
