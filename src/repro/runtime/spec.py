"""Declarative experiment specifications and their execution engine.

An :class:`ExperimentSpec` names everything that determines one
experiment work unit — dataset, demand family, cost model and its
``theta``, calibration parameters, bundling strategies, and tier budgets
— as a frozen, hashable, picklable value.  That one object is:

* the **unit of parallelism**: :func:`run_specs` fans a spec list
  across an :class:`~repro.runtime.executor.Executor` (serial, process
  pool, or socket-distributed workers);
* the **cache key**: results memoize under the spec's content hash, and
  markets memoize under the sub-key that excludes strategies/budgets;
* the **shared vocabulary**: the CLI, every sweep/figure driver, and the
  benchmark harnesses all build markets by constructing specs.

:func:`evaluate_spec` is the single worker: build (or reuse) the spec's
calibrated market, run its counterfactuals, and return a plain-data
result dict (floats and lists only, so results pickle across process
boundaries and serialize straight to JSON).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.bundling import (
    BundlingStrategy,
    ClassAwareBundling,
    strategy_by_name,
)
from repro.core.ced import CEDDemand
from repro.core.cost import (
    ConcaveDistanceCost,
    CostModel,
    DestinationTypeCost,
    LinearDistanceCost,
    RegionalCost,
)
from repro.core.demand import DemandModel
from repro.core.logit import LogitDemand
from repro.core.market import Market
from repro import obs
from repro.obs import METRICS, TraceContext
from repro.errors import ExecutorError
from repro.runtime.cache import cached, config_hash
from repro.runtime.cache import lookup as cache_lookup
from repro.runtime.cache import store as cache_store
from repro.runtime.executor import Executor, get_executor
from repro.synth.datasets import load_dataset

#: Cost-model name -> constructor, the §3.3 menu by CLI/driver name.
COST_FACTORIES = {
    "linear": LinearDistanceCost,
    "concave": ConcaveDistanceCost,
    "regional": RegionalCost,
    "destination-type": DestinationTypeCost,
}


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One fully-determined experiment work unit.

    Defaults mirror the paper's §4.2.2 evaluation settings (see
    :mod:`repro.experiments.config`); :meth:`from_config` derives a spec
    from an ``ExperimentConfig`` so drivers never restate them.

    Attributes:
        dataset: Synthetic dataset key (``eu_isp``/``cdn``/``internet2``).
        family: Demand family, ``"ced"`` or ``"logit"``.
        cost_model: Cost-model name from :data:`COST_FACTORIES`.
        theta: Cost-model tuning parameter.
        alpha: Price sensitivity.
        blended_rate: The blended rate ``P0`` ($/Mbps/month).
        s0: Logit outside share (ignored by CED).
        n_flows: Destination aggregates in the synthetic dataset.
        seed: Dataset RNG seed.
        distance_model: How flow distances are drawn — ``"synthetic"``
            (Table 1 calibrated lognormals, the default) or
            ``"ecosystem"`` (valley-free path lengths over a generated
            AS-level world; see :mod:`repro.ecosystem`).
        strategies: Bundling-strategy names (figure-legend names).
        class_aware: Wrap each strategy in
            :class:`~repro.core.bundling.ClassAwareBundling` (the paper's
            fix for the destination-type cost model, §4.3.1).
        bundle_counts: Tier budgets to evaluate.
        mechanism: Pricing mechanism (:data:`repro.config.MECHANISMS`).
            The default ``"posted-tiers"`` evaluates the paper's posted
            pipeline and keeps the spec digest byte-identical to
            pre-mechanism specs (the warm cache survives); any other
            mechanism joins the cache key and adds a ``"mechanism"``
            block to the result.
        trace_context: The submitting span's context in wire form, so a
            spec evaluated in another process re-joins its caller's
            trace.  Excluded from equality, hashing, and the cache key —
            tracing must never change what a result is named.
    """

    dataset: str
    family: str = "ced"
    cost_model: str = "linear"
    theta: float = 0.2
    alpha: float = 1.1
    blended_rate: float = 20.0
    s0: float = 0.2
    n_flows: int = 120
    seed: int = 7
    distance_model: str = "synthetic"
    strategies: "tuple[str, ...]" = ("profit-weighted",)
    class_aware: bool = False
    bundle_counts: "tuple[int, ...]" = (1, 2, 3, 4, 5, 6)
    mechanism: str = "posted-tiers"
    trace_context: "Optional[tuple[str, str]]" = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def from_config(cls, config, dataset: str, **overrides) -> "ExperimentSpec":
        """Derive a spec from an ``ExperimentConfig``-shaped object.

        Any field can be overridden; the config supplies
        alpha/blended_rate/theta/s0/n_flows/seed/bundle_counts.
        """
        fields = dict(
            dataset=dataset,
            theta=config.theta,
            alpha=config.alpha,
            blended_rate=config.blended_rate,
            s0=config.s0,
            n_flows=config.n_flows,
            seed=config.seed,
            bundle_counts=tuple(config.bundle_counts),
        )
        fields.update(overrides)
        return cls(**fields)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def market_key(self) -> dict:
        """The sub-configuration that determines the calibrated market.

        ``distance_model`` joins the key only when it deviates from the
        default, so every pre-existing digest (and warm disk cache) stays
        valid.
        """
        key = {
            "dataset": self.dataset,
            "family": self.family,
            "cost_model": self.cost_model,
            "theta": self.theta,
            "alpha": self.alpha,
            "blended_rate": self.blended_rate,
            "s0": self.s0,
            "n_flows": self.n_flows,
            "seed": self.seed,
        }
        if self.distance_model != "synthetic":
            key["distance_model"] = self.distance_model
        return key

    def key(self) -> dict:
        """The full configuration that determines the result.

        ``mechanism`` joins the key only when it deviates from the
        posted-tiers default — same conditional-inclusion rule as
        ``distance_model`` in :meth:`market_key` — so every
        pre-mechanism digest (and warm result cache) stays valid.
        """
        full = self.market_key()
        full.update(
            strategies=list(self.strategies),
            class_aware=self.class_aware,
            bundle_counts=list(self.bundle_counts),
        )
        if self.mechanism != "posted-tiers":
            full["mechanism"] = self.mechanism
        return full

    def digest(self) -> str:
        """Content hash naming this spec's result in the cache."""
        return config_hash(self.key())

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def demand_model(self) -> DemandModel:
        if self.family == "ced":
            return CEDDemand(alpha=self.alpha)
        if self.family == "logit":
            return LogitDemand(alpha=self.alpha, s0=self.s0)
        raise ValueError(
            f"unknown demand family {self.family!r}; use 'ced' or 'logit'"
        )

    def cost_model_instance(self) -> CostModel:
        try:
            factory = COST_FACTORIES[self.cost_model]
        except KeyError:
            raise ValueError(
                f"unknown cost model {self.cost_model!r}; "
                f"expected one of {sorted(COST_FACTORIES)}"
            ) from None
        return factory(theta=self.theta)

    def resolve_strategies(self) -> "list[BundlingStrategy]":
        strategies = [strategy_by_name(name) for name in self.strategies]
        if self.class_aware:
            strategies = [ClassAwareBundling(s) for s in strategies]
        return strategies

    def build_market(self) -> Market:
        """Calibrate this spec's market (memoized under the market key).

        Markets are memory-only cache entries: they are cheap to rebuild
        relative to their pickled size, and their value is in being
        shared *within* a process across strategies and sweeps.
        """
        return cached("market", self.market_key(), self._build_market, disk=False)

    def _build_market(self) -> Market:
        with METRICS.stage("build_market"):
            flows = load_dataset(
                self.dataset,
                n_flows=self.n_flows,
                seed=self.seed,
                distance_model=self.distance_model,
            )
            return Market(
                flows,
                self.demand_model(),
                self.cost_model_instance(),
                blended_rate=self.blended_rate,
            )


def evaluate_spec(spec: ExperimentSpec) -> dict:
    """Run one spec end to end: calibrate, bundle, price, score.

    Returns plain data only::

        {
          "spec": {...},              # the spec's full key
          "blended_profit": float,    # pi_original
          "max_profit": float,        # pi_max
          "capture": {strategy: [per bundle count]},
          "profit":  {strategy: [per bundle count]},
        }
    """
    context = TraceContext.from_wire(spec.trace_context)
    with obs.activate(context), obs.span(
        "runtime.evaluate_spec",
        dataset=spec.dataset,
        family=spec.family,
        cost_model=spec.cost_model,
    ):
        market = spec.build_market()
        result: dict = {
            "spec": spec.key(),
            "blended_profit": market.blended_profit(),
            "max_profit": market.max_profit(),
            "capture": {},
            "profit": {},
        }
        with METRICS.stage("counterfactuals"):
            for strategy in spec.resolve_strategies():
                outcomes = market.capture_curve(strategy, spec.bundle_counts)
                result["capture"][strategy.name] = [
                    o.profit_capture for o in outcomes
                ]
                result["profit"][strategy.name] = [o.profit for o in outcomes]
        if spec.mechanism != "posted-tiers":
            from repro.mechanisms import mechanism_by_name

            mech = mechanism_by_name(
                spec.mechanism, n_tiers=max(spec.bundle_counts)
            )
            design = mech.design_on(market)
            result["mechanism"] = {
                "name": mech.name,
                "profit": design.profit,
                "capture": design.profit_capture,
                "n_tiers": design.n_tiers,
                "posted_tiers": design.posted_tiers,
            }
        return result


def run_specs(
    specs: "list[ExperimentSpec]",
    jobs: "Optional[int]" = None,
    use_cache: bool = True,
    executor: "Optional[Executor | str]" = None,
) -> "list[dict]":
    """Evaluate many specs: cache-check, fan out the misses, memoize.

    The cache is consulted **before** the fan-out, in the parent
    process — a warm rerun touches no worker pool and builds zero
    markets — and populated **as each result arrives**, so a sweep
    killed mid-flight (driver, coordinator, or worker) resumes from the
    disk cache exactly where it stopped.

    Args:
        specs: The work units; results come back aligned with them and
            are byte-identical across backends (each spec is a pure
            function of its fields).
        jobs: Worker-count override threaded into the executor config.
        use_cache: Consult/populate the result cache.
        executor: An :class:`~repro.runtime.executor.Executor` instance
            (left open for the caller to reuse), a backend name
            (``"serial"``/``"pool"``/``"socket"``), or ``None`` —
            resolve from ``REPRO_EXECUTOR``/``REPRO_JOBS`` (default: a
            pool, which runs inline at width one).

    Raises:
        WorkerLostError: A distributed worker died holding a spec's
            lease and retries are exhausted.
        ExecutorError: The backend failed or returned an incomplete
            sweep.
    """
    results: "list[Optional[dict]]" = [None] * len(specs)
    missing: "list[tuple[int, ExperimentSpec]]" = []
    with METRICS.stage("run_specs"), obs.span(
        "runtime.run_specs", specs=len(specs)
    ) as span:
        for i, spec in enumerate(specs):
            if use_cache:
                hit_value = _cached_result(spec)
                if hit_value is not None:
                    results[i] = hit_value
                    continue
            missing.append((i, spec))
        span.set_attribute("misses", len(missing))
        if missing:
            # Stamp the submitting span's context into each shipped spec
            # so worker-side spans re-join this trace (wire-form tuples
            # travel with the spec; the cache key ignores them).
            context = obs.current_context()
            wire = None if context is None else context.to_wire()
            stamped = [
                dataclasses.replace(spec, trace_context=wire)
                for _, spec in missing
            ]
            # Specs may repeat in one sweep; every copy shares a digest,
            # so the first completion fills all of its slots.
            slots: "dict[str, list[int]]" = {}
            for (i, _spec), spec in zip(missing, stamped):
                slots.setdefault(spec.digest(), []).append(i)
            owned = not isinstance(executor, Executor)
            if owned:
                backend = executor if isinstance(executor, str) else None
                active = get_executor(backend=backend, jobs=jobs)
            else:
                active = executor
            try:
                for digest, result in active.submit(stamped):
                    for i in slots.get(digest, ()):
                        results[i] = result
                    slots[digest] = []
                    if use_cache:
                        cache_store("result", digest, result)
            finally:
                if owned:
                    active.close()
            unfilled = sum(1 for r in results if r is None)
            if unfilled:
                raise ExecutorError(
                    f"{active.name} executor returned an incomplete "
                    f"sweep: {unfilled} of {len(specs)} spec(s) have no "
                    f"result"
                )
    return results  # type: ignore[return-value]


def _cached_result(spec: ExperimentSpec) -> "Optional[dict]":
    """Cache lookup that only *reads* (misses don't compute)."""
    hit, value = cache_lookup("result", spec.digest())
    return value if hit else None
