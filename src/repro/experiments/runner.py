"""The Figure 7 pipeline: dataset -> demand + cost -> bundling -> profit.

Since the runtime refactor this module is a thin adapter between the
figure/sweep drivers' ``ExperimentConfig`` world and the declarative
:class:`~repro.runtime.spec.ExperimentSpec` engine that actually builds
markets (with caching and parallelism).  It also keeps the aligned-text
table renderer the benchmarks print.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Optional

from repro.core.cost import CostModel
from repro.core.demand import DemandModel
from repro.core.market import Market
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.runtime.spec import COST_FACTORIES, ExperimentSpec


def demand_model(
    family: str, config: ExperimentConfig = DEFAULT_CONFIG
) -> DemandModel:
    """Instantiate ``"ced"`` or ``"logit"`` at the config's parameters."""
    return spec_for(config, "eu_isp", family=family).demand_model()


def spec_for(
    config: ExperimentConfig, dataset: str, **overrides
) -> ExperimentSpec:
    """An :class:`ExperimentSpec` for this config, dataset, and overrides."""
    return ExperimentSpec.from_config(config, dataset, **overrides)


def build_market(
    dataset: str,
    family: str = "ced",
    cost_model: Optional[CostModel] = None,
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> Market:
    """Load a synthetic dataset and calibrate a market on it.

    Goes through the runtime's spec engine, so repeated calls with the
    same configuration return the same cached market.  A ``cost_model``
    *instance* bypasses the spec path (the cache cannot key on arbitrary
    objects); named cost models should be passed via spec overrides
    instead.
    """
    if cost_model is None or _speccable_cost(cost_model):
        overrides: dict = {"family": family}
        if cost_model is not None:
            overrides["cost_model"] = _COST_NAMES[type(cost_model)]
            overrides["theta"] = cost_model.theta
        return spec_for(config, dataset, **overrides).build_market()
    from repro.synth.datasets import load_dataset

    flows = load_dataset(dataset, n_flows=config.n_flows, seed=config.seed)
    return Market(
        flows,
        demand_model(family, config),
        cost_model,
        blended_rate=config.blended_rate,
    )


#: Cost-model classes the spec engine can name (and therefore cache).
_COST_NAMES = {factory: name for name, factory in COST_FACTORIES.items()}


def _speccable_cost(cost_model: CostModel) -> bool:
    """Can this instance be expressed as (name, theta) in a spec?

    Only a default construction at its theta is: subclasses or instances
    with non-default extra knobs must take the uncached path.  Cost
    models carry scalar attributes only, so ``vars`` comparison is exact.
    """
    if type(cost_model) not in _COST_NAMES:
        return False
    default = type(cost_model)(theta=cost_model.theta)
    return vars(default) == vars(cost_model)


def render_series_table(
    title: str,
    column_header: str,
    columns: Sequence,
    series: Mapping[str, Sequence[float]],
    value_format: str = "{:.3f}",
) -> str:
    """Align named series under shared columns, like one figure panel."""
    name_width = max([len(name) for name in series] + [len(column_header)])
    header = column_header.ljust(name_width) + "".join(
        f"{str(col):>9}" for col in columns
    )
    lines = [title, header, "-" * len(header)]
    for name, values in series.items():
        cells = "".join(value_format.format(v).rjust(9) for v in values)
        lines.append(name.ljust(name_width) + cells)
    return "\n".join(lines)
