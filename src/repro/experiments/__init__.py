"""Experiment drivers: one function per paper table and figure.

:data:`repro.experiments.report.ARTIFACTS` maps each artifact to its
driver (in :mod:`~repro.experiments.tables`,
:mod:`~repro.experiments.figures` or :mod:`~repro.experiments.sweeps`)
and renderer; DESIGN.md has the details.

(Figures 7 and 17 are architecture diagrams, not data plots; the pipeline
of Figure 7 is :mod:`repro.experiments.runner` itself and the accounting
schemes of Figure 17 live in :mod:`repro.accounting`.)
"""

from repro.experiments.config import (
    BUNDLE_COUNTS,
    DEFAULT_ALPHA,
    DEFAULT_BLENDED_RATE,
    DEFAULT_CONFIG,
    DEFAULT_N_FLOWS,
    DEFAULT_S0,
    DEFAULT_SEED,
    DEFAULT_THETA,
    ExperimentConfig,
)
from repro.experiments.figures import (
    DATASET_TITLES,
    figure1_data,
    figure2_data,
    figure3_data,
    figure4_data,
    figure5_data,
    figure6_data,
    figure8_data,
    figure9_data,
)
from repro.experiments.runner import (
    build_market,
    demand_model,
    render_series_table,
    spec_for,
)
from repro.experiments.sweeps import (
    THETA_VALUES,
    figure10_data,
    figure11_data,
    figure12_data,
    figure13_data,
    figure14_data,
    figure15_data,
    figure16_data,
    robustness_summary,
    theta_sweep,
)
from repro.experiments.tables import render_table1, table1_data

__all__ = [
    "BUNDLE_COUNTS",
    "DATASET_TITLES",
    "DEFAULT_ALPHA",
    "DEFAULT_BLENDED_RATE",
    "DEFAULT_CONFIG",
    "DEFAULT_N_FLOWS",
    "DEFAULT_S0",
    "DEFAULT_SEED",
    "DEFAULT_THETA",
    "ExperimentConfig",
    "THETA_VALUES",
    "build_market",
    "demand_model",
    "figure1_data",
    "figure2_data",
    "figure3_data",
    "figure4_data",
    "figure5_data",
    "figure6_data",
    "figure8_data",
    "figure9_data",
    "figure10_data",
    "figure11_data",
    "figure12_data",
    "figure13_data",
    "figure14_data",
    "figure15_data",
    "figure16_data",
    "render_series_table",
    "render_table1",
    "robustness_summary",
    "spec_for",
    "table1_data",
    "theta_sweep",
]
