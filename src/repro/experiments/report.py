"""The paper's artifacts, one at a time or as a one-shot report.

:func:`render_artifact` renders Table 1 or one figure (``python -m repro
table1`` / ``figure N``); :func:`generate_report` runs them all and
assembles one markdown document (``python -m repro report``).
"""

from __future__ import annotations

import time

from repro.experiments import figures, render, sweeps, tables
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig

#: ``"table1"`` or figure number -> (section title, driver taking an
#: :class:`ExperimentConfig`, renderer), in paper order.
ARTIFACTS = {
    "table1": (
        "Table 1 — dataset statistics",
        lambda cfg: tables.table1_data(config=cfg),
        tables.render_table1,
    ),
    1: (
        "Figure 1 — blended vs tiered pricing",
        lambda cfg: figures.figure1_data(),
        render.render_figure1,
    ),
    2: (
        "Figure 2 — direct peering bypass",
        lambda cfg: figures.figure2_data(),
        render.render_figure2,
    ),
    3: (
        "Figure 3 — CED demand curves",
        lambda cfg: figures.figure3_data(),
        render.render_figure3,
    ),
    4: (
        "Figure 4 — profit vs price",
        lambda cfg: figures.figure4_data(),
        render.render_figure4,
    ),
    5: (
        "Figure 5 — logit demand curves",
        lambda cfg: figures.figure5_data(),
        render.render_figure5,
    ),
    6: (
        "Figure 6 — concave price fits",
        lambda cfg: figures.figure6_data(),
        render.render_figure6,
    ),
    8: (
        "Figure 8 — capture by strategy (CED)",
        figures.figure8_data,
        render.render_figure8,
    ),
    9: (
        "Figure 9 — capture by strategy (logit)",
        figures.figure9_data,
        render.render_figure9,
    ),
    10: (
        "Figure 10 — linear cost theta sweep",
        sweeps.figure10_data,
        lambda data: render.render_theta_sweep(data, "Figure 10"),
    ),
    11: (
        "Figure 11 — concave cost theta sweep",
        sweeps.figure11_data,
        lambda data: render.render_theta_sweep(data, "Figure 11"),
    ),
    12: (
        "Figure 12 — regional cost theta sweep",
        sweeps.figure12_data,
        lambda data: render.render_theta_sweep(data, "Figure 12"),
    ),
    13: (
        "Figure 13 — destination-type cost theta sweep",
        sweeps.figure13_data,
        lambda data: render.render_theta_sweep(data, "Figure 13"),
    ),
    14: (
        "Figure 14 — robustness to alpha",
        lambda cfg: sweeps.figure14_data(config=cfg),
        lambda data: render.render_envelope(
            data, "Figure 14", f"alpha in {data['alphas']}"
        ),
    ),
    15: (
        "Figure 15 — robustness to the blended rate",
        lambda cfg: sweeps.figure15_data(config=cfg),
        lambda data: render.render_envelope(
            data, "Figure 15", f"P0 in {data['blended_rates']}"
        ),
    ),
    16: (
        "Figure 16 — robustness to the outside share",
        lambda cfg: sweeps.figure16_data(config=cfg),
        lambda data: render.render_envelope(
            data, "Figure 16", f"s0 in {data['s0_values']}"
        ),
    ),
}

#: Figure numbers (Figures 7 and 17 are architecture diagrams).
FIGURES = tuple(key for key in ARTIFACTS if key != "table1")


def render_artifact(
    key: "str | int", config: ExperimentConfig = DEFAULT_CONFIG
) -> str:
    """Run one artifact's driver at ``config`` and render its text."""
    _, driver, renderer = ARTIFACTS[key]
    return renderer(driver(config))


def generate_report(config: ExperimentConfig = DEFAULT_CONFIG) -> str:
    """Run every driver and return the full markdown report."""
    started = time.time()
    parts = [
        "# Reproduction report — How Many Tiers? (SIGCOMM 2011)",
        "",
        f"Configuration: {config.n_flows} flows/dataset, seed {config.seed}, "
        f"alpha={config.alpha}, P0=${config.blended_rate}, "
        f"theta={config.theta}, s0={config.s0}.",
        "",
    ]
    for key, (title, _, _) in ARTIFACTS.items():
        parts.append(f"## {title}")
        parts.append("")
        parts.append("```")
        parts.append(render_artifact(key, config))
        parts.append("```")
        parts.append("")
    parts.append(f"_Generated in {time.time() - started:.1f}s._")
    parts.append("")
    return "\n".join(parts)
