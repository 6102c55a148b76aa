"""Columnar-core scale bench: flows vs wall-clock, 10^3 -> 10^6.

Times the full measure -> model -> design chain on the struct-of-arrays
path at each decade of market size: *cold* includes generating the
columnar dataset (no Flow objects, no disk cache), *warm* re-runs
calibration + profit-weighted tier design on the already-materialized
:class:`~repro.core.flow.FlowTable`.  The committed baseline JSON is the
scaling trajectory: diffs show when any stage stopped being linear-ish in
the flow count, and the assertions pin the headline claim — a million-flow
calibrate+design completes in single-digit seconds.
"""

import json
import time

from repro.core.bundling import ProfitWeightedBundling
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.core.market import Market
from repro.obs import METRICS
from repro.runtime import cache
from repro.synth.datasets import generate_flow_table

from conftest import OUTPUT_DIR

SIZES = (1_000, 10_000, 100_000, 1_000_000)
N_TIERS = 4
SEED = 7

#: Single-digit seconds for the 1M-flow cold run (generate + calibrate +
#: design); CI hardware is slower than a dev box, so leave headroom.
COLD_BUDGET_1M_S = 10.0


def _design(flows):
    market = Market(flows, CEDDemand(1.1), LinearDistanceCost(0.2))
    outcome = market.tiered_outcome(ProfitWeightedBundling(), N_TIERS)
    return outcome


def scale_study(sizes=SIZES):
    # Disable memoization so every cold row times real generation work.
    cache.configure(enabled=False)
    try:
        rows = []
        for size in sizes:
            t0 = time.perf_counter()
            flows = generate_flow_table("eu_isp", size=size, seed=SEED)
            t_generate = time.perf_counter() - t0

            t1 = time.perf_counter()
            outcome = _design(flows)
            t_model = time.perf_counter() - t1

            t2 = time.perf_counter()
            warm_outcome = _design(flows)
            t_warm = time.perf_counter() - t2

            assert abs(warm_outcome.profit - outcome.profit) < 1e-6 * max(
                1.0, abs(outcome.profit)
            )
            METRICS.observe(f"bench.scale.{size}.generate", t_generate)
            METRICS.observe(f"bench.scale.{size}.calibrate_design", t_model)
            METRICS.observe(f"bench.scale.{size}.warm", t_warm)
            rows.append(
                {
                    "n_flows": size,
                    "cold_s": round(t_generate + t_model, 4),
                    "generate_s": round(t_generate, 4),
                    "calibrate_design_s": round(t_model, 4),
                    "warm_s": round(t_warm, 4),
                    "n_tiers": len(outcome.tiers),
                    "profit_capture": round(outcome.profit_capture, 4),
                }
            )
        return rows
    finally:
        cache.configure(enabled=True)


def render(rows):
    header = (
        f"{'flows':>10}{'cold s':>10}{'gen s':>10}{'model s':>10}"
        f"{'warm s':>10}{'tiers':>7}{'capture':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['n_flows']:>10,}{row['cold_s']:>10.3f}"
            f"{row['generate_s']:>10.3f}{row['calibrate_design_s']:>10.3f}"
            f"{row['warm_s']:>10.3f}{row['n_tiers']:>7}"
            f"{row['profit_capture']:>9.3f}"
        )
    return "\n".join(lines)


def test_scale_smoke(run_once, save_output):
    """CI time-budget smoke: a 10^5-flow cold run must stay sub-second-ish.

    The tracked text reads the same on every run; the seconds are
    ``bench.scale.*`` stages in ``scale_smoke.metrics.json``."""
    (row,) = run_once(scale_study, sizes=(100_000,))
    save_output(
        "scale_smoke",
        f"{row['n_flows']:,} flows, cold (generate + calibrate + design) "
        f"under {COLD_BUDGET_1M_S / 2:.0f} s: {row['n_tiers']} tiers, "
        f"capture {row['profit_capture']:.3f} (times in "
        "scale_smoke.metrics.json)",
    )
    assert row["cold_s"] < COLD_BUDGET_1M_S / 2
    assert row["n_tiers"] >= 2


def test_scale_throughput(run_once, save_output):
    rows = run_once(scale_study)
    save_output("scale_throughput", render(rows))
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "bench_scale.baseline.json").write_text(
        json.dumps(rows, indent=2, sort_keys=True) + "\n"
    )
    by_size = {row["n_flows"]: row for row in rows}
    million = by_size[1_000_000]
    # The headline: a 1M-flow measure -> model -> design run in single-digit
    # seconds, and the design itself (calibrate + bundle + price) faster
    # still once the table is in memory.
    assert million["cold_s"] < COLD_BUDGET_1M_S
    assert million["warm_s"] < COLD_BUDGET_1M_S / 2
    # Every size must produce a real multi-tier design.
    assert all(row["n_tiers"] >= 2 for row in rows)
