"""Mechanism design bench: posted vs spot vs hybrid at 10^5 flows.

Times one ``design_on`` call per mechanism on the same calibrated
100k-flow market and archives
``benchmarks/output/bench_mechanisms.baseline.json`` — per-mechanism
tier counts and profit capture, which read the same on every run.  Each
design's wall-clock goes to the untracked
``bench_mechanisms.metrics.json`` as a ``bench.mechanisms.<name>``
stage, and every design pass must stay under a generous time budget.

Paid peering is included for completeness but not asserted on: its
negotiation is two masked reductions, far below timer noise.
"""

import json
import time

from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.core.market import Market
from repro.mechanisms import mechanism_by_name
from repro.obs import METRICS
from repro.synth.datasets import load_dataset

from conftest import OUTPUT_DIR

N_FLOWS = 100_000
SEED = 7
MECHS = ("posted-tiers", "spot-auction", "paid-peering", "hybrid")
#: Generous ceiling per design pass: every mechanism is a handful of
#: argsorts and closed-form price evaluations over 10^5 columns, so even
#: a cold CI runner clears this with an order of magnitude to spare.
MAX_SECONDS_PER_DESIGN = 30.0


def mechanism_study():
    """The mechanisms' rows, and each design pass's seconds by name."""
    flows = load_dataset("eu_isp", n_flows=N_FLOWS, seed=SEED)
    market = Market(
        flows, CEDDemand(alpha=1.1), LinearDistanceCost(theta=0.2), 20.0
    )
    rows, seconds = [], {}
    for name in MECHS:
        mechanism = mechanism_by_name(name, n_tiers=3, spot_windows=24)
        start = time.perf_counter()
        design = mechanism.design_on(market)
        seconds[name] = time.perf_counter() - start
        METRICS.observe(f"bench.mechanisms.{name}", seconds[name])
        rows.append(
            {
                "mechanism": name,
                "n_tiers": design.n_tiers,
                "posted_tiers": design.posted_tiers,
                "profit_capture": round(design.profit_capture, 6),
            }
        )
    return rows, seconds


def render(rows):
    header = f"{'mechanism':>14}{'tiers':>7}{'posted':>8}{'capture':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['mechanism']:>14}{row['n_tiers']:>7}"
            f"{row['posted_tiers']:>8}{row['profit_capture']:>10.4f}"
        )
    lines.append(
        f"(n_flows={N_FLOWS}, seed={SEED}; design seconds in "
        "bench_mechanisms.metrics.json)"
    )
    return "\n".join(lines)


def test_mechanism_designs_at_scale(run_once, save_output):
    rows, seconds = run_once(mechanism_study)
    save_output("bench_mechanisms", render(rows))
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "bench_mechanisms.baseline.json").write_text(
        json.dumps(
            {"n_flows": N_FLOWS, "seed": SEED, "mechanisms": rows},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    by_name = {row["mechanism"]: row for row in rows}
    assert set(by_name) == set(MECHS)
    for name in ("posted-tiers", "spot-auction", "hybrid"):
        assert seconds[name] < MAX_SECONDS_PER_DESIGN
    # Spot's 24 per-window lots discriminate finer than 3 posted tiers.
    assert (
        by_name["spot-auction"]["profit_capture"]
        >= by_name["posted-tiers"]["profit_capture"] - 0.2
    )
