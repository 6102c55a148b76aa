"""Ecosystem scale bench: ASes vs generate+route wall-clock, up to 10^3.

Times world generation (Base + Relationships) and all-pairs valley-free
routing separately at each world size.  Routing is the quadratic part —
three dense N x N sweeps — and the time budgets hold it to the
vectorized row-update implementation.  The committed baseline JSON and
text hold what repeats run to run (edge counts, reachability, path
lengths); the seconds are ``bench.ecosystem.<ases>.*`` stages in the
untracked metrics JSON.  Traffic is *derived* (per-AS tables
materialize on demand), so one representative flow-table draw is timed
per size rather than all N.
"""

import json
import time

from repro.ecosystem import EcosystemSpec, render_ecosystem, verify_valley_free
from repro.obs import METRICS
from repro.runtime import cache

from conftest import OUTPUT_DIR

SIZES = (50, 200, 1_000)
SEED = 0

#: The acceptance envelope for the 10^3-AS world (generate + route); CI
#: hardware is slower than a dev box, so leave generous headroom.
BUDGET_1K_S = 60.0


def ecosystem_scale(sizes=SIZES):
    """The worlds' rows, and each size's ``(generate + route, flow
    table)`` seconds."""
    # Disable memoization so every row times real generation work.
    cache.configure(enabled=False)
    try:
        rows, seconds = [], {}
        for size in sizes:
            spec = EcosystemSpec.from_counts(ases=size, ixps=3, seed=SEED)
            t0 = time.perf_counter()
            eco = render_ecosystem(spec)
            t_total = time.perf_counter() - t0

            t1 = time.perf_counter()
            table = eco.flow_table_for(eco.ases[0].asn)
            t_flow_table = time.perf_counter() - t1

            assert verify_valley_free(eco, max_pairs=500) > 0
            routing = eco.tables.summary()
            seconds[size] = (t_total, t_flow_table)
            METRICS.observe(f"bench.ecosystem.{size}.generate_route", t_total)
            METRICS.observe(f"bench.ecosystem.{size}.flow_table", t_flow_table)
            rows.append(
                {
                    "n_ases": size,
                    "up_edges": int(eco.up_edges.shape[0]),
                    "peer_edges": int(eco.peer_edges.shape[0]),
                    "reachable_fraction": routing["reachable_fraction"],
                    "mean_path_len": routing["mean_path_len"],
                    "n_flows": len(table),
                }
            )
        return rows, seconds
    finally:
        cache.configure(enabled=True)


def render(rows, name):
    header = f"{'ASes':>8}{'up':>7}{'peer':>7}{'reach':>8}{'path':>7}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['n_ases']:>8,}{row['up_edges']:>7}"
            f"{row['peer_edges']:>7}{row['reachable_fraction']:>8.3f}"
            f"{row['mean_path_len']:>7.2f}"
        )
    lines.append(f"(times in {name}.metrics.json)")
    return "\n".join(lines)


def test_ecosystem_smoke(run_once, save_output):
    """CI time-budget smoke: a 200-AS world builds well inside a second."""
    rows, seconds = run_once(ecosystem_scale, sizes=(200,))
    save_output("ecosystem_smoke", render(rows, "ecosystem_smoke"))
    assert seconds[200][0] < BUDGET_1K_S / 10
    assert rows[0]["reachable_fraction"] == 1.0


def test_ecosystem_scale(run_once, save_output):
    rows, seconds = run_once(ecosystem_scale)
    save_output("ecosystem_scale", render(rows, "ecosystem_scale"))
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "ecosystem_scale.baseline.json").write_text(
        json.dumps(rows, indent=2, sort_keys=True) + "\n"
    )
    assert seconds[1_000][0] < BUDGET_1K_S
    # The tier-1 clique guarantees a fully routed world at every size.
    assert all(row["reachable_fraction"] == 1.0 for row in rows)
    # Per-AS tables stay cheap no matter the world size (derived, not
    # stored): one draw is a few numpy allocations.
    assert all(flow_table_s < 1.0 for _, flow_table_s in seconds.values())
