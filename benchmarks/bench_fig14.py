"""Figure 14 — worst-case capture over price sensitivity (§4.3.2).

For each network and bundle count, the *minimum* profit capture of the
profit-weighted strategy over alpha in [1.1, 10] (both demand models).
Asserted paper finding: results are robust — e.g. two bundles on the EU
ISP capture a large fraction of profit regardless of alpha.

This is the heaviest sweep in the repo (7 alphas x 2 families x 3
networks = 42 markets), so it doubles as the runtime's perf baseline:
``test_runtime_baseline`` times a cold-cache serial run against a
warm-cache rerun, asserts the warm run rebuilds nothing, and writes the
comparison to ``benchmarks/output/fig14_runtime_baseline.json``.  The
file carries wall-clock times, so git ignores it; CI uploads it with
the other bench records.
"""

import json
import time

import pytest

from repro.experiments import figure14_data
from repro.experiments.render import render_envelope as render
from repro.runtime import cache as runtime_cache
from repro.obs import METRICS


def assert_envelope_claims(data: dict, floor_at_2: float, floor_at_4: float) -> None:
    at2 = data["bundle_counts"].index(2)
    at4 = data["bundle_counts"].index(4)
    for family, panel in data["panels"].items():
        for network, curve in panel.items():
            assert curve[at2] >= floor_at_2, (family, network, curve)
            assert curve[at4] >= floor_at_4, (family, network, curve)


def test_figure14(run_once, save_output):
    data = run_once(figure14_data)
    save_output(
        "fig14", render(data, "Figure 14", f"alpha in {data['alphas']}")
    )
    assert_envelope_claims(data, floor_at_2=0.4, floor_at_4=0.6)
    # EU ISP under CED: around 0.5+ capture with two bundles across the
    # whole alpha range (the paper quotes ~0.8 for its proprietary data).
    assert data["panels"]["ced"]["eu_isp"][data["bundle_counts"].index(2)] >= 0.5


@pytest.fixture
def cold_cache():
    """An enabled, empty, memory-only cache, whatever ``REPRO_NO_CACHE``
    and ``REPRO_CACHE_DIR`` say; the previous setting is restored after."""
    was_enabled = runtime_cache.cache_enabled()
    directory = runtime_cache.configure().directory
    runtime_cache.configure(enabled=True, directory="")
    yield
    runtime_cache.configure(
        enabled=was_enabled, directory=str(directory or "")
    )


def test_runtime_baseline(cold_cache):
    """Cold vs warm wall time for the heaviest sweep, archived as JSON."""
    METRICS.reset()
    start = time.perf_counter()
    cold = figure14_data()
    cold_s = time.perf_counter() - start
    cold_counters = METRICS.snapshot()["counters"]

    METRICS.reset()
    start = time.perf_counter()
    warm = figure14_data()
    warm_s = time.perf_counter() - start
    warm_counters = METRICS.snapshot()["counters"]

    # Identical output, no markets rebuilt, one result hit per work unit.
    assert warm == cold
    assert warm_counters.get("markets_built", 0) == 0
    assert warm_counters.get("cache_hits:result", 0) == cold_counters.get(
        "cache_misses:result", 0
    )

    record = {
        "artifact": "fig14",
        "work_units": cold_counters.get("cache_misses:result", 0),
        "serial_cold_wall_s": cold_s,
        "warm_cache_wall_s": warm_s,
        "warm_speedup": cold_s / max(warm_s, 1e-9),
        "cold_counters": cold_counters,
        "warm_counters": warm_counters,
    }
    import pathlib

    output_dir = pathlib.Path(__file__).parent / "output"
    output_dir.mkdir(exist_ok=True)
    path = output_dir / "fig14_runtime_baseline.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: record[k] for k in (
        "work_units", "serial_cold_wall_s", "warm_cache_wall_s", "warm_speedup"
    )}, indent=2))
    assert record["warm_speedup"] > 5.0, record
