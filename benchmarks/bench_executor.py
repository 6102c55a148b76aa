"""Executor backend bench: serial vs pool vs socket on a cold sweep.

Times the same cold 12-spec sweep (optimal bundling at 120 flows, so
each work unit carries real DP weight) under all three executor
backends.  The tracked ``benchmarks/output/bench_executor.baseline.json``
and text hold what repeats on every machine (the sweep, the backends,
the speedup bar); each backend's wall time is a
``bench.executor.<backend>`` stage in the untracked
``bench_executor.metrics.json``, beside the run's ``cpu_count``, the
speedups over serial, and each backend's wall time per spec and its
overhead over serial per spec, in ms (``ms_per_spec``,
``overhead_ms_per_spec``; negative where a backend gains).  Below the
cores the speedup bar needs, the overhead is the figure to read: the
start-up and wire cost a parallel backend pays per spec.

Byte-identity across backends is asserted unconditionally.  The >= 2x
speedup assertion for pool and socket only arms on machines with enough
cores (:data:`MIN_CORES_FOR_SPEEDUP`) — on a 1-2 core runner the pool
*is* serial and the bench still records the honest numbers.
"""

import json
import os
import time

from repro.obs import METRICS
from repro.runtime import cache
from repro.runtime.spec import ExperimentSpec, evaluate_spec, run_specs

from conftest import OUTPUT_DIR

BACKENDS = ("serial", "pool", "socket")
N_SPECS = 12
#: Optimal bundling at 120 aggregates: ~0.15 s of O(n^2 B) DP per spec,
#: heavy enough that dispatch/wire overhead can't hide a real speedup.
SPECS = [
    ExperimentSpec(
        dataset="eu_isp",
        n_flows=120,
        seed=seed,
        strategies=("optimal",),
        bundle_counts=(1, 2, 3, 4, 5, 6),
    )
    for seed in range(N_SPECS)
]
#: Cores below which the parallel backends cannot honestly double
#: throughput (2 cores leaves no headroom for coordinator overhead).
MIN_CORES_FOR_SPEEDUP = 4
TARGET_SPEEDUP = 2.0


def backend_study():
    """Each backend's seconds for the sweep, by name."""
    # Pay the one-time scipy/dataset warm-up before any timer starts;
    # forked workers inherit the warm state, so no backend gets billed
    # for interpreter start-up the others skipped.
    cache.configure(enabled=True, directory="", fresh=True)
    evaluate_spec(ExperimentSpec(dataset="eu_isp", n_flows=24, seed=99))
    seconds = {}
    reference = None
    for backend in BACKENDS:
        cache.configure(enabled=True, directory="", fresh=True)
        start = time.perf_counter()
        results = run_specs(SPECS, jobs=0, executor=backend, use_cache=False)
        elapsed = time.perf_counter() - start
        payload = json.dumps(results, sort_keys=True)
        if reference is None:
            reference = payload
        assert payload == reference, f"{backend} diverged from serial bytes"
        seconds[backend] = elapsed
        METRICS.observe(f"bench.executor.{backend}", elapsed)
    return seconds


def test_executor_backends(run_once, save_output):
    seconds = run_once(backend_study)
    speedups = {
        backend: round(seconds["serial"] / max(s, 1e-9), 3)
        for backend, s in seconds.items()
    }
    cores = os.cpu_count() or 1
    save_output(
        "bench_executor",
        f"backends {', '.join(BACKENDS)} on {N_SPECS} cold specs: "
        f"byte-identical results; the {TARGET_SPEEDUP}x speedup bar arms "
        f"at {MIN_CORES_FOR_SPEEDUP} cores (times, speedups and cpu_count "
        "in bench_executor.metrics.json)",
        cpu_count=cores,
        speedups=speedups,
        ms_per_spec={
            backend: round(1000.0 * s / N_SPECS, 3)
            for backend, s in seconds.items()
        },
        overhead_ms_per_spec={
            backend: round(1000.0 * (s - seconds["serial"]) / N_SPECS, 3)
            for backend, s in seconds.items()
        },
    )
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "bench_executor.baseline.json").write_text(
        json.dumps(
            {
                "n_specs": N_SPECS,
                "spec": {"n_flows": 120, "strategies": ["optimal"]},
                "backends": list(BACKENDS),
                "target_speedup": TARGET_SPEEDUP,
                "min_cores_for_speedup": MIN_CORES_FOR_SPEEDUP,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    assert set(seconds) == set(BACKENDS)
    if cores >= MIN_CORES_FOR_SPEEDUP:
        assert speedups["pool"] >= TARGET_SPEEDUP
        assert speedups["socket"] >= TARGET_SPEEDUP
