"""Tracing overhead bench: instrumentation must be free when off.

Every hot path in the runtime, stream, and serve layers now carries
``repro.obs`` span/event calls.  This bench pins the cost contract those
call sites rely on: with the default no-op tracer the instrumented
figure-14 driver must run at baseline speed, and with tracing *enabled*
(real spans, JSONL export) the slowdown must stay under 5%.

The workload is a scaled-down serial figure 14 (4 alphas x 2 demand
families x 3 networks = 24 markets) with the result cache disabled, so
every timed run performs identical real work.  The three modes are
timed *interleaved* (default-noop, installed-noop, enabled, repeated)
and compared on best-of-round wall times, so machine-load drift lands
on every mode instead of biasing one.  The tracked
``benchmarks/output/obs_overhead.baseline.json`` holds what repeats on
every run (the workload, its spans per run and the overhead bars); the
measured wall times are ``bench.obs_overhead.<mode>`` stages in the
untracked ``obs_overhead.metrics.json``, beside the overheads in percent.
"""

import dataclasses
import json
import time

from repro import obs
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.sweeps import figure14_data
from repro.obs import METRICS, read_trace, summarize_trace
from repro.runtime import cache as runtime_cache

from conftest import OUTPUT_DIR, write_metrics

SMALL_CONFIG = dataclasses.replace(DEFAULT_CONFIG, n_flows=40)
ALPHAS = (1.1, 1.5, 3.0, 10.0)
REPEATS = 5
MAX_ENABLED_OVERHEAD = 0.05
MAX_NOOP_OVERHEAD = 0.05  # "~0%": bounded by timing noise, not by work


def workload():
    return figure14_data(alphas=ALPHAS, config=SMALL_CONFIG)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_tracing_overhead(tmp_path):
    trace_path = tmp_path / "obs_overhead.jsonl"
    best = {"default": float("inf"), "noop": float("inf"),
            "enabled": float("inf")}
    runtime_cache.configure(enabled=False, fresh=True)
    try:
        workload()  # warm-up: one-time import/allocation costs
        for _ in range(REPEATS):
            # Mode 1: the shipped default — tracing never configured.
            elapsed, baseline = timed(workload)
            best["default"] = min(best["default"], elapsed)

            # Mode 2: an explicitly installed NoopTracer (what capture()
            # yields in untraced workers) — must cost the same as mode 1.
            previous = obs.set_tracer(obs.NoopTracer())
            try:
                elapsed, noop_result = timed(workload)
            finally:
                obs.set_tracer(previous)
            best["noop"] = min(best["noop"], elapsed)

            # Mode 3: real spans, JSONL export to disk.
            obs.configure_tracing(str(trace_path))
            try:
                elapsed, traced_result = timed(workload)
            finally:
                obs.configure_tracing(None)
            best["enabled"] = min(best["enabled"], elapsed)

            assert noop_result == baseline
            assert traced_result == baseline
    finally:
        runtime_cache.configure(enabled=True)
    default_s, noop_s, enabled_s = (
        best["default"], best["noop"], best["enabled"],
    )

    # The enabled runs really produced a healthy trace.
    summary = summarize_trace(read_trace(trace_path))
    assert summary["orphans"] == 0
    assert summary["stages"]["runtime.evaluate_spec"]["count"] == REPEATS * 24

    noop_overhead = noop_s / default_s - 1.0
    enabled_overhead = enabled_s / default_s - 1.0
    record = {
        "artifact": "obs_overhead",
        "workload": f"figure14 alphas={list(ALPHAS)} n_flows=40 serial no-cache",
        "repeats": REPEATS,
        "spans_per_run": summary["spans"] // REPEATS,
        "max_noop_overhead_pct": 100.0 * MAX_NOOP_OVERHEAD,
        "max_enabled_overhead_pct": 100.0 * MAX_ENABLED_OVERHEAD,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "obs_overhead.baseline.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    for mode, seconds in best.items():
        METRICS.observe(f"bench.obs_overhead.{mode}", seconds)
    measured = {
        "noop_overhead_pct": round(100.0 * noop_overhead, 2),
        "enabled_overhead_pct": round(100.0 * enabled_overhead, 2),
    }
    write_metrics("obs_overhead", **measured)
    print(json.dumps({**record, **measured}, indent=2))

    assert enabled_overhead < MAX_ENABLED_OVERHEAD, measured
    assert noop_overhead < MAX_NOOP_OVERHEAD, measured
