"""Shared fixtures for the benchmark harness.

Every bench regenerates one paper table/figure, times it with
pytest-benchmark, prints the series, and archives the rendered text under
``benchmarks/output/`` so paper-vs-measured comparisons (EXPERIMENTS.md)
can cite a concrete artifact.

Each bench also leaves a structured-JSON perf record
(``<name>.metrics.json``) next to its text artifact: wall time of the
timed driver call plus the run's :data:`repro.runtime.METRICS` snapshot
— markets built, datasets generated, cache hits/misses, workers used,
and per-stage timings.  The records differ on every run (wall times,
and counters that depend on what earlier benches in the session
cached), so git ignores them and CI uploads them as an artifact; the
text artifacts and baselines are deterministic and stay tracked.  A
bench CI runs records the seconds it times as ``bench.*`` stages in its
metrics JSON, never in a tracked file (``bench_scale.py``'s full
throughput run, which CI skips, still archives its flows-vs-seconds
trajectory).
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.obs import METRICS

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(autouse=True)
def _fresh_metrics():
    """Each bench's metrics JSON covers that bench alone."""
    METRICS.reset()
    yield


def write_metrics(name: str, **record) -> None:
    """Write the run's metrics (plus ``record``'s keys, say a machine's
    ``cpu_count``) to the untracked ``benchmarks/output/<name>.metrics.json``."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.metrics.json").write_text(
        METRICS.to_json(artifact=name, **record) + "\n"
    )


@pytest.fixture
def save_output():
    """Write a rendered figure/table (plus the run's metrics JSON, with
    any extra ``record`` keys) to ``benchmarks/output/<name>.txt`` /
    ``<name>.metrics.json``."""

    def _save(name: str, text: str, **record) -> pathlib.Path:
        OUTPUT_DIR.mkdir(exist_ok=True)
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        write_metrics(name, **record)
        print(text)
        return path

    return _save


@pytest.fixture
def run_once(benchmark):
    """Benchmark a driver with a single timed round (drivers are heavy
    and deterministic; statistical repetition adds nothing).  The driver
    call is also timed under the ``bench`` metrics stage so the emitted
    JSON carries its wall time."""

    def _run(fn, *args, **kwargs):
        start = time.perf_counter()
        result = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
        METRICS.observe("bench", time.perf_counter() - start)
        return result

    return _run
