"""Lightweight stage timers, counters, and latency reservoirs.

Every driver (and the benchmark harness) funnels its bookkeeping through
the process-global :data:`METRICS` registry: how many markets were built,
how many datasets were generated, how often the result cache hit, how
many workers a fan-out used, and how long each named stage took.  The
registry serializes to structured JSON so benchmark runs leave a
machine-readable perf trail under ``benchmarks/output/``.

This module lives under :mod:`repro.obs` so counters and spans share one
observability surface — :func:`repro.obs.to_json` merges this registry's
snapshot with the active tracer's span rollup into a single export.

The registry is deliberately tiny — a dict of counters, a dict of
``{seconds, calls}`` stage timers, and a dict of bounded latency
reservoirs behind one lock — so instrumenting a hot path costs
nanoseconds, not milliseconds.  Reservoirs keep the most recent
:data:`RESERVOIR_CAPACITY` samples per series, enough to export stable
p50/p95/p99 tails for the serving and streaming stages without unbounded
memory.  Worker processes report
their own deltas back to the parent (see :mod:`repro.runtime.executor`),
which merges them with :meth:`Metrics.merge`, so a parallel run's JSON
accounts for work done everywhere.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections.abc import Iterator, Mapping, Sequence

#: Samples kept per latency reservoir (ring buffer; oldest overwritten).
RESERVOIR_CAPACITY = 1024

#: Quantiles exported for every latency reservoir.
LATENCY_QUANTILES = (0.5, 0.95, 0.99)


class _Reservoir:
    """A bounded ring of the most recent samples for one latency series.

    Cumulative stage timers answer "how much time went where" but flatten
    the distribution; serving paths care about tails.  The reservoir keeps
    the last :data:`RESERVOIR_CAPACITY` observations (bounded memory, no
    matter how long the server runs) and computes nearest-rank quantiles
    over them on demand.
    """

    __slots__ = ("samples", "count")

    def __init__(self) -> None:
        self.samples: "list[float]" = []
        self.count = 0

    def add(self, value: float, n: int = 1) -> None:
        """Add ``n`` samples of ``value`` (past the capacity, the ring
        would only overwrite them with themselves)."""
        samples = self.samples
        for at in range(self.count, self.count + min(n, RESERVOIR_CAPACITY)):
            if len(samples) < RESERVOIR_CAPACITY:
                samples.append(value)
            else:
                samples[at % RESERVOIR_CAPACITY] = value
        self.count += n

    def quantiles(
        self, qs: Sequence[float] = LATENCY_QUANTILES
    ) -> "dict[str, float]":
        """Nearest-rank quantiles (plus max) over the retained samples."""
        ordered = sorted(self.samples)
        n = len(ordered)
        out = {}
        for q in qs:
            rank = max(0, min(n - 1, int(q * n + 0.999999) - 1))
            out[f"p{int(q * 100)}"] = ordered[rank]
        out["max"] = ordered[-1]
        return out


class Metrics:
    """A thread-safe registry of counters, stage timers, and latency
    reservoirs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: "dict[str, int]" = {}
        self._stages: "dict[str, dict]" = {}
        self._latencies: "dict[str, _Reservoir]" = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        """Record one timed call of the named stage."""
        with self._lock:
            stage = self._stages.setdefault(name, {"seconds": 0.0, "calls": 0})
            stage["seconds"] += seconds
            stage["calls"] += 1

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with``-block as one call of the named stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def observe_latency(self, name: str, seconds: float, n: int = 1) -> None:
        """Record ``n`` equal samples in the named bounded latency
        reservoir (one per request a batch answered at once).

        Unlike :meth:`observe`, which only accumulates totals, reservoir
        samples feed tail quantiles (:meth:`latency_quantiles`, and the
        ``latencies`` section of :meth:`to_json`).
        """
        with self._lock:
            reservoir = self._latencies.setdefault(name, _Reservoir())
            reservoir.add(float(seconds), n)

    @contextlib.contextmanager
    def latency(self, name: str) -> Iterator[None]:
        """Time a ``with``-block as one reservoir sample of ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe_latency(name, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Reading / merging
    # ------------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def stage_seconds(self, name: str) -> float:
        with self._lock:
            stage = self._stages.get(name)
            return float(stage["seconds"]) if stage else 0.0

    def latency_count(self, name: str) -> int:
        """Total samples ever observed for the named reservoir."""
        with self._lock:
            reservoir = self._latencies.get(name)
            return reservoir.count if reservoir else 0

    def latency_quantiles(
        self, name: str, qs: Sequence[float] = LATENCY_QUANTILES
    ) -> "dict[str, float]":
        """``{"p50": ..., "p95": ..., "p99": ..., "max": ...}`` in seconds.

        Empty for a reservoir that never saw a sample.
        """
        with self._lock:
            reservoir = self._latencies.get(name)
            if reservoir is None or not reservoir.samples:
                return {}
            return reservoir.quantiles(qs)

    def snapshot(self) -> dict:
        """A deep copy of the current state (counters + stages + latencies).

        Latency reservoirs serialize as their retained samples so a
        snapshot round-trips through :meth:`merge` without losing tail
        information (beyond the reservoir bound itself).
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "stages": {k: dict(v) for k, v in self._stages.items()},
                "latencies": {
                    k: {"count": r.count, "samples": list(r.samples)}
                    for k, r in self._latencies.items()
                },
            }

    def merge(self, other: Mapping) -> None:
        """Fold another snapshot's counters, stage times, and latency
        samples into this one.

        Used by the parallel backend to account for work done in worker
        processes, whose registries the parent cannot see directly.
        """
        for name, amount in other.get("counters", {}).items():
            self.incr(name, amount)
        for name, stage in other.get("stages", {}).items():
            with self._lock:
                mine = self._stages.setdefault(name, {"seconds": 0.0, "calls": 0})
                mine["seconds"] += stage.get("seconds", 0.0)
                mine["calls"] += stage.get("calls", 0)
        for name, payload in other.get("latencies", {}).items():
            samples = payload.get("samples", [])
            with self._lock:
                reservoir = self._latencies.setdefault(name, _Reservoir())
                for sample in samples:
                    reservoir.add(float(sample))
                # Keep the true observation count even when the ring
                # already dropped some of the other side's samples.
                reservoir.count += max(0, payload.get("count", 0) - len(samples))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._stages.clear()
            self._latencies.clear()

    def to_json(self, **extra) -> str:
        """The snapshot (plus any extra key/values) as pretty JSON.

        Latency reservoirs export as quantile summaries (count, p50, p95,
        p99, max seconds) rather than raw samples, so the JSON stays small
        and diffs stay readable.
        """
        payload = self.snapshot()
        payload["latencies"] = {
            name: {"count": entry["count"], **_summarize(entry["samples"])}
            for name, entry in payload["latencies"].items()
        }
        payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True)


def _summarize(samples: "list[float]") -> "dict[str, float]":
    """Quantile summary of a raw sample list (empty dict when empty)."""
    if not samples:
        return {}
    reservoir = _Reservoir()
    reservoir.samples = list(samples)
    return reservoir.quantiles()


#: The process-global registry every runtime layer records into.
METRICS = Metrics()


@contextlib.contextmanager
def collect(label: str) -> Iterator[dict]:
    """Time a block and yield a report dict filled in on exit.

    >>> with collect("figure14") as report:
    ...     run_driver()
    >>> report["wall_time_s"]  # doctest: +SKIP

    The yielded dict is populated *after* the block exits with the wall
    time, the label, and a full metrics snapshot — handy for drivers that
    want to emit one structured-JSON record per run.
    """
    report: dict = {"label": label}
    start = time.perf_counter()
    try:
        yield report
    finally:
        report["wall_time_s"] = time.perf_counter() - start
        report.update(METRICS.snapshot())
