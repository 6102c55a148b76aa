"""Per-layer attribution for traced runs (``--trace 1``).

:class:`Probes` runs inside the driver.  It installs a real
``repro.obs.Tracer`` with the JSONL exporter, then wraps the public calls
each layer exposes — from the benchmark's side, without touching
``src/``:

* heavy calls (once per window, publication or design) get a real span
  per call (:meth:`Probes.span_call`);
* per-record and per-quote calls (``decode_packet``, ``Windower.ingest``,
  ``quote_to_wire``, ...) are summed and written as one span per window,
  or per quote phase (:meth:`Probes.sum_call`), since a span per record
  would cost more than the work it times;
* the front door's event loop runs on a selector that times its waits,
  so the quote phase splits into the loop's busy time, its waits on the
  shard and its waits on the client;
* the shard worker is forked from the driver and inherits the wrapper
  around ``QuoteEngine.quote_columns``, which records into the worker's
  ``METRICS``; the fleet's stop handshake merges them back.

:func:`attribute` reads the trace back with ``repro.obs.read_trace`` and
``summarize_trace`` — the spans an operator reads — and turns the span
tree into per-layer calls, busy and self seconds and per-phase shares.
A call that no longer exists in the program is listed in ``unprobed``
and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import selectors
import threading
import time

clock = time.perf_counter

LAYERS = ("netflow", "stream", "core", "mechanisms", "accounting", "serve", "fleet")

#: name -> (unit, better); every traced run prints every one of them.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.busy_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.stream_share"] = ("ratio", "lower")
    PER_LAYER[f"{_layer}.quote_share"] = ("ratio", "lower")
    PER_LAYER[f"{_layer}.window_share"] = ("ratio", "lower")
PER_LAYER.update(
    {
        "netflow.decode_s": ("s", "lower"),
        "netflow.decode_packets": ("count", "higher"),
        "netflow.decode_records": ("count", "higher"),
        "netflow.aggregate_s": ("s", "lower"),
        "netflow.dedup_ratio": ("ratio", "higher"),
        "stream.window_ingest_s": ("s", "lower"),
        "stream.window_close_s": ("s", "lower"),
        "stream.flowset_s": ("s", "lower"),
        "stream.dst_aggregate_s": ("s", "lower"),
        "stream.reprice_s": ("s", "lower"),
        "stream.loop_s": ("s", "lower"),
        "stream.queue_blocked": ("count", "lower"),
        "stream.late_dropped": ("count", "lower"),
        "stream.windows_skipped": ("count", "lower"),
        "stream.adopt_ratio": ("ratio", "higher"),
        "core.calibrate_s": ("s", "lower"),
        "core.design_s": ("s", "lower"),
        "mechanisms.design_s": ("s", "lower"),
        "mechanisms.reclear_s": ("s", "lower"),
        "accounting.replay_s": ("s", "lower"),
        "accounting.tier_design_s": ("s", "lower"),
        "serve.snapshot_build_s": ("s", "lower"),
        "serve.snapshot_destinations": ("count", "higher"),
        "serve.engine_s": ("s", "lower"),
        "fleet.publish_s": ("s", "lower"),
        "fleet.segment_s": ("s", "lower"),
        "fleet.segment_bytes": ("bytes", "lower"),
        "fleet.cutovers": ("count", "higher"),
        "fleet.roundtrip_s": ("s", "lower"),
        "fleet.batch_fill": ("ratio", "higher"),
        "fleet.queue_wait_s": ("s", "lower"),
        "fleet.frame_decode_s": ("s", "lower"),
        "fleet.frame_encode_s": ("s", "lower"),
        "fleet.request_build_s": ("s", "lower"),
        "fleet.wire_s": ("s", "lower"),
        "fleet.frontdoor_other_s": ("s", "lower"),
        "fleet.shard_wait_s": ("s", "lower"),
        "fleet.reply_bytes_per_quote": ("bytes", "lower"),
        "fleet.shed": ("count", "lower"),
        "fleet.degraded": ("count", "lower"),
        "fleet.stale_after_cutover": ("count", "lower"),
        "bench.feed_s": ("s", "lower"),
        "bench.client_wait_s": ("s", "lower"),
        "bench.unattributed_share.stream": ("ratio", "lower"),
        "bench.unattributed_share.quote": ("ratio", "lower"),
    }
)
#: End-to-end metrics whose traced-vs-untraced cost is reported.
OVERHEAD_OF = {
    "setup_s": "lower",
    "ingest_records_per_s": "higher",
    "reprice_p50_ms": "lower",
    "reprice_p90_ms": "lower",
    "quote_qps": "higher",
    "quote_p50_ms": "lower",
    "quote_p90_ms": "lower",
    "peak_rss_mb": "lower",
}
for _name in OVERHEAD_OF:
    PER_LAYER[f"obs.trace_overhead.{_name}"] = ("ratio", "lower")

#: Root spans: a stream pass and the quote phase are partitioned by
#: their children; the quote phase's cutover thread runs beside the
#: front door's loop, so its spans count per layer but not in a phase.
_ROOTS = {"bench.stream_pass": "stream", "bench.quote_phase": "quote", "bench.cutovers": None}
#: Summed per-call timers, by span name.
_STREAM_SUMS = ("netflow.decode", "stream.window_ingest", "stream.window_close", "bench.feed")
_QUOTE_SUMS = ("fleet.frame_decode", "fleet.frame_encode", "fleet.request_build", "fleet.wire")


class _Sum:
    """Summed timings of one hot call since the last :meth:`take`.

    Each sum is written by one thread only (the stream's main thread or
    the front door's loop thread), so it needs no lock."""

    __slots__ = ("seconds", "calls", "items")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.items = 0

    def take(self) -> "tuple[float, int, int]":
        out = (self.seconds, self.calls, self.items)
        self.seconds, self.calls, self.items = 0.0, 0, 0
        return out


class _TimedSelector(selectors.DefaultSelector):
    """The front door's selector; records each wait in ``select``."""

    def __init__(self, waits: list, active: threading.Event) -> None:
        super().__init__()
        self._waits = waits
        self._active = active

    def select(self, timeout=None):
        start = clock()
        try:
            return super().select(timeout)
        finally:
            if self._active.is_set():
                self._waits.append((start, clock()))


class Probes:
    """Tracer, wrappers and phase spans of one traced driver run."""

    def __init__(self, trace_path) -> None:
        from repro import obs

        self.obs = obs
        self.tracer = obs.configure_tracing(path=trace_path)
        self.sums = {name: _Sum() for name in (*_STREAM_SUMS, *_QUOTE_SUMS)}
        self.unprobed: "list[str]" = []
        self.quoting = threading.Event()
        self.loop_waits: "list[tuple]" = []
        self.roundtrips: "list[tuple]" = []
        self.quote_span = None
        self._inside: "dict[str, threading.local]" = {}
        self._install()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _target(self, owner, attr: str):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.unprobed.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return fn

    def span_call(self, owner, attr: str, name: str, attrs=None) -> None:
        """A real span per call; a call nested in one of the same name is
        folded into the outer span."""
        fn = self._target(owner, attr)
        if fn is None:
            return
        is_class = isinstance(getattr(owner, "__dict__", {}).get(attr), classmethod)
        raw = fn.__func__ if is_class else fn
        span = self.obs.span
        depth = self._inside.setdefault(name, threading.local())

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            if getattr(depth, "inside", False):
                return raw(*args, **kwargs)
            depth.inside = True
            try:
                with span(name) as opened:
                    result = raw(*args, **kwargs)
                    if attrs is not None:
                        for key, value in attrs(args, result).items():
                            opened.set_attribute(key, value)
                    return result
            finally:
                depth.inside = False

        setattr(owner, attr, classmethod(wrapper) if is_class else wrapper)

    def sum_call(self, owner, attr: str, name: str, items=None, closing=None) -> None:
        """Sum a hot call's time into ``name``; with ``closing``, calls
        whose result is truthy go to that bucket instead."""
        fn = self._target(owner, attr)
        if fn is None:
            return
        bucket = self.sums[name]
        other = self.sums[closing] if closing else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            target = other if other is not None and result else bucket
            target.seconds += clock() - start
            target.calls += 1
            if items is not None:
                target.items += items(args, result)
            return result

        setattr(owner, attr, wrapper)

    def _install(self) -> None:
        import json
        import types

        from repro.accounting.tier_designer import TierDesign
        from repro.core.market import Market
        from repro.fleet import frontdoor, shard, shm
        from repro.mechanisms.base import Mechanism
        from repro.obs import METRICS
        from repro.serve.engine import QuoteEngine
        from repro.serve.snapshot import PricingSnapshot
        from repro.stream import repricer, source, window

        # netflow: decode as V5PacketSource calls it; window aggregation.
        self.sum_call(source, "decode_packet", "netflow.decode", items=lambda a, r: len(r))
        self.span_call(
            window, "aggregate_to_flowset", "netflow.aggregate",
            attrs=lambda a, r: {"records_in": a[0].records_seen, "flows_out": len(r)},
        )
        # stream: per-record windowing (closing calls apart) and the
        # per-window steps.
        self.sum_call(
            window.Windower, "ingest", "stream.window_ingest", closing="stream.window_close"
        )
        self.span_call(window.ClosedWindow, "flowset", "stream.flowset")
        self.span_call(repricer, "aggregate_by_destination", "stream.dst_aggregate")
        self.span_call(repricer.OnlineRepricer, "price_window", "stream.reprice")
        # core: the repricer calibrates with Market(...) by name; the
        # posted design runs on every window.
        market = repricer.Market
        span = self.obs.span

        def calibrate(*args, **kwargs):
            with span("core.calibrate"):
                return market(*args, **kwargs)

        repricer.Market = calibrate
        self.span_call(Market, "tiered_outcome", "core.design")
        # mechanisms: every registered mechanism.
        for cls in Mechanism.__subclasses__():
            if "design_on" in cls.__dict__:
                self.span_call(cls, "design_on", "mechanisms.design")
            if "reclear_on" in cls.__dict__:
                self.span_call(cls, "reclear_on", "mechanisms.reclear")
        # accounting: drift replay, tier-design construction.
        self.span_call(repricer, "replay_design_prices", "accounting.replay")
        self.span_call(TierDesign, "from_outcome", "accounting.tier_design")
        self.span_call(TierDesign, "from_bundles", "accounting.tier_design")
        # serve: snapshot build here, the engine inside the shard.
        self.span_call(
            PricingSnapshot, "build", "serve.snapshot_build",
            attrs=lambda a, r: {"destinations": r.n_destinations},
        )
        quote_columns = QuoteEngine.quote_columns

        @functools.wraps(quote_columns)
        def engine(self_, *args, **kwargs):
            with METRICS.stage("bench.serve.engine"):
                return quote_columns(self_, *args, **kwargs)

        QuoteEngine.quote_columns = engine
        # fleet write side: publish and segment freeze (the cutover span
        # is the fleet's own).
        self.span_call(shard.ShardFleet, "publish", "fleet.publish")
        self.span_call(
            shm.SharedSnapshot, "publish", "fleet.segment",
            attrs=lambda a, r: {"bytes": r.size},
        )
        # fleet read side: shard round trips (kept as intervals for the
        # loop-wait split), frame JSON, request objects, quote rows.
        quote_shard = shard.ShardFleet.quote_shard
        trips = self.roundtrips

        @functools.wraps(quote_shard)
        def timed_quote_shard(self_, shard_id, requests, *args, **kwargs):
            start = clock()
            try:
                return quote_shard(self_, shard_id, requests, *args, **kwargs)
            finally:
                trips.append((start, clock(), len(requests)))

        shard.ShardFleet.quote_shard = timed_quote_shard
        frontdoor.json = types.SimpleNamespace(
            loads=json.loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError
        )
        self.sum_call(frontdoor.json, "loads", "fleet.frame_decode")
        self.sum_call(frontdoor, "encode_frame", "fleet.frame_encode", items=lambda a, r: len(r))
        self.sum_call(frontdoor, "QuoteRequest", "fleet.request_build")
        self.sum_call(frontdoor, "quote_to_wire", "fleet.wire")

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def selector(self) -> selectors.BaseSelector:
        return _TimedSelector(self.loop_waits, self.quoting)

    def timed_feed(self, packets):
        """Yield ``packets``, timing the benchmark's own reads (with the
        calibration slices the feed times before window-closing
        packets)."""
        bucket = self.sums["bench.feed"]
        it = iter(packets)
        while True:
            start = clock()
            try:
                packet = next(it)
            except StopIteration:
                return
            bucket.seconds += clock() - start
            bucket.calls += 1
            yield packet

    def flush(self) -> None:
        """Write the stream-side sums as children of the current span."""
        self._adopt(_STREAM_SUMS, self.obs.current_context())

    def _adopt(self, names, parent) -> None:
        spans = []
        for name in names:
            seconds, calls, items = self.sums[name].take()
            if calls:
                spans.append(_summed(name, parent, seconds, calls, items))
        self.tracer.adopt(spans, parent)

    @contextlib.contextmanager
    def stream_pass(self):
        with self.obs.span("bench.stream_pass"):
            yield
            self.flush()

    @contextlib.contextmanager
    def quote_phase(self):
        for name in _QUOTE_SUMS:
            self.sums[name].take()
        self.loop_waits.clear()
        self.roundtrips.clear()
        with self.obs.span("bench.quote_phase") as span:
            self.quote_span = span
            self.quoting.set()
            try:
                yield
            finally:
                self.quoting.clear()

    def cutover_span(self):
        """The root span the quote phase's cutover thread runs under.

        Cutovers run beside the front door's loop, not on it, so they
        stay out of the quote phase's partition of the loop's time."""
        return self.obs.span("bench.cutovers")

    def finish(self, max_batch: int) -> dict:
        """After the fleet stopped: write the quote phase's summed spans
        and close the trace; returns the quote-side measurements."""
        from repro.obs import METRICS

        span = self.quote_span
        ctx = span.context()
        waits = sorted(self.loop_waits)
        trips = sorted(self.roundtrips)
        waited = sum(b - a for a, b in waits)
        shard_wait = _covered(waits, [(a, b) for a, b, _ in trips])
        trip_s = sum(b - a for a, b, _ in trips)
        trip_quotes = sum(n for _, _, n in trips)
        stage = METRICS.snapshot()["stages"].get("bench.serve.engine", {})
        engine_s, engine_calls = stage.get("seconds", 0.0), stage.get("calls", 0)
        # The engine runs inside the round trips: its share of them is
        # its share of the loop's shard wait.
        engine_wait = shard_wait * min(1.0, engine_s / trip_s) if trip_s else 0.0
        probed = {name: self.sums[name].take() for name in _QUOTE_SUMS}
        busy = max(0.0, span.duration_s - waited)
        front = _summed("fleet.frontdoor", ctx, busy, 1, 0)
        wait = _summed("fleet.shard_wait", ctx, shard_wait, len(trips), trip_quotes)
        spans = [front, wait]
        spans += [
            _summed(name, front.context(), s, c, n)
            for name, (s, c, n) in probed.items()
        ]
        spans.append(
            _summed("serve.engine", wait.context(), engine_wait, engine_calls, 0)
        )
        spans.append(
            _summed("bench.client_wait", ctx, waited - shard_wait, len(waits), 0)
        )
        self.tracer.adopt(spans, ctx)
        self.obs.configure_tracing(None)  # flushes and closes the file
        latencies = METRICS.snapshot()["latencies"].get("fleet.request", {}).get("samples", [])
        mean_trip = trip_s / len(trips) if trips else 0.0
        # The loop's busy time outside every named probe.
        unnamed = busy - sum(s for s, _, _ in probed.values())
        quotes = probed["fleet.wire"][1]
        return {
            "serve.engine_s": engine_s,
            "fleet.roundtrip_s": trip_s,
            "fleet.batch_fill": (trip_quotes / len(trips) / max_batch) if trips else 0.0,
            "fleet.queue_wait_s": (
                max(0.0, sum(latencies) / len(latencies) - mean_trip) if latencies else 0.0
            ),
            "fleet.frontdoor_other_s": unnamed,
            # Replaces the root span's remainder, which the split above
            # makes 0 by construction.
            "bench.unattributed_share.quote": (
                unnamed / span.duration_s if span.duration_s else 0.0
            ),
            "fleet.shard_wait_s": shard_wait,
            "fleet.reply_bytes_per_quote": probed["fleet.frame_encode"][2] / quotes if quotes else 0.0,
            "fleet.degraded": METRICS.counter("fleet.degraded"),
            "bench.client_wait_s": waited - shard_wait,
            "unprobed": self.unprobed,
        }


def _summed(name, parent, seconds, calls, items):
    """A span standing for ``calls`` summed calls under ``parent``."""
    from repro.obs import Span, new_id

    return Span(
        name=name,
        trace_id=parent.trace_id,
        span_id=new_id(),
        parent_id=parent.span_id,
        start_unix_s=time.time(),
        duration_s=seconds,
        attributes={"calls": calls, "items": items, "summed": True},
    )


def _covered(waits, trips) -> float:
    """Total length of the ``waits`` intervals covered by ``trips``."""
    merged: "list[list[float]]" = []
    for a, b in sorted(trips):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    total, j = 0.0, 0
    for a, b in waits:
        while j < len(merged) and merged[j][1] <= a:
            j += 1
        k = j
        while k < len(merged) and merged[k][0] < b:
            total += min(b, merged[k][1]) - max(a, merged[k][0])
            k += 1
    return total


# ----------------------------------------------------------------------
# Reading the trace back
# ----------------------------------------------------------------------


def attribute(trace_path) -> "tuple[dict, str]":
    """Per-layer metrics from a finished trace, plus its rendered summary.

    Self time is a span's duration minus its children's.  Each phase is a
    span tree (``bench.stream_pass`` per stream pass, ``bench.quote_phase``),
    so a phase's layer self times add up to its wall-clock; what the root
    span keeps for itself is the phase's unattributed time.
    """
    from repro.obs import read_trace, render_trace_summary, summarize_trace

    spans = read_trace(trace_path)
    summary = summarize_trace(spans)
    children: "dict[str, list]" = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)

    def calls(s) -> int:
        return int(s.attributes["calls"]) if s.attributes.get("summed") else 1

    def layer(s) -> str:
        return s.name.split(".", 1)[0]

    out = {name: 0.0 for name in PER_LAYER}
    phase_wall = {"stream": 0.0, "quote": 0.0}
    phase_self: "dict[str, dict]" = {"stream": {}, "quote": {}}
    unattributed = {"stream": 0.0, "quote": 0.0}
    # The per-window decision: everything under the pipeline's own
    # stream.window spans (aggregation, repricing, snapshot, cutover).
    window_self: "dict[str, float]" = {}
    window_wall = sum(s.duration_s for s in spans if s.name == "stream.window")
    self_by_name: "dict[str, float]" = {}

    def walk(s, phase, outer, in_window) -> None:
        kids = children.get(s.span_id, [])
        own = s.duration_s - sum(k.duration_s for k in kids)
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own
        name = layer(s)
        in_window = in_window or s.name == "stream.window"
        if s.name in _ROOTS:
            if phase is not None:
                unattributed[phase] += own
        else:
            if phase is not None:
                phase_self[phase][name] = phase_self[phase].get(name, 0.0) + own
            if in_window:
                window_self[name] = window_self.get(name, 0.0) + own
            if name in LAYERS:
                out[f"{name}.self_s"] += own
                out[f"{name}.calls"] += calls(s)
                if name not in outer:
                    out[f"{name}.busy_s"] += s.duration_s
        for k in kids:
            walk(k, phase, outer | {name}, in_window)

    for s in spans:
        phase = _ROOTS.get(s.name, "")
        if phase != "":
            if phase is not None:
                phase_wall[phase] += s.duration_s
            walk(s, phase, frozenset(), False)
    for phase, wall in phase_wall.items():
        for name in LAYERS:
            out[f"{name}.{phase}_share"] = phase_self[phase].get(name, 0.0) / wall if wall else 0.0
        out[f"bench.unattributed_share.{phase}"] = unattributed[phase] / wall if wall else 0.0
    for name in LAYERS:
        out[f"{name}.window_share"] = window_self.get(name, 0.0) / window_wall if window_wall else 0.0

    stages = summary["stages"]
    for name in (
        "netflow.decode", "netflow.aggregate",
        "stream.window_ingest", "stream.window_close", "stream.flowset",
        "stream.dst_aggregate", "stream.reprice",
        "core.calibrate", "core.design",
        "mechanisms.design", "mechanisms.reclear",
        "accounting.replay", "accounting.tier_design",
        "serve.snapshot_build",
        "fleet.publish", "fleet.segment", "fleet.frame_decode", "fleet.frame_encode",
        "fleet.request_build", "fleet.wire",
        "bench.feed",
    ):
        out[f"{name}_s"] = stages.get(name, {}).get("total_s", 0.0)
    decode = [s for s in spans if s.name == "netflow.decode"]
    out["netflow.decode_packets"] = sum(calls(s) for s in decode)
    out["netflow.decode_records"] = sum(s.attributes["items"] for s in decode)
    aggregated = [s.attributes for s in spans if s.name == "netflow.aggregate"]
    flows_out = sum(a["flows_out"] for a in aggregated)
    out["netflow.dedup_ratio"] = sum(a["records_in"] for a in aggregated) / flows_out if flows_out else 0.0
    out["stream.loop_s"] = self_by_name.get("stream.run", 0.0)
    built = [s.attributes["destinations"] for s in spans if s.name == "serve.snapshot_build"]
    out["serve.snapshot_destinations"] = max(built, default=0)
    segments = [s.attributes["bytes"] for s in spans if s.name == "fleet.segment"]
    out["fleet.segment_bytes"] = sum(segments) / len(segments) if segments else 0.0
    out["fleet.cutovers"] = stages.get("fleet.cutover", {}).get("count", 0)
    return out, render_trace_summary(summary, str(trace_path))

