"""Quote-engine bench: the batching payoff.

Warms a :class:`~repro.serve.registry.SnapshotRegistry` the honest way —
replaying a seeded trace through the streaming repricer so accepted
re-tierings hot-swap snapshots in — then prices one seeded load twice:
through the vectorized batch path and through the per-flow Python loop.
The batch path must win by an order of magnitude; that is why the
engine, and every shard that runs it, is batch-shaped.  Quote serving
throughput and latency are measured end to end by ``pipebench/``.
"""

import time

from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.obs import METRICS
from repro.serve import QuoteEngine, SnapshotRegistry, generate_requests
from repro.stream import StreamConfig, StreamingPipeline, TraceReplaySource
from repro.synth.trace import generate_network_trace

P0 = 20.0


def warm_registry(n_flows=80, seed=17, duration_s=7200.0):
    """Stream a trace into a registry; return (registry, engine)."""
    trace = generate_network_trace(
        "eu_isp", n_flows=n_flows, seed=seed, duration_seconds=duration_s
    )
    source = TraceReplaySource(trace, export_interval_ms=60_000)
    cost_model = LinearDistanceCost(0.2)
    registry = SnapshotRegistry()
    pipeline = StreamingPipeline(
        source,
        distance_fn=trace.distance_for,
        demand_model=CEDDemand(1.1),
        cost_model=cost_model,
        config=StreamConfig(window_ms=600_000, blended_rate=P0),
    )
    pipeline.repricer.on_design_published = registry.subscriber(
        pipeline.config_digest
    )
    pipeline.run()
    return registry, QuoteEngine(registry, cost_model, fallback_blended_rate=P0)


def batching_payoff(n_requests=2000):
    """Seconds for (vectorized batch, per-flow Python loop) on one load."""
    registry, engine = warm_registry()
    requests = generate_requests(
        n_requests, seed=29, snapshot=registry.current(), unknown_fraction=0.2
    )
    start = time.perf_counter()
    batched = engine.quote_batch(requests)
    batch_s = time.perf_counter() - start
    start = time.perf_counter()
    looped = [engine.quote(request) for request in requests]
    loop_s = time.perf_counter() - start
    assert [q.unit_price for q in batched] == [q.unit_price for q in looped]
    return batch_s, loop_s


def test_batched_quoting_beats_per_flow_loop(run_once, save_output):
    batch_s, loop_s = run_once(batching_payoff)
    speedup = loop_s / max(batch_s, 1e-9)
    # The two wall-clock times go to the untracked metrics record; the
    # tracked text reads the same on every run.
    METRICS.observe("bench.serve_batching.batched", batch_s)
    METRICS.observe("bench.serve_batching.per_flow_loop", loop_s)
    save_output(
        "serve_batching",
        "batched engine vs per-flow loop on 2000 requests: the same unit "
        "prices; the bar is a 10x speedup (times in "
        "serve_batching.metrics.json)",
    )
    # The acceptance bar: vectorized batch quoting is at least an order
    # of magnitude faster than quoting the same requests one at a time.
    assert speedup >= 10
