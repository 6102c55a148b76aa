"""Quote pricing: answering pricing questions at traffic scale.

The batch runtime computes tier designs; the streaming repricer keeps
them fresh.  This package is the piece that *prices* with them, in
process:

* :class:`PricingSnapshot` — an immutable, versioned, digest-stamped view
  of one published design (tier rate card + vectorized destination→tier
  index + calibration scale);
* :class:`SnapshotRegistry` — atomic hot-swap of the active snapshot;
  readers never see a torn state, writers never block readers;
* :class:`QuoteEngine` — single and batched pricing queries ("flow of
  ``v`` Mbps over ``d`` miles to ``dst`` → tier, unit price, profit
  contribution"), vectorized through the same cost plumbing the designs
  were calibrated with, degrading to the blended rate ``P0`` whenever no
  snapshot can answer;
* :func:`generate_requests` — the seeded request mix behind
  ``python -m repro fleet --selftest`` and the batching bench.

``QuoteEngine.quote_batch`` over a registry is the single-process quote
call.  Serving quotes to callers — admission control, shedding, batching
across connections — is :mod:`repro.fleet`, whose shard processes each
run this engine over a shared-memory snapshot.

Wiring the registry to a live stream is one argument::

    registry = SnapshotRegistry()
    pipeline = StreamingPipeline(
        ..., on_design_published=registry.subscriber(digest)
    )

Every accepted re-tiering then hot-swaps the active snapshot, and
subsequent quotes reflect the new tier prices.
"""

from repro.serve.engine import Quote, QuoteEngine, QuoteRequest
from repro.serve.loadgen import generate_requests
from repro.serve.registry import SnapshotRegistry
from repro.serve.snapshot import PricingSnapshot, UNKNOWN_TIER

__all__ = [
    "PricingSnapshot",
    "Quote",
    "QuoteEngine",
    "QuoteRequest",
    "SnapshotRegistry",
    "UNKNOWN_TIER",
    "generate_requests",
]
