"""Deterministic quote load: a seeded request mix.

Mostly designed destinations, a configurable fraction of unknown ones.
``python -m repro fleet --selftest``, the fleet tests and the batching
bench all draw their requests from here, so smoke runs and benches quote
the same workload.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.serve.engine import QuoteRequest
from repro.serve.snapshot import PricingSnapshot


def generate_requests(
    n_requests: int,
    seed: int = 0,
    snapshot: "Optional[PricingSnapshot]" = None,
    unknown_fraction: float = 0.2,
) -> "list[QuoteRequest]":
    """A seeded, reproducible request mix.

    Known destinations are sampled from the snapshot's design; unknown
    ones come from a TEST-NET range the design never prices.  Without a
    snapshot every request is an unknown destination (the degraded-path
    workload).
    """
    rng = np.random.default_rng(seed)
    known = list(snapshot.destinations) if snapshot is not None else []
    volumes = rng.uniform(0.5, 50.0, size=n_requests)
    distances = rng.uniform(1.0, 5000.0, size=n_requests)
    unknown_draws = rng.random(n_requests)
    known_picks = (
        rng.integers(0, len(known), size=n_requests) if known else None
    )
    requests = []
    for i in range(n_requests):
        if known_picks is not None and unknown_draws[i] >= unknown_fraction:
            dst = known[int(known_picks[i])]
        else:
            dst = f"198.51.100.{i % 256}"
        requests.append(
            QuoteRequest(
                dst=dst,
                volume_mbps=float(volumes[i]),
                distance_miles=float(distances[i]),
            )
        )
    return requests
