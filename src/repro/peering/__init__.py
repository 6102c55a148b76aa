"""Peering economics: worked example, bypass model, product taxonomy."""

from repro.peering.bypass import (
    OUTCOME_LABELS,
    BypassScenario,
    BypassSweepPoint,
    BypassTable,
    bypass_for_flows,
    failure_window,
)
from repro.peering.offerings import (
    BlendedRateOffering,
    OfferingResult,
    PaidPeeringOffering,
    RegionalPricingOffering,
    backplane_bundles,
    compare_offerings,
    offerings_for_flows,
    render_offerings,
)
from repro.peering.worked_example import (
    ALPHA,
    COSTS,
    MarketSnapshot,
    VALUATIONS,
    WorkedExample,
    figure1_example,
)

__all__ = [
    "ALPHA",
    "BlendedRateOffering",
    "BypassScenario",
    "BypassSweepPoint",
    "BypassTable",
    "COSTS",
    "MarketSnapshot",
    "OUTCOME_LABELS",
    "OfferingResult",
    "PaidPeeringOffering",
    "RegionalPricingOffering",
    "VALUATIONS",
    "WorkedExample",
    "backplane_bundles",
    "bypass_for_flows",
    "compare_offerings",
    "failure_window",
    "figure1_example",
    "offerings_for_flows",
    "render_offerings",
]
