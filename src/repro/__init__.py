"""repro — reproduction of "How Many Tiers? Pricing in the Internet
Transit Market" (Valancius et al., SIGCOMM 2011).

The library models a wholesale Internet transit market: it fits demand and
cost models to observed traffic, then runs counterfactuals over tiered
pricing structures to measure how much profit an ISP captures with a given
number of pricing tiers and a given bundling strategy.

Quickstart::

    from repro import CEDDemand, LinearDistanceCost, Market, load_dataset
    from repro import ProfitWeightedBundling

    flows = load_dataset("eu_isp", seed=1)
    market = Market(flows, CEDDemand(alpha=1.1),
                    LinearDistanceCost(theta=0.2), blended_rate=20.0)
    outcome = market.tiered_outcome(ProfitWeightedBundling(), n_bundles=3)
    print(outcome.profit_capture)   # ~0.9 with three well-chosen tiers

Subpackages:

* :mod:`repro.core` — demand/cost models, bundling, the calibrated market.
* :mod:`repro.netflow` — NetFlow-style records, sampling, aggregation.
* :mod:`repro.geo` — coordinates, synthetic GeoIP, region classification.
* :mod:`repro.topology` — PoP graphs, link routing, distances.
* :mod:`repro.synth` — synthetic datasets calibrated to the paper's Table 1.
* :mod:`repro.peering` — blended-vs-tiered worked example and the
  direct-peering bypass model.
* :mod:`repro.accounting` — BGP tier tagging, link- and flow-based
  accounting, billing.
* :mod:`repro.experiments` — drivers that regenerate every paper table
  and figure.
* :mod:`repro.obs` — tracing (spans across processes and threads) and
  the process-global metrics registry.
* :mod:`repro.fleet` — quote serving: sharded processes over
  shared-memory snapshot segments, behind an asyncio socket front door.
* :mod:`repro.config` — typed configuration objects
  (:class:`RuntimeConfig`, :class:`ExecutorConfig`,
  :class:`StreamConfig`, :class:`FleetConfig`,
  :class:`EcosystemConfig`, :class:`ObsConfig`) with one explicit >
  CLI > env > default precedence chain.
* :mod:`repro.ecosystem` — AS-level internet ecosystem generation:
  seeded multi-AS worlds with valley-free routing whose every AS emits
  NetFlow and can run measure → model → design.
* :mod:`repro.mechanisms` — pluggable pricing mechanisms behind one
  ``design/capture/snapshot`` protocol: posted tiers (the paper's
  pipeline, byte-identical), per-window spot auctions, paid peering,
  and a posted+spot hybrid.
"""

from repro.core import (
    BundlingInputs,
    BundlingStrategy,
    CEDDemand,
    ClassAwareBundling,
    CommitContract,
    CommitMarket,
    CompetitionEquilibrium,
    Firm,
    LogitCompetition,
    ConcaveDistanceCost,
    CostDivisionBundling,
    CostModel,
    CostWeightedBundling,
    DemandModel,
    DemandWeightedBundling,
    DestinationTypeCost,
    Flow,
    FlowSet,
    FlowTable,
    IndexDivisionBundling,
    LinearDistanceCost,
    LogitDemand,
    Market,
    OptimalBundling,
    ProfitWeightedBundling,
    RegionalCost,
    TieredOutcome,
    TierSummary,
    capture_table,
    fit_concave_price_curve,
    paper_strategies,
    strategy_by_name,
)
from repro.config import (
    EcosystemConfig,
    ExecutorConfig,
    FleetConfig,
    MechanismConfig,
    ObsConfig,
    RuntimeConfig,
    StreamConfig,
)
from repro.errors import (
    AccountingError,
    BundlingError,
    CalibrationError,
    ConfigurationError,
    DataError,
    ExecutorError,
    MechanismError,
    ModelParameterError,
    OptimizationError,
    ReproError,
    SnapshotUnavailableError,
    TopologyError,
    WorkerLostError,
    exit_code_for,
)
from repro.mechanisms import (
    MECHANISM_NAMES,
    Hybrid,
    Mechanism,
    MechanismDesign,
    PaidPeering,
    PostedTiers,
    SpotAuction,
    mechanism_by_name,
)
from repro.obs import (
    METRICS,
    Metrics,
    NoopTracer,
    Span,
    TraceContext,
    TraceExporter,
    Tracer,
    configure_tracing,
    get_tracer,
    read_trace,
    summarize_trace,
)
from repro.io import (
    load_design,
    load_flowset,
    save_design,
    save_flowset,
)
from repro.synth import DATASET_NAMES, load_dataset

__version__ = "1.0.0"

__all__ = [
    "AccountingError",
    "BundlingError",
    "BundlingInputs",
    "BundlingStrategy",
    "CEDDemand",
    "CalibrationError",
    "ClassAwareBundling",
    "ConfigurationError",
    "EcosystemConfig",
    "ExecutorConfig",
    "ExecutorError",
    "CommitContract",
    "CommitMarket",
    "CompetitionEquilibrium",
    "Firm",
    "LogitCompetition",
    "ConcaveDistanceCost",
    "CostDivisionBundling",
    "CostModel",
    "CostWeightedBundling",
    "DATASET_NAMES",
    "DataError",
    "DemandModel",
    "DemandWeightedBundling",
    "DestinationTypeCost",
    "FleetConfig",
    "Flow",
    "FlowSet",
    "FlowTable",
    "IndexDivisionBundling",
    "LinearDistanceCost",
    "LogitDemand",
    "MECHANISM_NAMES",
    "METRICS",
    "Market",
    "Mechanism",
    "MechanismConfig",
    "MechanismDesign",
    "MechanismError",
    "Metrics",
    "ModelParameterError",
    "NoopTracer",
    "ObsConfig",
    "OptimalBundling",
    "OptimizationError",
    "PaidPeering",
    "PostedTiers",
    "ProfitWeightedBundling",
    "RegionalCost",
    "ReproError",
    "RuntimeConfig",
    "SnapshotUnavailableError",
    "Span",
    "SpotAuction",
    "StreamConfig",
    "TieredOutcome",
    "TierSummary",
    "TopologyError",
    "TraceContext",
    "TraceExporter",
    "Tracer",
    "WorkerLostError",
    "capture_table",
    "configure_tracing",
    "exit_code_for",
    "fit_concave_price_curve",
    "get_tracer",
    "load_dataset",
    "load_design",
    "load_flowset",
    "mechanism_by_name",
    "read_trace",
    "save_design",
    "save_flowset",
    "summarize_trace",
    "paper_strategies",
    "strategy_by_name",
    "__version__",
]
