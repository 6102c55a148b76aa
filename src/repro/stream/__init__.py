"""Streaming repricing: the paper's pipeline run continuously.

The batch workflow collects 24 h of NetFlow, calibrates the market once,
and derives tiers once.  This package runs the same chain online: record
sources feed a bounded backpressure queue, event-time windows close over
export timestamps, each window recalibrates the market, and tiers are
re-derived only when the measured drift (stale-vs-refreshed profit
capture) crosses a threshold.  Records travel as
:class:`~repro.netflow.records.RecordBatch` columns from the wire decoder
to the window's flow set.  Pipelines checkpoint after every window,
so a killed stream resumes mid-flight with bit-identical results.

Entry points: :class:`StreamingPipeline` from Python, or
``python -m repro stream`` from the command line.
"""

from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    PipelineCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.pipeline import (
    StreamConfig,
    StreamingPipeline,
    StreamReport,
)
from repro.stream.queue import POLICIES, RecordQueue
from repro.stream.repricer import (
    DesignPublication,
    OnlineRepricer,
    STATUS_EMPTY,
    STATUS_PRICED,
    STATUS_SKIPPED,
    WindowResult,
    aggregate_by_destination,
)
from repro.stream.source import (
    DemandShift,
    TraceReplaySource,
    V5PacketSource,
    V9PacketSource,
    arrival_order,
)
from repro.stream.window import ClosedWindow, WindowBounds, Windower

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "ClosedWindow",
    "DemandShift",
    "DesignPublication",
    "OnlineRepricer",
    "POLICIES",
    "PipelineCheckpoint",
    "RecordQueue",
    "STATUS_EMPTY",
    "STATUS_PRICED",
    "STATUS_SKIPPED",
    "StreamConfig",
    "StreamReport",
    "StreamingPipeline",
    "TraceReplaySource",
    "V5PacketSource",
    "V9PacketSource",
    "WindowBounds",
    "WindowResult",
    "Windower",
    "aggregate_by_destination",
    "arrival_order",
    "load_checkpoint",
    "save_checkpoint",
]
