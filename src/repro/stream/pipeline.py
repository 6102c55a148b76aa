"""The streaming pipeline: source → queue → windows → repricer.

:class:`StreamingPipeline` runs the paper's full measure→model→design
loop continuously instead of once over a 24-hour batch:

1. record batches are pulled from a source (decoded wire packets, or
   record iterables such as a trace replay, batched at the pipeline's
   edge) into a :class:`~repro.stream.queue.RecordQueue` with an explicit
   backpressure policy;
2. the queue drains into a :class:`~repro.stream.window.Windower` whenever
   it fills or a window boundary passes, closing tumbling/sliding
   event-time windows;
3. each closed window is aggregated into a flow set and handed to the
   :class:`~repro.stream.repricer.OnlineRepricer`, which recalibrates the
   market and re-derives tiers only when the stale-vs-refreshed profit
   gap crosses the drift threshold;
4. after every ``checkpoint_every`` windows the whole pipeline state is
   checkpointed, so a killed run resumes mid-stream with bit-identical
   results.

The run is deterministic: the same source yields the same window results,
re-tier events, and final design, with or without a kill/restore in the
middle, serial every time (there is no cross-window parallelism — each
window's pricing depends on the design the previous windows left in
force).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro import obs
from repro.config import StreamConfig
from repro.core.cost import CostModel
from repro.core.demand import DemandModel
from repro.errors import DataError
from repro.mechanisms.base import tag_config_digest
from repro.netflow.records import RecordBatch
from repro.obs import METRICS
from repro.stream.checkpoint import (
    PipelineCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.queue import RecordQueue
from repro.stream.repricer import (
    OnlineRepricer,
    STATUS_PRICED,
    WindowResult,
)
from repro.stream.window import ClosedWindow, Windower
from repro.accounting.tier_designer import TierDesign


# StreamConfig now lives in the unified configuration module; it is
# re-exported here (and from repro.stream) so existing imports keep
# working.  Checkpoint digests are unchanged — same fields, same hash.
__all__ = ["StreamConfig", "StreamReport", "StreamingPipeline"]

#: Most records a record-iterable source contributes to one batch.
EDGE_BATCH_RECORDS = 1024


@dataclasses.dataclass
class StreamReport:
    """Everything one :meth:`StreamingPipeline.run` produced."""

    results: "list[WindowResult]"
    design: "Optional[TierDesign]"
    records_consumed: int
    queue_dropped: int
    queue_blocked: int
    late_dropped: int
    wall_time_s: float

    @property
    def windows_priced(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_PRICED)

    @property
    def retier_events(self) -> int:
        return sum(1 for r in self.results if r.retier)

    @property
    def records_per_second(self) -> float:
        return self.records_consumed / max(self.wall_time_s, 1e-9)

    def profit_series(self) -> "list[tuple[int, float]]":
        """(window start, realized profit) per priced window.

        Realized profit is what the design actually in force during the
        window earns: the refreshed design's profit when the window
        re-tiered, the replayed stale design's otherwise.
        """
        series = []
        for r in self.results:
            if r.status != STATUS_PRICED:
                continue
            profit = r.refreshed_profit if r.retier else r.stale_profit
            series.append((r.start_ms, float(profit)))
        return series

    def render(self) -> str:
        lines = [
            f"{'window':>21} {'status':>8} {'records':>8} {'dsts':>6} "
            f"{'profit $/mo':>12} {'cap drop':>9}  event",
        ]
        for r in self.results:
            span = f"[{r.start_ms / 1000:>8.0f},{r.end_ms / 1000:>8.0f})s"
            profit = r.refreshed_profit if r.retier else r.stale_profit
            lines.append(
                f"{span:>21} {r.status:>8} {r.n_records:>8} {r.n_flows:>6} "
                f"{'' if profit is None else format(profit, ',.0f'):>12} "
                f"{'' if r.capture_drop is None else format(r.capture_drop, '.3f'):>9}"
                f"  {'RE-TIER' if r.retier else ''}"
            )
        lines.append(
            f"windows: {len(self.results)} total, {self.windows_priced} priced, "
            f"{self.retier_events} re-tier events; "
            f"records: {self.records_consumed} "
            f"({self.records_per_second:,.0f}/s), "
            f"{self.queue_dropped} dropped, {self.late_dropped} late"
        )
        if self.design is not None:
            lines.append(self.design.describe())
        return "\n".join(lines)


class StreamingPipeline:
    """Drives records from a source through windows into the repricer.

    Args:
        source: Iterable of :class:`~repro.netflow.records.RecordBatch`
            or of :class:`~repro.netflow.records.NetFlowRecord`, in rough
            export order (see :mod:`repro.stream.source`).
        distance_fn: Flow key -> miles, the per-network cost proxy.
        demand_model / cost_model: The market model for every window.
        config: Streaming knobs (:class:`StreamConfig`).
        region_fn: Optional flow key -> region label.
        checkpoint_path: When set, state is written there every
            ``config.checkpoint_every`` windows, and an existing file is
            restored from before consuming any records.
        on_design_published: Optional subscriber invoked with a
            :class:`~repro.stream.repricer.DesignPublication` after every
            accepted re-tiering — the hook the quote-serving registry
            hot-swaps snapshots from
            (:meth:`repro.serve.SnapshotRegistry.subscriber`).
        mechanism: The :class:`~repro.mechanisms.Mechanism` that prices
            every window (``None``: posted tiers, see
            :class:`~repro.stream.repricer.OnlineRepricer`).  Posted
            tiers keep the untagged config digest; any other mechanism
            tags it ``|mechanism=<name>``, so checkpoints and quote
            snapshots from different regimes never mix.
    """

    def __init__(
        self,
        source,
        distance_fn: Callable,
        demand_model: DemandModel,
        cost_model: CostModel,
        config: StreamConfig,
        region_fn: "Callable | None" = None,
        checkpoint_path=None,
        on_design_published: "Callable | None" = None,
        mechanism=None,
    ) -> None:
        self.source = source
        self.distance_fn = distance_fn
        self.region_fn = region_fn
        self.config = config
        self.checkpoint_path = checkpoint_path
        self.queue = RecordQueue(config.queue_capacity, config.queue_policy)
        self.windower = Windower(
            config.window_ms,
            config.slide_ms,
            config.reorder_tolerance_ms,
        )
        self.repricer = OnlineRepricer(
            demand_model,
            cost_model,
            blended_rate=config.blended_rate,
            n_tiers=config.n_tiers,
            drift_threshold=config.drift_threshold,
            provider_asn=config.provider_asn,
            mechanism=mechanism,
        )
        self.repricer.on_design_published = on_design_published
        self._digest = tag_config_digest(
            config.digest(demand_model, cost_model), self.repricer.mechanism.name
        )
        self.results: "list[WindowResult]" = []
        self.records_consumed = 0
        self._skip = 0
        self._close_hint: "Optional[int]" = None
        self._windows_since_checkpoint = 0

        if checkpoint_path is not None:
            import pathlib

            if pathlib.Path(checkpoint_path).exists():
                self._restore(load_checkpoint(checkpoint_path, self._digest))

    @property
    def config_digest(self) -> str:
        """The run's configuration fingerprint (checkpoints and quote
        snapshots both embed it, so mixed-regime state is detectable)."""
        return self._digest

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------

    def _restore(self, checkpoint: PipelineCheckpoint) -> None:
        self.records_consumed = checkpoint.records_consumed
        self._skip = checkpoint.records_consumed
        self.windower.restore(checkpoint.windower_state)
        self.queue.restore(
            RecordBatch.from_records(checkpoint.queued_records),
            checkpoint.queue_counters,
        )
        self.repricer.design = checkpoint.design
        self.repricer._posted_tiers = checkpoint.posted_tiers
        self.results = list(checkpoint.results)
        METRICS.incr("stream.restores")

    def _write_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            return
        save_checkpoint(
            PipelineCheckpoint(
                config_digest=self._digest,
                records_consumed=self.records_consumed,
                windower_state=self.windower.state(),
                queued_records=self.queue.snapshot().to_records(),
                queue_counters=self.queue.counters(),
                design=self.repricer.design,
                results=self.results,
                posted_tiers=self.repricer._posted_tiers,
            ),
            self.checkpoint_path,
        )
        self._windows_since_checkpoint = 0
        METRICS.incr("stream.checkpoints")

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def run(self, max_windows: "Optional[int]" = None) -> StreamReport:
        """Consume the source (or resume a checkpoint) to completion.

        Args:
            max_windows: Stop (with a checkpoint) once this many windows
                have been emitted — the hook the kill/restore tests and
                bounded smoke runs use.  ``None`` runs the stream dry and
                flushes the remaining open windows.
        """
        import time

        start = time.perf_counter()
        stopped_early = False
        with METRICS.stage("stream.run"), obs.span(
            "stream.run",
            window_ms=self.config.window_ms,
            drift_threshold=self.config.drift_threshold,
        ):
            for batch in self._batches():
                if not len(batch):
                    continue
                if self._skip > 0:
                    # Fast-forward over records a restored checkpoint
                    # already accounted for.
                    if self._skip >= len(batch):
                        self._skip -= len(batch)
                        continue
                    batch = batch.take(slice(self._skip, None))
                    self._skip = 0
                self.records_consumed += len(batch)
                METRICS.incr("stream.records", len(batch))
                rest = self.queue.offer(batch)
                while rest is not None:
                    # Full queue under the block policy: the "producer"
                    # waits by letting the consumer catch up first.
                    self._process_queue()
                    rest = self.queue.offer(rest)
                if self._boundary_passed(
                    int(batch.last_ms[0]), int(batch.last_ms.max())
                ):
                    self._process_queue()
                if max_windows is not None and len(self.results) >= max_windows:
                    stopped_early = True
                    break
            if not stopped_early:
                self._process_queue()
                for window in self.windower.flush():
                    self._handle_window(window)
            self._write_checkpoint()
        return StreamReport(
            results=list(self.results),
            design=self.repricer.design,
            records_consumed=self.records_consumed,
            queue_dropped=self.queue.dropped,
            queue_blocked=self.queue.blocked,
            late_dropped=self.windower.late_dropped,
            wall_time_s=time.perf_counter() - start,
        )

    def _batches(self):
        """The source's items as record batches.

        Record objects are gathered into batches of up to
        :data:`EDGE_BATCH_RECORDS`, cut after any record that passes the
        next window boundary, so queue drains (and so ``max_windows``
        stops) fall where they would record by record.
        """
        pending: list = []
        for item in self.source:
            if isinstance(item, RecordBatch):
                if pending:
                    yield RecordBatch.from_records(pending)
                    pending = []
                yield item
                continue
            pending.append(item)
            if len(pending) >= EDGE_BATCH_RECORDS or self._boundary_passed(
                item.last_ms, item.last_ms
            ):
                yield RecordBatch.from_records(pending)
                pending = []
        if pending:
            yield RecordBatch.from_records(pending)

    def _boundary_passed(self, first_ms: int, latest_ms: int) -> bool:
        """Has event time moved past the next window close?

        ``first_ms`` is the first timestamp of the item checked and
        ``latest_ms`` its largest.
        """
        next_close = self.windower.next_close_ms
        if next_close is None:
            if self._close_hint is None:
                self._close_hint = self.windower.first_close_for(first_ms)
            next_close = self._close_hint
        return latest_ms - self.config.reorder_tolerance_ms >= next_close

    def _process_queue(self) -> None:
        self._close_hint = None
        batch = self.queue.drain()
        if len(batch):
            for window in self.windower.ingest(batch):
                self._handle_window(window)

    def _handle_window(self, window: ClosedWindow) -> None:
        with obs.span(
            "stream.window",
            start_ms=window.bounds.start_ms,
            end_ms=window.bounds.end_ms,
            records=window.n_records,
        ) as span:
            if not window.n_records:
                result = self.repricer.empty_window(window)
            else:
                try:
                    with METRICS.stage("stream.aggregate"):
                        flows = window.flowset(
                            self.distance_fn,
                            self.region_fn,
                            self.config.min_demand_mbps,
                        )
                except DataError as exc:
                    METRICS.incr("stream.windows_skipped")
                    result = WindowResult.skipped(
                        window.bounds,
                        window.n_records,
                        f"DataError: {exc}",
                        self.repricer.current_tiers,
                    )
                else:
                    result = self.repricer.price_window(window, flows)
            span.set_attribute("status", result.status)
            span.set_attribute("retier", result.retier)
            if result.status != STATUS_PRICED:
                # Empty and skipped windows completed with a fallback
                # answer (the design already in force), not a failure.
                span.set_status(obs.STATUS_DEGRADED)
        self.results.append(result)
        self._windows_since_checkpoint += 1
        if (
            self.checkpoint_path is not None
            and self._windows_since_checkpoint >= self.config.checkpoint_every
        ):
            self._write_checkpoint()
