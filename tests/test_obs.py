"""Tests for the tracing subsystem: span nesting, the no-op path,
JSONL export/summarize, cross-process propagation, and the CLI
``--trace`` / ``trace summarize`` round trip."""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.core.cost import LinearDistanceCost
from repro.obs import (
    METRICS,
    NoopTracer,
    Span,
    TraceContext,
    TraceExporter,
    Tracer,
    read_trace,
    render_trace_summary,
    summarize_trace,
)
from repro.runtime.executor import PoolExecutor


@pytest.fixture
def tracer():
    """A buffering tracer installed as the process global, then restored."""
    installed = Tracer()
    previous = obs.set_tracer(installed)
    yield installed
    obs.set_tracer(previous)


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# Span model + tracer
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_follows_control_flow(self, tracer):
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                tracer.event("tick", n=1)
        spans = tracer.drain()
        assert [s.name for s in spans] == ["inner", "outer"]  # finish order
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attributes == {"kind": "test"}
        assert inner.events[0]["name"] == "tick"
        assert inner.duration_s <= outer.duration_s

    def test_exception_marks_error_and_reraises(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("failing"):
                raise ValueError("boom")
        (span,) = tracer.drain()
        assert span.status == obs.STATUS_ERROR
        event = span.events[0]
        assert event["name"] == "exception"
        assert event["type"] == "ValueError"
        assert event["offset_s"] >= 0.0
        assert tracer.span_stats()["failing"]["errors"] == 1

    def test_status_validated(self, tracer):
        with tracer.span("s") as span:
            span.set_status(obs.STATUS_DEGRADED)
            with pytest.raises(ValueError):
                span.set_status("on-fire")
        assert tracer.drain()[0].status == obs.STATUS_DEGRADED

    def test_span_dict_round_trip(self, tracer):
        with tracer.span("unit", item=3) as span:
            span.add_event("checkpoint", phase="mid")
        restored = Span.from_dict(tracer.drain()[0].to_dict())
        assert restored.name == "unit"
        assert restored.span_id == span.span_id
        assert restored.attributes == {"item": 3}
        assert restored.events[0]["name"] == "checkpoint"
        assert restored.pid == os.getpid()


class TestNoopPath:
    def test_disabled_by_default(self):
        assert not obs.tracing_enabled()
        assert isinstance(obs.get_tracer(), NoopTracer)
        assert obs.current_context() is None

    def test_noop_span_accepts_the_full_interface(self):
        with obs.span("anything", n=1) as span:
            span.set_attribute("a", 2)
            span.set_status(obs.STATUS_ERROR)
            span.add_event("e")
            obs.event("loose")
        assert obs.span_stats() == {}
        assert obs.adopt_spans([], None) == 0

    def test_configure_tracing_toggles(self, tmp_path):
        target = tmp_path / "t.jsonl"
        installed = obs.configure_tracing(str(target))
        try:
            assert obs.tracing_enabled()
            with obs.span("configured"):
                pass
        finally:
            obs.configure_tracing(None)
        assert not obs.tracing_enabled()
        assert installed.exporter.exported == 1
        assert read_trace(target)[0].name == "configured"


# ----------------------------------------------------------------------
# Export + summarize
# ----------------------------------------------------------------------


class TestExportAndSummarize:
    def test_jsonl_round_trip_children_before_parents(self, tmp_path, tracer):
        tracer.exporter = TraceExporter(tmp_path / "trace.jsonl")
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        tracer.close()
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert [json.loads(l)["name"] for l in lines] == ["child", "parent"]
        spans = read_trace(tmp_path / "trace.jsonl")
        assert spans[0].parent_id == spans[1].span_id

    def test_summarize_rolls_up_stages(self, tracer):
        for _ in range(3):
            with tracer.span("work"):
                pass
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                raise RuntimeError("x")
        summary = summarize_trace(tracer.drain())
        assert summary["spans"] == 4
        assert summary["orphans"] == 0
        assert summary["errors"] == 1
        stage = summary["stages"]["work"]
        assert stage["count"] == 4
        assert stage["errors"] == 1
        assert stage["p50_ms"] <= stage["p95_ms"] <= stage["max_ms"]
        text = render_trace_summary(summary, "trace.jsonl")
        assert "p50 ms" in text and "work" in text
        assert "WARNING" not in text

    def test_summarize_counts_orphans(self, tracer):
        with tracer.span("root"):
            pass
        (span,) = tracer.drain()
        span.parent_id = "feedfeedfeedfeed"  # points nowhere
        summary = summarize_trace([span])
        assert summary["orphans"] == 1
        assert "WARNING" in render_trace_summary(summary)


# ----------------------------------------------------------------------
# Propagation: adopt, process pools, stream windows
# ----------------------------------------------------------------------


class TestPropagation:
    def test_adopt_grafts_foreign_spans(self, tracer):
        foreign = Tracer()
        with foreign.span("worker.root"):
            with foreign.span("worker.child"):
                pass
        shipped = [s.to_dict() for s in foreign.drain()]
        with tracer.span("submitter") as submitter:
            parent = submitter.context()
        assert tracer.adopt(shipped, parent) == 2
        spans = {s.name: s for s in tracer.drain()}
        assert spans["worker.root"].trace_id == submitter.trace_id
        assert spans["worker.root"].parent_id == submitter.span_id
        # The worker-internal edge survives the graft.
        assert spans["worker.child"].parent_id == spans["worker.root"].span_id

    def test_activate_none_is_a_no_op(self, tracer):
        with obs.activate(None):
            with tracer.span("root") as span:
                assert span.parent_id is None

    def test_remote_parent_adopts_new_roots(self, tracer):
        remote = TraceContext(trace_id="a" * 16, span_id="b" * 16)
        with obs.activate(remote):
            with tracer.span("joined") as span:
                pass
        assert span.trace_id == remote.trace_id
        assert span.parent_id == remote.span_id

    def test_pool_map_ships_worker_spans_home(self, tracer):
        with tracer.span("driver") as driver:
            result = PoolExecutor(jobs=2).map(_square, list(range(6)))
        assert result == [x * x for x in range(6)]
        spans = tracer.drain()
        units = [s for s in spans if s.name == "runtime.work_unit"]
        assert len(units) == 6
        assert {s.trace_id for s in units} == {driver.trace_id}
        # Every unit really crossed the process boundary...
        assert all(s.pid != os.getpid() for s in units)
        # ...and still resolves to a parent in this trace (no orphans).
        summary = summarize_trace(spans)
        assert summary["orphans"] == 0
        assert len(summary["processes"]) >= 2

    def test_stream_run_traces_each_window(self, tracer):
        from repro.core.ced import CEDDemand
        from repro.stream import (
            StreamConfig,
            StreamingPipeline,
            TraceReplaySource,
        )
        from repro.synth.trace import generate_network_trace

        trace = generate_network_trace(
            "eu_isp", n_flows=20, seed=7, duration_seconds=1800.0
        )
        pipeline = StreamingPipeline(
            TraceReplaySource(trace, export_interval_ms=60_000),
            distance_fn=trace.distance_for,
            demand_model=CEDDemand(alpha=1.1),
            cost_model=LinearDistanceCost(theta=0.2),
            config=StreamConfig(window_ms=600_000),
        )
        report = pipeline.run()
        spans = tracer.drain()
        run_span = next(s for s in spans if s.name == "stream.run")
        windows = [s for s in spans if s.name == "stream.window"]
        assert len(windows) == len(report.results) >= 1
        assert all(w.parent_id == run_span.span_id for w in windows)
        assert run_span.attributes["window_ms"] == 600_000
        assert all("records" in w.attributes for w in windows)


# ----------------------------------------------------------------------
# Metrics merge + alias
# ----------------------------------------------------------------------


class TestMetricsMerge:
    def test_to_json_merges_spans_and_counters(self, tracer):
        with tracer.span("merged.stage"):
            pass
        payload = json.loads(obs.to_json(command="test"))
        assert payload["command"] == "test"
        assert "counters" in payload
        assert payload["spans"]["merged.stage"]["calls"] == 1

    def test_runtime_metrics_alias_is_the_same_object(self):
        import repro.runtime

        assert repro.runtime.METRICS is METRICS


# ----------------------------------------------------------------------
# CLI end-to-end: --trace, trace summarize
# ----------------------------------------------------------------------


class TestCliTracing:
    def test_figure_trace_spans_multiple_processes(self, capsys, tmp_path):
        trace_path = tmp_path / "fig14.jsonl"
        code = main([
            "--flows", "24", "figure", "14",
            "--jobs", "2", "--no-cache", "--trace", str(trace_path),
        ])
        assert code == 0
        spans = read_trace(trace_path)
        summary = summarize_trace(spans)
        assert summary["orphans"] == 0
        assert summary["errors"] == 0
        worker_pids = set(summary["processes"]) - {os.getpid()}
        assert len(worker_pids) >= 2  # spans shipped home from the pool
        assert spans[-1].name == "cli.figure"  # root finishes last
        assert "runtime.work_unit" in summary["stages"]
        assert summary["stages"]["runtime.evaluate_spec"]["processes"] >= 2

        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "orphans: 0" in out
        assert "p50 ms" in out and "p95 ms" in out
        assert "runtime.evaluate_spec" in out

    def test_trace_disabled_leaves_no_file(self, capsys, tmp_path):
        assert main(["--flows", "24", "figure", "4"]) == 0
        assert not obs.tracing_enabled()
        assert list(tmp_path.iterdir()) == []
