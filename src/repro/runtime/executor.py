"""Pluggable sweep executors: serial, process-pool, and socket-distributed.

The ROADMAP's result surface is a grid of ~10,000 independent
:class:`~repro.runtime.spec.ExperimentSpec` work units.  Each spec is a
frozen, content-addressed value and every completed result spills to the
disk cache, so the only thing that varies between "run it here" and
"run it on six machines" is the *executor* — captured by a small
protocol:

* :meth:`Executor.submit` — takes a spec list, yields
  ``(spec_digest, result)`` pairs **as they complete** (not necessarily
  in submission order);
* :attr:`Executor.max_inflight` — how many specs the backend usefully
  keeps in flight (a capability hint, e.g. for batching drivers);
* :meth:`Executor.map` — the generic ordered fan-out the ablation
  drivers use for non-spec callables (every backend runs it through
  :meth:`PoolExecutor.map`, the one ordered map);
* :meth:`Executor.close` — release workers/sockets (executors are
  context managers).

Three conforming backends ship:

* :class:`SerialExecutor` — inline, single-process;
* :class:`PoolExecutor` — the single-machine process pool, byte-identical
  to serial at any width;
* :class:`SocketExecutor` — a work-stealing coordinator serving specs
  over :mod:`repro.wire`'s length-prefixed JSON frames (the front
  door's wire) to worker processes that pull, execute, and stream results
  back.  Workers may be forked locally or joined from other machines via
  ``repro workers --connect HOST:PORT``.

The socket protocol is worker-driven (work stealing): a worker sends
``{"op": "pull"}`` and the coordinator answers with a *leased* spec,
``{"op": "wait"}``, or ``{"op": "done"}``.  Leases are kept alive by
heartbeats and reclaimed — spec re-queued, at-least-once — when the
connection drops or the lease times out; a spec whose lease is lost more
than ``max_retries`` times fails the sweep with a named
:class:`~repro.errors.WorkerLostError` instead of hanging.  Results
carry the worker's metrics delta and finished spans home, where the
coordinator merges and re-parents them (``obs.adopt_spans``) so ``repro
trace summarize`` rolls a distributed run into one report.

Construction goes through :func:`get_executor` +
:class:`~repro.config.ExecutorConfig` (``--executor`` /
``REPRO_EXECUTOR`` / ``REPRO_JOBS`` / ``REPRO_EXECUTOR_*``).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import multiprocessing
import os
import queue
import socket
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any, Optional

from repro import obs
from repro.config import ExecutorConfig
from repro.errors import DataError, ExecutorError, WorkerLostError
from repro.obs import METRICS, TraceContext
from repro.wire import recv_frame, send_frame


def spec_to_wire(spec) -> dict:
    """An :class:`ExperimentSpec` as plain JSON data (sans trace context)."""
    wire = dataclasses.asdict(spec)
    wire.pop("trace_context", None)
    wire["strategies"] = list(wire["strategies"])
    wire["bundle_counts"] = list(wire["bundle_counts"])
    return wire


def spec_from_wire(wire: dict, trace=None):
    """Rebuild an :class:`ExperimentSpec` from :func:`spec_to_wire` data."""
    from repro.runtime.spec import ExperimentSpec

    fields = dict(wire)
    fields["strategies"] = tuple(fields["strategies"])
    fields["bundle_counts"] = tuple(fields["bundle_counts"])
    if trace is not None:
        fields["trace_context"] = tuple(trace)
    return ExperimentSpec(**fields)


# ----------------------------------------------------------------------
# Instrumented work units (pool and socket workers alike)
# ----------------------------------------------------------------------


def _instrumented_call(
    fn: Callable, item: Any, trace_wire=None
) -> "tuple[Any, dict, list]":
    """Run one work unit in a worker: (result, metrics delta, span dicts).

    Pool workers are reused across calls, and under the fork start method
    they also inherit the parent's registry, so the delta is computed
    against a snapshot taken at call entry rather than against zero.

    ``trace_wire`` is the submitting span's context in wire form (or
    ``None`` when tracing is off).  The call then runs under a fresh
    buffering tracer so worker spans ride home with the result instead of
    contending for the parent's trace file.
    """
    context = TraceContext.from_wire(trace_wire)
    before = METRICS.snapshot()
    with obs.capture(context) as tracer:
        if context is None:
            result = fn(item)
        else:
            with tracer.span("runtime.work_unit"):
                result = fn(item)
    after = METRICS.snapshot()
    delta = {
        "counters": {
            name: amount - before["counters"].get(name, 0)
            for name, amount in after["counters"].items()
            if amount - before["counters"].get(name, 0)
        },
        "stages": {
            name: {
                "seconds": stage["seconds"]
                - before["stages"].get(name, {}).get("seconds", 0.0),
                "calls": stage["calls"]
                - before["stages"].get(name, {}).get("calls", 0),
            }
            for name, stage in after["stages"].items()
            if stage["calls"] - before["stages"].get(name, {}).get("calls", 0)
        },
    }
    return result, delta, [span.to_dict() for span in tracer.drain()]


# ----------------------------------------------------------------------
# The protocol and the two local backends
# ----------------------------------------------------------------------


class Executor:
    """One sweep-execution backend (see the module docstring).

    Executors are context managers; exiting closes them.  ``submit`` is
    one-at-a-time per executor — drivers consume its iterator fully (or
    abandon it) before submitting again.
    """

    #: Backend name as spelled by ``--executor``.
    name: str = "base"
    #: How many specs this backend usefully keeps in flight.
    max_inflight: int = 1

    def submit(self, specs: "Sequence") -> "Iterator[tuple[str, dict]]":
        """Evaluate specs, yielding ``(spec_digest, result)`` as completed."""
        raise NotImplementedError

    def map(self, fn: "Callable[[Any], Any]", items: "Iterable") -> list:
        """Ordered generic fan-out for non-spec work units."""
        return [fn(item) for item in items]

    def close(self) -> None:
        """Release workers, sockets, and threads (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class SerialExecutor(Executor):
    """Inline execution in the submitting process — the ground truth.

    Every other backend's output is asserted byte-identical to this one.
    """

    name = "serial"
    max_inflight = 1

    def submit(self, specs):
        from repro.runtime.spec import evaluate_spec

        for spec in specs:
            yield spec.digest(), evaluate_spec(spec)

    def map(self, fn, items):
        return PoolExecutor(jobs=1).map(fn, items)


class PoolExecutor(Executor):
    """The single-machine process pool, and the one ordered map.

    A width of one runs everything inline — no pool, no pickling — which
    is also the all-defaults behavior, so existing serial call sites are
    unchanged byte for byte.  Results come back in submission order and
    every work unit is a pure function of its (picklable) argument, so
    any width produces byte-identical output.  Each pooled call runs in
    :func:`_instrumented_call`; the parent merges the worker's metrics
    delta and re-parents its spans, so a parallel run's metrics and
    trace count every market built and every cache hit, wherever it
    happened.

    Args:
        jobs: Worker count override (``None`` defers to the config).
        config: An :class:`~repro.config.ExecutorConfig` (``None``
            resolves one from the environment).
    """

    name = "pool"

    def __init__(
        self,
        jobs: "Optional[int]" = None,
        config: "Optional[ExecutorConfig]" = None,
    ) -> None:
        if config is None:
            config = ExecutorConfig.resolve(jobs=jobs)
        elif jobs is not None:
            config = dataclasses.replace(config, jobs=jobs)
        self.config = config
        self.jobs = config.worker_count()
        self.max_inflight = self.jobs

    def submit(self, specs):
        from repro.runtime.spec import evaluate_spec

        specs = list(specs)
        for spec, result in zip(specs, self._results(evaluate_spec, specs)):
            yield spec.digest(), result

    def map(self, fn, items):
        """Apply ``fn`` to every item, preserving order.

        ``fn`` and the items must be picklable when more than one worker
        is in play (module-level functions and frozen dataclasses are).
        """
        items = list(items)
        workers = self._width(items)
        stage = "map.serial" if workers <= 1 else "map.parallel"
        METRICS.incr("map_calls")
        with METRICS.stage(stage), obs.span(
            "runtime.map", items=len(items), workers=workers
        ):
            return list(self._results(fn, items))

    def _width(self, items: list) -> int:
        return min(self.jobs, len(items)) or 1

    def _results(self, fn, items: list) -> "Iterator[Any]":
        """``fn(item)`` for each item in order, each yielded as soon as it
        is ready: inline at width one, else the pooled futures in order.

        Opens no span or stage, so a consumer may stop between results
        (work not yet started is cancelled).
        """
        workers = self._width(items)
        if workers <= 1:
            for item in items:
                yield fn(item)
            return
        # "workers_used" reports the widest pool of the run (a max, not a sum).
        METRICS.incr("workers_used", max(0, workers - METRICS.counter("workers_used")))
        context = obs.current_context()
        wire = None if context is None else context.to_wire()
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [
                pool.submit(_instrumented_call, fn, item, wire) for item in items
            ]
            for future in futures:
                result, delta, spans = future.result()
                METRICS.merge(delta)
                obs.adopt_spans(spans, context)
                yield result
        finally:
            pool.shutdown(cancel_futures=True)


# ----------------------------------------------------------------------
# SocketExecutor: work-stealing coordinator + pull-based workers
# ----------------------------------------------------------------------

# fork (where available): workers inherit the already-imported numpy
# stack instead of re-importing it per process.
_MP_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


class _SweepState:
    """Coordinator-side bookkeeping for one ``submit`` call."""

    def __init__(self, specs, max_retries: int) -> None:
        self.wires = [spec_to_wire(spec) for spec in specs]
        self.traces = [
            list(spec.trace_context) if spec.trace_context else None
            for spec in specs
        ]
        self.pending = deque(range(len(specs)))
        self.attempts = [0] * len(specs)  # lease losses, not grants
        self.leases: "dict[str, tuple[int, float, Any]]" = {}
        self.resolved = [False] * len(specs)
        self.max_retries = max_retries
        self.failed = False
        # ("ok", index, result, metrics_delta, span_dicts) | ("fatal", exc)
        self.outbox: "queue.Queue" = queue.Queue()

    def outstanding(self) -> int:
        return len(self.pending) + len(self.leases)


class SocketExecutor(Executor):
    """Work-stealing coordinator serving specs to socket workers.

    The constructor binds the listener, forks ``config.spawn_count()``
    local worker processes (``spawn=0`` forks none — attach remote
    workers with ``repro workers --connect``), and starts the accept and
    lease-monitor threads.  ``submit`` then streams results back in
    completion order; the caller is expected to spill each one to the
    disk cache immediately (``run_specs`` does), which is what makes a
    killed sweep — coordinator or worker — resumable.
    """

    name = "socket"

    def __init__(
        self,
        config: "Optional[ExecutorConfig]" = None,
        **overrides,
    ) -> None:
        if config is None:
            config = ExecutorConfig.resolve(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        self.config = config
        self.max_inflight = max(1, config.worker_count())
        self._lock = threading.RLock()
        self._state: "Optional[_SweepState]" = None
        self._conns: "set[_WorkerConnection]" = set()
        self._closed = False
        #: Set by :meth:`close`; wakes the monitor thread from its wait.
        self._closing = threading.Event()
        self._lease_seq = itertools.count(1)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((config.host, config.port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        # Fork local workers before starting any service thread — a fork
        # taken while coordinator threads run could clone held locks.
        # Their connects queue in the listener backlog until accept runs.
        self._procs = spawn_workers(
            self.host,
            self.port,
            config.spawn_count(),
            heartbeat_ms=config.heartbeat_ms,
            name="repro-exec-worker",
            daemon=True,
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-exec-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-exec-monitor", daemon=True
        )
        self._monitor_thread.start()

    # -------------------------------------------------------------- API

    def worker_pids(self) -> "list[Optional[int]]":
        """PIDs of the locally forked worker processes."""
        return [proc.pid for proc in self._procs]

    def submit(self, specs):
        specs = list(specs)
        digests = [spec.digest() for spec in specs]
        with self._lock:
            if self._closed:
                raise ExecutorError("socket executor is closed")
            if self._state is not None:
                raise ExecutorError(
                    "socket executor already has a sweep in flight"
                )
            state = _SweepState(specs, self.config.max_retries)
            self._state = state
        context = obs.current_context()
        emitted = 0
        try:
            while emitted < len(specs):
                try:
                    event = state.outbox.get(timeout=0.2)
                except queue.Empty:
                    if self._closed:
                        raise ExecutorError(
                            "socket executor closed mid-sweep"
                        ) from None
                    continue
                if event[0] == "fatal":
                    raise event[1]
                _, index, result, delta, spans = event
                METRICS.merge(delta)
                obs.adopt_spans(spans, context)
                METRICS.incr("executor.specs_completed")
                emitted += 1
                yield digests[index], result
        finally:
            with self._lock:
                self._state = None

    def map(self, fn, items):
        # Arbitrary callables don't cross the JSON wire; run them in a
        # local pool of the same width instead.
        return PoolExecutor(jobs=self.max_inflight).map(fn, items)

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._closing.set()
            if self._state is not None:
                self._state.outbox.put(
                    ("fatal", ExecutorError("socket executor closed mid-sweep"))
                )
            conns = list(self._conns)
        try:
            # Closing alone does not wake a thread blocked in accept() on
            # Linux; shutting the listener down first does.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in conns:
            conn.shutdown()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        self._monitor_thread.join(timeout=2.0)
        self._accept_thread.join(timeout=2.0)

    # ------------------------------------------------------- coordinator

    def _accept_loop(self):
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            conn = _WorkerConnection(sock)
            with self._lock:
                if self._closed:
                    conn.shutdown()
                    return
                self._conns.add(conn)
            METRICS.incr("executor.workers_connected")
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-exec-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: "_WorkerConnection"):
        sock = conn.sock
        try:
            while True:
                frame = recv_frame(sock)
                if not isinstance(frame, dict):
                    return  # the peer went away, or speaks no protocol
                op = frame.get("op")
                if op == "hello":
                    conn.pid = frame.get("pid")
                elif op == "pull":
                    send_frame(sock, self._assignment_for(conn))
                elif op in ("heartbeat", "result", "error"):
                    if not isinstance(frame.get("lease"), str):
                        raise DataError(f"{op} frame without a string lease")
                    if op == "heartbeat":
                        self._record_heartbeat(frame["lease"])
                    elif op == "result":
                        self._record_result(frame)
                    else:
                        self._record_error(frame)
                # unknown ops fall through (forward compatibility)
        except (OSError, DataError, ValueError):
            pass
        finally:
            self._drop_connection(conn)

    def _assignment_for(self, conn: "_WorkerConnection") -> dict:
        with self._lock:
            state = self._state
            if self._closed:
                return {"op": "done"}
            if state is None or state.failed:
                return {"op": "wait", "ms": 50}
            index = None
            while state.pending:
                candidate = state.pending.popleft()
                if not state.resolved[candidate]:
                    index = candidate
                    break
            if index is None:
                return {"op": "wait", "ms": 50}
            lease = str(next(self._lease_seq))
            deadline = (
                time.monotonic() + self.config.lease_timeout_ms / 1000.0
            )
            state.leases[lease] = (index, deadline, conn)
            METRICS.incr("executor.leases_granted")
            return {
                "op": "spec",
                "lease": lease,
                "index": index,
                "spec": state.wires[index],
                "trace": state.traces[index],
            }

    def _record_heartbeat(self, lease: str):
        with self._lock:
            state = self._state
            if state is None or lease not in state.leases:
                return
            index, _deadline, conn = state.leases[lease]
            state.leases[lease] = (
                index,
                time.monotonic() + self.config.lease_timeout_ms / 1000.0,
                conn,
            )

    def _record_result(self, frame: dict):
        index = frame.get("index")
        with self._lock:
            state = self._state
            if state is None or not isinstance(index, int):
                return
            state.leases.pop(frame.get("lease"), None)
            if not 0 <= index < len(state.resolved) or state.resolved[index]:
                # A reclaimed lease's worker finished anyway — specs are
                # pure, so the late copy is identical; drop it.
                METRICS.incr("executor.duplicate_results")
                return
            state.resolved[index] = True
        state.outbox.put(
            (
                "ok",
                index,
                frame.get("result"),
                frame.get("metrics") or {},
                frame.get("spans") or [],
            )
        )

    def _record_error(self, frame: dict):
        # A real exception out of evaluate_spec is deterministic — a
        # retry would fail identically, so fail the sweep by name.
        with self._lock:
            state = self._state
            if state is None:
                return
            state.leases.pop(frame.get("lease"), None)
            state.failed = True
        state.outbox.put(
            (
                "fatal",
                ExecutorError(
                    f"worker {frame.get('pid')} failed executing spec "
                    f"{frame.get('index')}: "
                    f"{frame.get('error', 'unknown error')}"
                ),
            )
        )

    def _drop_connection(self, conn: "_WorkerConnection"):
        with self._lock:
            self._conns.discard(conn)
            state = self._state
            if state is not None:
                lost = [
                    lease
                    for lease, (_i, _d, c) in state.leases.items()
                    if c is conn
                ]
                for lease in lost:
                    self._reclaim_locked(state, lease, "connection lost")
        conn.shutdown()

    def _reclaim_locked(self, state: _SweepState, lease: str, reason: str):
        index, _deadline, _conn = state.leases.pop(lease)
        if state.resolved[index]:
            return
        state.attempts[index] += 1
        METRICS.incr("executor.leases_reclaimed")
        if state.attempts[index] > state.max_retries:
            state.failed = True
            state.outbox.put(
                (
                    "fatal",
                    WorkerLostError(
                        f"spec {index} lost its worker "
                        f"{state.attempts[index]} time(s) ({reason}); "
                        f"retries exhausted "
                        f"(max_retries={state.max_retries})"
                    ),
                )
            )
        else:
            state.pending.append(index)

    def _monitor_loop(self):
        interval = min(self.config.heartbeat_ms, 250.0) / 1000.0
        while not self._closing.wait(interval):
            now = time.monotonic()
            with self._lock:
                state = self._state
                if state is None or state.failed:
                    continue
                expired = [
                    lease
                    for lease, (_i, deadline, _c) in state.leases.items()
                    if deadline < now
                ]
                for lease in expired:
                    self._reclaim_locked(state, lease, "lease timed out")
                # All locally forked workers are gone, nobody else is
                # connected, and work remains: nothing will ever pull it.
                if (
                    state.outstanding()
                    and not state.failed
                    and not self._conns
                    and self._procs
                    and all(not proc.is_alive() for proc in self._procs)
                ):
                    state.failed = True
                    state.outbox.put(
                        (
                            "fatal",
                            WorkerLostError(
                                f"all {len(self._procs)} local workers "
                                f"exited with {state.outstanding()} "
                                f"spec(s) outstanding"
                            ),
                        )
                    )


class _WorkerConnection:
    """One accepted worker socket (single serve thread writes to it)."""

    __slots__ = ("sock", "pid")

    def __init__(self, sock: "socket.socket") -> None:
        self.sock = sock
        self.pid: "Optional[int]" = None

    def shutdown(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def worker_main(
    host: str,
    port: int,
    heartbeat_ms: float = 1000.0,
    max_specs: "Optional[int]" = None,
) -> int:
    """Pull-execute-report against a coordinator until it goes away.

    This is both the target of the coordinator's locally forked
    processes and the entry point of ``repro workers --connect``.  Specs
    run through the same instrumented wrapper as pool workers, so the
    metrics delta and finished spans ride home with each result.

    Returns:
        The number of specs this worker evaluated.
    """
    from repro.runtime.spec import evaluate_spec

    sock = socket.create_connection((host, port))
    send_lock = threading.Lock()  # heartbeat thread shares the socket
    executed = 0
    try:
        with send_lock:
            send_frame(sock, {"op": "hello", "pid": os.getpid()})
        while max_specs is None or executed < max_specs:
            with send_lock:
                send_frame(sock, {"op": "pull"})
            try:
                frame = recv_frame(sock)
            except DataError:
                frame = None  # a coordinator speaking garbage is a lost one
            if not isinstance(frame, dict):
                break
            op = frame.get("op")
            if op == "done":
                break
            if op == "wait":
                time.sleep(float(frame.get("ms", 50)) / 1000.0)
                continue
            if op != "spec":
                continue
            lease, index = frame["lease"], frame["index"]
            trace = frame.get("trace")
            spec = spec_from_wire(frame["spec"], trace=trace)
            stop_beat = threading.Event()

            def _beat(lease=lease):
                while not stop_beat.wait(heartbeat_ms / 1000.0):
                    try:
                        with send_lock:
                            send_frame(
                                sock, {"op": "heartbeat", "lease": lease}
                            )
                    except OSError:
                        return

            beat = threading.Thread(
                target=_beat, name="repro-exec-heartbeat", daemon=True
            )
            beat.start()
            try:
                result, delta, spans = _instrumented_call(
                    evaluate_spec, spec, trace
                )
            except Exception as exc:  # ship the failure, keep serving
                stop_beat.set()
                beat.join()
                with send_lock:
                    send_frame(
                        sock,
                        {
                            "op": "error",
                            "lease": lease,
                            "index": index,
                            "pid": os.getpid(),
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                    )
                continue
            stop_beat.set()
            beat.join()
            with send_lock:
                send_frame(
                    sock,
                    {
                        "op": "result",
                        "lease": lease,
                        "index": index,
                        "result": result,
                        "metrics": delta,
                        "spans": spans,
                    },
                )
            executed += 1
    except OSError:
        pass  # coordinator went away; whatever we shipped, we shipped
    finally:
        try:
            sock.close()
        except OSError:
            pass
    return executed


def spawn_workers(
    host: str,
    port: int,
    count: int,
    *,
    heartbeat_ms: float,
    name: str,
    daemon: bool = False,
) -> list:
    """Start ``count`` :func:`worker_main` processes, named ``<name>-<i>``
    and forked where possible, against the coordinator at ``host:port``."""
    procs = []
    for i in range(count):
        proc = _MP_CONTEXT.Process(
            target=worker_main,
            args=(host, port),
            kwargs={"heartbeat_ms": heartbeat_ms},
            name=f"{name}-{i}",
            daemon=daemon,
        )
        proc.start()
        procs.append(proc)
    return procs


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

_BACKEND_CLASSES = {
    "serial": SerialExecutor,
    "pool": PoolExecutor,
    "socket": SocketExecutor,
}


def get_executor(config=None, **overrides) -> Executor:
    """Build the configured executor — the supported construction path.

    Args:
        config: An :class:`~repro.config.ExecutorConfig`, a backend-name
            string (``"serial"``/``"pool"``/``"socket"``), or an object
            with ``jobs`` (and optionally ``executor``) attributes such
            as an ``ExperimentConfig``.  ``None`` resolves from the
            environment.
        **overrides: Explicit :class:`ExecutorConfig` fields (highest
            precedence).

    Raises:
        ConfigurationError: Unknown backend name or malformed knobs.
    """
    if isinstance(config, str):
        overrides = {"backend": config, **overrides}
        config = None
    if config is None:
        config = ExecutorConfig.resolve(**overrides)
    elif not isinstance(config, ExecutorConfig):
        config = ExecutorConfig.resolve(
            backend=getattr(config, "executor", None),
            jobs=getattr(config, "jobs", None),
            **overrides,
        )
    elif overrides:
        config = ExecutorConfig.resolve(
            cli=None,
            **{**dataclasses.asdict(config), **overrides},
        )
    if config.backend == "serial":
        return SerialExecutor()
    return _BACKEND_CLASSES[config.backend](config=config)


__all__ = [
    "Executor",
    "PoolExecutor",
    "SerialExecutor",
    "SocketExecutor",
    "get_executor",
    "spec_from_wire",
    "spec_to_wire",
    "spawn_workers",
    "worker_main",
]
