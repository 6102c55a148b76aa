"""Tests for the pluggable sweep executors (serial / pool / socket).

Conformance contract (parametrized over every backend): identical
result bytes, cold == warm cache behavior, and zero orphan spans in the
rolled-up trace.  Plus the distributed backend's failure modes: a
SIGKILLed worker's leases are reclaimed and the sweep still completes
byte-identically; a SIGKILLed *coordinator* leaves a disk cache the
rerun resumes from; and a worker that keeps dying fails the sweep with
the named :class:`WorkerLostError` (exit code 22) instead of hanging.
"""

import argparse
import dataclasses
import json
import os
import signal
import socket as socket_module
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.config import EXECUTOR_BACKENDS, ExecutorConfig
from repro.errors import (
    ConfigurationError,
    ExecutorError,
    WorkerLostError,
    exit_code_for,
)
from repro.obs import METRICS, Tracer, summarize_trace
from repro.runtime import cache as runtime_cache
from repro.runtime.executor import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    SocketExecutor,
    get_executor,
    spec_from_wire,
    spec_to_wire,
    worker_main,
)
from repro.runtime.spec import ExperimentSpec, run_specs
from repro.wire import recv_frame, send_frame

#: Small-but-real specs: distinct seeds so nothing collapses to one
#: cache entry, two budgets so the capture curves have shape.
SPECS = [
    ExperimentSpec(
        dataset="eu_isp", n_flows=16, seed=seed, bundle_counts=(1, 2)
    )
    for seed in range(4)
]


#: Frame bodies that are not a JSON object: a peer that sends one is dropped.
HOSTILE_BODIES = [
    pytest.param(b"\xff\xfe{}", id="invalid-utf8"),
    pytest.param(b'{"op": "pull"', id="invalid-json"),
    pytest.param(b"[1, 2]", id="array"),
    pytest.param(b"7", id="scalar"),
    pytest.param(b"[" * 100_000, id="deep-nesting"),  # RecursionError
]
#: Well-formed frames a coordinator must still refuse: a lease is a string.
HOSTILE_LEASE_BODIES = [
    pytest.param(b'{"op": "heartbeat", "lease": [1]}', id="heartbeat-list-lease"),
    pytest.param(
        b'{"op": "result", "lease": [1], "index": 0, "result": {}}',
        id="result-list-lease",
    ),
    pytest.param(b'{"op": "error", "lease": [1]}', id="error-list-lease"),
]


def _bytes(results) -> str:
    return json.dumps(results, sort_keys=True)


def _raw_frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


@pytest.fixture
def fresh_cache():
    """An empty, enabled, memory-only global cache for the test's duration."""
    runtime_cache.configure(enabled=True, directory="", fresh=True)
    yield
    runtime_cache.configure(enabled=True, directory="", fresh=True)


@pytest.fixture
def tracer():
    installed = Tracer()
    previous = obs.set_tracer(installed)
    yield installed
    obs.set_tracer(previous)


# ----------------------------------------------------------------------
# Specs on the wire
# ----------------------------------------------------------------------


class TestWire:
    """The spec protocol's side of the wire; the frame is
    ``tests/test_wire.py``'s."""

    def test_spec_survives_the_wire(self):
        spec = dataclasses.replace(SPECS[0], trace_context=("t" * 16, "s" * 8))
        wire = spec_to_wire(spec)
        json.dumps(wire)  # must already be plain data
        assert "trace_context" not in wire
        back = spec_from_wire(
            json.loads(json.dumps(wire)), trace=["t" * 16, "s" * 8]
        )
        assert back == spec  # trace_context excluded from equality anyway
        assert back.digest() == spec.digest()
        assert back.trace_context == spec.trace_context
        assert isinstance(back.strategies, tuple)
        assert isinstance(back.bundle_counts, tuple)


class TestHostileFrames:
    """Both ends of the socket backend survive a peer that sends a frame
    body that is not a JSON object."""

    @pytest.mark.parametrize("body", HOSTILE_BODIES)
    def test_worker_stops_on_a_malformed_frame(self, body):
        listener = socket_module.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        host, port = listener.getsockname()[:2]
        outcome = {}

        def run_worker():
            try:
                outcome["executed"] = worker_main(host, port)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        worker = threading.Thread(target=run_worker, daemon=True)
        worker.start()
        try:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                assert recv_frame(conn)["op"] == "hello"
                assert recv_frame(conn)["op"] == "pull"
                conn.sendall(_raw_frame(body))
                # The worker hangs up instead of pulling again.
                assert conn.recv(1) == b""
        finally:
            listener.close()
        worker.join(5.0)
        assert not worker.is_alive()
        assert outcome == {"executed": 0}

    @pytest.mark.parametrize("body", HOSTILE_BODIES + HOSTILE_LEASE_BODIES)
    def test_coordinator_drops_the_connection_and_reclaims_the_lease(
        self, fresh_cache, monkeypatch, body
    ):
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        hung_up = []
        with SocketExecutor(
            jobs=1, spawn=0, max_retries=0, lease_timeout_ms=5000.0
        ) as executor:

            def hostile_worker():
                sock = socket_module.create_connection(
                    (executor.host, executor.port), timeout=5.0
                )
                with sock:
                    send_frame(sock, {"op": "hello", "pid": -1})
                    while True:
                        send_frame(sock, {"op": "pull"})
                        frame = recv_frame(sock)
                        if frame is None or frame["op"] == "done":
                            return
                        if frame["op"] == "spec":
                            break  # holding the lease
                        time.sleep(float(frame.get("ms", 50)) / 1000.0)
                    sock.sendall(_raw_frame(body))
                    hung_up.append(sock.recv(1) == b"")

            saboteur = threading.Thread(target=hostile_worker, daemon=True)
            saboteur.start()
            with pytest.raises(WorkerLostError, match="connection lost"):
                list(executor.submit(SPECS[:1]))
            saboteur.join(5.0)
        assert hung_up == [True]
        # The connection thread is gone — and it left without an uncaught
        # exception.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            t.name == "repro-exec-conn" for t in threading.enumerate()
        ):
            time.sleep(0.01)
        assert uncaught == []


# ----------------------------------------------------------------------
# Config + construction
# ----------------------------------------------------------------------


class TestExecutorConfig:
    def test_defaults(self):
        config = ExecutorConfig.resolve()
        assert config.backend == "pool"
        assert config.jobs is None
        assert config.worker_count() == 1
        assert config.spawn_count() == config.worker_count()

    def test_env_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "socket")
        assert ExecutorConfig.resolve().backend == "socket"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "socket")
        assert ExecutorConfig.resolve(backend="serial").backend == "serial"

    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "socket")
        namespace = argparse.Namespace(executor="serial", jobs=None)
        assert ExecutorConfig.resolve(cli=namespace).backend == "serial"

    def test_unknown_backend_is_named_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "carrier-pigeon")
        with pytest.raises(ConfigurationError, match="carrier-pigeon"):
            ExecutorConfig.resolve()

    def test_zero_jobs_means_all_cores(self):
        config = ExecutorConfig.resolve(jobs=0)
        assert config.worker_count() == (os.cpu_count() or 1)

    def test_spawn_overrides_worker_count(self):
        config = ExecutorConfig.resolve(jobs=4, spawn=0)
        assert config.worker_count() == 4
        assert config.spawn_count() == 0

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("backend", "fax"),
            ("host", ""),
            ("port", -1),
            ("port", 70_000),
            ("heartbeat_ms", 0.0),
            ("lease_timeout_ms", -5.0),
            ("max_retries", -1),
            ("spawn", -2),
        ],
    )
    def test_validation(self, field, bad):
        with pytest.raises(ConfigurationError):
            ExecutorConfig.resolve(**{field: bad})

    def test_malformed_env_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_HEARTBEAT_MS", "soon")
        with pytest.raises(ConfigurationError, match="HEARTBEAT"):
            ExecutorConfig.resolve()


class TestGetExecutor:
    def test_default_is_pool(self):
        with get_executor() as executor:
            assert isinstance(executor, PoolExecutor)
            assert executor.name == "pool"

    def test_by_name(self):
        with get_executor("serial") as executor:
            assert isinstance(executor, SerialExecutor)

    def test_by_config(self):
        with get_executor(ExecutorConfig.resolve(backend="serial")) as ex:
            assert isinstance(ex, SerialExecutor)

    def test_by_experiment_config_shape(self):
        from repro.experiments.config import ExperimentConfig

        shaped = ExperimentConfig(jobs=3, executor="pool")
        with get_executor(shaped) as executor:
            assert isinstance(executor, PoolExecutor)
            assert executor.jobs == 3

    def test_unknown_name_is_named_error(self):
        with pytest.raises(ConfigurationError, match="smoke-signal"):
            get_executor("smoke-signal")

    def test_cli_flag_parses(self):
        args = build_parser().parse_args(["table1", "--executor", "socket"])
        assert args.executor == "socket"
        assert ExecutorConfig.resolve(cli=args).backend == "socket"


# ----------------------------------------------------------------------
# Conformance: every backend, same bytes / same cache behavior / no
# orphan spans
# ----------------------------------------------------------------------


class TestConformance:
    @pytest.fixture(scope="class")
    def serial_bytes(self):
        runtime_cache.configure(enabled=True, directory="", fresh=True)
        reference = _bytes(run_specs(SPECS, executor="serial", use_cache=False))
        runtime_cache.configure(enabled=True, directory="", fresh=True)
        return reference

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_backends_byte_identical(self, fresh_cache, serial_bytes, backend):
        results = run_specs(SPECS, jobs=2, executor=backend, use_cache=False)
        assert _bytes(results) == serial_bytes

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_cold_equals_warm(self, fresh_cache, backend):
        cold = run_specs(SPECS, jobs=2, executor=backend)
        METRICS.reset()
        warm = run_specs(SPECS, jobs=2, executor=backend)
        assert _bytes(warm) == _bytes(cold)
        counters = METRICS.snapshot()["counters"]
        assert counters.get("markets_built", 0) == 0
        assert counters.get("cache_hits:result", 0) == len(SPECS)

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_zero_orphan_spans(self, fresh_cache, tracer, backend):
        with tracer.span("driver") as driver:
            run_specs(SPECS, jobs=2, executor=backend, use_cache=False)
        spans = tracer.drain()
        units = [s for s in spans if s.name == "runtime.evaluate_spec"]
        assert len(units) == len(SPECS)
        assert {s.trace_id for s in units} == {driver.trace_id}
        summary = summarize_trace(spans)
        assert summary["orphans"] == 0
        if backend == "socket":
            # The work demonstrably ran in other processes.
            assert all(s.pid != os.getpid() for s in units)
            assert len(summary["processes"]) >= 2

    def test_caller_owned_executor_stays_open(self, fresh_cache):
        with get_executor("serial") as executor:
            first = run_specs(SPECS[:2], executor=executor, use_cache=False)
            second = run_specs(SPECS[:2], executor=executor, use_cache=False)
        assert _bytes(first) == _bytes(second)

    def test_incomplete_sweep_is_named_error(self, fresh_cache):
        class Lossy(Executor):
            name = "lossy"

            def submit(self, specs):
                return iter(())  # pragma: no branch

        with pytest.raises(ExecutorError, match="incomplete"):
            run_specs(SPECS[:2], executor=Lossy(), use_cache=False)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_killed_pool_sweep_keeps_what_it_finished(self, fresh_cache, jobs):
        """Spec 3 of 4 fails: the pool has yielded, and so cached, the two
        before it, and the rerun of those builds no market."""
        broken = dataclasses.replace(SPECS[2], family="no-such-family")
        with pytest.raises(ValueError, match="no-such-family"):
            run_specs(
                [SPECS[0], SPECS[1], broken, SPECS[3]], jobs=jobs, executor="pool"
            )
        METRICS.reset()
        run_specs(SPECS[:2], jobs=jobs, executor="pool")
        counters = METRICS.snapshot()["counters"]
        assert counters.get("cache_hits:result", 0) == 2
        assert counters.get("markets_built", 0) == 0


# ----------------------------------------------------------------------
# SocketExecutor chaos
# ----------------------------------------------------------------------


class TestSocketChaos:
    def test_close_wakes_the_accept_thread(self):
        start = time.perf_counter()
        executor = SocketExecutor(jobs=1, spawn=0)
        closing = time.perf_counter()
        executor.close()
        done = time.perf_counter()
        assert done - start < 1.0
        # close() wakes the monitor thread too, instead of waiting out
        # its poll interval.
        assert done - closing < 0.1
        assert not executor._accept_thread.is_alive()
        assert not executor._monitor_thread.is_alive()

    def test_worker_sigkill_mid_sweep_still_completes(self, fresh_cache):
        """Kill one of two workers after the first results; the survivor
        picks up the reclaimed leases and the sweep ends byte-identical."""
        specs = [
            ExperimentSpec(
                dataset="eu_isp", n_flows=16, seed=seed, bundle_counts=(1, 2)
            )
            for seed in range(10)
        ]
        reference = _bytes(run_specs(specs, executor="serial", use_cache=False))
        runtime_cache.configure(fresh=True)
        with SocketExecutor(jobs=2) as executor:
            victim = executor.worker_pids()[0]
            seen = {}
            stream = executor.submit(
                [
                    dataclasses.replace(s, trace_context=None)
                    for s in specs
                ]
            )
            for count, (digest, result) in enumerate(stream, start=1):
                seen[digest] = result
                if count == 2:
                    os.kill(victim, signal.SIGKILL)
        assert len(seen) == len(specs)
        results = [seen[spec.digest()] for spec in specs]
        assert _bytes(results) == reference

    def test_worker_lost_error_when_retries_exhausted(self, fresh_cache):
        """A worker that takes a lease and dies, with max_retries=0,
        fails the sweep with the named error — and its exit code."""
        with SocketExecutor(jobs=1, spawn=0, max_retries=0) as executor:

            def fake_worker():
                sock = socket_module.create_connection(
                    (executor.host, executor.port)
                )
                try:
                    send_frame(sock, {"op": "hello", "pid": -1})
                    while True:
                        send_frame(sock, {"op": "pull"})
                        frame = recv_frame(sock)
                        if frame is None or frame["op"] == "done":
                            return
                        if frame["op"] == "spec":
                            return  # die holding the lease
                        time.sleep(float(frame.get("ms", 50)) / 1000.0)
                finally:
                    sock.close()

            saboteur = threading.Thread(target=fake_worker, daemon=True)
            saboteur.start()
            with pytest.raises(WorkerLostError, match="retries exhausted"):
                list(executor.submit(SPECS[:1]))
            saboteur.join(timeout=5.0)
        assert exit_code_for(WorkerLostError("x")) == 22
        assert exit_code_for(ExecutorError("x")) == 21

    def test_all_workers_dead_fails_fast(self, fresh_cache):
        """Every local worker gone with work outstanding -> named error,
        not a hang."""
        with SocketExecutor(jobs=1, heartbeat_ms=50.0) as executor:
            for pid in executor.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerLostError):
                list(executor.submit(SPECS[:2]))

    def test_coordinator_sigkill_resumes_from_disk_cache(self, tmp_path):
        """SIGKILL the whole driver mid-sweep; a rerun picks up the
        already-spilled results from the disk cache and finishes
        byte-identical to a serial run."""
        cache_dir = tmp_path / "cache"
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import json, sys\n"
            "from repro.runtime.spec import ExperimentSpec, run_specs\n"
            "specs = [\n"
            "    ExperimentSpec(dataset='eu_isp', n_flows=16, seed=s,\n"
            "                   bundle_counts=(1, 2))\n"
            "    for s in range(30)\n"
            "]\n"
            "results = run_specs(specs, jobs=2, executor=sys.argv[1])\n"
            "print(json.dumps(results, sort_keys=True))\n"
        )
        env = dict(
            os.environ,
            REPRO_CACHE_DIR=str(cache_dir),
            PYTHONPATH=os.pathsep.join(
                filter(None, ["src", os.environ.get("PYTHONPATH")])
            ),
        )

        def cached_results() -> int:
            return sum(1 for _ in cache_dir.glob("result/*.pkl"))

        victim = subprocess.Popen(
            [sys.executable, str(driver), "socket"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        while cached_results() < 3 and time.monotonic() < deadline:
            assert victim.poll() is None, "sweep finished before the kill"
            time.sleep(0.01)
        victim.kill()
        victim.wait(timeout=30.0)
        spilled = cached_results()
        assert 0 < spilled < 30, spilled  # died mid-sweep, partial spill

        resumed = subprocess.run(
            [sys.executable, str(driver), "socket"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        assert resumed.returncode == 0, resumed.stderr
        serial = subprocess.run(
            [sys.executable, str(driver), "serial"],
            env=dict(env, REPRO_CACHE_DIR=str(tmp_path / "serial-cache")),
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        assert serial.returncode == 0, serial.stderr
        assert resumed.stdout == serial.stdout


# ----------------------------------------------------------------------
# `repro workers` CLI
# ----------------------------------------------------------------------


class TestWorkersCommand:
    def test_malformed_connect_is_configuration_error(self, capsys):
        assert main(["workers", "--connect", "nonsense"]) == 15
        assert "HOST:PORT" in capsys.readouterr().err

    def test_cli_worker_serves_a_sweep(self, fresh_cache, capsys):
        reference = _bytes(
            run_specs(SPECS[:2], executor="serial", use_cache=False)
        )
        runtime_cache.configure(fresh=True)
        with SocketExecutor(jobs=1, spawn=0) as executor:
            exit_codes = []
            cli = threading.Thread(
                target=lambda: exit_codes.append(
                    main(
                        [
                            "workers",
                            "--connect",
                            f"{executor.host}:{executor.port}",
                        ]
                    )
                ),
                daemon=True,
            )
            cli.start()
            seen = {}
            for digest, result in executor.submit(SPECS[:2]):
                seen[digest] = result
        cli.join(timeout=10.0)
        assert exit_codes == [0]
        assert "worker exited after 2 spec(s)" in capsys.readouterr().out
        results = [seen[spec.digest()] for spec in SPECS[:2]]
        assert _bytes(results) == reference
