"""Pipeline benchmark: NetFlow v5 packets in, fleet quotes out.

One command per workload and seed, run from the root of a checkout::

    python3 pipebench/run.py --workload ingest --seed 1 --seconds 40 --trace 0

It generates (once, cached under ``pipebench/_cache``) and verifies the
workload's inputs, then measures the chain in fresh driver processes
(``driver.py``, one shard each) while this process is the separate
closed-loop load generator (``loadgen.py``).  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` makes an untraced and a traced run and
prints every per-layer metric (``layers.py``).  Both print a table with
units and sample counts, the failure counts and the run metadata, and,
as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed output check makes ``correct`` false and the exit code 1.  A
run that cannot finish, or a checkout without ``src/repro``, exits 2
without printing a result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import pathlib
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import loadgen  # noqa: E402
import speed  # noqa: E402
from workloads import (  # noqa: E402
    FRAME_SIZE,
    FRAMES_IN_FLIGHT,
    HOLDOUT_SEED,
    QUOTE_SHARE,
    QUOTE_SLICES,
    UNKNOWN_SHARE,
    WORKLOADS,
    Workload,
)

CPUS = sorted(os.sched_getaffinity(0))
CACHE = HERE / "_cache"
PYCACHE = CACHE / "pycache"
#: Fresh driver processes timed only for ``setup_s``; the measured run's
#: own set-up is one more sample.
SETUP_SAMPLES = 4
#: Largest share of a traced stream phase no layer may account for; more
#: is an instrumentation bug, and fails the run.
MAX_UNATTRIBUTED = 0.05
#: Longest any one driver step may take before the run is abandoned
#: (the whole run must end within 180 s).
STEP_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "ingest_records_per_s": "records/s",
    "reprice_p50_ms": "ms",
    "reprice_p90_ms": "ms",
    "quote_qps": "quotes/s",
    "quote_p50_ms": "ms",
    "quote_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    """The run could not produce a result (not an output-check failure)."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, the convention of ``repro.obs``."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.999999) - 1))
    return ordered[rank]


# ----------------------------------------------------------------------
# The driver process
# ----------------------------------------------------------------------


class Driver:
    """One driver process, its line protocol and its process group."""

    def __init__(self, argv: list, env: dict) -> None:
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "driver.py"), *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        self._buffer = b""

    def read(self, key: str) -> dict:
        deadline = time.monotonic() + STEP_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RunFailed(f"driver sent no {key!r} within {STEP_TIMEOUT_S:.0f} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RunFailed(f"driver exited (code {self.proc.poll()}) before {key!r}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        message = json.loads(line)
        if key not in message:
            raise RunFailed(f"driver sent {sorted(message)} instead of {key!r}")
        return message

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def finish(self) -> None:
        """Wait for a clean exit."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RunFailed("driver did not exit") from None
        if code != 0:
            raise RunFailed(f"driver exited with code {code}")

    def kill(self) -> None:
        """Stop the driver's group (driver and shard) and wait it out.

        SIGTERM first, so the driver's exit handlers unlink its shared
        memory segments; SIGKILL after a grace period."""
        for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, None)):
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout=grace)
                break
            except subprocess.TimeoutExpired:
                continue
        self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


def driver_env(root: pathlib.Path) -> dict:
    """The driver's environment: this checkout's ``src`` and nothing from
    the caller's ``REPRO_*`` settings.

    Bytecode of every module, the standard library's and numpy's too, is
    read from and written to ``_cache/pycache`` only, never from a
    ``__pycache__`` a test run left in the checkout.  Each run starts
    with an untimed set-up that fills it (:func:`time_setup`), so every
    timed set-up loads bytecode the same way, whatever state the
    checkout is in."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def driver_argv(w: Workload, seed: int) -> list:
    packets, meta = inputs.input_paths(CACHE, w.name, seed)
    return ["--workload", w.name, "--packets", str(packets), "--meta", str(meta)]


@contextlib.contextmanager
def off_system_cpu():
    """Run the load generator on the CPU the system under test does not
    use (see ``driver.pin``)."""
    os.sched_setaffinity(0, {CPUS[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


def quote_calibration() -> float:
    """Mean over the system's CPU and the load generator's of the median
    of three :mod:`speed` slices on each, taken while the closed loop is
    drained (the median drops a slice another process interrupted); the
    load generator then returns to its own CPU.  Both CPUs, because the
    closed loop runs on both: the load generator's reply handling paces
    the next frame."""
    times = []
    for cpu in (CPUS[-1], CPUS[0]):
        os.sched_setaffinity(0, {cpu})
        times.append(statistics.median(speed.slice_s() for _ in range(3)))
    return sum(times) / len(times)


def time_setup(w: Workload, seed: int, env: dict) -> float:
    """One fresh driver that only sets up; returns its set-up seconds.
    The first call of a run is a warm-up whose time is not reported: it
    fills ``_cache/pycache`` (see :func:`driver_env`) and the page cache."""
    driver = Driver(driver_argv(w, seed) + ["--setup-only"], env)
    try:
        ready = driver.read("ready")["ready"]
        driver.finish()
    finally:
        driver.kill()
    return ready - driver.spawned


def run_chain(w: Workload, meta: dict, seed: int, seconds: int, env: dict, trace=None) -> dict:
    """One measured run: set-up, stream phase, quote phase, teardown."""
    argv = driver_argv(w, seed) + ["--stream-seconds", str(seconds * (1 - QUOTE_SHARE))]
    if trace is not None:
        argv += ["--trace", str(trace)]
    driver = Driver(argv, env)
    try:
        ready = driver.read("ready")
        stream = driver.read("stream")["stream"]
        design = stream.pop("design")
        checker = loadgen.Checker(design)
        # Untimed, before the load: every destination of the final design
        # and every unknown one the load uses, quoted once.
        sweep = [[dst, 1.0, meta["distances"][dst]] for dst in sorted(design["rates"])]
        sweep += [r for r in meta["requests"] if r[0] not in design["rates"]]
        swept = loadgen.sweep(ready["port"], sweep, checker, FRAME_SIZE)
        driver.send("quote")
        with off_system_cpu():
            load = loadgen.closed_loop(
                ready["port"],
                meta["requests"],
                checker,
                frame_size=FRAME_SIZE,
                in_flight=FRAMES_IN_FLIGHT,
                seconds=seconds * QUOTE_SHARE,
                slices=QUOTE_SLICES,
                calibrate=quote_calibration,
            )
        driver.send("stop")
        result = driver.read("result")["result"]
        driver.finish()
    finally:
        driver.kill()
    # A frame sent after a cutover was acked must be answered from that
    # version or a later one (versions rise with ack time).
    acks = sorted(result["acks"], key=lambda a: a[1])
    ack_times = [t for _, t in acks]
    stale = 0
    for sent_at, version in load["sent"]:
        acked = bisect.bisect_left(ack_times, sent_at)
        if acked and version < acks[acked - 1][0]:
            stale += 1
    return {
        "setup_s": ready["ready"] - driver.spawned,
        "versions": {"python": ready["python"], "numpy": ready["numpy"]},
        "stream": stream,
        "load": load,
        "swept": swept,
        "sweep_quotes": len(sweep),
        "design_destinations": len(design["rates"]),
        "checker": checker,
        "stale_frames": stale,
        "cutovers": len(acks),
        "result": result,
    }


# ----------------------------------------------------------------------
# Checks, metrics and reporting
# ----------------------------------------------------------------------


def check_run(run: dict, meta: dict, w: Workload) -> "list[str]":
    """Every output check of one run; returns the failures."""
    passes, checker = run["stream"]["passes"], run["checker"]
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    for i, p in enumerate(passes):
        expect(
            p["records"] == meta["records"] and p["packets"] == meta["packets"],
            f"pass {i}: decoded {p['records']} records in {p['packets']} packets, "
            f"generated {meta['records']} in {meta['packets']}",
        )
        expect(p["queue_dropped"] == 0, f"pass {i}: {p['queue_dropped']} records dropped by the queue")
        expect(p["late_dropped"] == 0, f"pass {i}: {p['late_dropped']} records arrived late")
        expect(p["skipped"] == 0, f"pass {i}: {p['skipped']} windows skipped")
        expect(
            p["windows"] == p["priced"] == meta["windows"],
            f"pass {i}: {p['priced']} of {p['windows']} windows priced, "
            f"{meta['windows']} generated",
        )
    digests = {p["ledger_digest"] for p in passes}
    expect(len(digests) == 1, f"window ledgers differ between passes: {sorted(digests)}")
    samples = sum(len(p["reprice_ms"]) for p in passes)
    expect(samples >= 100, f"only {samples} reprice samples")
    expect(len(run["load"]["frame_ms"]) >= 100, f"only {len(run['load']['frame_ms'])} quote frames")
    expect(not checker.wrong, f"{len(checker.wrong)} wrong answers, e.g. {checker.wrong[:3]}")
    expect(checker.degraded == 0, f"{checker.degraded} degraded or shed quotes")
    expect(run["stale_frames"] == 0, f"{run['stale_frames']} frames answered from a superseded snapshot")
    expect(run["design_destinations"] > 0, "the final design prices no destination")
    expect(
        run["swept"] == run["sweep_quotes"],
        f"{run['swept']} of the {run['sweep_quotes']} sweep quotes were answered",
    )
    if w.cutover_ms:
        expect(run["cutovers"] > 0, "no cutover during the quote phase")
    return failures


def code_digest(root: pathlib.Path) -> str:
    """Digest of the code a run executes: ``src/repro`` and the benchmark."""
    h = hashlib.sha256()
    files = [(str(p.relative_to(root)), p) for p in sorted((root / "src" / "repro").rglob("*.py"))]
    files += [(p.name, p) for p in sorted(HERE.glob("*.py"))]
    for name, path in files:
        h.update(name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(run: dict) -> str:
    stream = run["stream"]
    return f"{stream['passes'][0]['ledger_digest']}:{stream['snapshot_digest']}"


def check_ledger(w: Workload, seed: int, code: str, run: dict) -> "list[str]":
    """The window ledger and final snapshot must repeat across runs of the
    same code and seed.

    The reference is the first run's, kept per code digest, so runs of
    two commits never compare against each other: a change that alters
    the ledger on purpose (a new config field, other float rounding) is
    not a failure of either side."""
    found = fingerprint(run)
    path = CACHE / f"{w.name}-s{seed}-{code}.ledger"
    if not path.exists():
        path.write_text(found + "\n", encoding="utf-8")
        return []
    recorded = path.read_text(encoding="utf-8").strip()
    if recorded == found:
        return []
    return [f"ledger/snapshot digest {found[:16]} differs from an earlier run's {recorded[:16]} of the same code"]


def end_to_end(run: dict, setups: "list[float]", scaled: bool = True) -> "dict[str, tuple]":
    """``{name: (value, samples)}`` for every end-to-end metric.

    Timings of the stream and quote phases are scaled to the reference
    speed (:mod:`speed`) unless ``scaled`` is false; set-up and memory
    are as measured.  Records/s is the median of the passes' rates; the
    reprice percentiles pool the windows of every pass.
    """
    passes, load = run["stream"]["passes"], run["load"]
    key = "scaled_" if scaled else ""
    reprice = [ms for p in passes for ms in p[key + "reprice_ms"]]
    frames = load[key + "frame_ms"]
    rates = [p["records"] / p[key + "wall_s"] for p in passes]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ingest_records_per_s": (statistics.median(rates), sum(p["records"] for p in passes)),
        "reprice_p50_ms": (percentile(reprice, 0.5), len(reprice)),
        "reprice_p90_ms": (percentile(reprice, 0.9), len(reprice)),
        "quote_qps": (load["quotes"] / load[key + "wall_s"], load["quotes"]),
        "quote_p50_ms": (percentile(frames, 0.5), len(frames)),
        "quote_p90_ms": (percentile(frames, 0.9), len(frames)),
        "peak_rss_mb": (run["result"]["peak_rss_mb"], 1),
    }


def accounting(run: dict) -> "tuple[int, int, dict]":
    """Operations attempted and failed, with the failures by kind."""
    passes, checker = run["stream"]["passes"], run["checker"]
    counts = {
        "queue_dropped": sum(p["queue_dropped"] for p in passes),
        "late_dropped": sum(p["late_dropped"] for p in passes),
        "windows_skipped": sum(p["skipped"] for p in passes),
        "quotes_failed": checker.failed,
        "quotes_degraded_or_shed": checker.degraded,
        "quotes_error": checker.errors,
        "quotes_stale_after_cutover": run["stale_frames"] * FRAME_SIZE,
    }
    attempted = (
        sum(p["records"] + p["windows"] for p in passes)
        + run["load"]["attempted"]
        + run["sweep_quotes"]
    )
    failed = (
        counts["queue_dropped"]
        + counts["late_dropped"]
        + counts["windows_skipped"]
        + counts["quotes_failed"]
        + counts["quotes_stale_after_cutover"]
    )
    return attempted, failed, counts


def run_metadata(
    root: pathlib.Path, w: Workload, seed: int, meta: dict, seconds: int, run: dict, code: str,
) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    passes = run["stream"]["passes"]
    return {
        "workload": w.name,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": seconds,
        "git_sha": sha,
        "code_digest": code,
        "ledger_fingerprint": fingerprint(run),
        "input_digest": meta["digest"][:16],
        "input_pinned": meta["pinned"],
        "cpu_count": os.cpu_count(),
        "speed": {
            "ref_slice_ms": speed.REF_S * 1000.0,
            "stream_slice_ms": [round(p["slice_ms"], 4) for p in passes],
            "quote_slice_ms": round(run["load"]["slice_ms"], 4),
        },
        **run["versions"],
        "shards": 1,
        "mechanism": w.mechanism,
        "load": {
            "loop": "closed",
            "connections": 1,
            "frames_in_flight": FRAMES_IN_FLIGHT,
            "frame_size": FRAME_SIZE,
            "unknown_share": UNKNOWN_SHARE,
            "cutover_ms": w.cutover_ms,
            "quote_phase_s": seconds * QUOTE_SHARE,
            "quote_slices": QUOTE_SLICES,
            "cutovers": run["cutovers"],
        },
        "stream": {
            "passes": len(passes),
            "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
            "records_per_pass": meta["records"],
            "packets_per_pass": meta["packets"],
            "windows_per_pass": meta["windows"],
            "window_ms": meta["window_ms"],
            "destinations": meta["destinations"],
            "publications_per_pass": passes[0]["published"],
        },
    }


def ensure_inputs(w: Workload, seed: int, env: dict) -> dict:
    try:
        return inputs.verify(CACHE, w.name, seed)
    except FileNotFoundError:
        pass
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", w.name,
         "--seed", str(seed), "--cache", str(CACHE)],
        env=env, check=True, timeout=600, stdout=sys.stderr,
    )
    return inputs.verify(CACHE, w.name, seed)


def traced_metrics(plain: dict, traced: dict) -> "dict[str, tuple]":
    """Every per-layer metric of a traced run, plus tracing overhead."""
    import layers

    out = {
        name: (float(traced["result"]["layers"].get(name, 0.0)), unit, "")
        for name, (unit, _) in layers.PER_LAYER.items()
    }
    out["fleet.stale_after_cutover"] = (float(traced["stale_frames"]), "count", "")
    base = end_to_end(plain, [plain["setup_s"]])
    with_trace = end_to_end(traced, [traced["setup_s"]])
    for name, better in layers.OVERHEAD_OF.items():
        a, b = base[name][0], with_trace[name][0]
        cost = (b / a - 1.0) if better == "lower" else (a / b - 1.0)
        out[f"obs.trace_overhead.{name}"] = (cost, "ratio", "")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the processes it started (the
    # ``finally`` blocks around every driver).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = driver_env(root)
    code = code_digest(root)
    try:
        meta = ensure_inputs(w, args.seed, env)
    except (ValueError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: inputs: {exc}", file=sys.stderr)
        return 2

    try:
        time_setup(w, args.seed, env)
        if args.trace:
            plain = run_chain(w, meta, args.seed, args.seconds, env)
            trace_path = CACHE / f"{w.name}-s{args.seed}.trace.jsonl"
            trace_path.unlink(missing_ok=True)
            traced = run_chain(w, meta, args.seed, args.seconds, env, trace=trace_path)
            runs = [plain, traced]
            setups = [traced["setup_s"]]
            reported = traced_metrics(plain, traced)
        else:
            setups = [time_setup(w, args.seed, env) for _ in range(SETUP_SAMPLES)]
            run = run_chain(w, meta, args.seed, args.seconds, env)
            setups.append(run["setup_s"])
            runs = [run]
            unscaled = end_to_end(run, setups, scaled=False)
            reported = {
                name: (
                    value,
                    END_TO_END[name],
                    f"n={samples}"
                    + ("" if unscaled[name][0] == value else f"  unscaled {unscaled[name][0]:.6g}"),
                )
                for name, (value, samples) in end_to_end(run, setups).items()
            }
        run_e2e = end_to_end(runs[-1], setups)
    except (RunFailed, OSError, ValueError) as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 2

    failures, attempted, failed, counts = [], 0, 0, {}
    for run in runs:
        failures += check_run(run, meta, w) + check_ledger(w, args.seed, code, run)
        a, f, c = accounting(run)
        attempted += a
        failed += f
        counts = {k: counts.get(k, 0) + v for k, v in c.items()}
    if args.trace:
        # Only the stream phase is gated: in the quote phase, the front
        # door's asyncio glue is unnamed by any probe from outside src/
        # (bench.unattributed_share.quote, reported only).
        share = reported["bench.unattributed_share.stream"][0]
        if share > MAX_UNATTRIBUTED:
            failures.append(f"{share:.1%} of the stream phase is attributed to no layer")

    print(f"pipebench {w.name} seed {args.seed} ({'traced' if args.trace else 'untraced'})")
    if args.trace:
        print(runs[-1]["result"]["trace_summary"])
        if runs[-1]["result"]["unprobed"]:
            print("  unprobed: " + ", ".join(runs[-1]["result"]["unprobed"]))
    width = max(len(n) for n in reported)
    for name, (value, unit, samples) in reported.items():
        print(f"  {name:<{width}} {value:>16.6g} {unit:<10} {samples}")
    print(f"  attempted {attempted}, failed {failed}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    info = run_metadata(root, w, args.seed, meta, args.seconds, runs[-1], code)
    info["samples"] = {name: n for name, (_, n) in run_e2e.items()}
    info["unscaled"] = {name: v for name, (v, _) in end_to_end(runs[-1], setups, scaled=False).items()}
    print("meta " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in reported.items()
                },
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
