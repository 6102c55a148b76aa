"""Command-line interface: ``python -m repro <command>``.

This module parses flags, resolves them into configs and plain values,
and dispatches; each command's work lives beside what it computes.
``table1``, ``figure N`` and ``report`` render
:data:`repro.experiments.report.ARTIFACTS`; ``fleet``, ``mechanisms``
and ``ecosystem --selftest`` run the ``selftest`` module of their
package (:mod:`repro.fleet.selftest`, :mod:`repro.mechanisms.selftest`,
:mod:`repro.ecosystem.selftest`).

Every command honors ``--flows`` and ``--seed``, and the runtime flags
``--jobs``, ``--executor``, ``--no-cache``, ``--metrics`` and
``--trace``, none of which change the computed output.  Flag values
resolve through :mod:`repro.config` (explicit flag > ``REPRO_*``
environment variable > default), and a failing run exits with the
:data:`repro.errors.EXIT_CODES` code of its error class.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from collections.abc import Sequence

from repro import obs
from repro.config import (
    EcosystemConfig,
    ExecutorConfig,
    FleetConfig,
    MechanismConfig,
    ObsConfig,
    RuntimeConfig,
    StreamConfig,
    add_flags,
)
from repro.core.bundling import strategy_by_name
from repro.errors import (
    ConfigurationError,
    DataError,
    ReproError,
    exit_code_for,
)
from repro.experiments.report import FIGURES, generate_report, render_artifact
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.runner import build_market, demand_model
from repro.runtime import cache as runtime_cache
from repro.synth.datasets import DATASET_NAMES, DATASETS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'How Many Tiers? Pricing in the Internet "
            "Transit Market' (SIGCOMM 2011)"
        ),
    )
    parser.add_argument(
        "--flows",
        type=int,
        default=DEFAULT_CONFIG.n_flows,
        help="synthetic flows per dataset",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_CONFIG.seed, help="dataset RNG seed"
    )

    # Runtime flags, shared by every subcommand (so they can be written
    # after it: ``python -m repro figure 14 --jobs 4``).  They steer how
    # the work runs, never what it computes.
    runtime = argparse.ArgumentParser(add_help=False)
    add_flags(runtime, ExecutorConfig, "jobs", "backend")
    add_flags(runtime, RuntimeConfig, "cache", "metrics")
    add_flags(runtime, ObsConfig)

    # Design flags, shared by the subcommands that design tiers.
    tiers = argparse.ArgumentParser(add_help=False)
    tiers.add_argument(
        "--tiers", type=int, default=3, help="tier budget (default 3)"
    )
    demand = argparse.ArgumentParser(add_help=False)
    demand.add_argument(
        "--demand",
        choices=("ced", "logit"),
        default="ced",
        help="demand family (default ced)",
    )
    mechanism = argparse.ArgumentParser(add_help=False)
    add_flags(mechanism, MechanismConfig, "mechanism")
    designs = [runtime, tiers, demand, mechanism]
    # ... and by the subcommands that replay a trace.
    replay = argparse.ArgumentParser(add_help=False)
    replay.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="event-time window length (default: $REPRO_STREAM_WINDOW_MS, "
        "else 600 s)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="regenerate Table 1", parents=[runtime])

    fig = sub.add_parser(
        "figure", help="regenerate one figure", parents=[runtime]
    )
    fig.add_argument("number", type=int, choices=sorted(FIGURES))

    sub.add_parser(
        "datasets", help="list synthetic datasets", parents=[runtime]
    )

    design = sub.add_parser(
        "design", help="design pricing tiers", parents=designs
    )
    design.add_argument(
        "dataset", choices=DATASET_NAMES, help="which network to design for"
    )
    design.add_argument(
        "--strategy",
        default="profit-weighted",
        help="bundling strategy (figure-legend name)",
    )

    stream = sub.add_parser(
        "stream",
        help="run the streaming repricing pipeline on a replayed trace",
        parents=[*designs, replay],
    )
    stream.add_argument(
        "dataset", choices=DATASET_NAMES, help="which network's trace to replay"
    )
    stream.add_argument(
        "--slide",
        type=float,
        default=None,
        metavar="SECONDS",
        help="window slide for sliding windows (default: tumbling)",
    )
    stream.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="SECONDS",
        help="out-of-order arrival tolerance (delays window closes)",
    )
    stream.add_argument(
        "--drift-threshold",
        type=float,
        default=None,
        metavar="GAP",
        help="re-tier when refreshed-vs-stale profit capture exceeds this "
        "(default: $REPRO_STREAM_DRIFT, else 0.1)",
    )
    stream.add_argument(
        "--duration",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="length of the replayed capture",
    )
    stream.add_argument(
        "--export-interval",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="router active timeout (re-export cadence) in the replay",
    )
    stream.add_argument(
        "--queue",
        type=int,
        default=None,
        metavar="RECORDS",
        help="bounded ingest queue capacity (default: $REPRO_STREAM_QUEUE, "
        "else 4096)",
    )
    stream.add_argument(
        "--policy",
        choices=("block", "drop-oldest"),
        default=None,
        help="full-queue backpressure policy (default block)",
    )
    stream.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file: written each window, resumed from if present",
    )
    stream.add_argument(
        "--max-windows",
        type=int,
        default=None,
        metavar="N",
        help="stop (with a checkpoint) after N windows",
    )
    stream.add_argument(
        "--shift-at",
        type=float,
        default=None,
        metavar="SECONDS",
        help="inject a structural demand shift at this instant",
    )
    stream.add_argument("--shift-factor", type=float, default=3.0)
    stream.add_argument("--shift-fraction", type=float, default=0.5)

    fleet = sub.add_parser(
        "fleet",
        help=(
            "run the sharded multi-process quote fleet (shared-memory "
            "snapshots, asyncio front door) and a socket self-test load"
        ),
        parents=[*designs, replay],
    )
    fleet.add_argument(
        "dataset",
        choices=DATASET_NAMES,
        help="which network's trace warms up the published design",
    )
    add_flags(
        fleet, FleetConfig,
        "shards", "port", "queue_depth", "max_batch", "timeout_ms",
    )
    fleet.add_argument(
        "--selftest",
        type=int,
        default=2000,
        metavar="N",
        help=(
            "socket self-test load size in requests, split around a live "
            "snapshot cutover (default 2000)"
        ),
    )
    fleet.add_argument(
        "--unknown-fraction",
        type=float,
        default=0.2,
        metavar="F",
        help="fraction of load aimed at destinations outside the design",
    )
    fleet.add_argument(
        "--duration",
        type=float,
        default=1800.0,
        metavar="SECONDS",
        help="warm-up stream capture length (default 1800)",
    )

    ecosystem = sub.add_parser(
        "ecosystem",
        help=(
            "generate a seeded AS-level internet ecosystem (valley-free "
            "routing, per-AS NetFlow) and report it"
        ),
        parents=[runtime, tiers, mechanism],
    )
    add_flags(ecosystem, EcosystemConfig, "ases", "ixps", "seed")
    ecosystem.add_argument(
        "--emit-netflow",
        default=None,
        metavar="DIR",
        help="write every AS's sampled NetFlow v5 packets to DIR/<as>.nf5",
    )
    ecosystem.add_argument(
        "--selftest",
        action="store_true",
        help=(
            "verify the world: valley-free paths, byte-identical rebuild, "
            "wire round-trip, and measure->model->design for one stub and "
            "one tier-2 AS"
        ),
    )

    mechanisms = sub.add_parser(
        "mechanisms",
        help=(
            "price one dataset under every registered pricing mechanism "
            "and tabulate profit capture per demand family"
        ),
        parents=[runtime, tiers],
    )
    mechanisms.add_argument(
        "dataset",
        nargs="?",
        default="eu_isp",
        choices=DATASET_NAMES,
        help="which synthetic network to price (default eu_isp)",
    )
    add_flags(mechanisms, MechanismConfig, "spot_windows")
    mechanisms.add_argument(
        "--selftest",
        action="store_true",
        help=(
            "additionally assert posted-tiers byte-identity against the "
            "legacy bundling path (all six strategies) and the "
            "spot-auction clearing invariants"
        ),
    )

    report = sub.add_parser(
        "report",
        help="run every table/figure and emit a markdown report",
        parents=[runtime],
    )
    report.add_argument(
        "--output", default="-", help="file to write ('-' for stdout)"
    )

    export = sub.add_parser(
        "export",
        help="write a synthetic dataset as a flow CSV",
        parents=[runtime],
    )
    export.add_argument("dataset", choices=DATASET_NAMES)
    export.add_argument("output", help="CSV path to write")

    offerings = sub.add_parser(
        "offerings",
        help="price the §2.1 product taxonomy on one dataset",
        parents=[runtime],
    )
    offerings.add_argument("dataset", choices=DATASET_NAMES)
    offerings.add_argument(
        "--cost",
        choices=("linear", "regional", "destination-type"),
        default="linear",
    )

    drift = sub.add_parser(
        "drift",
        help="score a saved tier design against a flow CSV",
        parents=[runtime],
    )
    drift.add_argument("design", help="tier-design JSON (from save_design)")
    drift.add_argument("matrix", help="flow CSV with dst addresses")
    drift.add_argument("--rate", type=float, default=20.0, help="blended P0")

    trace = sub.add_parser(
        "trace",
        help="inspect trace files written by --trace",
        parents=[runtime],
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-stage latency/error rollup of a JSONL trace file",
    )
    summarize.add_argument("path", help="JSONL trace file to summarize")

    workers = sub.add_parser(
        "workers",
        help=(
            "join a socket-executor coordinator as sweep worker "
            "process(es); exits when the coordinator does"
        ),
        parents=[runtime],
    )
    workers.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the coordinator address printed/configured by the sweep run",
    )
    workers.add_argument(
        "--processes",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to run from this command (default 1)",
    )
    return parser


def _config(args: argparse.Namespace):
    """The experiment config for a run: CLI flags over resolved configs.

    Fan-out (``--jobs``/``--executor``) resolves through
    :class:`ExecutorConfig`; ``--no-cache`` is applied to the global
    cache switch by :func:`main`.
    """
    executor_config = ExecutorConfig.resolve(cli=args)
    return dataclasses.replace(
        DEFAULT_CONFIG,
        n_flows=args.flows,
        seed=args.seed,
        jobs=executor_config.jobs,
        executor=executor_config.backend,
    )


def _ms(seconds: "float | None") -> "int | None":
    """A given ``SECONDS`` flag in milliseconds (``None`` = not given)."""
    return None if seconds is None else int(seconds * 1000)


def cmd_table1(args: argparse.Namespace) -> str:
    return render_artifact("table1", _config(args))


def cmd_figure(args: argparse.Namespace) -> str:
    return render_artifact(args.number, _config(args))


def cmd_datasets(args: argparse.Namespace) -> str:
    del args
    lines = ["synthetic datasets (targets from the paper's Table 1):"]
    for name in DATASET_NAMES:
        spec = DATASETS[name]
        lines.append(
            f"  {name:<10} {spec.capture_date}  "
            f"w-avg {spec.w_avg_distance_miles:>6.0f} mi (CV {spec.distance_cv})  "
            f"{spec.aggregate_gbps:>5.0f} Gbps (demand CV {spec.demand_cv})"
        )
    return "\n".join(lines)


def cmd_design(args: argparse.Namespace) -> str:
    market = build_market(
        args.dataset, family=args.demand, config=_config(args)
    )
    strategy = strategy_by_name(args.strategy)
    mech_cfg = MechanismConfig.resolve(cli=args)
    mechanism = mech_cfg.build(strategy=strategy, n_tiers=args.tiers)
    return mechanism.design_on(market).render(
        f"strategy: {strategy.name}, tiers requested: {args.tiers}"
        if mech_cfg.is_default
        else f"mechanism: {mechanism.describe()}"
    )


def _replay_pipeline(
    args: argparse.Namespace,
    *,
    export_interval_s: float = 60.0,
    shift=None,
    checkpoint: "str | None" = None,
    **stream_fields,
):
    """``args.dataset``'s trace replayed into a ``StreamingPipeline``;
    ``stream_fields`` set further :class:`StreamConfig` fields."""
    from repro.core.cost import LinearDistanceCost
    from repro.stream import StreamingPipeline, TraceReplaySource
    from repro.synth.trace import generate_network_trace

    trace = generate_network_trace(
        args.dataset,
        n_flows=args.flows,
        seed=args.seed,
        duration_seconds=args.duration,
    )
    source = TraceReplaySource(
        trace, export_interval_ms=int(export_interval_s * 1000), shift=shift
    )
    config = StreamConfig.resolve(
        window_ms=_ms(args.window),
        n_tiers=args.tiers,
        blended_rate=DEFAULT_CONFIG.blended_rate,
        **stream_fields,
    )
    return StreamingPipeline(
        source,
        distance_fn=trace.distance_for,
        demand_model=demand_model(args.demand),
        cost_model=LinearDistanceCost(theta=DEFAULT_CONFIG.theta),
        config=config,
        checkpoint_path=checkpoint,
        mechanism=MechanismConfig.resolve(cli=args).build(n_tiers=args.tiers),
    )


def cmd_stream(args: argparse.Namespace) -> str:
    from repro.stream import DemandShift

    shift = None
    if args.shift_at is not None:
        shift = DemandShift(
            at_ms=int(args.shift_at * 1000),
            factor=args.shift_factor,
            fraction=args.shift_fraction,
        )
    pipeline = _replay_pipeline(
        args,
        export_interval_s=args.export_interval,
        shift=shift,
        checkpoint=args.checkpoint,
        slide_ms=_ms(args.slide),
        reorder_tolerance_ms=_ms(args.tolerance),
        queue_capacity=args.queue,
        queue_policy=args.policy,
        drift_threshold=args.drift_threshold,
    )
    return pipeline.run(max_windows=args.max_windows).render()


def cmd_fleet(args: argparse.Namespace) -> str:
    from repro.fleet.selftest import selftest

    lines = selftest(
        _replay_pipeline(args),
        FleetConfig.resolve(cli=args),
        n_requests=args.selftest,
        seed=args.seed,
        unknown_fraction=args.unknown_fraction,
    )
    return "\n".join(lines)


def cmd_ecosystem(args: argparse.Namespace) -> str:
    import json

    from repro.ecosystem import EcosystemSpec, build_ecosystem, write_netflow

    config = EcosystemConfig.resolve(cli=args)
    spec = EcosystemSpec.from_counts(
        ases=config.ases, ixps=config.ixps, seed=config.seed
    )
    eco = build_ecosystem(spec)
    lines = [
        f"ecosystem: {spec.n_ases} ASes (seed {spec.seed}, "
        f"digest {spec.digest()[:12]})",
        "summary: " + json.dumps(eco.summary(), sort_keys=True),
    ]
    if args.emit_netflow:
        lines.append(write_netflow(eco, args.emit_netflow))
    if args.selftest:
        from repro.ecosystem.selftest import selftest

        mechanism = MechanismConfig.resolve(cli=args)
        lines += selftest(eco, spec, mechanism, args.tiers)
    return "\n".join(lines)


def cmd_mechanisms(args: argparse.Namespace) -> str:
    from repro.mechanisms.selftest import capture_table, selftest

    lines, flows, markets, captures = capture_table(
        args.dataset,
        n_flows=args.flows,
        seed=args.seed,
        n_tiers=args.tiers,
        config=MechanismConfig.resolve(cli=args),
    )
    if args.selftest:
        lines += selftest(flows, markets, captures, args.tiers)
    return "\n".join(lines)


def cmd_report(args: argparse.Namespace) -> str:
    text = generate_report(_config(args))
    if args.output != "-":
        import pathlib

        pathlib.Path(args.output).write_text(text)
        return f"wrote {args.output} ({len(text.splitlines())} lines)"
    return text


def cmd_export(args: argparse.Namespace) -> str:
    from repro.io import save_flowset
    from repro.synth.datasets import load_dataset

    flows = load_dataset(args.dataset, n_flows=args.flows, seed=args.seed)
    path = save_flowset(flows, args.output)
    return f"wrote {path} ({len(flows)} flows, {flows.aggregate_gbps():.1f} Gbps)"


def cmd_offerings(args: argparse.Namespace) -> str:
    from repro.core.cost import (
        DestinationTypeCost,
        LinearDistanceCost,
        RegionalCost,
    )
    from repro.peering.offerings import compare_offerings, render_offerings

    cost_model = {
        "linear": lambda: LinearDistanceCost(theta=DEFAULT_CONFIG.theta),
        "regional": lambda: RegionalCost(theta=1.1),
        "destination-type": lambda: DestinationTypeCost(theta=0.2),
    }[args.cost]()
    market = build_market(
        args.dataset, family="ced", cost_model=cost_model, config=_config(args)
    )
    return (
        market.describe()
        + "\n"
        + render_offerings(compare_offerings(market))
    )


def cmd_drift(args: argparse.Namespace) -> str:
    from repro.accounting.drift import evaluate_drift
    from repro.core.cost import LinearDistanceCost
    from repro.io import load_design, load_flowset

    design = load_design(args.design)
    flows = load_flowset(args.matrix)
    report = evaluate_drift(
        design,
        flows,
        demand_model("ced"),
        LinearDistanceCost(theta=DEFAULT_CONFIG.theta),
        blended_rate=args.rate,
    )
    return report.render(design, flows)


def cmd_workers(args: argparse.Namespace) -> str:
    from repro.runtime.executor import spawn_workers, worker_main

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        raise ConfigurationError(
            f"--connect expects HOST:PORT, got {args.connect!r}"
        )
    port = int(port_text)
    if args.processes < 1:
        raise ConfigurationError(
            f"--processes must be >= 1, got {args.processes}"
        )
    heartbeat_ms = ExecutorConfig.resolve(cli=args).heartbeat_ms
    if args.processes == 1:
        executed = worker_main(host, port, heartbeat_ms=heartbeat_ms)
        return f"worker exited after {executed} spec(s)"
    procs = spawn_workers(
        host,
        port,
        args.processes,
        heartbeat_ms=heartbeat_ms,
        name="repro-workers",
    )
    for proc in procs:
        proc.join()
    return f"{len(procs)} workers exited"


def cmd_trace(args: argparse.Namespace) -> str:
    from repro.obs import read_trace, render_trace_summary, summarize_trace

    try:
        spans = read_trace(args.path)
    except FileNotFoundError:
        raise DataError(f"no trace file at {args.path!r}") from None
    return render_trace_summary(summarize_trace(spans), path=args.path)


_COMMANDS = {
    "table1": cmd_table1,
    "figure": cmd_figure,
    "datasets": cmd_datasets,
    "design": cmd_design,
    "stream": cmd_stream,
    "fleet": cmd_fleet,
    "ecosystem": cmd_ecosystem,
    "mechanisms": cmd_mechanisms,
    "report": cmd_report,
    "export": cmd_export,
    "offerings": cmd_offerings,
    "drift": cmd_drift,
    "trace": cmd_trace,
    "workers": cmd_workers,
}


def _emit_metrics(
    args: argparse.Namespace, path: str, wall_time_s: float, cache_enabled: bool
) -> None:
    """Write the run's structured-JSON report to ``path`` (``-`` = stderr).

    :func:`repro.obs.to_json` merges the metrics registry with the
    tracer's per-span rollup, so one file carries counters and latency.
    """
    executor_config = ExecutorConfig.resolve(cli=args)
    payload = obs.to_json(
        command=args.command,
        wall_time_s=wall_time_s,
        jobs=executor_config.worker_count(),
        executor=executor_config.backend,
        cache_enabled=cache_enabled,
    )
    if path == "-":
        print(payload, file=sys.stderr)
    else:
        import pathlib

        pathlib.Path(path).write_text(payload + "\n")


def main(argv: "Sequence[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    runtime_config = RuntimeConfig.resolve(cli=args)
    cache_was_enabled = runtime_cache.cache_enabled()
    if not runtime_config.cache:
        # Disable all cache layers (results, markets, datasets).
        runtime_cache.configure(enabled=False)
    run_cache_enabled = runtime_cache.cache_enabled()
    obs_config = ObsConfig.resolve(cli=args)
    if obs_config.enabled:
        obs.configure_tracing(obs_config.trace)
    started = time.perf_counter()
    exit_code = 0
    try:
        try:
            with obs.span(f"cli.{args.command}", command=args.command):
                output = _COMMANDS[args.command](args)
            print(output)
        except BrokenPipeError:
            # Output was piped into a pager/head that closed early; not an
            # error.
            sys.stderr.close()
            return 0
        except ReproError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            exit_code = exit_code_for(exc)
        if exit_code == 0 and runtime_config.metrics:
            _emit_metrics(
                args,
                runtime_config.metrics,
                time.perf_counter() - started,
                run_cache_enabled,
            )
        return exit_code
    finally:
        # main() is also called in-process (tests, embedding); don't let
        # one --no-cache run disable caching — or leave a tracer holding
        # an open file — for the rest of the process.
        runtime_cache.configure(enabled=cache_was_enabled)
        if obs_config.enabled:
            obs.configure_tracing(None)


if __name__ == "__main__":
    sys.exit(main())
