"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` — regenerate the paper's Table 1 (paper vs synthetic).
* ``figure N`` — regenerate Figure N's series as a text table
  (N in 1-6, 8-16; Figures 7 and 17 are architecture diagrams).
* ``datasets`` — list the synthetic datasets and their targets.
* ``design`` — design pricing tiers for a dataset and print the tier
  card (prices, destinations, demand) plus profit capture.
* ``stream`` — replay a synthetic trace through the streaming repricing
  pipeline (windowed ingest, incremental calibration, drift-triggered
  re-tiering) and print the window-by-window report.
* ``fleet`` — stand up the quote fleet: run a short replayed stream
  that publishes tier designs (under ``--mechanism``) into shard workers
  over shared-memory snapshot segments, then serve a seeded self-test
  load through the asyncio socket front door, with a live snapshot
  cutover halfway through, and report quotes/sec plus the latency tail.
* ``ecosystem`` — generate a seeded AS-level internet ecosystem (tiered
  AS hierarchy, IXP peering, valley-free routing, per-AS NetFlow) and
  optionally self-test it end to end.
* ``mechanisms`` — price one dataset under every registered pricing
  mechanism (posted tiers, spot auction, paid peering, hybrid) across
  several demand families and print the profit-capture comparison table;
  ``--selftest`` additionally asserts posted-tiers byte-identity and the
  spot-auction clearing invariants.
* ``trace summarize`` — roll a ``--trace`` JSONL file up into per-stage
  latency/error statistics.
* ``workers`` — join a running socket-executor coordinator (``--executor
  socket`` sweep) as one or more sweep worker processes.

Everything honors ``--flows`` and ``--seed`` so results are reproducible
and fast to experiment with.  Every subcommand additionally honors the
runtime flags ``--jobs`` (parallel fan-out), ``--executor`` (sweep
backend: serial/pool/socket), ``--no-cache`` (disable the
dataset/market/result cache), ``--metrics`` (emit a structured-JSON run
report), and ``--trace`` (append every span of the run to a JSONL trace
file) — none of which change the computed output.

Flag values resolve through :mod:`repro.config` (explicit flag >
``REPRO_*`` environment variable > default), and a failing run exits
with the :data:`repro.errors.EXIT_CODES` code of the error class, so
wrappers can tell a calibration failure from a malformed configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from collections.abc import Sequence

from repro import obs
from repro.config import (
    MECHANISMS,
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
    MechanismError,
    ReproError,
    exit_code_for,
)
from repro.experiments import figures, render, sweeps, tables
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.runner import build_market
from repro.runtime import cache as runtime_cache
from repro.synth.datasets import DATASET_NAMES, DATASETS

#: Figure number -> (driver factory, renderer) wiring.
_FIGURES = {
    1: (lambda cfg: figures.figure1_data(), render.render_figure1),
    2: (lambda cfg: figures.figure2_data(), render.render_figure2),
    3: (lambda cfg: figures.figure3_data(), render.render_figure3),
    4: (lambda cfg: figures.figure4_data(), render.render_figure4),
    5: (lambda cfg: figures.figure5_data(), render.render_figure5),
    6: (lambda cfg: figures.figure6_data(), render.render_figure6),
    8: (lambda cfg: figures.figure8_data(cfg), render.render_figure8),
    9: (lambda cfg: figures.figure9_data(cfg), render.render_figure9),
    10: (
        lambda cfg: sweeps.figure10_data(cfg),
        lambda data: render.render_theta_sweep(data, "Figure 10"),
    ),
    11: (
        lambda cfg: sweeps.figure11_data(cfg),
        lambda data: render.render_theta_sweep(data, "Figure 11"),
    ),
    12: (
        lambda cfg: sweeps.figure12_data(cfg),
        lambda data: render.render_theta_sweep(data, "Figure 12"),
    ),
    13: (
        lambda cfg: sweeps.figure13_data(cfg),
        lambda data: render.render_theta_sweep(data, "Figure 13"),
    ),
    14: (
        lambda cfg: sweeps.figure14_data(config=cfg),
        lambda data: render.render_envelope(
            data, "Figure 14", f"alpha in {data['alphas']}"
        ),
    ),
    15: (
        lambda cfg: sweeps.figure15_data(config=cfg),
        lambda data: render.render_envelope(
            data, "Figure 15", f"P0 in {data['blended_rates']}"
        ),
    ),
    16: (
        lambda cfg: sweeps.figure16_data(config=cfg),
        lambda data: render.render_envelope(
            data, "Figure 16", f"s0 in {data['s0_values']}"
        ),
    ),
}


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

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="regenerate Table 1", parents=[runtime])

    fig = sub.add_parser(
        "figure", help="regenerate one figure", parents=[runtime]
    )
    fig.add_argument("number", type=int, choices=sorted(_FIGURES))

    sub.add_parser(
        "datasets", help="list synthetic datasets", parents=[runtime]
    )

    design = sub.add_parser(
        "design", help="design pricing tiers", parents=[runtime]
    )
    design.add_argument(
        "dataset", choices=DATASET_NAMES, help="which network to design for"
    )
    design.add_argument("--tiers", type=int, default=3)
    design.add_argument(
        "--demand", choices=("ced", "logit"), default="ced"
    )
    design.add_argument(
        "--strategy",
        default="profit-weighted",
        help="bundling strategy (figure-legend name)",
    )
    add_flags(design, MechanismConfig, "mechanism")

    stream = sub.add_parser(
        "stream",
        help="run the streaming repricing pipeline on a replayed trace",
        parents=[runtime],
    )
    stream.add_argument(
        "dataset", choices=DATASET_NAMES, help="which network's trace to replay"
    )
    stream.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="event-time window length (default: $REPRO_STREAM_WINDOW_MS, "
        "else 600 s)",
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
    stream.add_argument("--tiers", type=int, default=3)
    stream.add_argument(
        "--demand", choices=("ced", "logit"), default="ced"
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
    add_flags(stream, MechanismConfig, "mechanism")

    fleet = sub.add_parser(
        "fleet",
        help=(
            "run the sharded multi-process quote fleet (shared-memory "
            "snapshots, asyncio front door) and a socket self-test load"
        ),
        parents=[runtime],
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
        "--tiers", type=int, default=3, help="tier budget for published designs"
    )
    fleet.add_argument(
        "--demand", choices=("ced", "logit"), default="ced"
    )
    fleet.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="warm-up stream window length (default: "
        "$REPRO_STREAM_WINDOW_MS, else 600 s)",
    )
    fleet.add_argument(
        "--duration",
        type=float,
        default=1800.0,
        metavar="SECONDS",
        help="warm-up stream capture length (default 1800)",
    )
    add_flags(fleet, MechanismConfig, "mechanism")

    ecosystem = sub.add_parser(
        "ecosystem",
        help=(
            "generate a seeded AS-level internet ecosystem (valley-free "
            "routing, per-AS NetFlow) and report it"
        ),
        parents=[runtime],
    )
    add_flags(ecosystem, EcosystemConfig, "ases", "ixps", "seed")
    ecosystem.add_argument(
        "--tiers",
        type=int,
        default=3,
        help="tier budget for the per-AS designs (default 3)",
    )
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
    add_flags(ecosystem, MechanismConfig, "mechanism")

    mechanisms = sub.add_parser(
        "mechanisms",
        help=(
            "price one dataset under every registered pricing mechanism "
            "and tabulate profit capture per demand family"
        ),
        parents=[runtime],
    )
    mechanisms.add_argument(
        "dataset",
        nargs="?",
        default="eu_isp",
        choices=DATASET_NAMES,
        help="which synthetic network to price (default eu_isp)",
    )
    mechanisms.add_argument(
        "--tiers",
        type=int,
        default=3,
        help="tier budget for the posted/hybrid mechanisms (default 3)",
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
    return tables.render_table1(tables.table1_data(config=_config(args)))


def cmd_figure(args: argparse.Namespace) -> str:
    driver, renderer = _FIGURES[args.number]
    return renderer(driver(_config(args)))


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
    design = mechanism.design_on(market)
    posted = mech_cfg.is_default
    lines = [
        market.describe(),
        f"strategy: {strategy.name}, tiers requested: {args.tiers}"
        if posted
        else f"mechanism: {mechanism.describe()}",
        f"profit capture: {design.profit_capture:.1%} "
        f"(blended ${market.blended_profit():,.0f} -> "
        f"${design.profit:,.0f} -> ceiling ${market.max_profit():,.0f})",
    ]
    if not posted:
        lines.append(
            f"tiers: {design.n_tiers} total "
            f"({design.posted_tiers} posted, {design.spot_tiers} spot)"
        )
    lines += [
        "",
        f"{'tier':>4} {'price $/Mbps':>13} {'flows':>7} {'demand Mbps':>13} "
        f"{'mean cost':>10}",
    ]
    for i, tier in enumerate(design.tiers, start=1):
        lines.append(
            f"{i:>4} {tier.price:>13.2f} {tier.n_flows:>7} "
            f"{tier.demand_mbps:>13.1f} {tier.mean_cost:>10.2f}"
        )
    return "\n".join(lines)


def cmd_stream(args: argparse.Namespace) -> str:
    from repro.core.ced import CEDDemand
    from repro.core.cost import LinearDistanceCost
    from repro.core.logit import LogitDemand
    from repro.stream import (
        DemandShift,
        StreamingPipeline,
        TraceReplaySource,
    )
    from repro.synth.trace import generate_network_trace

    trace = generate_network_trace(
        args.dataset,
        n_flows=args.flows,
        seed=args.seed,
        duration_seconds=args.duration,
    )
    shift = None
    if args.shift_at is not None:
        shift = DemandShift(
            at_ms=int(args.shift_at * 1000),
            factor=args.shift_factor,
            fraction=args.shift_fraction,
        )
    source = TraceReplaySource(
        trace,
        export_interval_ms=int(args.export_interval * 1000),
        shift=shift,
    )
    if args.demand == "ced":
        demand = CEDDemand(alpha=DEFAULT_CONFIG.alpha)
    else:
        demand = LogitDemand(alpha=DEFAULT_CONFIG.alpha, s0=DEFAULT_CONFIG.s0)
    config = StreamConfig.resolve(
        window_ms=_ms(args.window),
        slide_ms=_ms(args.slide),
        reorder_tolerance_ms=_ms(args.tolerance),
        queue_capacity=args.queue,
        queue_policy=args.policy,
        n_tiers=args.tiers,
        drift_threshold=args.drift_threshold,
        blended_rate=DEFAULT_CONFIG.blended_rate,
    )
    mech_cfg = MechanismConfig.resolve(cli=args)
    pipeline = StreamingPipeline(
        source,
        distance_fn=trace.distance_for,
        demand_model=demand,
        cost_model=LinearDistanceCost(theta=DEFAULT_CONFIG.theta),
        config=config,
        checkpoint_path=args.checkpoint,
        mechanism=mech_cfg.build(n_tiers=args.tiers),
    )
    report = pipeline.run(max_windows=args.max_windows)
    return report.render()


def cmd_fleet(args: argparse.Namespace) -> str:
    import asyncio
    import json

    from repro.core.ced import CEDDemand
    from repro.core.cost import LinearDistanceCost
    from repro.core.logit import LogitDemand
    from repro.fleet import FrontDoor, ShardFleet, run_socket_load
    from repro.serve import SnapshotRegistry, generate_requests
    from repro.stream import StreamingPipeline, TraceReplaySource
    from repro.synth.trace import generate_network_trace

    # 1. Warm up with genuinely streamed designs: replay a short trace;
    #    every accepted re-tiering publishes into a plain registry (for
    #    the load generator's known destinations) *and* into the fleet
    #    (segment versions; the workers attach the last one on spawn).
    trace = generate_network_trace(
        args.dataset,
        n_flows=args.flows,
        seed=args.seed,
        duration_seconds=args.duration,
    )
    source = TraceReplaySource(trace, export_interval_ms=60_000)
    if args.demand == "ced":
        demand = CEDDemand(alpha=DEFAULT_CONFIG.alpha)
    else:
        demand = LogitDemand(alpha=DEFAULT_CONFIG.alpha, s0=DEFAULT_CONFIG.s0)
    cost_model = LinearDistanceCost(theta=DEFAULT_CONFIG.theta)
    stream_config = StreamConfig.resolve(
        window_ms=_ms(args.window),
        n_tiers=args.tiers,
        blended_rate=DEFAULT_CONFIG.blended_rate,
    )
    fleet_config = FleetConfig.resolve(cli=args)
    mech_cfg = MechanismConfig.resolve(cli=args)
    registry = SnapshotRegistry()
    fleet = ShardFleet(
        cost_model,
        fleet_config,
        fallback_blended_rate=DEFAULT_CONFIG.blended_rate,
    )
    pipeline = StreamingPipeline(
        source,
        distance_fn=trace.distance_for,
        demand_model=demand,
        cost_model=cost_model,
        config=stream_config,
        mechanism=mech_cfg.build(n_tiers=args.tiers),
    )
    pipeline.repricer.on_design_published = registry.subscriber(
        pipeline.config_digest
    )
    pipeline.repricer.subscribe(fleet.subscriber(pipeline.config_digest))
    stream_report = pipeline.run()
    snapshot = registry.current()

    # 2. Spin up the fleet + front door and drive the socket self-test,
    #    with a live cutover halfway through: the second half's answers
    #    must all carry the post-cutover version.
    requests = generate_requests(
        args.selftest,
        seed=args.seed,
        snapshot=snapshot,
        unknown_fraction=args.unknown_fraction,
    )

    async def _selftest(door: FrontDoor):
        half = len(requests) // 2
        first = await run_socket_load(
            door.host, door.port, requests[:half]
        )
        if snapshot is not None:
            fleet.publish(snapshot)
        second = await run_socket_load(
            door.host, door.port, requests[half:]
        )
        return first, second

    with fleet:
        if snapshot is not None:
            fleet.publish(snapshot)

        async def _run():
            async with FrontDoor(fleet, fleet_config) as door:
                port = door.port
                first, second = await _selftest(door)
                return port, first, second

        port, first, second = asyncio.run(_run())
        stats = fleet.stats()
        pids = [pid for pid in stats["pids"] if pid is not None]
    stale = [v for v in second.versions if v != fleet.version]
    answered = first.answered + second.answered
    wall = first.wall_time_s + second.wall_time_s
    summary = {
        "shards": fleet.n_shards,
        "pids": pids,
        "distinct_pids": len(set(pids)),
        "port": port,
        "answered": answered,
        "priced": first.priced + second.priced,
        "degraded": first.degraded + second.degraded,
        "quotes_per_second": round(answered / max(wall, 1e-9), 1),
        "p99_ms": second.latency_ms.get("p99"),
        "versions": sorted(set(first.versions) | set(second.versions)),
        "cutovers": stats["cutovers"],
        "respawns": stats["respawns"],
        "stale_after_cutover": len(stale),
    }
    lines = [
        f"stream warm-up: {len(stream_report.results)} windows, "
        f"{stream_report.windows_priced} priced, "
        f"{stream_report.retier_events} re-tier events",
        (
            "active snapshot: none (degraded serving)"
            if snapshot is None
            else f"active {snapshot.describe()}"
        ),
        f"fleet: {fleet.n_shards} shards (pids {pids}), front door on "
        f"port {port}, segment version {fleet.version}",
        first.render(),
        f"-- live cutover to v{fleet.version} --",
        second.render(),
        "fleet-report: " + json.dumps(summary, sort_keys=True),
    ]
    return "\n".join(lines)


def cmd_ecosystem(args: argparse.Namespace) -> str:
    import json

    from repro.ecosystem import (
        EcosystemSpec,
        STUB,
        TIER2,
        as_table1_row,
        build_ecosystem,
        design_for_as,
        measured_flowset_for,
        render_ecosystem,
        verify_valley_free,
    )
    from repro.netflow.codec import encode_packets

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
        import pathlib

        out_dir = pathlib.Path(args.emit_netflow)
        out_dir.mkdir(parents=True, exist_ok=True)
        engines = eco.engine_map()
        total_packets = 0
        for a in eco.ases:
            packets = encode_packets(eco.netflow_records_for(a.asn), engines)
            (out_dir / f"{a.name}.nf5").write_bytes(b"".join(packets))
            total_packets += len(packets)
        lines.append(
            f"netflow: wrote {len(eco.ases)} .nf5 files "
            f"({total_packets} packets) to {out_dir}"
        )

    if args.selftest:
        checked = verify_valley_free(eco)
        lines.append(f"selftest: {checked} paths valley-free")
        rebuilt = render_ecosystem(spec)
        identical = (
            eco.up_edges.tobytes() == rebuilt.up_edges.tobytes()
            and eco.peer_edges.tobytes() == rebuilt.peer_edges.tobytes()
            and eco.tables.path_len.tobytes()
            == rebuilt.tables.path_len.tobytes()
            and eco.tables.next_hop.tobytes()
            == rebuilt.tables.next_hop.tobytes()
        )
        if not identical:
            raise DataError("rebuild of the same spec diverged")
        lines.append("selftest: rebuild byte-identical")
        probes = [eco.ases_of_kind(STUB)[0], eco.ases_of_kind(TIER2)[0]]
        wired = measured_flowset_for(eco, probes[0].asn, through_wire=True)
        direct = measured_flowset_for(eco, probes[0].asn, through_wire=False)
        if wired.demands.tobytes() != direct.demands.tobytes():
            raise DataError("NetFlow v5 wire round-trip changed demands")
        lines.append(
            f"selftest: wire round-trip exact ({len(wired)} flows)"
        )
        mechanism = MechanismConfig.resolve(cli=args).build(n_tiers=args.tiers)
        for probe in probes:
            design = design_for_as(
                eco, probe.asn, n_tiers=args.tiers, mechanism=mechanism
            )
            lines.append(
                f"design {probe.name}: " + json.dumps(design, sort_keys=True)
            )
        lines.append(
            "table1 "
            + json.dumps(as_table1_row(eco, probes[0].asn), sort_keys=True)
        )
    return "\n".join(lines)


def cmd_mechanisms(args: argparse.Namespace) -> str:
    import numpy as np

    from repro.core.ced import CEDDemand
    from repro.core.cost import LinearDistanceCost
    from repro.core.logit import LogitDemand
    from repro.core.market import Market
    from repro.mechanisms import (
        MECHANISM_NAMES,
        PostedTiers,
        cleared_supply,
        clearing_price,
    )
    from repro.synth.datasets import load_dataset

    mech_cfg = MechanismConfig.resolve(cli=args)
    flows = load_dataset(args.dataset, n_flows=args.flows, seed=args.seed)
    cost_model = LinearDistanceCost(theta=DEFAULT_CONFIG.theta)
    families = [
        ("ced a=1.1", CEDDemand(alpha=1.1)),
        ("ced a=3.0", CEDDemand(alpha=3.0)),
        (
            "logit",
            LogitDemand(alpha=DEFAULT_CONFIG.alpha, s0=DEFAULT_CONFIG.s0),
        ),
    ]
    lines = [
        f"dataset {args.dataset}: {len(flows)} flows, "
        f"{flows.aggregate_gbps():.1f} Gbps (seed {args.seed}, "
        f"blended ${DEFAULT_CONFIG.blended_rate:.0f}/Mbps, "
        f"tier budget {args.tiers}, "
        f"spot windows {mech_cfg.spot_windows})",
        "",
        f"{'demand family':<13} {'mechanism':<13} {'capture':>9} "
        f"{'profit $/mo':>13} {'tiers':>6} {'posted':>7}",
    ]
    captures: dict = {}
    markets: dict = {}
    for label, demand in families:
        market = Market(
            flows, demand, cost_model, DEFAULT_CONFIG.blended_rate
        )
        markets[label] = market
        for name in MECHANISM_NAMES:
            mechanism = dataclasses.replace(mech_cfg, mechanism=name).build(
                n_tiers=args.tiers
            )
            try:
                design = mechanism.design_on(market)
            except MechanismError as exc:
                lines.append(
                    f"{label:<13} {name:<13} {'n/a':>9} "
                    f"{'—':>13} {'—':>6} {'—':>7}  ({exc})"
                )
                continue
            captures[(label, name)] = design.profit_capture
            lines.append(
                f"{label:<13} {name:<13} {design.profit_capture:>9.4f} "
                f"{design.profit:>13,.0f} {design.n_tiers:>6} "
                f"{design.posted_tiers:>7}"
            )
    lines.append("")
    lines.append(
        "capture = (pi_mechanism - pi_blended) / (pi_max - pi_blended); "
        "negative means the mechanism earns less than blended-rate "
        "pricing (the paid-peering bypass threat can force near-cost "
        "peering rates)."
    )

    if args.selftest:
        from repro.core.bundling import paper_strategies

        if tuple(MECHANISMS) != tuple(MECHANISM_NAMES):
            raise MechanismError(
                "config MECHANISMS and mechanisms MECHANISM_NAMES diverged"
            )
        lines.append(f"selftest: registry in sync ({len(MECHANISMS)} mechanisms)")

        # Posted-tiers byte-identity: the mechanism's design must carry
        # exactly what the bundling path scores, strategy by strategy —
        # same prices, same profit, same capture, bit for bit.
        market = markets["ced a=1.1"]
        for strategy in paper_strategies():
            outcome = market.tiered_outcome(strategy, args.tiers)
            design = PostedTiers(
                strategy=strategy, n_tiers=args.tiers
            ).design_on(market)
            identical = (
                design.profit == outcome.profit
                and design.profit_capture == outcome.profit_capture
                and design.consumer_surplus == outcome.consumer_surplus
                and [t.price for t in design.tiers]
                == [t.price for t in outcome.tiers]
                and [t.n_flows for t in design.tiers]
                == [t.n_flows for t in outcome.tiers]
            )
            if not identical:
                raise MechanismError(
                    f"posted-tiers diverged from the legacy path for "
                    f"strategy {strategy.name!r}"
                )
        lines.append(
            f"selftest: posted-tiers byte-identical to the legacy "
            f"bundling path ({len(paper_strategies())} strategies)"
        )

        # Spot clearing invariants: the clearing price is strictly
        # decreasing in supply, and clearing/cleared_supply are inverses.
        elastic = markets["ced a=3.0"]
        valuations = elastic.valuations
        supply = float(np.sum(flows.demands))
        prices = [
            clearing_price(valuations, s, 3.0)
            for s in (0.5 * supply, supply, 2.0 * supply)
        ]
        if not (prices[0] > prices[1] > prices[2]):
            raise MechanismError(
                "clearing price is not strictly decreasing in supply"
            )
        round_trip = cleared_supply(valuations, prices[1], 3.0)
        if abs(round_trip - supply) > 1e-6 * supply:
            raise MechanismError(
                f"clearing price round-trip drifted: cleared "
                f"{round_trip:.6f} vs supply {supply:.6f}"
            )
        lines.append(
            "selftest: clearing price monotone in supply, round-trip exact"
        )

        # On the elastic family, per-window uniform-price clearing must
        # beat one posted book (the paper's spot-vs-tiers comparison).
        spot = captures.get(("ced a=3.0", "spot-auction"))
        posted = captures.get(("ced a=3.0", "posted-tiers"))
        if spot is None or posted is None or spot < posted:
            raise MechanismError(
                f"spot capture {spot} did not reach posted capture "
                f"{posted} on the elastic family"
            )
        lines.append(
            f"selftest: spot capture {spot:.4f} >= posted {posted:.4f} "
            f"on ced a=3.0"
        )
    return "\n".join(lines)


def cmd_report(args: argparse.Namespace) -> str:
    from repro.experiments.report import generate_report

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
    from repro.core.ced import CEDDemand
    from repro.core.cost import LinearDistanceCost
    from repro.io import load_design, load_flowset

    design = load_design(args.design)
    flows = load_flowset(args.matrix)
    report = evaluate_drift(
        design,
        flows,
        CEDDemand(alpha=DEFAULT_CONFIG.alpha),
        LinearDistanceCost(theta=DEFAULT_CONFIG.theta),
        blended_rate=args.rate,
    )
    verdict = "RE-TIER" if report.should_retier() else "keep current tiers"
    return "\n".join(
        [
            f"design: {design.n_tiers} tiers over "
            f"{len(design.tier_of_destination)} destinations",
            f"new matrix: {len(flows)} flows, "
            f"{report.unknown_destinations} unknown / "
            f"{report.missing_destinations} churned destinations",
            f"stale design:     profit ${report.stale_profit:,.0f} "
            f"(capture {report.stale_capture:.3f})",
            f"refreshed design: profit ${report.refreshed_profit:,.0f} "
            f"(capture {report.refreshed_capture:.3f})",
            f"monthly regret:   ${report.regret:,.0f}",
            f"recommendation:   {verdict}",
        ]
    )


def cmd_workers(args: argparse.Namespace) -> str:
    import multiprocessing

    from repro.runtime.executor import worker_main

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
    context = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    procs = [
        context.Process(
            target=worker_main,
            args=(host, port),
            kwargs={"heartbeat_ms": heartbeat_ms},
            name=f"repro-workers-{i}",
        )
        for i in range(args.processes)
    ]
    for proc in procs:
        proc.start()
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
