"""The public configuration surface: typed configs, one precedence chain.

Every setting is a frozen-dataclass field declared once, by
:func:`cfg_field`: its default, ``REPRO_*`` environment variable, type,
CLI flag with help text, and bound.  :func:`add_flags` declares the
flags from those specs, ``resolve`` reads them, and one
``__post_init__`` checks every bound.  The classes:

* :class:`RuntimeConfig` — caching and the metrics report;
* :class:`ExecutorConfig` — sweep execution backend, fan-out width and
  the socket executor's wire knobs;
* :class:`StreamConfig` — the streaming repricing knobs (windows, queue,
  drift gate), also re-exported from :mod:`repro.stream`;
* :class:`FleetConfig` — the quote fleet, the one quote server;
* :class:`EcosystemConfig` — generated AS-level worlds;
* :class:`MechanismConfig` — pricing-mechanism selection and knobs;
* :class:`ObsConfig` — tracing.

Each class offers ``resolve(cli=None, **explicit)`` with one precedence
chain, highest first:

1. **explicit kwargs** passed to ``resolve()``;
2. **CLI flags** read off the argparse namespace passed as ``cli``
   (``None``-valued attributes count as "not given");
3. **``REPRO_*`` environment variables** (empty/whitespace = unset);
4. the field's **default**.

Malformed or out-of-bound values raise
:class:`~repro.errors.ConfigurationError` naming the field (and the
variable, when the environment supplied it), never a bare
``ValueError``.  Naming is canonical here: ``jobs`` is the process
fan-out width of the experiment runtime and ``shards`` the width of the
quote fleet.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Optional

from repro.errors import ConfigurationError

#: How a malformed env value of each parsed type is described.
_TYPE_NAMES = {int: "an integer", float: "a number"}


def cfg_field(
    default: Any,
    env: "Optional[str]" = None,
    type: type = str,
    flag: "Optional[str]" = None,
    help: str = "",
    dest: "Optional[str]" = None,
    choices: "Optional[tuple]" = None,
    at_least: "Optional[float]" = None,
    within: "Optional[tuple]" = None,
    positive: bool = False,
    non_empty: bool = False,
):
    """A dataclass field carrying its whole declaration in metadata.

    Args:
        default: The lowest-precedence value.
        env: ``REPRO_*`` variable consulted when neither explicit kwarg
            nor CLI flag supplied the field (empty/whitespace = unset).
        type: ``int``, ``float`` or ``str``: parses the env text and the
            flag's argument.  ``bool`` makes the field a switch: its
            ``store_true`` flag, or any non-empty env value, flips the
            default.
        flag: Option string :func:`add_flags` declares (``None`` = none).
        help: The flag's help text; :func:`add_flags` appends the
            variable and the default.
        dest: Namespace attribute the flag stores into and
            ``resolve(cli=...)`` reads (defaults to the field name).
        choices, at_least, within, positive, non_empty: The field's
            bound: one of ``choices``, ``>= at_least``, inside the closed
            ``within`` interval, ``> 0``, or truthy.  A field whose
            default is ``None`` skips it while ``None``.
    """
    return dataclasses.field(
        default=default,
        metadata={
            "env": env, "type": type, "flag": flag, "help": help,
            "dest": dest, "choices": choices, "at_least": at_least,
            "within": within, "positive": positive, "non_empty": non_empty,
        },
    )


def _check(f: dataclasses.Field, value: Any, source: str = "") -> None:
    """Raise unless ``value`` is within the field's bound."""
    spec = f.metadata
    if value is None and f.default is None:
        return
    choices, at_least, within = spec["choices"], spec["at_least"], spec["within"]
    problem = None
    if choices is not None and value not in choices:
        problem = f"must be one of {', '.join(choices)}, got {value!r}"
    elif at_least is not None and not value >= at_least:
        problem = f"must be >= {at_least}, got {value!r}"
    elif within is not None and not within[0] <= value <= within[1]:
        problem = f"must be in [{within[0]}, {within[1]}], got {value!r}"
    elif spec["positive"] and not value > 0:
        problem = f"must be positive, got {value!r}"
    elif spec["non_empty"] and not value:
        problem = "must be non-empty"
    if problem:
        prefix = f"{source}: " if source else ""
        raise ConfigurationError(f"{prefix}{f.name} {problem}")


def _from_env(f: dataclasses.Field) -> Any:
    """The field's value from its ``REPRO_*`` variable, or ``None``."""
    spec = f.metadata
    name = spec["env"]
    text = os.environ.get(name, "").strip() if name else ""
    if not text:
        return None
    if spec["type"] is bool:
        return not f.default
    try:
        value = spec["type"](text)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be {_TYPE_NAMES[spec['type']]}, got {text!r}"
        ) from None
    _check(f, value, source=name)
    return value


class _Resolvable:
    """Mixin providing the explicit > CLI > env > default chain."""

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            _check(f, getattr(self, f.name))

    @classmethod
    def resolve(cls, cli=None, **explicit):
        """Build a config through the documented precedence chain.

        Args:
            cli: Optional argparse namespace (or any object) whose
                attributes supply flag values; missing or ``None``
                attributes fall through to the environment.
            **explicit: Highest-precedence field values; ``None`` means
                "not given" and falls through.

        Raises:
            ConfigurationError: Unknown explicit kwarg, or a malformed
                or out-of-bound value.
        """
        fields = dataclasses.fields(cls)
        unknown = set(explicit) - {f.name for f in fields}
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(f.name for f in fields)}"
            )
        values = {}
        for f in fields:
            value = explicit.get(f.name)
            if value is None and cli is not None:
                value = getattr(cli, f.metadata["dest"] or f.name, None)
                if f.metadata["type"] is bool:
                    # A switch's flag only signals when given.
                    value = (not f.default) if value else None
            if value is None:
                value = _from_env(f)
            if value is not None:
                values[f.name] = value
        return cls(**values)


def add_flags(parser, cls, *names: str) -> None:
    """Declare ``cls``'s CLI flags on an argparse ``parser``.

    ``names`` picks fields in order (default: every field with a flag).
    Each flag's default is ``None``, so an absent flag falls through to
    the environment when ``cls.resolve(cli=args)`` reads it back.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name in names or [n for n, f in fields.items() if f.metadata["flag"]]:
        f = fields[name]
        spec = f.metadata
        options: "dict[str, Any]" = {"dest": spec["dest"] or name, "default": None}
        if spec["type"] is bool:
            options["action"] = "store_true"
            suffix = f" (or set ${spec['env']})" if spec["env"] else ""
        else:
            if spec["choices"]:
                options["choices"] = spec["choices"]
            else:
                options.update(type=spec["type"], metavar=name.upper())
            source = f"${spec['env']}, else " if spec["env"] else ""
            suffix = f" (default: {source}{f.default})"
        parser.add_argument(spec["flag"], help=spec["help"] + suffix, **options)


# ----------------------------------------------------------------------
# Runtime (caching + metrics report)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RuntimeConfig(_Resolvable):
    """How experiment work is cached and reported.

    Attributes:
        cache: Content-addressed dataset/market/result caching; the
            process-global store in :mod:`repro.runtime.cache` starts
            from it.
        cache_dir: On-disk cache mirror location (``None`` = memory
            only).
        metrics: Path for the post-run metrics/span JSON report (``-``
            = stderr, ``None`` = off).
    """

    cache: bool = cfg_field(
        True, env="REPRO_NO_CACHE", type=bool, flag="--no-cache",
        dest="no_cache",
        help="disable the content-addressed dataset/market/result cache",
    )
    cache_dir: "Optional[str]" = cfg_field(None, env="REPRO_CACHE_DIR")
    metrics: "Optional[str]" = cfg_field(
        None, flag="--metrics",
        help="after the command, write a structured-JSON run report (wall "
        "time, cache hits/misses, workers, markets built, per-span "
        "latency) to this path ('-' for stderr)",
    )


# ----------------------------------------------------------------------
# Executor (pluggable sweep execution)
# ----------------------------------------------------------------------

#: Executor backends selectable via ``--executor`` / ``REPRO_EXECUTOR``.
EXECUTOR_BACKENDS = ("serial", "pool", "socket")


@dataclasses.dataclass(frozen=True)
class ExecutorConfig(_Resolvable):
    """How experiment sweeps execute: which backend, how wide, what wire.

    Attributes:
        backend: Executor implementation — ``serial`` (inline),
            ``pool`` (process pool, the default) or ``socket``
            (work-stealing coordinator + socket workers).
        jobs: Worker count.  ``None`` = one worker (the pool backend
            then runs inline, exactly like the serial path); ``0`` or
            negative = one per CPU core.
        host: Socket-coordinator listen address.
        port: Socket-coordinator listen port; ``0`` = ephemeral (the
            bound port is reported after start).
        heartbeat_ms: Worker lease-heartbeat cadence.
        lease_timeout_ms: A lease with no heartbeat for this long is
            reclaimed and its spec re-queued.
        max_retries: Times one spec's lost lease is re-queued before the
            sweep fails with :class:`~repro.errors.WorkerLostError`.
        spawn: Local worker processes the socket coordinator forks at
            start (``None`` = ``worker_count()``, ``0`` = none — wait
            for remote ``repro workers`` joins).
    """

    backend: str = cfg_field(
        "pool", env="REPRO_EXECUTOR", flag="--executor", dest="executor",
        choices=EXECUTOR_BACKENDS,
        help="sweep execution backend: serial (inline), pool (process "
        "pool), or socket (work-stealing coordinator + local/remote "
        "workers, see 'repro workers')",
    )
    jobs: "Optional[int]" = cfg_field(
        None, env="REPRO_JOBS", type=int, flag="--jobs",
        help="worker processes for experiment fan-out; 0 = all cores, "
        "None = 1 (serial)",
    )
    host: str = cfg_field(
        "127.0.0.1", env="REPRO_EXECUTOR_HOST", non_empty=True
    )
    port: int = cfg_field(
        0, env="REPRO_EXECUTOR_PORT", type=int, within=(0, 65535)
    )
    heartbeat_ms: float = cfg_field(
        1000.0, env="REPRO_EXECUTOR_HEARTBEAT_MS", type=float, positive=True
    )
    lease_timeout_ms: float = cfg_field(
        30_000.0, env="REPRO_EXECUTOR_LEASE_TIMEOUT_MS", type=float,
        positive=True,
    )
    max_retries: int = cfg_field(
        2, env="REPRO_EXECUTOR_MAX_RETRIES", type=int, at_least=0
    )
    spawn: "Optional[int]" = cfg_field(
        None, env="REPRO_EXECUTOR_SPAWN", type=int, at_least=0
    )

    def worker_count(self) -> int:
        """The concrete worker width (resolves the 0-means-all-cores rule)."""
        if self.jobs is None:
            return 1
        if self.jobs <= 0:
            return os.cpu_count() or 1
        return self.jobs

    def spawn_count(self) -> int:
        """Local workers the socket coordinator forks (``None`` = width)."""
        if self.spawn is None:
            return self.worker_count()
        return self.spawn


# ----------------------------------------------------------------------
# Stream (the repricing pipeline)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StreamConfig(_Resolvable):
    """Knobs of one streaming run (hashed into checkpoint digests).

    Attributes:
        window_ms: Event-time window length.
        slide_ms: Window start spacing; ``None`` = tumbling.
        reorder_tolerance_ms: Out-of-order arrival tolerance (delays
            window closes by the same amount).
        queue_capacity / queue_policy: Ingest buffer size and full-queue
            behavior (``block`` or ``drop-oldest``).
        n_tiers: Tier budget for derived designs.
        drift_threshold: Re-tier when the refreshed design's profit
            capture beats the stale design's by more than this.
        blended_rate: The blended reference price ``P0`` ($/Mbps/month).
        min_demand_mbps: Per-window demand floor (sampling dust filter).
        checkpoint_every: Windows between checkpoint writes.
        provider_asn: ASN stamped into derived designs.
    """

    window_ms: int = cfg_field(
        600_000, env="REPRO_STREAM_WINDOW_MS", type=int
    )
    slide_ms: "Optional[int]" = cfg_field(None)
    reorder_tolerance_ms: int = cfg_field(0)
    queue_capacity: int = cfg_field(4096, env="REPRO_STREAM_QUEUE", type=int)
    queue_policy: str = cfg_field("block")
    n_tiers: int = cfg_field(3)
    drift_threshold: float = cfg_field(
        0.1, env="REPRO_STREAM_DRIFT", type=float
    )
    blended_rate: float = cfg_field(20.0)
    min_demand_mbps: float = cfg_field(0.0)
    checkpoint_every: int = cfg_field(1)
    provider_asn: int = cfg_field(64500)

    def digest(self, demand_model, cost_model) -> str:
        """Configuration fingerprint guarding checkpoint compatibility.

        The record *source* is not (and cannot be) hashed — resuming a
        checkpoint against a different stream is the operator's contract.
        """
        from repro.runtime.cache import config_hash

        payload = dataclasses.asdict(self)
        payload["demand_model"] = repr(demand_model)
        payload["cost_model"] = repr(cost_model)
        return config_hash(payload)


# ----------------------------------------------------------------------
# Fleet (sharded multi-process quote serving)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FleetConfig(_Resolvable):
    """The sharded quote fleet's operational envelope.

    Attributes:
        shards: Worker processes pricing quote batches; ``0`` or negative
            = one per CPU core.
        host: Front-door listen address.
        port: Front-door listen port; ``0`` = ephemeral (the bound port
            is reported after start).
        queue_depth: Per-shard admission-queue capacity; full queues
            shed the oldest pending request.
        max_batch: Largest request batch one shard round-trip carries.
        timeout_ms: Default per-request deadline (also bounds one shard
            round-trip before the shard is declared wedged).
        heartbeat_ms: Watchdog ping cadence; a dead shard is respawned
            within roughly one heartbeat.
    """

    shards: int = cfg_field(
        2, env="REPRO_FLEET_SHARDS", type=int, flag="--shards",
        help="shard worker processes (0 = one per core)",
    )
    host: str = cfg_field("127.0.0.1", env="REPRO_FLEET_HOST", non_empty=True)
    port: int = cfg_field(
        0, env="REPRO_FLEET_PORT", type=int, flag="--port",
        within=(0, 65535),
        help="front-door listen port (0 = ephemeral, reported)",
    )
    queue_depth: int = cfg_field(
        1024, env="REPRO_FLEET_QUEUE_DEPTH", type=int, flag="--queue-depth",
        at_least=1, help="per-shard admission-queue capacity",
    )
    max_batch: int = cfg_field(
        512, env="REPRO_FLEET_MAX_BATCH", type=int, flag="--max-batch",
        at_least=1, help="largest batch one shard round-trip carries",
    )
    timeout_ms: float = cfg_field(
        5000.0, env="REPRO_FLEET_TIMEOUT_MS", type=float, flag="--timeout-ms",
        positive=True, help="per-request deadline / shard round-trip bound",
    )
    heartbeat_ms: float = cfg_field(
        100.0, env="REPRO_FLEET_HEARTBEAT_MS", type=float, positive=True
    )

    def shard_count(self) -> int:
        """The concrete shard width (resolves the 0-means-all-cores rule)."""
        if self.shards <= 0:
            return os.cpu_count() or 1
        return self.shards


# ----------------------------------------------------------------------
# Ecosystem (AS-level world generation)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EcosystemConfig(_Resolvable):
    """Defaults for generated AS-level worlds (see :mod:`repro.ecosystem`).

    Attributes:
        ases: Total AS count, split into kinds by
            ``EcosystemSpec.from_counts`` (at least 5 for a tiered
            world).
        ixps: Internet-exchange sites.
        seed: World seed — same (ases, ixps, seed) ⇒ byte-identical
            world.  Its flag stores apart from the global dataset
            ``--seed``.
    """

    ases: int = cfg_field(
        50, env="REPRO_ECOSYSTEM_ASES", type=int, flag="--ases", at_least=5,
        help="total AS count",
    )
    ixps: int = cfg_field(
        3, env="REPRO_ECOSYSTEM_IXPS", type=int, flag="--ixps", at_least=0,
        help="internet-exchange sites",
    )
    seed: int = cfg_field(
        0, env="REPRO_ECOSYSTEM_SEED", type=int, flag="--seed",
        dest="ecosystem_seed", help="world seed",
    )


# ----------------------------------------------------------------------
# Mechanism (pricing-mechanism selection)
# ----------------------------------------------------------------------

#: Registered pricing mechanisms selectable via ``--mechanism`` /
#: ``REPRO_MECHANISM``.  A literal copy of
#: :data:`repro.mechanisms.MECHANISM_NAMES` (the config layer must not
#: import the mechanism implementations); a test asserts they match.
MECHANISMS = ("posted-tiers", "spot-auction", "paid-peering", "hybrid")


@dataclasses.dataclass(frozen=True)
class MechanismConfig(_Resolvable):
    """Which pricing mechanism runs, and its knobs.

    The default (``posted-tiers``) reproduces the paper's pipeline
    byte-for-byte — same designs, same cache digests.  Every other value
    selects one of the :mod:`repro.mechanisms` implementations and tags
    downstream config digests with ``|mechanism=<name>``.

    Attributes:
        mechanism: One of :data:`MECHANISMS`.
        spot_windows: Auction windows per billing period (spot and the
            hybrid's spot side).
        elasticity_split: Fraction of flows the hybrid sends to spot.
        exchange_radius_miles: Paid-peering exchange catchment; ``None``
            = median flow distance.
        bargaining: ISP bargaining weight in the peering negotiation.
    """

    mechanism: str = cfg_field(
        "posted-tiers", env="REPRO_MECHANISM", flag="--mechanism",
        choices=MECHANISMS,
        help="pricing mechanism (posted-tiers is the paper's pipeline, "
        "byte-identical)",
    )
    spot_windows: int = cfg_field(
        24, env="REPRO_MECHANISM_SPOT_WINDOWS", type=int,
        flag="--spot-windows", at_least=1,
        help="spot-auction delivery windows",
    )
    elasticity_split: float = cfg_field(
        0.5, env="REPRO_MECHANISM_SPLIT", type=float, within=(0.0, 1.0)
    )
    exchange_radius_miles: "Optional[float]" = cfg_field(
        None, env="REPRO_MECHANISM_PEERING_RADIUS", type=float, positive=True
    )
    bargaining: float = cfg_field(
        0.5, env="REPRO_MECHANISM_BARGAINING", type=float, within=(0.0, 1.0)
    )

    @property
    def is_default(self) -> bool:
        """True when the paper's posted-tiers mechanism is selected."""
        return self.mechanism == "posted-tiers"

    def build(self, strategy=None, n_tiers: int = 3):
        """Instantiate the selected :class:`~repro.mechanisms.Mechanism`.

        Imported lazily so the config layer stays import-light.
        """
        from repro.mechanisms import mechanism_by_name

        return mechanism_by_name(
            self.mechanism,
            strategy=strategy,
            n_tiers=n_tiers,
            spot_windows=self.spot_windows,
            elasticity_split=self.elasticity_split,
            exchange_radius_miles=self.exchange_radius_miles,
            bargaining=self.bargaining,
        )


# ----------------------------------------------------------------------
# Obs (tracing)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ObsConfig(_Resolvable):
    """Tracing configuration.

    Attributes:
        trace: JSONL file spans are appended to (``None`` = tracing off,
            the no-op tracer stays installed).
    """

    trace: "Optional[str]" = cfg_field(
        None, env="REPRO_TRACE", flag="--trace",
        help="append every span of this run (CLI, sweeps, workers, "
        "windows, quote batches) to this JSONL file; summarize with "
        "'trace summarize PATH'",
    )

    @property
    def enabled(self) -> bool:
        return self.trace is not None


__all__ = [
    "EXECUTOR_BACKENDS",
    "MECHANISMS",
    "EcosystemConfig",
    "ExecutorConfig",
    "FleetConfig",
    "MechanismConfig",
    "ObsConfig",
    "RuntimeConfig",
    "StreamConfig",
    "add_flags",
    "cfg_field",
]
