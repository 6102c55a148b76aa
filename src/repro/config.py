"""The public configuration surface: typed configs, one precedence chain.

Before this module, each subsystem grew its own configuration dialect —
``--jobs``/``REPRO_JOBS`` for the experiment runtime, a kwarg soup for
the stream pipeline.  Everything now resolves through frozen
dataclasses:

* :class:`RuntimeConfig` — experiment fan-out and caching
  (``jobs``/``cache``/``cache_dir``/``metrics``);
* :class:`ExecutorConfig` — sweep execution backend and wire knobs
  (``backend``/``jobs``/``host``/``port``/``heartbeat_ms``/
  ``lease_timeout_ms``/``max_retries``/``spawn``);
* :class:`StreamConfig` — the streaming repricing knobs (windows, queue,
  drift gate), also re-exported from :mod:`repro.stream`;
* :class:`FleetConfig` — the quote fleet, the one quote server
  (``shards``/``host``/``port``/``queue_depth``/``max_batch``/
  ``timeout_ms``/``heartbeat_ms``);
* :class:`EcosystemConfig` — generated AS-level worlds
  (``ases``/``ixps``/``seed``);
* :class:`MechanismConfig` — pricing-mechanism selection
  (``mechanism``/``spot_windows``/``elasticity_split``/
  ``exchange_radius_miles``/``bargaining``);
* :class:`ObsConfig` — tracing (``trace`` file path).

Each class offers ``resolve(cli=None, **explicit)`` with one precedence
chain, highest first:

1. **explicit kwargs** passed to ``resolve()``;
2. **CLI flags** read off the argparse namespace passed as ``cli``
   (``None``-valued attributes count as "not given");
3. **``REPRO_*`` environment variables** (see each field's listing);
4. the field's **default**.

Malformed environment values raise
:class:`~repro.errors.ConfigurationError` naming the variable, never a
bare ``ValueError``.  Naming is canonical here: ``jobs`` is the
process fan-out width of the experiment runtime and ``shards`` the
width of the quote fleet.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError

def _env_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {text!r}"
        ) from None


def _env_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a number, got {text!r}"
        ) from None


def _env_str(name: str, text: str) -> str:
    del name
    return text


def cfg_field(
    default: Any,
    env: "Optional[str]" = None,
    parse: "Callable[[str, str], Any]" = _env_str,
    cli: "Optional[str | Callable]" = None,
    **kwargs: Any,
):
    """A dataclass field carrying its resolution spec in metadata.

    Args:
        default: The lowest-precedence value.
        env: ``REPRO_*`` variable consulted when neither explicit kwarg
            nor CLI flag supplied the field (empty/whitespace = unset).
        parse: ``(env_name, text) -> value`` for the env string.
        cli: Attribute name on the argparse namespace (defaults to the
            field name), or a callable ``namespace -> value | None`` for
            flags that need translation (``None`` = not given).
    """
    return dataclasses.field(
        default=default,
        metadata={"env": env, "parse": parse, "cli": cli},
        **kwargs,
    )


class _Resolvable:
    """Mixin providing the explicit > CLI > env > default chain."""

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
                environment value.
        """
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(explicit) - field_names
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(field_names)}"
            )
        values = {}
        for f in dataclasses.fields(cls):
            if explicit.get(f.name) is not None:
                values[f.name] = explicit[f.name]
                continue
            spec = f.metadata
            cli_spec = spec.get("cli") if spec else None
            if cli is not None:
                if callable(cli_spec):
                    flag_value = cli_spec(cli)
                else:
                    flag_value = getattr(cli, cli_spec or f.name, None)
                if flag_value is not None:
                    values[f.name] = flag_value
                    continue
            env_name = spec.get("env") if spec else None
            if env_name:
                text = os.environ.get(env_name, "").strip()
                if text:
                    values[f.name] = spec["parse"](env_name, text)
        return cls(**values)


# ----------------------------------------------------------------------
# Runtime (experiment fan-out + caching)
# ----------------------------------------------------------------------


def _parse_jobs(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer worker count "
            f"(0 or negative = all cores), got {text!r}"
        ) from None


def _cli_cache(namespace) -> "Optional[bool]":
    """``--no-cache`` is a store-true flag: only its True state is a signal."""
    return False if getattr(namespace, "no_cache", False) else None


@dataclasses.dataclass(frozen=True)
class RuntimeConfig(_Resolvable):
    """How experiment work runs: fan-out width, caching, metrics output.

    Attributes:
        jobs: Worker processes for experiment fan-out.  ``None`` = serial
            (one worker); ``0`` or negative = one per CPU core.  Env:
            ``REPRO_JOBS``; CLI: ``--jobs``.
        cache: Content-addressed dataset/market/result caching.  Env:
            ``REPRO_NO_CACHE`` (any non-empty value disables); CLI:
            ``--no-cache``.
        cache_dir: On-disk cache mirror location (``None`` = memory
            only).  Env: ``REPRO_CACHE_DIR``.
        metrics: Path for the post-run metrics/span JSON report (``-``
            = stderr, ``None`` = off).  CLI: ``--metrics``.
    """

    jobs: "Optional[int]" = cfg_field(None, env="REPRO_JOBS", parse=_parse_jobs)
    cache: bool = cfg_field(
        True, env="REPRO_NO_CACHE", parse=lambda name, text: False,
        cli=_cli_cache,
    )
    cache_dir: "Optional[str]" = cfg_field(None, env="REPRO_CACHE_DIR")
    metrics: "Optional[str]" = cfg_field(None)

    def worker_count(self) -> int:
        """The concrete pool width (resolves the 0-means-all-cores rule)."""
        if self.jobs is None:
            return 1
        if self.jobs <= 0:
            return os.cpu_count() or 1
        return self.jobs


# ----------------------------------------------------------------------
# Executor (pluggable sweep execution)
# ----------------------------------------------------------------------

#: Executor backends selectable via ``--executor`` / ``REPRO_EXECUTOR``.
EXECUTOR_BACKENDS = ("serial", "pool", "socket")


def _parse_backend(name: str, text: str) -> str:
    if text not in EXECUTOR_BACKENDS:
        raise ConfigurationError(
            f"{name} must be one of {', '.join(EXECUTOR_BACKENDS)}, "
            f"got {text!r}"
        )
    return text


def _cli_backend(namespace) -> "Optional[str]":
    return getattr(namespace, "executor", None)


@dataclasses.dataclass(frozen=True)
class ExecutorConfig(_Resolvable):
    """How experiment sweeps execute: which backend, how wide, what wire.

    This is the single resolution point for sweep fan-out — the old
    ``resolve_jobs`` helper is gone and ``--jobs``/``REPRO_JOBS`` land
    here (same precedence chain, same :class:`ConfigurationError` on
    malformed values).

    Attributes:
        backend: Executor implementation — ``serial`` (inline),
            ``pool`` (process pool, the default) or ``socket``
            (work-stealing coordinator + socket workers).  Env:
            ``REPRO_EXECUTOR``; CLI: ``--executor``.
        jobs: Worker count.  ``None`` = one worker (the pool backend
            then runs inline, exactly like the historical serial path);
            ``0`` or negative = one per CPU core.  Env: ``REPRO_JOBS``;
            CLI: ``--jobs``.
        host: Socket-coordinator listen address.  Env:
            ``REPRO_EXECUTOR_HOST``.
        port: Socket-coordinator listen port; ``0`` = ephemeral (the
            bound port is reported after start).  Env:
            ``REPRO_EXECUTOR_PORT``.
        heartbeat_ms: Worker lease-heartbeat cadence.  Env:
            ``REPRO_EXECUTOR_HEARTBEAT_MS``.
        lease_timeout_ms: A lease with no heartbeat for this long is
            reclaimed and its spec re-queued.  Env:
            ``REPRO_EXECUTOR_LEASE_TIMEOUT_MS``.
        max_retries: Times one spec's lost lease is re-queued before the
            sweep fails with :class:`~repro.errors.WorkerLostError`.
            Env: ``REPRO_EXECUTOR_MAX_RETRIES``.
        spawn: Local worker processes the socket coordinator forks at
            start (``None`` = ``worker_count()``, ``0`` = none — wait
            for remote ``repro workers`` joins).  Env:
            ``REPRO_EXECUTOR_SPAWN``.
    """

    backend: str = cfg_field(
        "pool", env="REPRO_EXECUTOR", parse=_parse_backend, cli=_cli_backend
    )
    jobs: "Optional[int]" = cfg_field(None, env="REPRO_JOBS", parse=_parse_jobs)
    host: str = cfg_field("127.0.0.1", env="REPRO_EXECUTOR_HOST")
    port: int = cfg_field(0, env="REPRO_EXECUTOR_PORT", parse=_env_int)
    heartbeat_ms: float = cfg_field(
        1000.0, env="REPRO_EXECUTOR_HEARTBEAT_MS", parse=_env_float
    )
    lease_timeout_ms: float = cfg_field(
        30_000.0, env="REPRO_EXECUTOR_LEASE_TIMEOUT_MS", parse=_env_float
    )
    max_retries: int = cfg_field(
        2, env="REPRO_EXECUTOR_MAX_RETRIES", parse=_env_int
    )
    spawn: "Optional[int]" = cfg_field(
        None, env="REPRO_EXECUTOR_SPAWN", parse=_env_int
    )

    def __post_init__(self) -> None:
        if self.backend not in EXECUTOR_BACKENDS:
            raise ConfigurationError(
                f"executor backend must be one of "
                f"{', '.join(EXECUTOR_BACKENDS)}, got {self.backend!r}"
            )
        if not self.host:
            raise ConfigurationError("executor host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"port must be in [0, 65535], got {self.port}"
            )
        if self.heartbeat_ms <= 0:
            raise ConfigurationError(
                f"heartbeat_ms must be positive, got {self.heartbeat_ms}"
            )
        if self.lease_timeout_ms <= 0:
            raise ConfigurationError(
                f"lease_timeout_ms must be positive, got "
                f"{self.lease_timeout_ms}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.spawn is not None and self.spawn < 0:
            raise ConfigurationError(
                f"spawn must be >= 0, got {self.spawn}"
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
        window_ms: Event-time window length.  Env:
            ``REPRO_STREAM_WINDOW_MS``.
        slide_ms: Window start spacing; ``None`` = tumbling.
        reorder_tolerance_ms: Out-of-order arrival tolerance (delays
            window closes by the same amount).
        queue_capacity / queue_policy: Ingest buffer size and full-queue
            behavior (``block`` or ``drop-oldest``).  Env:
            ``REPRO_STREAM_QUEUE``.
        n_tiers: Tier budget for derived designs.
        drift_threshold: Re-tier when the refreshed design's profit
            capture beats the stale design's by more than this.  Env:
            ``REPRO_STREAM_DRIFT``.
        blended_rate: The blended reference price ``P0`` ($/Mbps/month).
        min_demand_mbps: Per-window demand floor (sampling dust filter).
        checkpoint_every: Windows between checkpoint writes.
        provider_asn: ASN stamped into derived designs.
    """

    window_ms: int = cfg_field(
        600_000, env="REPRO_STREAM_WINDOW_MS", parse=_env_int
    )
    slide_ms: "Optional[int]" = cfg_field(None)
    reorder_tolerance_ms: int = cfg_field(0)
    queue_capacity: int = cfg_field(
        4096, env="REPRO_STREAM_QUEUE", parse=_env_int
    )
    queue_policy: str = cfg_field("block")
    n_tiers: int = cfg_field(3)
    drift_threshold: float = cfg_field(
        0.1, env="REPRO_STREAM_DRIFT", parse=_env_float
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
            = one per CPU core.  Env: ``REPRO_FLEET_SHARDS``; CLI:
            ``--shards``.
        host: Front-door listen address.  Env: ``REPRO_FLEET_HOST``.
        port: Front-door listen port; ``0`` = ephemeral (the bound port
            is reported after start).  Env: ``REPRO_FLEET_PORT``; CLI:
            ``--port``.
        queue_depth: Per-shard admission-queue capacity; full queues
            shed the oldest pending request.  Env:
            ``REPRO_FLEET_QUEUE_DEPTH``.
        max_batch: Largest request batch one shard round-trip carries.
            Env: ``REPRO_FLEET_MAX_BATCH``.
        timeout_ms: Default per-request deadline (also bounds one shard
            round-trip before the shard is declared wedged).  Env:
            ``REPRO_FLEET_TIMEOUT_MS``.
        heartbeat_ms: Watchdog ping cadence; a dead shard is respawned
            within roughly one heartbeat.  Env:
            ``REPRO_FLEET_HEARTBEAT_MS``.
    """

    shards: int = cfg_field(2, env="REPRO_FLEET_SHARDS", parse=_env_int)
    host: str = cfg_field("127.0.0.1", env="REPRO_FLEET_HOST")
    port: int = cfg_field(0, env="REPRO_FLEET_PORT", parse=_env_int)
    queue_depth: int = cfg_field(
        1024, env="REPRO_FLEET_QUEUE_DEPTH", parse=_env_int
    )
    max_batch: int = cfg_field(
        512, env="REPRO_FLEET_MAX_BATCH", parse=_env_int
    )
    timeout_ms: float = cfg_field(
        5000.0, env="REPRO_FLEET_TIMEOUT_MS", parse=_env_float
    )
    heartbeat_ms: float = cfg_field(
        100.0, env="REPRO_FLEET_HEARTBEAT_MS", parse=_env_float
    )

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("fleet host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"port must be in [0, 65535], got {self.port}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.timeout_ms <= 0:
            raise ConfigurationError(
                f"timeout_ms must be positive, got {self.timeout_ms}"
            )
        if self.heartbeat_ms <= 0:
            raise ConfigurationError(
                f"heartbeat_ms must be positive, got {self.heartbeat_ms}"
            )

    def shard_count(self) -> int:
        """The concrete shard width (resolves the 0-means-all-cores rule)."""
        if self.shards <= 0:
            return os.cpu_count() or 1
        return self.shards


# ----------------------------------------------------------------------
# Ecosystem (AS-level world generation)
# ----------------------------------------------------------------------


def _cli_ecosystem_seed(namespace) -> "Optional[int]":
    """The ecosystem CLI stores its seed apart from the dataset seed."""
    return getattr(namespace, "ecosystem_seed", None)


@dataclasses.dataclass(frozen=True)
class EcosystemConfig(_Resolvable):
    """Defaults for generated AS-level worlds (see :mod:`repro.ecosystem`).

    Attributes:
        ases: Total AS count, split into kinds by
            ``EcosystemSpec.from_counts``.  Env: ``REPRO_ECOSYSTEM_ASES``;
            CLI: ``--ases``.
        ixps: Internet-exchange sites.  Env: ``REPRO_ECOSYSTEM_IXPS``;
            CLI: ``--ixps``.
        seed: World seed — same (ases, ixps, seed) ⇒ byte-identical
            world.  Env: ``REPRO_ECOSYSTEM_SEED``; CLI: ``--seed``.
    """

    ases: int = cfg_field(50, env="REPRO_ECOSYSTEM_ASES", parse=_env_int)
    ixps: int = cfg_field(3, env="REPRO_ECOSYSTEM_IXPS", parse=_env_int)
    seed: int = cfg_field(
        0, env="REPRO_ECOSYSTEM_SEED", parse=_env_int, cli=_cli_ecosystem_seed
    )

    def __post_init__(self) -> None:
        if self.ases < 5:
            raise ConfigurationError(
                f"ases must be >= 5 for a tiered world, got {self.ases}"
            )
        if self.ixps < 0:
            raise ConfigurationError(f"ixps must be >= 0, got {self.ixps}")


# ----------------------------------------------------------------------
# Mechanism (pricing-mechanism selection)
# ----------------------------------------------------------------------

#: Registered pricing mechanisms selectable via ``--mechanism`` /
#: ``REPRO_MECHANISM``.  A literal copy of
#: :data:`repro.mechanisms.MECHANISM_NAMES` (the config layer must not
#: import the mechanism implementations); a test asserts they match.
MECHANISMS = ("posted-tiers", "spot-auction", "paid-peering", "hybrid")


def _parse_mechanism(name: str, text: str) -> str:
    if text not in MECHANISMS:
        raise ConfigurationError(
            f"{name} must be one of {', '.join(MECHANISMS)}, got {text!r}"
        )
    return text


@dataclasses.dataclass(frozen=True)
class MechanismConfig(_Resolvable):
    """Which pricing mechanism runs, and its knobs.

    The default (``posted-tiers``) reproduces the paper's pipeline
    byte-for-byte — same designs, same cache digests.  Every other value
    selects one of the :mod:`repro.mechanisms` implementations and tags
    downstream config digests with ``|mechanism=<name>``.

    Attributes:
        mechanism: One of :data:`MECHANISMS`.  Env: ``REPRO_MECHANISM``;
            CLI: ``--mechanism``.
        spot_windows: Auction windows per billing period (spot and the
            hybrid's spot side).  Env: ``REPRO_MECHANISM_SPOT_WINDOWS``.
        elasticity_split: Fraction of flows the hybrid sends to spot.
            Env: ``REPRO_MECHANISM_SPLIT``.
        exchange_radius_miles: Paid-peering exchange catchment; ``None``
            = median flow distance.  Env:
            ``REPRO_MECHANISM_PEERING_RADIUS``.
        bargaining: ISP bargaining weight in the peering negotiation.
            Env: ``REPRO_MECHANISM_BARGAINING``.
    """

    mechanism: str = cfg_field(
        "posted-tiers", env="REPRO_MECHANISM", parse=_parse_mechanism
    )
    spot_windows: int = cfg_field(
        24, env="REPRO_MECHANISM_SPOT_WINDOWS", parse=_env_int
    )
    elasticity_split: float = cfg_field(
        0.5, env="REPRO_MECHANISM_SPLIT", parse=_env_float
    )
    exchange_radius_miles: "Optional[float]" = cfg_field(
        None, env="REPRO_MECHANISM_PEERING_RADIUS", parse=_env_float
    )
    bargaining: float = cfg_field(
        0.5, env="REPRO_MECHANISM_BARGAINING", parse=_env_float
    )

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ConfigurationError(
                f"mechanism must be one of {', '.join(MECHANISMS)}, "
                f"got {self.mechanism!r}"
            )
        if self.spot_windows < 1:
            raise ConfigurationError(
                f"spot_windows must be >= 1, got {self.spot_windows}"
            )
        if not 0.0 <= self.elasticity_split <= 1.0:
            raise ConfigurationError(
                f"elasticity_split must be in [0, 1], "
                f"got {self.elasticity_split}"
            )
        if (
            self.exchange_radius_miles is not None
            and self.exchange_radius_miles <= 0
        ):
            raise ConfigurationError(
                f"exchange_radius_miles must be positive, "
                f"got {self.exchange_radius_miles}"
            )
        if not 0.0 <= self.bargaining <= 1.0:
            raise ConfigurationError(
                f"bargaining must be in [0, 1], got {self.bargaining}"
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
            the no-op tracer stays installed).  Env: ``REPRO_TRACE``;
            CLI: ``--trace``.
    """

    trace: "Optional[str]" = cfg_field(None, env="REPRO_TRACE")

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
    "cfg_field",
]
