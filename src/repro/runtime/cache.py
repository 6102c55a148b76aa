"""Content-addressed memoization for datasets, markets, and results.

Every cacheable artifact in the experiment pipeline is a deterministic
function of a small, JSON-serializable configuration — a dataset is
``(name, n_flows, seed)``, a calibrated market adds the demand family and
cost-model parameters, a sweep result adds strategies and bundle counts.
:func:`config_hash` canonicalizes such a payload (sorted keys, repr'd
floats) and hashes it, so the hash *is* the identity: same config, same
artifact, no staleness protocol needed.

:class:`CacheStore` keeps an in-memory table and, when given a directory,
mirrors entries to disk as pickles so warm starts survive process
boundaries.  The process-global store starts from
:class:`~repro.config.RuntimeConfig` (``cache`` / ``cache_dir``, read
from ``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR`` at import) and is
reconfigured by :func:`configure` (the CLI's ``--no-cache`` ends up
here).

Hits and misses are counted in :data:`~repro.obs.METRICS`
(``cache_hits`` / ``cache_misses``), which is how the benchmark harness
verifies that a warm rerun rebuilt nothing; each is also recorded as a
``cache.hit`` / ``cache.miss`` event on the current span, so a trace
shows exactly which stage's lookup went which way.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle
import threading
from typing import Any, Callable, Optional

from repro import obs
from repro.config import RuntimeConfig
from repro.obs import METRICS


class Canonical:
    """A payload part :func:`config_hash` may hash without walking it.

    Wrap only data the walk would leave as it is: ``str``, ``int`` and
    ``None`` leaves in lists or tuples, with no floats and no dicts.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


def _canonical(payload: Any) -> Any:
    """Recursively normalize a payload for hashing.

    Dicts are key-sorted by json.dumps; tuples become lists; floats keep
    their full repr (so 0.1 and 0.1000001 hash differently).
    """
    if isinstance(payload, dict):
        return {str(k): _canonical(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_canonical(v) for v in payload]
    if isinstance(payload, float):
        return repr(payload)
    if isinstance(payload, Canonical):
        return payload.value
    return payload


def config_hash(payload: Any) -> str:
    """A deterministic hex digest of a JSON-serializable configuration."""
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CacheStore:
    """In-memory key/value store with an optional on-disk mirror.

    Keys are ``kind:config-hash`` strings; values are arbitrary picklable
    objects.  Disk entries live at ``<directory>/<kind>/<hash>.pkl`` so a
    cache directory is self-describing and selectively clearable.
    """

    def __init__(self, directory: "Optional[str | pathlib.Path]" = None) -> None:
        self._lock = threading.Lock()
        self._memory: "dict[str, Any]" = {}
        self.directory = pathlib.Path(directory) if directory else None

    def _disk_path(self, kind: str, digest: str) -> "Optional[pathlib.Path]":
        if self.directory is None:
            return None
        return self.directory / kind / f"{digest}.pkl"

    def get(self, kind: str, digest: str, disk: bool = True) -> "tuple[bool, Any]":
        """``(hit, value)`` for the keyed entry, promoting disk to memory."""
        key = f"{kind}:{digest}"
        with self._lock:
            if key in self._memory:
                return True, self._memory[key]
        path = self._disk_path(kind, digest) if disk else None
        if path is not None and path.exists():
            try:
                value = pickle.loads(path.read_bytes())
            except Exception:  # corrupt entry: treat as a miss, recompute
                return False, None
            with self._lock:
                self._memory[key] = value
            return True, value
        return False, None

    def put(self, kind: str, digest: str, value: Any, disk: bool = True) -> None:
        key = f"{kind}:{digest}"
        with self._lock:
            self._memory[key] = value
        path = self._disk_path(kind, digest) if disk else None
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(pickle.dumps(value))
            tmp.replace(path)  # atomic: parallel writers race benignly

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)


# ----------------------------------------------------------------------
# Process-global store
# ----------------------------------------------------------------------

_runtime = RuntimeConfig.resolve()
_enabled = _runtime.cache
_store = CacheStore(_runtime.cache_dir)


def configure(
    enabled: "Optional[bool]" = None,
    directory: "Optional[str | pathlib.Path]" = None,
    fresh: bool = False,
) -> CacheStore:
    """Reconfigure the global cache; returns the active store.

    Args:
        enabled: Turn caching on/off (``None`` leaves it unchanged).
        directory: On-disk mirror location (``None`` leaves it unchanged;
            pass ``""`` to go memory-only).
        fresh: Drop all in-memory entries (disk files are kept).
    """
    global _enabled, _store
    if enabled is not None:
        _enabled = enabled
    if directory is not None:
        _store = CacheStore(directory or None)
    elif fresh:
        _store.clear()
    return _store


def cache_enabled() -> bool:
    return _enabled


def lookup(kind: str, digest: str) -> "tuple[bool, Any]":
    """Read-only probe of the global store (counts a hit or a miss).

    Returns ``(False, None)`` without counting anything when caching is
    disabled.
    """
    if not _enabled:
        return False, None
    hit, value = _store.get(kind, digest)
    if hit:
        METRICS.incr("cache_hits")
        METRICS.incr(f"cache_hits:{kind}")
        obs.event("cache.hit", kind=kind)
    else:
        METRICS.incr("cache_misses")
        METRICS.incr(f"cache_misses:{kind}")
        obs.event("cache.miss", kind=kind)
    return hit, value


def store(kind: str, digest: str, value: Any) -> None:
    """Write an entry to the global store (no-op when disabled)."""
    if _enabled:
        _store.put(kind, digest, value)


def cached(
    kind: str, payload: Any, compute: Callable[[], Any], disk: bool = True
) -> Any:
    """Memoize ``compute()`` under the global store, keyed by the payload.

    On a disabled cache this is a transparent pass-through (and counts
    neither a hit nor a miss, so metrics reflect only real cache traffic).
    ``disk=False`` keeps the entry memory-only even when a disk mirror is
    configured — used for values whose pickled form is bulky or fragile
    (calibrated :class:`~repro.core.market.Market` objects).
    """
    if not _enabled:
        return compute()
    digest = config_hash(payload)
    hit, value = _store.get(kind, digest, disk=disk)
    if hit:
        METRICS.incr("cache_hits")
        METRICS.incr(f"cache_hits:{kind}")
        obs.event("cache.hit", kind=kind)
        return value
    METRICS.incr("cache_misses")
    METRICS.incr(f"cache_misses:{kind}")
    obs.event("cache.miss", kind=kind)
    value = compute()
    _store.put(kind, digest, value, disk=disk)
    return value
