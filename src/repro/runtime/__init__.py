"""The experiment-execution engine: executors, caching, metrics.

Every sweep, figure, and benchmark in this repo reduces to evaluating a
list of independent, fully-determined work units — "calibrate *this*
dataset under *this* demand family and cost model, bundle it *these*
ways, and score the outcomes".  This package owns that execution, in
three pillars:

* :mod:`repro.runtime.executor` — the pluggable :class:`Executor`
  protocol (``submit(specs) -> (digest, result) as they complete``) and
  its three backends: :class:`SerialExecutor` (inline),
  :class:`PoolExecutor` (the process pool and the one ordered map,
  ``--jobs`` / ``REPRO_JOBS``), and
  :class:`SocketExecutor` (work-stealing coordinator + socket workers,
  ``repro workers --connect``).  Build them with :func:`get_executor`.
* :mod:`repro.runtime.cache` — content-addressed memoization of datasets,
  calibrated markets, and spec results: in-memory always, mirrored to
  disk under ``.repro_cache/`` when configured (``REPRO_CACHE_DIR``).
* :data:`METRICS` — the process-global registry of counters and stage
  timers every layer reports into, re-exported from
  :mod:`repro.obs.metrics` (one observability package with the tracer).

The declarative tie-in is :class:`~repro.runtime.spec.ExperimentSpec` +
:func:`~repro.runtime.spec.run_specs`: drivers build spec lists and the
runtime decides what is cached, what fans out, and what gets counted.
"""

# Exports resolve lazily (PEP 562): lower layers (``repro.synth``,
# ``repro.serve``) import ``repro.runtime.cache``, and an eager package
# init would close an import cycle back through ``repro.runtime.spec``
# (which imports those layers).
_EXPORTS = {
    "CacheStore": "repro.runtime.cache",
    "cache_enabled": "repro.runtime.cache",
    "cached": "repro.runtime.cache",
    "config_hash": "repro.runtime.cache",
    "configure": "repro.runtime.cache",
    "METRICS": "repro.obs.metrics",
    "Metrics": "repro.obs.metrics",
    "collect": "repro.obs.metrics",
    "RuntimeConfig": "repro.config",
    "ExecutorConfig": "repro.config",
    "Executor": "repro.runtime.executor",
    "SerialExecutor": "repro.runtime.executor",
    "PoolExecutor": "repro.runtime.executor",
    "SocketExecutor": "repro.runtime.executor",
    "get_executor": "repro.runtime.executor",
    "worker_main": "repro.runtime.executor",
    "COST_FACTORIES": "repro.runtime.spec",
    "ExperimentSpec": "repro.runtime.spec",
    "evaluate_spec": "repro.runtime.spec",
    "run_specs": "repro.runtime.spec",
}


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "CacheStore",
    "COST_FACTORIES",
    "Executor",
    "ExecutorConfig",
    "ExperimentSpec",
    "METRICS",
    "Metrics",
    "PoolExecutor",
    "RuntimeConfig",
    "SerialExecutor",
    "SocketExecutor",
    "cache_enabled",
    "cached",
    "collect",
    "config_hash",
    "configure",
    "evaluate_spec",
    "get_executor",
    "run_specs",
    "worker_main",
]
