"""Tests pinning the public import surface.

Every package under :mod:`repro` must declare an explicit ``__all__``,
every listed name must actually import, and no private (underscored)
name may leak through.  This is the contract that lets the docs say
"import it from the package, not the module that happens to define it".
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + [
    f"repro.{m.name}"
    for m in pkgutil.iter_modules(repro.__path__)
    if m.ispkg
]


@pytest.mark.parametrize("package", PACKAGES)
def test_declares_explicit_all(package):
    module = importlib.import_module(package)
    assert isinstance(getattr(module, "__all__", None), list), (
        f"{package} must declare an explicit __all__"
    )
    assert module.__all__, f"{package}.__all__ must not be empty"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_in_all_imports(package):
    module = importlib.import_module(package)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{package}.__all__ lists unimportable {missing}"


@pytest.mark.parametrize("package", PACKAGES)
def test_no_private_names_leak(package):
    module = importlib.import_module(package)
    leaked = [
        n for n in module.__all__
        if n.startswith("_") and n != "__version__"
    ]
    assert not leaked, f"{package}.__all__ leaks private names {leaked}"


@pytest.mark.parametrize("package", PACKAGES)
def test_no_duplicates_in_all(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))


def test_star_import_matches_all():
    scope = {}
    exec("from repro import *", scope)
    exported = {n for n in scope if not n.startswith("__")} | {"__version__"}
    assert exported == set(repro.__all__) | {"__version__"}


def test_config_and_obs_types_reach_the_top_level():
    from repro import (
        FleetConfig,
        ObsConfig,
        RuntimeConfig,
        StreamConfig,
        TraceContext,
        Tracer,
    )
    from repro.config import RuntimeConfig as defined

    assert RuntimeConfig is defined
    del FleetConfig, ObsConfig, StreamConfig, TraceContext, Tracer


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.config", "DEPRECATION_PREFIX"),
        ("repro.experiments", "capture_by_strategy"),
        ("repro.experiments.runner", "capture_by_strategy"),
        ("repro.fleet", "SharedPricingSnapshot"),
        ("repro.fleet.shm", "SharedPricingSnapshot"),
        ("repro.peering", "sweep_direct_costs"),
        ("repro.peering.bypass", "sweep_direct_costs"),
    ],
)
def test_retired_shims_stay_retired(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_retired_alias_module_and_object_view_stay_retired():
    from repro.core.flow import FlowSet

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.runtime.metrics")
    assert not hasattr(FlowSet, "flows")


def test_every_error_class_is_public():
    import inspect

    from repro import errors

    for name, obj in vars(errors).items():
        if inspect.isclass(obj) and issubclass(obj, errors.ReproError):
            assert hasattr(repro, name), f"repro.{name} missing"
            assert name in repro.__all__


def test_exit_codes_are_distinct_and_nonzero():
    from repro.errors import EXIT_CODES

    codes = list(EXIT_CODES.values())
    assert len(codes) == len(set(codes))
    assert all(code not in (0, 1, 2) for code in codes)
    # Retired codes are never handed out again (append, never renumber).
    assert 20 not in codes


def test_record_batch_is_public():
    """The columnar record type is exported from the NetFlow package, and
    the stream's record-counted queue from the stream package."""
    import repro.netflow
    import repro.stream
    from repro.netflow.records import RecordBatch
    from repro.stream.queue import RecordQueue

    assert repro.netflow.RecordBatch is RecordBatch
    assert "RecordBatch" in repro.netflow.__all__
    assert repro.stream.RecordQueue is RecordQueue
    assert "RecordQueue" in repro.stream.__all__
