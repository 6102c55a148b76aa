"""The exception hierarchy: everything catches as ReproError."""

import inspect

import pytest

import repro.errors
from repro.errors import (
    AccountingError,
    BundlingError,
    CalibrationError,
    ConfigurationError,
    DataError,
    ExecutorError,
    MechanismError,
    ModelParameterError,
    OptimizationError,
    ReproError,
    SnapshotUnavailableError,
    TopologyError,
    WorkerLostError,
)

ALL_ERRORS = [
    AccountingError,
    BundlingError,
    CalibrationError,
    ConfigurationError,
    DataError,
    ExecutorError,
    MechanismError,
    ModelParameterError,
    OptimizationError,
    SnapshotUnavailableError,
    TopologyError,
    WorkerLostError,
]


@pytest.mark.parametrize("exc_type", ALL_ERRORS)
def test_all_errors_derive_from_repro_error(exc_type):
    assert issubclass(exc_type, ReproError)


def test_every_public_error_subclasses_the_package_base():
    """Exhaustive: any exception the errors module exports — now or in a
    future PR — must derive from ReproError, so ``except ReproError``
    stays a complete catch for library failures."""
    exported = [
        obj
        for name, obj in inspect.getmembers(repro.errors, inspect.isclass)
        if issubclass(obj, Exception) and not name.startswith("_")
    ]
    assert ReproError in exported
    for exc_type in exported:
        assert issubclass(exc_type, ReproError), exc_type
    # And this file's explicit list is in sync with the module.
    assert set(ALL_ERRORS) <= set(exported)
    assert len(exported) == len(ALL_ERRORS) + 1  # + ReproError itself


def test_value_like_errors_are_value_errors():
    for exc_type in (
        ModelParameterError,
        BundlingError,
        ConfigurationError,
        DataError,
        MechanismError,
        TopologyError,
    ):
        assert issubclass(exc_type, ValueError)


def test_runtime_like_errors_are_runtime_errors():
    for exc_type in (
        CalibrationError,
        OptimizationError,
        AccountingError,
        SnapshotUnavailableError,
        ExecutorError,
        WorkerLostError,
    ):
        assert issubclass(exc_type, RuntimeError)


def test_worker_lost_is_an_executor_error():
    assert issubclass(WorkerLostError, ExecutorError)


def test_catching_base_catches_subclass():
    with pytest.raises(ReproError):
        raise CalibrationError("fit failed")


@pytest.mark.parametrize("exc_type", ALL_ERRORS)
def test_errors_carry_messages(exc_type):
    try:
        raise exc_type("specific detail")
    except ReproError as caught:
        assert "specific detail" in str(caught)
