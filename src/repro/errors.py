"""Exception hierarchy for the transit-pricing reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.

Each subclass also maps to a distinct CLI exit code (see
:data:`EXIT_CODES` and :func:`exit_code_for`), so scripts wrapping
``python -m repro`` can branch on *why* a run failed without parsing
stderr.  Codes start at 10 to stay clear of the conventional 1 (generic
failure) and 2 (argparse usage error).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ModelParameterError(ReproError, ValueError):
    """A demand/cost model parameter is outside its valid domain.

    Examples: a constant-elasticity sensitivity ``alpha <= 1`` (the monopoly
    price would be unbounded), a logit outside-share ``s0`` outside ``(0, 1)``,
    or a non-positive blended rate ``P0``.
    """


class CalibrationError(ReproError, RuntimeError):
    """Fitting valuations or the cost scale ``gamma`` to data failed.

    Raised when the observed data is incompatible with the assumption that
    the ISP is profit-maximizing at the blended rate (e.g. the implied
    ``gamma`` is non-positive) or when a numeric solver does not converge.
    """


class BundlingError(ReproError, ValueError):
    """A bundling strategy received an invalid request.

    Examples: asking for zero bundles, more bundles than flows when the
    strategy cannot emit empty bundles, or a flow set with no flows.
    """


class OptimizationError(ReproError, RuntimeError):
    """A price-optimization routine failed to converge."""


class ConfigurationError(ReproError, ValueError):
    """A runtime/environment setting is malformed.

    Examples: a non-integer ``REPRO_JOBS`` value, or a checkpoint file
    written with incompatible pipeline settings.
    """


class DataError(ReproError, ValueError):
    """Raw measurement data (NetFlow records, GeoIP entries, topology
    elements) is malformed or inconsistent."""


class TopologyError(ReproError, ValueError):
    """A network topology is malformed (unknown PoP, disconnected route,
    negative link length, ...)."""


class AccountingError(ReproError, RuntimeError):
    """Tier accounting failed (unknown tier tag, no matching route, or an
    inconsistent billing window)."""


class SnapshotUnavailableError(ReproError, RuntimeError):
    """No pricing snapshot is ready to answer quotes.

    Raised by the strict quoting paths when the snapshot registry is empty
    (nothing published yet, or the registry was deliberately cleared).  The
    lenient paths degrade to the blended rate instead of raising.
    """


class ExecutorError(ReproError, RuntimeError):
    """A sweep executor failed to run its work units.

    Covers backend-level failures that are not a property of any single
    spec: an unusable backend configuration, a worker reporting an
    execution exception, or a coordinator shut down mid-sweep.
    """


class WorkerLostError(ExecutorError):
    """A worker died holding a work-unit lease and retries are exhausted.

    Raised by the distributed sweep backends instead of hanging when the
    processes executing a spec keep disappearing (crash, SIGKILL, network
    partition).  Completed results were already spilled to the disk
    cache, so rerunning the sweep resumes where it left off.
    """


class MechanismError(ReproError, ValueError):
    """A pricing mechanism was misconfigured or degenerated.

    Examples: an unregistered ``--mechanism`` name, a spot auction with
    zero windows, or a paid-peering negotiation with no eligible (or no
    transit-side) flows on the given traffic matrix.
    """


#: Exception class -> CLI exit code, one distinct nonzero code per
#: :class:`ReproError` subclass (the base class itself backstops at 10).
#: Codes are part of the CLI contract — append, never renumber.  Code 20
#: is retired (it was the removed quote-deadline error) and stays unused.
EXIT_CODES = {
    ReproError: 10,
    ModelParameterError: 11,
    CalibrationError: 12,
    BundlingError: 13,
    OptimizationError: 14,
    ConfigurationError: 15,
    DataError: 16,
    TopologyError: 17,
    AccountingError: 18,
    SnapshotUnavailableError: 19,
    ExecutorError: 21,
    WorkerLostError: 22,
    MechanismError: 23,
}


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code for an exception (most-derived match wins).

    Walking the MRO means a future subclass of, say,
    :class:`CalibrationError` inherits code 12 until it gets its own
    entry; non-:class:`ReproError` exceptions map to 1.
    """
    for klass in type(exc).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]
    return 1
