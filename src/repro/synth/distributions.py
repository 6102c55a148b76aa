"""Statistical primitives for synthetic trace generation.

The paper characterizes each dataset by four aggregate statistics
(Table 1): demand-weighted mean flow distance, demand-weighted CV of
distance, aggregate traffic, and CV of per-flow demand.  The generators in
:mod:`repro.synth.datasets` draw heavy-tailed samples and then *calibrate*
them so the finite sample matches those targets exactly:

* a **power transform** ``x -> x**lam`` tunes the coefficient of variation
  (monotone in ``lam`` for positive data, solved with Brent's method);
* a **scale** then pins the mean (or the total) without disturbing the CV.

Both steps preserve positivity and the sample's rank order, so any
injected demand/distance correlation survives calibration.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import DataError


def lognormal_sigma_for_cv(cv: float) -> float:
    """The lognormal shape whose theoretical CV equals ``cv``."""
    if cv <= 0:
        raise DataError(f"cv must be positive, got {cv}")
    return math.sqrt(math.log(1.0 + cv * cv))


def sample_lognormal(
    rng: np.random.Generator, n: int, mean: float, cv: float
) -> np.ndarray:
    """Draw ``n`` lognormal values with the given theoretical mean and CV."""
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    if mean <= 0:
        raise DataError(f"mean must be positive, got {mean}")
    sigma = lognormal_sigma_for_cv(cv)
    mu = math.log(mean) - 0.5 * sigma * sigma
    return rng.lognormal(mean=mu, sigma=sigma, size=n)


def weighted_mean(values: np.ndarray, weights: Optional[np.ndarray] = None) -> float:
    values = np.asarray(values, dtype=float)
    if weights is None:
        return float(values.mean())
    return float(np.average(values, weights=np.asarray(weights, dtype=float)))


def weighted_cv(values: np.ndarray, weights: Optional[np.ndarray] = None) -> float:
    """Coefficient of variation, optionally demand-weighted."""
    values = np.asarray(values, dtype=float)
    mean = weighted_mean(values, weights)
    if mean == 0:
        return 0.0
    if weights is None:
        return float(values.std()) / mean
    var = float(np.average((values - mean) ** 2, weights=weights))
    return math.sqrt(var) / mean


def calibrate_positive(
    values: np.ndarray,
    mean_target: float,
    cv_target: float,
    weights: Optional[np.ndarray] = None,
    lam_bracket: "tuple[float, float]" = (1e-3, 20.0),
) -> np.ndarray:
    """Transform positive samples to hit a target (weighted) mean and CV.

    Applies ``x -> scale * (x / gmean)**lam`` with ``lam`` solved so the
    CV matches and ``scale`` so the mean matches.

    The transform has a supremum CV determined by the sample's shape: as
    ``lam`` grows, all mass concentrates on the largest value(s), so e.g.
    a sample with three copies of its maximum out of four points can never
    exceed CV ``sqrt(1/3)``.  Raises :class:`~repro.errors.DataError` when
    the requested CV is unreachable (including the degenerate all-equal
    sample with a positive CV target).
    """
    x = np.asarray(values, dtype=float)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise DataError("values must be finite and positive")
    if mean_target <= 0 or cv_target < 0:
        raise DataError("targets must be positive (cv may be zero)")
    if x.size == 1 or np.allclose(x, x[0]):
        if cv_target > 1e-12:
            raise DataError("cannot reach a positive CV from a constant sample")
        return np.full_like(x, mean_target)

    # Work with log values shifted so the maximum is zero: the transformed
    # sample exp(lam * shifted) then lives in (0, 1], the CV computation
    # cannot overflow (CV is scale-invariant), and capping lam by the log
    # range keeps the smallest value a positive float.
    log_x = np.log(x)
    shifted = log_x - log_x.max()
    log_range = float(-shifted.min())
    lam_cap = 700.0 / log_range

    def transformed(lam: float) -> np.ndarray:
        return np.exp(lam * shifted)

    def cv_of(lam: float) -> float:
        return weighted_cv(transformed(lam), weights)

    if cv_target == 0:
        calibrated = np.ones_like(shifted)
    else:
        lo = min(lam_bracket[0], lam_cap / 2.0)
        hi = min(lam_bracket[1], lam_cap)
        for _ in range(60):
            if cv_of(lo) < cv_target:
                break
            lo /= 2.0
        while hi < lam_cap and cv_of(hi) <= cv_target:
            hi = min(lam_cap, hi * 2.0)
        if not cv_of(lo) < cv_target < cv_of(hi):
            raise DataError(
                f"CV target {cv_target} is unreachable for this sample shape "
                f"(achievable range is about [{cv_of(lo):.4g}, {cv_of(hi):.4g}]); "
                "provide a sample with more weight off its maximum"
            )
        from scipy import optimize

        lam = optimize.brentq(lambda L: cv_of(L) - cv_target, lo, hi, xtol=1e-12)
        calibrated = transformed(lam)
    scale = mean_target / weighted_mean(calibrated, weights)
    result = calibrated * scale
    if np.any(result <= 0) or not np.all(np.isfinite(result)):
        raise DataError(
            f"CV target {cv_target} drove the transform out of float range; "
            "it is effectively unreachable for this sample shape"
        )
    return result


def calibrate_total(
    values: np.ndarray,
    cv_target: float,
    total_target: float,
) -> np.ndarray:
    """Like :func:`calibrate_positive` but pins the *sum* instead of the mean."""
    if total_target <= 0:
        raise DataError(f"total must be positive, got {total_target}")
    x = np.asarray(values, dtype=float)
    calibrated = calibrate_positive(x, mean_target=1.0, cv_target=cv_target)
    return calibrated * (total_target / calibrated.sum())


def gaussian_copula_pair(
    rng: np.random.Generator, n: int, rho: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Two uniform samples with Gaussian-copula correlation ``rho``.

    Used to couple flow demand and distance (e.g. local traffic tends to
    be heavier on a national ISP) while keeping the marginals intact.
    """
    if not -1.0 < rho < 1.0:
        raise DataError(f"rho must be in (-1, 1), got {rho}")
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    from scipy.stats import norm

    return norm.cdf(z1), norm.cdf(z2)
