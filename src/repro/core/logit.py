"""Logit demand (paper §3.2.2).

In the logit model a population of ``K`` consumers each picks at most one
flow (or the outside option of sending nothing).  Consumer ``j``'s utility
for flow ``i`` is ``u_ij = alpha * (v_i - p_i) + eps_ij`` with Gumbel
idiosyncratic taste ``eps_ij``, which yields the market shares

.. math::
   s_i(P) = \\frac{e^{\\alpha (v_i - p_i)}}{\\sum_j e^{\\alpha (v_j - p_j)} + 1}
   \\qquad (Eq. 6)

and demand ``Q_i = K s_i`` (Eq. 7).  Demands are *not* separable: raising
one flow's price shifts consumption onto the others, which models customers
who can substitute between destinations.

Everything here is computed **per consumer** (``K = 1``); callers scale by
the fitted population.  The profit-capture metric is a ratio, so the scale
cancels there.

Pricing facts used below (derivations in DESIGN.md):

* The first-order condition (Eq. 9) is ``p_i* = c_i + 1/(alpha s_0)``: at
  the joint optimum every flow carries the **same markup** ``m`` over its
  own cost.  Substituting gives a 1-D fixed point
  ``alpha m - 1 = exp(L - alpha m)`` with ``L = logsumexp(alpha (v - c))``,
  whose closed-form solution is ``alpha m = 1 + omega(L - 1)`` where
  ``omega`` is the Wright omega function (``omega(z) = W(e^z)``).
  We also ship the paper's iterative fixed-point heuristic for comparison.
* A bundle priced uniformly behaves exactly like a single composite flow
  with valuation ``v_b = logsumexp(alpha v_i)/alpha`` (Eq. 10) and cost
  ``c_b = sum(c_i e^{alpha v_i}) / sum(e^{alpha v_i})`` (Eq. 11): the
  composition is exact, not an approximation.
* Total optimal profit is increasing in the aggregate attractiveness
  ``A = sum_b exp(alpha (v_b - c_b))``, and ``A`` is a sum of per-bundle
  terms — which is what makes the optimal-bundling DP separable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.demand import (
    BundleObjective,
    DemandModel,
    validate_arrays,
    validate_positive,
)
from repro.errors import CalibrationError, ModelParameterError, OptimizationError


# scipy.special's two functions, bound on first call: only the logit math
# (here and in :mod:`repro.core.competition`) needs scipy, and importing
# it costs more start-up time and memory than the rest of :mod:`repro`.
# Each stub replaces itself with scipy's function, so later calls through
# this module's globals go straight to scipy.


def logsumexp(a: np.ndarray) -> float:
    """:func:`scipy.special.logsumexp`, imported on first call."""
    global logsumexp
    from scipy.special import logsumexp

    return logsumexp(a)


def wrightomega(z: float) -> complex:
    """:func:`scipy.special.wrightomega`, imported on first call."""
    global wrightomega
    from scipy.special import wrightomega

    return wrightomega(z)


class LogitDemand(DemandModel):
    """Logit demand with sensitivity ``alpha`` and outside share ``s0``.

    Args:
        alpha: Price sensitivity, ``alpha > 0``.  Lower values mean users
            need bigger price changes to shift their consumption.
        s0: The share of the market that buys nothing **at the observed
            blended rate** — a calibration input used when fitting
            valuations (§4.1.2).  Must lie strictly inside ``(0, 1)``.
    """

    name = "logit"

    def __init__(self, alpha: float, s0: float = 0.2) -> None:
        self.alpha = validate_positive(alpha, "alpha")
        s0 = float(s0)
        if not 0.0 < s0 < 1.0:
            raise ModelParameterError(f"s0 must be in (0, 1), got {s0}")
        self.s0 = s0

    # ------------------------------------------------------------------
    # Fitting (§4.1.2, §4.1.3)
    # ------------------------------------------------------------------

    def fit_valuations(self, demands: np.ndarray, blended_rate: float) -> np.ndarray:
        """Recover valuations from shares observed at the blended rate.

        Shares are assigned proportionally to observed demand with the
        configured outside share held out:
        ``s_i = q_i (1 - s0) / sum(q)``, then
        ``v_i = (ln s_i - ln s0)/alpha + P0``.
        """
        p0 = validate_positive(blended_rate, "blended_rate")
        q = np.asarray(demands, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise CalibrationError("demands must be a non-empty 1-D array")
        if np.any(q <= 0) or not np.all(np.isfinite(q)):
            raise CalibrationError("demands must be finite and positive")
        shares = q * (1.0 - self.s0) / q.sum()
        return (np.log(shares) - np.log(self.s0)) / self.alpha + p0

    def population(self, demands: np.ndarray) -> float:
        """The fitted consumer population ``K = sum(q) / (1 - s0)``.

        ``K`` is the total potential demand including the outside option;
        with it, per-consumer shares scale back to the observed Mbps.
        """
        q = np.asarray(demands, dtype=float)
        return float(q.sum()) / (1.0 - self.s0)

    def fit_gamma(
        self,
        valuations: np.ndarray,
        relative_costs: np.ndarray,
        blended_rate: float,
    ) -> float:
        """Solve ``dProfit/dP = 0`` at the uniform price ``P0`` for ``gamma``.

        With ``r_i = e^{alpha (v_i - P0)}`` and ``E = sum(r)``, the
        stationarity of the blended rate requires

        ``gamma = E (alpha P0 - 1 - E) / (alpha sum(f_i r_i))``

        (this is the §4.1.3 formula with its typo repaired; see DESIGN.md).
        A positive solution exists iff ``alpha * P0 * s0 > 1``.
        """
        validate_arrays(valuations, relative_costs)
        p0 = validate_positive(blended_rate, "blended_rate")
        v = np.asarray(valuations, dtype=float)
        f = np.asarray(relative_costs, dtype=float)
        if np.any(f <= 0):
            raise CalibrationError("relative costs must be positive to fit gamma")
        x = self.alpha * (v - p0)
        with np.errstate(over="ignore"):  # an infinite E fails the margin
            r = np.exp(x)
            big_e = float(r.sum())
        margin = self.alpha * p0 - 1.0 - big_e
        if margin <= 0:
            # s0 = 1/(1 + E) from log(1 + E), as a Decimal: past exp's
            # range E is inf and s0 smaller than the least float.
            from decimal import Decimal

            s0 = Decimal(-float(logsumexp(np.append(x, 0.0)))).exp()
            raise CalibrationError(
                "blended rate is inconsistent with profit maximization under "
                f"logit demand: need alpha * P0 * s0 > 1, got "
                f"alpha={self.alpha}, P0={p0}, implied s0={s0:.4g} "
                f"(alpha*P0*s0={Decimal(self.alpha * p0) * s0:.4g})"
            )
        gamma = big_e * margin / (self.alpha * float(np.sum(f * r)))
        if gamma <= 0 or not np.isfinite(gamma):
            raise CalibrationError(f"fitted gamma is not positive: {gamma}")
        return gamma

    # ------------------------------------------------------------------
    # Demand / profit / surplus (per consumer)
    # ------------------------------------------------------------------

    def shares(self, valuations: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """Eq. 6 market shares; computed in log space for stability."""
        validate_arrays(valuations, prices=prices)
        x = self.alpha * (np.asarray(valuations) - np.asarray(prices))
        log_z = logsumexp(np.concatenate((x, [0.0])))
        return np.exp(x - log_z)

    def outside_share(self, valuations: np.ndarray, prices: np.ndarray) -> float:
        """Share of consumers who buy nothing at the given prices."""
        x = self.alpha * (np.asarray(valuations) - np.asarray(prices))
        return float(np.exp(-logsumexp(np.concatenate((x, [0.0])))))

    def quantities(self, valuations: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """Eq. 7 with ``K = 1``: the market shares themselves."""
        return self.shares(valuations, prices)

    def profit(
        self,
        valuations: np.ndarray,
        costs: np.ndarray,
        prices: np.ndarray,
    ) -> float:
        """Eq. 8 with ``K = 1``: ``sum_i s_i (p_i - c_i)``."""
        s = self.shares(valuations, prices)
        return float(np.sum(s * (np.asarray(prices) - np.asarray(costs))))

    def consumer_surplus(self, valuations: np.ndarray, prices: np.ndarray) -> float:
        """Expected maximum utility per consumer (the logit inclusive value).

        ``CS = (1/alpha) ln(sum_j e^{alpha (v_j - p_j)} + 1)``, measured
        relative to the outside option (utility 0).  Differences of this
        quantity across price vectors are the standard logit welfare change.
        """
        x = self.alpha * (np.asarray(valuations) - np.asarray(prices))
        return float(logsumexp(np.concatenate((x, [0.0])))) / self.alpha

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------

    def optimal_markup(self, valuations: np.ndarray, costs: np.ndarray) -> float:
        """The common optimal markup ``m`` solving Eq. 9 jointly.

        Closed form via the Wright omega function:
        ``alpha m = 1 + omega(L - 1)`` with ``L = logsumexp(alpha (v - c))``.
        """
        validate_arrays(valuations, costs)
        x = self.alpha * (np.asarray(valuations) - np.asarray(costs))
        big_l = float(logsumexp(x))
        omega = float(np.real(wrightomega(big_l - 1.0)))
        markup = (1.0 + omega) / self.alpha
        if not np.isfinite(markup) or markup <= 0:
            raise OptimizationError(f"optimal markup is not positive: {markup}")
        return markup

    def optimal_prices(self, valuations: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """Eq. 9: equal markup over cost, solved jointly for all flows."""
        markup = self.optimal_markup(valuations, costs)
        return np.asarray(costs, dtype=float) + markup

    def optimize_prices_fixed_point(
        self,
        valuations: np.ndarray,
        costs: np.ndarray,
        initial_prices: Optional[np.ndarray] = None,
        tol: float = 1e-10,
        max_iter: int = 10_000,
    ) -> np.ndarray:
        """The paper's iterative heuristic for Eq. 9.

        Starts from a fixed price vector and greedily updates it toward
        ``p_i <- c_i + 1/(alpha s_0(P))``.  The raw map is unstable when
        the market is attractive (its derivative at the optimum is
        ``-(alpha m - 1)``), so each step is damped with backtracking: the
        step is halved until the fixed-point residual shrinks.  Converges
        to the same prices as the closed-form :meth:`optimal_prices`;
        retained to mirror the paper's method and as a cross-check.
        """
        validate_arrays(valuations, costs)
        c = np.asarray(costs, dtype=float)
        prices = (
            c + 1.0 / self.alpha
            if initial_prices is None
            else np.asarray(initial_prices, dtype=float).copy()
        )

        def residual(p: np.ndarray) -> "tuple[np.ndarray, float]":
            target = c + 1.0 / (self.alpha * self.outside_share(valuations, p))
            return target, float(np.max(np.abs(target - p)))

        target, gap = residual(prices)
        step = 1.0
        for _ in range(max_iter):
            if gap < tol * max(1.0, float(np.max(np.abs(prices)))):
                return target
            while step > 1e-12:
                candidate = prices + step * (target - prices)
                cand_target, cand_gap = residual(candidate)
                if cand_gap < gap:
                    prices, target, gap = candidate, cand_target, cand_gap
                    step = min(1.0, step * 2.0)
                    break
                step *= 0.5
            else:
                raise OptimizationError(
                    "fixed-point price iteration stalled (step underflow)"
                )
        raise OptimizationError(
            f"fixed-point price iteration did not converge in {max_iter} steps"
        )

    def uniform_price(self, valuations: np.ndarray, costs: np.ndarray) -> float:
        """Optimal single (blended) price for all flows.

        A uniformly-priced set of flows is exactly equivalent to one
        composite flow (Eqs. 10–11), so this reduces to a single-flow
        markup problem.
        """
        v_bundle, c_bundle = self.compose_bundle(valuations, costs)
        markup = self.optimal_markup(np.array([v_bundle]), np.array([c_bundle]))
        return c_bundle + markup

    def compose_bundle(
        self, valuations: np.ndarray, costs: np.ndarray
    ) -> "tuple[float, float]":
        """Eqs. 10–11: the composite (valuation, cost) of a uniform bundle."""
        validate_arrays(valuations, costs)
        v = np.asarray(valuations, dtype=float)
        c = np.asarray(costs, dtype=float)
        x = self.alpha * v
        shift = x.max()
        w = np.exp(x - shift)
        v_bundle = (shift + np.log(w.sum())) / self.alpha
        c_bundle = float(np.sum(c * w) / w.sum())
        return float(v_bundle), c_bundle

    def bundle_prices(
        self,
        valuations: np.ndarray,
        costs: np.ndarray,
        bundles: list,
    ) -> np.ndarray:
        """Jointly optimal per-flow prices under a bundling constraint.

        Each bundle is collapsed to its composite flow; the composites are
        priced jointly (equal markup across bundles); every member then
        inherits its bundle's price.  Because composition is exact, this is
        the true optimum among bundle-uniform price vectors.
        """
        validate_arrays(valuations, costs)
        v = np.asarray(valuations, dtype=float)
        c = np.asarray(costs, dtype=float)
        composites_v = []
        composites_c = []
        for members in bundles:
            idx = np.asarray(members, dtype=int)
            vb, cb = self.compose_bundle(v[idx], c[idx])
            composites_v.append(vb)
            composites_c.append(cb)
        bundle_price = self.optimal_prices(
            np.asarray(composites_v), np.asarray(composites_c)
        )
        prices = np.empty_like(v)
        for b, members in enumerate(bundles):
            prices[np.asarray(members, dtype=int)] = bundle_price[b]
        return prices

    def potential_profits(
        self, valuations: np.ndarray, costs: np.ndarray
    ) -> np.ndarray:
        """Per-flow profit contribution at the jointly optimal prices.

        At the optimum every flow carries the same markup ``m``, so flow
        ``i`` contributes ``s_i(P*) m`` — proportional to
        ``e^{alpha (v_i - c_i)}``.  (Eq. 13 in the paper approximates this
        with the observed demand ``q_i``, which coincides when costs are
        uniform; we use the exact contribution.)
        """
        prices = self.optimal_prices(valuations, costs)
        s = self.shares(valuations, prices)
        profits = s * (prices - np.asarray(costs, dtype=float))
        # Shares of hopeless flows can underflow to exactly zero; floor at
        # the smallest positive float so weight-based bundling (which
        # requires strictly positive weights) still ranks them last.
        return np.maximum(profits, np.finfo(float).tiny)

    # ------------------------------------------------------------------
    # Optimal-bundling DP objective
    # ------------------------------------------------------------------

    def bundle_objective(
        self, valuations: np.ndarray, costs: np.ndarray
    ) -> "LogitBundleObjective":
        return LogitBundleObjective(self.alpha, valuations, costs)

    def describe(self) -> str:
        return f"logit demand (alpha={self.alpha}, s0={self.s0})"

    def __repr__(self) -> str:
        return f"LogitDemand(alpha={self.alpha}, s0={self.s0})"


class LogitBundleObjective(BundleObjective):
    """O(1) per-bundle attractiveness over a fixed flow order.

    Optimal logit profit is ``m (1 - s0)`` with both ``m`` and ``s0``
    determined by the aggregate attractiveness
    ``A = sum_b exp(alpha (v_b - c_b))`` — and profit is strictly increasing
    in ``A``.  Each bundle contributes
    ``(sum_i w_i) * exp(-alpha c_bar)`` with ``w_i = e^{alpha v_i}`` and
    ``c_bar`` the w-weighted mean cost, so maximizing the summed slice
    scores maximizes profit.  Scores are normalized by a global constant
    (harmless for the argmax) to stay inside float range.
    """

    def __init__(self, alpha: float, valuations: np.ndarray, costs: np.ndarray) -> None:
        self.alpha = alpha
        v = np.asarray(valuations, dtype=float)
        c = np.asarray(costs, dtype=float)
        x = alpha * v
        w = np.exp(x - x.max())
        self._w_prefix = np.concatenate(([0.0], np.cumsum(w)))
        self._cw_prefix = np.concatenate(([0.0], np.cumsum(c * w)))
        self._c_shift = float(c.min())

    def slice_score(self, i: int, j: int) -> float:
        w_sum = self._w_prefix[j] - self._w_prefix[i]
        cw_sum = self._cw_prefix[j] - self._cw_prefix[i]
        if w_sum <= 0:
            return 0.0
        c_bar = cw_sum / w_sum
        return w_sum * float(np.exp(-self.alpha * (c_bar - self._c_shift)))

    def slice_scores(self, starts: np.ndarray, end: int) -> np.ndarray:
        w_sum = self._w_prefix[end] - self._w_prefix[starts]
        cw_sum = self._cw_prefix[end] - self._cw_prefix[starts]
        with np.errstate(divide="ignore", invalid="ignore"):
            c_bar = cw_sum / w_sum
            scores = w_sum * np.exp(-self.alpha * (c_bar - self._c_shift))
        return np.where(w_sum <= 0, 0.0, scores)
