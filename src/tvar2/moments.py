"""Multi-step forecasts, forecast-error variance and unconditional moments.

The k-step predictor and its mean square error are finite sums over the
Green functions; unconditional mean, variance and autocovariances are the
corresponding infinite series, truncated with an explicit tail test and an
honest convergence flag (non-convergence is data, not an error: explosive
schedules are legitimate forecasting inputs).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .schedules import Schedule
from .solution import general_solution
from .xi import green_functions, xi_stream

DEFAULT_TOL = 1e-12
DEFAULT_N_MAX = 10_000


@dataclass(frozen=True)
class ForecastResult:
    anchor: int
    horizon: int
    point: float
    error_weights: np.ndarray   # xi_{t,i}, i = 0..k-1
    mse: float

    @property
    def finite(self) -> bool:
        """Whether the point forecast and its mean square error are both
        finite: an explosive schedule overflows them instead of raising."""
        return math.isfinite(self.point) and math.isfinite(self.mse)


@dataclass(frozen=True)
class MomentSummary:
    anchor: int
    depth: int
    mean: float
    variance: float
    tail_bound: float
    converged: bool

    @property
    def second_moment(self) -> float:
        return self.mean ** 2 + self.variance


@dataclass(frozen=True)
class Autocovariance:
    anchor: int
    lag: int
    depth: int
    value: float
    tail_bound: float
    converged: bool


def forecast(schedule: Schedule, t: int, k: int,
             y_init: tuple[float, float]) -> ForecastResult:
    """Optimal (least-squares) linear k-step predictor of y_t from
    (y_{t-k}, y_{t-k-1}): the general solution without innovations, with
    its error weights and mean square error."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sol = general_solution(schedule, t, k)
    point = sol.w0 * y_init[0] + sol.w1 * y_init[1] + sol.drift
    sigma2 = schedule.window(t - k + 1, t)[::-1, 3]
    with np.errstate(over="ignore", invalid="ignore"):
        mse = sum((sol.innovation_weights ** 2 * sigma2).tolist())
    return ForecastResult(int(t), int(k), float(point), sol.innovation_weights,
                          float(mse))


def forecast_error_weights(schedule: Schedule, t: int, k: int) -> np.ndarray:
    """Moving-average weights [xi_{t,0}, ..., xi_{t,k-1}] of the k-step
    forecast error."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return green_functions(schedule, t, k - 1).values.copy()


def _tail_window(tol: float) -> int:
    return max(10, math.ceil(math.log(1.0 / tol)))


def _truncated_sum(terms: Iterable[float], tol: float,
                   n_max: int) -> tuple[float, int, float, bool]:
    """Sum terms one at a time until the last window of them is negligible
    relative to a finite partial sum, or n_max is hit, or a term is not
    finite; no term past the one that decides is read.

    Returns (value, n_used, tail_bound, converged); tail_bound is the sum of
    absolute values over the final window, an empirical residual indicator.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite (got {tol})")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    window = _tail_window(tol)
    recent = deque(maxlen=window)
    total, n = 0.0, 0
    for term in terms:
        if not math.isfinite(term):
            return total, n, math.inf, False
        total += term
        size = abs(term)
        recent.append(size)
        n += 1
        bar = tol * max(1.0, abs(total))
        # the window holds this term, so its maximum is under the bar only
        # if this term is: most terms of a long series stop at the first test
        if (size < bar and n >= window and math.isfinite(total)
                and max(recent) < bar):
            return total, n, float(sum(recent)), True
        if n >= n_max:
            break
    return total, n, float(sum(recent)), False


def _column(schedule: Schedule, t: int, j: int) -> Iterator[float]:
    """Coefficient column j (phi0, phi1, phi2, sigma2) at times t, t-1, ...,
    down to the schedule's earliest time: only a value past it raises."""
    for rows in schedule.walk_back(t, schedule.earliest):
        yield from rows[:, j].tolist()


def _mean_terms(schedule: Schedule, t: int) -> Iterator[float]:
    """Terms of E(y_t): xi_{t,i} * phi0(t-i)."""
    return (x * p for x, p in zip(xi_stream(schedule, t), _column(schedule, t, 0)))


def _covariance_terms(schedule: Schedule, t: int, k: int) -> Iterator[float]:
    """Terms of Cov(y_t, y_{t-k}): xi_{t,k+i} * xi_{t-k,i} * sigma2(t-k-i)."""
    anchor = islice(xi_stream(schedule, t), k, None)
    sigma2 = _column(schedule, t - k, 3)
    if not k:
        return (x * x * s for x, s in zip(anchor, sigma2))
    lagged = xi_stream(schedule, t - k)
    return (a * b * s for a, b, s in zip(anchor, lagged, sigma2))


def unconditional_mean(schedule: Schedule, t: int, tol: float = DEFAULT_TOL,
                       n_max: int = DEFAULT_N_MAX) -> MomentSummary:
    """Truncated series for E(y_t): sum of xi_{t,i} * phi0(t-i)."""
    value, n, tail, converged = _truncated_sum(_mean_terms(schedule, t), tol,
                                               n_max)
    return MomentSummary(int(t), n, value, math.nan, tail, converged)


def unconditional_variance(schedule: Schedule, t: int, tol: float = DEFAULT_TOL,
                           n_max: int = DEFAULT_N_MAX) -> MomentSummary:
    """Truncated series for Var(y_t), the lag-0 autocovariance:
    sum of xi_{t,i}^2 * sigma2(t-i).

    The summary also carries the mean, so ``second_moment`` is available.
    """
    var = autocovariance(schedule, t, 0, tol, n_max)
    mean = unconditional_mean(schedule, t, tol, n_max)
    return MomentSummary(int(t), max(var.depth, mean.depth), mean.mean,
                         var.value, max(var.tail_bound, mean.tail_bound),
                         var.converged and mean.converged)


def autocovariance(schedule: Schedule, t: int, k: int, tol: float = DEFAULT_TOL,
                   n_max: int = DEFAULT_N_MAX) -> Autocovariance:
    """Cov(y_t, y_{t-k}) via the series sum of
    xi_{t,k+i} * xi_{t-k,i} * sigma2(t-k-i)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    value, n, tail, converged = _truncated_sum(
        _covariance_terms(schedule, t, k), tol, n_max)
    return Autocovariance(int(t), int(k), n, value, tail, converged)


def autocovariance_recursion(schedule: Schedule, t: int, k: int,
                             tol: float = DEFAULT_TOL,
                             n_max: int = DEFAULT_N_MAX) -> Autocovariance:
    """Cov(y_t, y_{t-k}) via the recursion form
    xi_{t,k} * Var(y_{t-k}) + phi2(t-k+1) * xi_{t,k-1} * Cov(y_{t-k}, y_{t-k-1}):
    the general solution's weights w0, w1 on the series moments at t-k."""
    if k < 1:
        raise ValueError("recursion form requires k >= 1")
    sol = general_solution(schedule, t, k)
    var = autocovariance(schedule, t - k, 0, tol, n_max)
    cov1 = autocovariance(schedule, t - k, 1, tol, n_max)
    value = sol.w0 * var.value + sol.w1 * cov1.value
    return Autocovariance(int(t), int(k), max(var.depth, cov1.depth),
                          float(value), max(var.tail_bound, cov1.tail_bound),
                          var.converged and cov1.converged)


@dataclass(frozen=True)
class TailDiagnostic:
    """Empirical (not rigorous) check of the summability assumption behind
    the infinite moving-average representation."""

    max_weighted_square_sum: float
    square_sums_bounded: bool
    max_drift_increment: float
    drift_increments_small: bool

    @property
    def passed(self) -> bool:
        return self.square_sums_bounded and self.drift_increments_small


def assumption_a1_diagnostic(schedule: Schedule, t_window: Iterable[int],
                             n: int, bound: float,
                             tol: float = DEFAULT_TOL) -> TailDiagnostic:
    """Over anchors in t_window, accumulate the first n+1 terms of the
    squared-weight variance series and the drift series; report whether the
    former stays under ``bound`` and the latter's tail increments under the
    relative tolerance."""
    if n < 1:
        raise ValueError("n must be >= 1")
    window = _tail_window(tol)
    max_sq = 0.0
    max_inc = 0.0
    for t in t_window:
        max_sq = max(max_sq, sum(islice(_covariance_terms(schedule, t, 0),
                                        n + 1)))
        drift = list(islice(_mean_terms(schedule, t), n + 1))
        scale = max(1.0, abs(sum(drift)))
        max_inc = max(max_inc, max(abs(d) for d in drift[-window:]) / scale)
    return TailDiagnostic(max_sq, bool(max_sq < bound),
                          max_inc, bool(max_inc < tol))
