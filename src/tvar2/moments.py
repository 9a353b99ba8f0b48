"""Multi-step forecasts, forecast-error variance and unconditional moments.

The k-step predictor and its mean square error are finite sums over the
Green functions.  On a constant, periodic or cyclical schedule whose
verdict (``stationarity_check``) is stationary, the unconditional mean,
variance and autocovariances are exact: they read the stationary moments
of the state (y_t, y_{t-1}) at each season, the fixed point of the period
map (``_stationary_moments``).  On every other schedule they are the
corresponding infinite series, truncated with an explicit tail test and
an honest convergence flag (non-convergence is data, not an error:
explosive schedules are legitimate forecasting inputs).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .schedules import Schedule
from .solution import _propagate, _running_sums, _solution, general_solution
from .vs import stationarity_check
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
    """The mean and variance of y at ``anchor``, with the depth, tail bound
    and convergence of their series.  An exact summary (a schedule with
    stationary season moments) has depth 0, tail_bound 0.0 and converged
    True."""

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
    """Cov(y_anchor, y_{anchor-lag}), with the depth, tail bound and
    convergence of its series.  An exact one (a schedule with stationary
    season moments) has depth 0, tail_bound 0.0 and converged True."""

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
    its error weights and mean square error, all from one window read."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = schedule.window(t - k + 1, t)[::-1]
    w0, w1, drift, weights = _solution(rows)
    point = w0 * y_init[0] + w1 * y_init[1] + drift
    with np.errstate(over="ignore", invalid="ignore"):
        mse = _running_sums(weights ** 2 * rows[:, 3])[-1]
    return ForecastResult(int(t), int(k), float(point), weights, float(mse))


def forecast_error_weights(schedule: Schedule, t: int, k: int) -> np.ndarray:
    """Moving-average weights [xi_{t,0}, ..., xi_{t,k-1}] of the k-step
    forecast error."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return green_functions(schedule, t, k - 1).values.copy()


def _tail_window(tol: float) -> int:
    """Terms in the trailing window that must be negligible; rejects a tol
    that is not positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite (got {tol})")
    return max(10, math.ceil(math.log(1.0 / tol)))


def _series_window(tol: float, n_max: int) -> int:
    """``_tail_window(tol)``, once ``n_max`` is checked too: the arguments
    of a series, checked in that order also where no series is summed."""
    window = _tail_window(tol)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return window


_FIRST_PREFIX = 64   # terms of an array series' first prefix; each next is 4x
_WINDOW_FLOATS = 1 << 16   # sizes a prefix's window test copies at a time


def _truncated_sum(terms: Iterable[float] | Callable[[int], np.ndarray],
                   tol: float, n_max: int) -> tuple[float, int, float, bool]:
    """Sum terms until the last window of them is negligible relative to a
    finite partial sum, or n_max is hit, or a term is not finite.

    ``terms`` is an iterable of terms, added one at a time, and no term
    past the one that decides is read: the path of generic and
    abrupt-breaks schedules.  Or it is a function returning the first d
    terms as an array, the path of constant, periodic and cyclical ones
    (see ``Schedule.season_cached``): d grows from _FIRST_PREFIX fourfold
    up to n_max until a prefix decides, so it reads terms past the one
    that decides, and the result is the one the iterable of the same terms
    gives, to the bit.

    Returns (value, n_used, tail_bound, converged); tail_bound is the sum of
    absolute values over the final window, an empirical residual indicator.
    """
    window = _series_window(tol, n_max)
    if callable(terms):
        d = min(_FIRST_PREFIX, n_max)
        # an explosive series overflows its products and sums to inf, and
        # inf * 0 or inf - inf to nan, as the loop's floats do silently
        with np.errstate(over="ignore", invalid="ignore"):
            while (decided := _decide(terms(d), tol, n_max, window)) is None:
                d = min(4 * d, n_max)
        return decided
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


def _decide(terms: np.ndarray, tol: float, n_max: int,
            window: int) -> tuple[float, int, float, bool] | None:
    """What adding the prefix ``terms`` one at a time decides, as the loop
    of ``_truncated_sum`` does; None if it decides nothing before its end
    and a longer prefix may still be read."""
    d = len(terms)
    finite = np.isfinite(terms)
    m = d if finite.all() else int(finite.argmin())   # terms before a non-finite one
    sizes = np.abs(terms[:m])
    # totals[n] is the sum of the first n terms, as `total += term` adds them
    totals = _running_sums(terms[:m])
    bars = tol * np.maximum(1.0, np.abs(totals[1:]))
    # term n, at index n - 1, stops the sum if it is under its bar with a
    # finite total, and the window of terms ending at it is too
    ends = np.flatnonzero((sizes < bars) & np.isfinite(totals[1:]))
    ends = ends[ends >= window - 1]
    back = np.arange(window)
    step = max(1, _WINDOW_FLOATS // window)
    for lo in range(0, len(ends), step):   # a bounded block of windows at a time
        part = ends[lo:lo + step]
        part = part[sizes[part[:, None] - back].max(axis=1) < bars[part]]
        if len(part):
            n = int(part[0]) + 1
            return (float(totals[n]), n, float(sum(sizes[n - window:n].tolist())),
                    True)
    if m < d:
        return float(totals[m]), m, math.inf, False
    if d < n_max:
        return None
    return float(totals[d]), d, float(sum(sizes[-window:].tolist())), False


def _column(schedule: Schedule, t: int, j: int) -> Iterator[float]:
    """Coefficient column j (phi0, phi1, phi2, sigma2) at times t, t-1, ...,
    down to the schedule's earliest time: only a value past it raises."""
    for rows in schedule.walk_back(t, schedule.earliest):
        yield from rows[:, j].tolist()


def _season_prefix(schedule: Schedule, stream: str, t: int, d: int,
                   longer: int = _FIRST_PREFIX) -> np.ndarray:
    """The first d values of a stream at time t of a schedule with a
    season cache: ``"xi"`` is xi_{t,0}, xi_{t,1}, ... from ``xi_stream``;
    ``"phi0"`` and ``"sigma2"`` are that column at t, t-1, ....  Each
    depends only on the season of t, so it is kept in the season cache
    under the tag ``stream`` (``Schedule.season_cached``).  One too short
    is read again from t, ``longer`` values longer than asked, so the
    longer anchors of the next lags fit in it."""
    def read() -> np.ndarray:
        n = d + longer
        if stream == "xi":
            values = np.fromiter(xi_stream(schedule, t, t - n + 2), float, n)
        else:
            column = 0 if stream == "phi0" else 3
            values = schedule.window(t - n + 1, t)[::-1, column].copy()
        values.flags.writeable = False
        return values
    return schedule.season_cached(stream, t, read,
                                  lambda values: len(values) >= d)[:d]


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


def _mean_series(schedule: Schedule, t: int):
    """The terms of E(y_t) as ``_truncated_sum`` reads them: the first d
    as one array on a tiled schedule, else ``_mean_terms``."""
    if schedule._season_cache is None:
        return _mean_terms(schedule, t)

    def prefix(d: int) -> np.ndarray:
        return (_season_prefix(schedule, "xi", t, d)
                * _season_prefix(schedule, "phi0", t, d))
    return prefix


def _covariance_series(schedule: Schedule, t: int, k: int):
    """The terms of Cov(y_t, y_{t-k}) as ``_truncated_sum`` reads them: the
    first d as one array on a tiled schedule, in the operand order of
    ``_covariance_terms``, else ``_covariance_terms``."""
    if schedule._season_cache is None:
        return _covariance_terms(schedule, t, k)

    def prefix(d: int) -> np.ndarray:
        return (_season_prefix(schedule, "xi", t, k + d)[k:]
                * _season_prefix(schedule, "xi", t - k, d)
                * _season_prefix(schedule, "sigma2", t - k, d))
    return prefix


def _fixed_points(m: tuple, d: tuple, w: tuple) -> tuple:
    """(mu, Sigma) with mu = M mu + d and Sigma = M Sigma M^T + W, for
    M = ((m00, m01), (m10, m11)) of spectral radius below one, d = (d0, d1)
    and the symmetric W and Sigma as (P00, P01, P11), by Smith's
    doubling.  mu = sum_j M^j d and Sigma = sum_j M^j W M^jT are summed as
    (mu + A mu, X + A X A^T) with A squared at each step, from (d, W) and
    A = M, until a step adds nothing (at most 64 steps; A is then
    M^(2^64)).  No step divides, and every term of Sigma's sum is positive
    semidefinite."""
    (a00, a01), (a10, a11) = m
    mean, cov = d, w
    for _ in range(64):
        (u0, u1), (x00, x01, x11) = mean, cov
        b00, b01 = a00 * x00 + a01 * x01, a00 * x01 + a01 * x11   # (A X)[0]
        b10, b11 = a10 * x00 + a11 * x01, a10 * x01 + a11 * x11   # (A X)[1]
        step = ((u0 + (a00 * u0 + a01 * u1), u1 + (a10 * u0 + a11 * u1)),
                (x00 + (b00 * a00 + b01 * a01), x01 + (b00 * a10 + b01 * a11),
                 x11 + (b10 * a10 + b11 * a11)))
        if step == (mean, cov):
            break
        mean, cov = step
        a00, a01, a10, a11 = (a00 * a00 + a01 * a10, a00 * a01 + a01 * a11,
                              a10 * a00 + a11 * a10, a10 * a01 + a11 * a11)
    return mean, cov


def _stationary_moments(schedule: Schedule) -> np.ndarray:
    """Rows (m0, m1, P00, P01, P11), the stationary mean and covariance of
    the state x_t = (y_t, y_{t-1}) at each season of a schedule tiled by
    season, in season order, where its verdict is stationary; no rows where
    it is not, or where a moment is not finite.  Read-only.

    One period of ``_propagate`` from zero ends at the last season with the
    period map's drift d and noise W.  With the period matrix
    M = A_l ... A_1 the state there solves mu = M mu + d (2 unknowns) and
    Sigma = M Sigma M^T + W (3 unknowns), in Python floats
    (``_fixed_points``); ``_propagate`` then carries it through seasons
    1 .. l-1.
    """
    none = np.empty((0, 5))   # no season moments: the series answers
    try:
        if stationarity_check(schedule).stationary is not True:
            return none
    except ArithmeticError:   # a radius past the float range
        return none
    rows = schedule._season_rows
    drift, noise = _propagate(rows)
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for phi1, phi2 in rows[:, 1:3].tolist():
        m00, m01, m10, m11 = (phi1 * m00 + phi2 * m10,
                              phi1 * m01 + phi2 * m11, m00, m01)
    mean, cov = _fixed_points(((m00, m01), (m10, m11)), drift, noise)
    seasons = [mean + cov]
    for row in range(len(rows) - 1):
        mean, cov = _propagate(rows[row:row + 1], mean, cov)
        seasons.append(mean + cov)
    seasons = np.array(seasons[1:] + seasons[:1])
    if not np.isfinite(seasons).all():
        return none
    seasons.flags.writeable = False
    return seasons


def _season_moments(schedule: Schedule) -> np.ndarray | None:
    """``_stationary_moments(schedule)``, one entry of the season cache for
    all seasons (kept under the season of time 1), or None where moments
    are series: on a generic or abrupt-breaks schedule, and where that
    entry has no rows."""
    if schedule._season_cache is None:
        return None
    seasons = schedule.season_cached(
        "moments", 1, lambda: _stationary_moments(schedule))
    return seasons if len(seasons) else None


def unconditional_mean(schedule: Schedule, t: int, tol: float = DEFAULT_TOL,
                       n_max: int = DEFAULT_N_MAX) -> MomentSummary:
    """E(y_t): mu_{s(t)}[0] of the season moments where a schedule has
    them (``_season_moments``; tol and n_max are only checked), else the
    truncated series ``_series_mean``."""
    seasons = _season_moments(schedule)
    if seasons is None:
        return _series_mean(schedule, t, tol, n_max)
    _series_window(tol, n_max)
    return MomentSummary(int(t), 0, float(seasons[(t - 1) % len(seasons), 0]),
                         math.nan, 0.0, True)


def _series_mean(schedule: Schedule, t: int, tol: float,
                 n_max: int) -> MomentSummary:
    """Truncated series for E(y_t): sum of xi_{t,i} * phi0(t-i)."""
    value, n, tail, converged = _truncated_sum(_mean_series(schedule, t), tol,
                                               n_max)
    return MomentSummary(int(t), n, value, math.nan, tail, converged)


def unconditional_variance(schedule: Schedule, t: int, tol: float = DEFAULT_TOL,
                           n_max: int = DEFAULT_N_MAX) -> MomentSummary:
    """Var(y_t), the lag-0 autocovariance: exact where the schedule has
    season moments, else the truncated series of xi_{t,i}^2 * sigma2(t-i).

    The summary also carries the mean, so ``second_moment`` is available.
    """
    var = autocovariance(schedule, t, 0, tol, n_max)
    mean = unconditional_mean(schedule, t, tol, n_max)
    return MomentSummary(int(t), max(var.depth, mean.depth), mean.mean,
                         var.value, max(var.tail_bound, mean.tail_bound),
                         var.converged and mean.converged)


def autocovariance(schedule: Schedule, t: int, k: int, tol: float = DEFAULT_TOL,
                   n_max: int = DEFAULT_N_MAX) -> Autocovariance:
    """Cov(y_t, y_{t-k}).  Where the schedule has season moments
    (``_season_moments``; tol and n_max are only checked) it is
    e1' A_t ... A_{t-k+1} Sigma_{s(t-k)} e1: the product's first row is the
    general solution's (w0, w1) = (xi_{t,k}, phi2(t-k+1) * xi_{t,k-1}),
    read from the season's cached xi prefix, so the lags of one anchor
    share it: a prefix too short is read again twice as long.  Else the
    truncated series ``_series_autocovariance``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    seasons = _season_moments(schedule)
    if seasons is None:
        return _series_autocovariance(schedule, t, k, tol, n_max)
    _series_window(tol, n_max)
    period = len(seasons)
    p00, p01 = seasons[(t - k - 1) % period, 2:4].tolist()
    value = p00
    if k:
        xi = _season_prefix(schedule, "xi", t, k + 1, k + 1)
        phi2 = schedule._season_rows[(t - k) % period, 2]
        value = float(xi[k]) * p00 + float(phi2) * float(xi[k - 1]) * p01
    return Autocovariance(int(t), int(k), 0, value, 0.0, True)


def _series_autocovariance(schedule: Schedule, t: int, k: int, tol: float,
                           n_max: int) -> Autocovariance:
    """Cov(y_t, y_{t-k}) via the series sum of
    xi_{t,k+i} * xi_{t-k,i} * sigma2(t-k-i)."""
    value, n, tail, converged = _truncated_sum(
        _covariance_series(schedule, t, k), tol, n_max)
    return Autocovariance(int(t), int(k), n, value, tail, converged)


def autocovariance_recursion(schedule: Schedule, t: int, k: int,
                             tol: float = DEFAULT_TOL,
                             n_max: int = DEFAULT_N_MAX) -> Autocovariance:
    """Cov(y_t, y_{t-k}) via the recursion form
    xi_{t,k} * Var(y_{t-k}) + phi2(t-k+1) * xi_{t,k-1} * Cov(y_{t-k}, y_{t-k-1}):
    the general solution's weights w0, w1 on the moments at t-k of
    ``autocovariance``."""
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
