"""Multi-step forecasts, forecast-error variance and unconditional moments.

The k-step predictor and its mean square error are finite sums over the
Green functions.  On a constant, periodic or cyclical schedule one product
of the period matrix M and the verdict on it (``_season_moments``) decide
how a moment is obtained.  Where the verdict is stationary the moments are
exact: the fixed point of the period map.  Where it is explosive and M has
a real root larger in modulus than the other, an autocovariance is +inf or
-inf, the sign its partial sums grow with.  Every other moment, the mean
of an explosive schedule included, is its infinite series, summed term by
term by one loop (``_truncated_sum``) with an explicit tail test and an
honest convergence flag (non-convergence is data, not an error).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .schedules import Schedule
from .solution import _propagate, _running_sums, _solution, general_solution
from .vs import _float, _period_pairs, _verdict
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
    season moments) has depth 0, tail_bound 0.0 and converged True; an
    explosive one is +inf or -inf, with depth 0, tail_bound inf and
    converged False."""

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


def _tail_window(tol: float, n_max: int = 1) -> int:
    """Terms in the trailing window that must be negligible; rejects a tol
    that is not positive and finite, then an n_max below 1: the arguments
    of a series, checked in that order also where no series is summed."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite (got {tol})")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return max(10, math.ceil(math.log(1.0 / tol)))


def _truncated_sum(terms: Iterable[float], tol: float,
                   n_max: int) -> tuple[float, int, float, bool]:
    """Sum terms one at a time until the last window of them is negligible
    relative to a finite partial sum, or n_max is hit, or a term is not
    finite; no term past the one that decides is read.

    Returns (value, n_used, tail_bound, converged); tail_bound is the sum of
    absolute values over the final window, an empirical residual indicator.
    """
    window = _tail_window(tol, n_max)
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


def _xi_prefix(schedule: Schedule, t: int, d: int) -> np.ndarray:
    """xi_{t,0}, ..., xi_{t,d-1} of a tiled schedule, kept in its season
    cache under "xi" (``Schedule.season_cached``).  One too short is read
    again from t, twice as long as asked but no longer than the cache has
    room for, so the lags 0..K of one anchor walk O(K) steps of xi."""
    def read() -> np.ndarray:
        n = max(d, min(2 * d, schedule.season_room("xi", t)))
        values = np.fromiter(xi_stream(schedule, t, t - n + 2), float, n)
        values.flags.writeable = False
        return values
    return schedule.season_cached("xi", t, read,
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


def _fixed_points(m: tuple, d: tuple, w: tuple) -> tuple:
    """(mu, Sigma) with mu = M mu + d and Sigma = M Sigma M^T + W, for
    M's entries m = (m00, m01, m10, m11), of radius below one, d = (d0, d1)
    and the symmetric W and Sigma as (P00, P01, P11), by Smith's
    doubling.  mu = sum_j M^j d and Sigma = sum_j M^j W M^jT are summed as
    (mu + A mu, X + A X A^T) with A squared at each step, from (d, W) and
    A = M, until a step adds nothing (at most 64 steps; A is then
    M^(2^64)).  No step divides, and every term of Sigma's sum is positive
    semidefinite."""
    a00, a01, a10, a11 = m
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


def _stationary_moments(rows: tuple, m: tuple) -> np.ndarray:
    """Rows (m0, m1, P00, P01, P11), the stationary mean and covariance of
    the state x_t = (y_t, y_{t-1}) at each season of the season table
    ``rows`` (``Schedule._season_table``, rows of Python floats), in season
    order, for its period matrix M of radius below one.  One period of
    ``_propagate`` from zero ends at the last season with the period map's
    drift d and noise W; the state there solves mu = M mu + d and Sigma =
    M Sigma M^T + W in Python floats (``_fixed_points``), and
    ``_propagate`` carries it through seasons 1 .. l-1."""
    drift, noise = _propagate(rows)
    mean, cov = _fixed_points(m, drift, noise)
    seasons = [mean + cov]
    for row in range(len(rows) - 1):
        mean, cov = _propagate(rows[row:row + 1], mean, cov)
        seasons.append(mean + cov)
    return np.array(seasons[1:] + seasons[:1])


def _dominant_directions(rows: tuple, m: tuple) -> np.ndarray:
    """Rows (u0, lambda) at each season of the season table ``rows`` (rows
    of Python floats), in season order, where its period matrix M has a
    real root lambda larger in modulus than the other; none where they are
    complex or tie in modulus (or M is not finite).  u is M's eigenvector
    for lambda at the last
    season and A_s u of season s-1 at season s, scaled by powers of two to
    stay in range.  Started from zero, the state covariance grows as a
    positive multiple of u u^T (the power method)."""
    m00, m01, m10, m11 = m
    a = m00 + m11
    disc = a * a - 4.0 * (m00 * m11 - m01 * m10)
    if not (disc > 0.0 and a):   # complex, tied in modulus, or not finite
        return np.empty((0, 2))
    lam = (a + math.copysign(math.sqrt(disc), a)) / 2
    # (M - lambda I) u = 0 by M's first row, or its second where that row is 0
    u0, u1 = (m01, lam - m00) if m01 or lam != m00 else (lam - m11, m10)
    seasons = []
    for _, phi1, phi2, _ in rows:
        e = math.frexp(max(abs(u0), abs(u1)))[1]
        u0, u1 = math.ldexp(u0, -e), math.ldexp(u1, -e)
        u0, u1 = phi1 * u0 + phi2 * u1, u0
        seasons.append((u0, lam))
    return np.array(seasons)


def _season_moments(schedule: Schedule) -> np.ndarray | None:
    """What one product of a tiled schedule's period matrix
    (``vs._period_pairs``) and the verdict on it allow, one read-only
    float64 season-cache entry for all seasons, both read from the tuple
    season table: (l, 5) ``_stationary_moments`` where stationary, (l, 2)
    ``_dominant_directions`` where explosive.  None where
    every moment is a series: generic and abrupt-breaks schedules, an
    indeterminate verdict, or a radius or an entry past the float range."""
    if schedule._season_cache is None:
        return None

    def compute() -> np.ndarray:
        pairs = _period_pairs(schedule)
        try:
            stationary = _verdict(pairs).stationary
        except ArithmeticError:   # a radius past the float range
            stationary = None
        entry = np.empty((0, 5))
        if stationary is not None:
            solve = _stationary_moments if stationary else _dominant_directions
            entry = solve(schedule._season_table, tuple(map(_float, pairs)))
        if not np.isfinite(entry).all():
            entry = np.empty((0, 5))
        entry.flags.writeable = False
        return entry
    seasons = schedule.season_cached("moments", 1, compute)
    return seasons if len(seasons) else None


def unconditional_mean(schedule: Schedule, t: int, tol: float = DEFAULT_TOL,
                       n_max: int = DEFAULT_N_MAX) -> MomentSummary:
    """E(y_t): mu_{s(t)}[0] of the season moments where a schedule has
    them (``_season_moments``; tol and n_max are only checked), else the
    truncated series ``_series_mean``, on an explosive schedule too."""
    seasons = _season_moments(schedule)
    if seasons is None or seasons.shape[1] == 2:   # none, or directions
        return _series_mean(schedule, t, tol, n_max)
    _tail_window(tol, n_max)
    return MomentSummary(int(t), 0, float(seasons[(t - 1) % len(seasons), 0]),
                         math.nan, 0.0, True)


def _series_mean(schedule: Schedule, t: int, tol: float,
                 n_max: int) -> MomentSummary:
    """Truncated series for E(y_t): sum of xi_{t,i} * phi0(t-i)."""
    value, n, tail, converged = _truncated_sum(_mean_terms(schedule, t), tol,
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
    (``_season_moments``; tol and n_max are only checked), with (w0, w1) =
    (xi_{t,k}, phi2(t-k+1) xi_{t,k-1}) the first row of A_t ... A_{t-k+1},
    a stationary row is exact, w0 P00 + w1 P01 of season s(t-k), w from the
    cached ``_xi_prefix``.  An explosive one is copysign(inf, c), depth 0,
    tail bound inf, converged False: c = (w0 u0 + w1 u1) u0 = lambda^n v0
    u0, u and v the directions of seasons s(t-k) and s(t), n the periods
    that end in between.  Where c is 0, and on every other schedule, it is
    the truncated series ``_series_autocovariance``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    seasons = _season_moments(schedule)
    if seasons is not None:
        _tail_window(tol, n_max)
        period = len(seasons)
        row = seasons[(t - k - 1) % period].tolist()
        if len(row) == 5:   # (m0, m1, P00, P01, P11)
            w0, w1 = 1.0, 0.0
            if k:
                xi = _xi_prefix(schedule, t, k + 1)
                phi2 = schedule._season_table[(t - k) % period][2]
                w0, w1 = float(xi[k]), phi2 * float(xi[k - 1])
            return Autocovariance(int(t), int(k), 0, w0 * row[2] + w1 * row[3],
                                  0.0, True)
        u0, lam = row
        v0 = float(seasons[(t - 1) % period, 0])
        if u0 and v0:   # a product past the float range keeps its sign
            n = (t - 1) // period - (t - k - 1) // period
            c = math.copysign(1.0, lam) ** n * v0 * u0
            return Autocovariance(int(t), int(k), 0, math.copysign(math.inf, c),
                                  math.inf, False)
    return _series_autocovariance(schedule, t, k, tol, n_max)


def _series_autocovariance(schedule: Schedule, t: int, k: int, tol: float,
                           n_max: int) -> Autocovariance:
    """Cov(y_t, y_{t-k}) via the series sum of
    xi_{t,k+i} * xi_{t-k,i} * sigma2(t-k-i)."""
    value, n, tail, converged = _truncated_sum(
        _covariance_terms(schedule, t, k), tol, n_max)
    return Autocovariance(int(t), int(k), n, value, tail, converged)


def autocovariance_recursion(schedule: Schedule, t: int, k: int,
                             tol: float = DEFAULT_TOL,
                             n_max: int = DEFAULT_N_MAX) -> Autocovariance:
    """Cov(y_t, y_{t-k}) via the recursion form
    xi_{t,k} * Var(y_{t-k}) + phi2(t-k+1) * xi_{t,k-1} * Cov(y_{t-k}, y_{t-k-1}):
    the general solution's weights w0, w1 on the moments at t-k of
    ``autocovariance``; on an explosive schedule with dominant directions,
    whose moments are +-inf, ``autocovariance`` itself."""
    if k < 1:
        raise ValueError("recursion form requires k >= 1")
    seasons = _season_moments(schedule)
    if seasons is not None and seasons.shape[1] == 2:   # directions
        return autocovariance(schedule, t, k, tol, n_max)
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
