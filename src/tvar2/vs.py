"""Vector-of-seasons VAR(1) form of a periodic AR(2) and stationarity checks.

Stacking one period of observations turns the periodic model into a
constant-coefficient first-order vector autoregression; the process is
stationary when the spectral radius of the implied companion pencil is
below one.  Its nonzero eigenvalues are those of the 2 x 2 period matrix
M = A_l ... A_1, A_s = [[phi1(s), phi2(s)], [1, 0]]; both checks read
(tr M, det M) from the season table of any kind tiled by season, one
product of M in Python floats, each value with an integer exponent kept
beside it, the same on any CPU.  ``build_vs`` stacks periodic ones only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .schedules import PeriodicSchedule, Schedule, ScheduleError

BOUNDARY_BAND = 1e-8


@dataclass(frozen=True)
class VSMatrices:
    """The l x l stacked-form parameter matrices.

    ``phi0_mat`` is unit lower triangular (within-period lags),
    ``phi1_mat`` carries the lags reaching into the previous period.
    """

    period: int
    phi0_mat: np.ndarray
    phi1_mat: np.ndarray


@dataclass(frozen=True)
class StationarityVerdict:
    spectral_radius: float
    margin: float                 # 1 - spectral radius
    stationary: bool | None       # None: indeterminate within tolerance

    @property
    def indeterminate(self) -> bool:
        return self.stationary is None


def build_vs(schedule: PeriodicSchedule) -> VSMatrices:
    """Stack a periodic schedule of at least 2 seasons into its
    vector-of-seasons matrices; ``ScheduleError`` for any other."""
    if not isinstance(schedule, PeriodicSchedule):
        raise ScheduleError("the stacked form needs a periodic schedule "
                            f"(got kind {schedule.kind!r})")
    l = schedule.period
    if l < 2:
        raise ScheduleError("vector-of-seasons form needs at least 2 seasons")
    # season s's row of [phi1_mat | phi0_mat] holds phi2(s), phi1(s) at
    # y_{s-2}, y_{s-1}, negated where they fall in this period
    rows = np.hstack([np.zeros((l, l)), np.eye(l)])
    cols = np.arange(l)[:, None] + np.arange(l - 2, l)
    phi = schedule.window(1, l)[:, 2:0:-1]
    np.put_along_axis(rows, cols, np.where(cols < l, phi, -phi), axis=1)
    return VSMatrices(l, rows[:, l:], rows[:, :l])


def _radius(a: float, b: float) -> float:
    """The larger root modulus of z^2 - a z + b."""
    d = a * a - 4.0 * b
    return math.sqrt(b) if d < 0.0 else (abs(a) + math.sqrt(d)) / 2


def _times(x: tuple, y: tuple) -> tuple:
    """x y of two floats kept as (m, e) = m 2^e, m = 0 or 1/2 <= |m| < 1."""
    m, k = math.frexp(x[0] * y[0])
    return m, x[1] + y[1] + k


def _plus(x: tuple, y: tuple) -> tuple:
    """x + y of two such pairs, aligned at the larger nonzero exponent."""
    e = max(x[1] if x[0] else y[1], y[1] if y[0] else x[1]) + 1
    m, k = math.frexp(math.ldexp(x[0], x[1] - e) + math.ldexp(y[0], y[1] - e))
    return m, e + k


def _float(x: tuple) -> float:
    """The float of such a pair, signed infinity past the float range."""
    big = x[0] and x[1] > sys.float_info.max_exp
    return math.copysign(math.inf, x[0]) if big else math.ldexp(*x)


def _period_pairs(schedule: Schedule) -> tuple:
    """M = A_l ... A_1 from the season table's (phi1, phi2), as its entries
    (m00, m01, m10, m11), each carried as such a pair, so no value over- or
    underflows, and each has the bits of M multiplied out in plain floats
    wherever those stay normal."""
    if schedule._season_table is None:
        raise ScheduleError("the period matrix needs a schedule tiled by "
                            f"season (got kind {schedule.kind!r})")
    one, zero = math.frexp(1.0), math.frexp(0.0)
    m00, m01, m10, m11 = one, zero, zero, one
    for _, phi1, phi2, _ in schedule._season_table:
        p1, p2 = math.frexp(phi1), math.frexp(phi2)
        m00, m01, m10, m11 = (_plus(_times(p1, m00), _times(p2, m10)),
                              _plus(_times(p1, m01), _times(p2, m11)), m00, m01)
    return m00, m01, m10, m11


def _trace_det(m: tuple) -> tuple[tuple, tuple]:
    """(tr M, det M) as such pairs, from the pairs ``_period_pairs`` gives."""
    m00, m01, m10, m11 = m
    return _plus(m00, m11), _plus(_times(m00, m11),
                                  _times(m01, (-m10[0], m10[1])))


def stationarity_check(schedule: Schedule) -> StationarityVerdict:
    """Spectral radius of the period matrix; stationary iff below one.

    The radius is the larger root modulus of z^2 - a z + b, a = tr M and
    b = det M, for any constant, periodic or cyclical schedule.  The roots
    are scaled by a power of two to unit size and the radius scaled back;
    every scaling is exact, so seasons far apart in scale neither overflow
    nor underflow, and a radius past the float range raises
    ``ArithmeticError``.  Within ``BOUNDARY_BAND`` of one the verdict is
    indeterminate.
    """
    return _verdict(_period_pairs(schedule))


def _verdict(m: tuple) -> StationarityVerdict:
    """``stationarity_check`` on the period matrix ``_period_pairs`` gives."""
    (ma, ea), (mb, eb) = _trace_det(m)
    fa, fb = ea, -(-eb // 2)                  # |a| < 2^fa, |b| < 4^fb
    f = max(fa if ma else fb, fb if mb else fa)
    r, k = math.frexp(_radius(math.ldexp(ma, ea - f),
                              math.ldexp(mb, eb - 2 * f)))
    rho = _float((r, f + k))
    if rho == math.inf:
        raise ArithmeticError("overflow in the period matrix's radius")
    margin = 1.0 - rho
    if abs(margin) < BOUNDARY_BAND:
        return StationarityVerdict(rho, margin, None)
    return StationarityVerdict(rho, margin, rho < 1.0)


def par24_restriction(schedule: Schedule) -> tuple[float, bool]:
    """The eight-term restriction for an order-2 model of four seasons.

    With a = tr M and b = det M of the period matrix, whose eigenvalues are
    the roots of z^2 - a z + b, returns (value, satisfied). ``value`` is
    the eight-term expression |a - b|, infinite past the float range; on
    its own it is not a stationarity test, since ``|a - b| < 1`` is neither
    necessary nor sufficient.
    ``satisfied`` is the Schur-Cohn/Jury pair ``|b| < 1 and |a| < 1 + b``,
    which holds exactly when both roots lie inside the unit circle
    (spectral radius below one) away from the boundary. With all lag-2
    coefficients zero the value is the absolute product of the four
    seasonal lag-1 coefficients and the flag says that it is below one.
    """
    a, b = _trace_det(_period_pairs(schedule))
    if len(schedule._season_table) != 4:
        raise ScheduleError("restriction is defined for 4 seasons")
    value = abs(_float(_plus(a, (-b[0], b[1]))))
    a, b = _float(a), _float(b)
    return value, abs(b) < 1.0 and abs(a) < 1.0 + b
