"""General solution of the time-varying AR(2) recursion over a finite window.

The value at the anchor time t decomposes into a homogeneous part carrying
the two initial conditions (y_{t-k}, y_{t-k-1}) and a particular part
carrying the drifts and innovations from t-k+1 to t, all weighted by the
fundamental solutions.  ``_propagate`` carries the mean and covariance of
the state (y_t, y_{t-1}) through a window of rows: the start of a
simulated path and the exact season moments of ``tvar2.moments`` read
it.  Its test oracles are re-exported from ``_oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._oracles import forward_recursion, particular_solution_determinant_oracle
from .schedules import Schedule
from .xi import _WALK_ROWS, _walk


@dataclass(frozen=True)
class GeneralSolution:
    """Weights expressing y_t from data k steps back.

    ``innovation_weights[i]`` multiplies the innovation at time t-i,
    i = 0..k-1 (these are the Green functions xi_{t,i}).
    """

    anchor: int
    lookback: int
    w0: float          # weight on y_{t-k}
    w1: float          # weight on y_{t-k-1}
    drift: float       # sum of xi_{t,i} * phi0(t-i)
    innovation_weights: np.ndarray


def _running_sums(values: np.ndarray) -> np.ndarray:
    """[0.0, v0, v0 + v1, ...], added one at a time from 0.0 (-0.0 + 0.0 is
    0.0): not pairwise as numpy's sum, nor compensated as Python 3.12's."""
    return np.concatenate(([0.0], values)).cumsum()


def _propagate(coeffs: np.ndarray, mean: tuple = (0.0, 0.0),
               cov: tuple = (0.0, 0.0, 0.0)) -> tuple:
    """Mean (m0, m1) and covariance (P00, P01, P11) of the state
    x_s = (y_s, y_{s-1}) after the coefficient rows ``coeffs`` (oldest
    first) from the state's ``mean`` and ``cov``, zero by default:
    m_s = A_s m_{s-1} + (phi0, 0) and P_s = A_s P_{s-1} A_s^T +
    diag(sigma2, 0), A_s = [[phi1, phi2], [1, 0]].  The rows are listed
    _WALK_ROWS at a time, never as one list.  Python floats overflow
    to inf and nan without a warning."""
    (m0, m1), (p00, p01, p11) = mean, cov
    for j0 in range(0, len(coeffs), _WALK_ROWS):
        for phi0, phi1, phi2, sigma2 in coeffs[j0:j0 + _WALK_ROWS].tolist():
            a = phi1 * p00 + phi2 * p01     # (A P)[0, 0]
            b = phi1 * p01 + phi2 * p11     # (A P)[0, 1]
            p00, p01, p11 = (a * phi1 + b * phi2) + sigma2, a, p00
            m0, m1 = (phi0 + phi1 * m0) + phi2 * m1, m0
    return (m0, m1), (p00, p01, p11)


def _solution(rows: np.ndarray) -> tuple:
    """(w0, w1, drift, innovation weights) of the general solution at
    lookback k = len(rows), of the rows of times t, t-1, ..., t-k+1 (newest
    first); reads no schedule and knows no t.  Its xi are those of the one
    generator ``xi._walk``, with the bits of ``green_functions``."""
    k = len(rows)
    values = np.fromiter(_walk((rows,)), float, k + 1)
    weights = values[:k]
    with np.errstate(over="ignore", invalid="ignore"):
        drift = float(_running_sums(weights * rows[:, 0])[-1])
    w1 = float(rows[-1, 2]) * float(values[k - 1]) if k else 0.0
    return float(values[k]), w1, drift, weights


def general_solution(schedule: Schedule, t: int, k: int) -> GeneralSolution:
    """Decompose y_t into homogeneous and particular parts at lookback k,
    from one read of the coefficient window t-k+1 .. t."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return GeneralSolution(int(t), k, *_solution(
        schedule.window(t - k + 1, t)[::-1]))


def evaluate_solution(sol: GeneralSolution, y_init: tuple[float, float],
                      innovations: Sequence[float]) -> float:
    """Evaluate the solution for initial values (y_{t-k}, y_{t-k-1}) and
    the k innovations ordered oldest (t-k+1) to newest (t)."""
    k = sol.lookback
    if len(innovations) != k:
        raise ValueError(f"expected {k} innovations, got {len(innovations)}")
    y0, y1 = y_init
    value = sol.w0 * y0 + sol.w1 * y1 + sol.drift
    for i in range(k):
        value += sol.innovation_weights[i] * innovations[k - 1 - i]
    return float(value)
