"""General solution of the time-varying AR(2) recursion over a finite window.

The value at the anchor time t decomposes into a homogeneous part carrying
the two initial conditions (y_{t-k}, y_{t-k-1}) and a particular part
carrying the drifts and innovations from t-k+1 to t, all weighted by the
fundamental solutions.  Its test oracles are re-exported from ``_oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._oracles import forward_recursion, particular_solution_determinant_oracle
from .schedules import Schedule
from .xi import _walk


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


def _solution(rows: np.ndarray) -> tuple:
    """(w0, w1, drift, innovation weights) of the general solution at
    lookback k = len(rows), of the rows of times t, t-1, ..., t-k+1 (newest
    first); reads no schedule and knows no t."""
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
