"""Fundamental solutions of the time-varying second-order recursion.

xi(schedule, t, k) is the determinant of the k x k tridiagonal matrix
holding the lag coefficients from time t-k+1 up to t.  These determinants
are the Green functions (moving-average weights) of the process anchored
at time t.  One generator runs their three-term recurrence, window by
window back from the anchor; ``green_functions`` tables, ``xi_stream``
streams and general solutions read its values, and every other result
reads one of them.  Oracles live in ``_oracles``, re-exported by name.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from ._oracles import (ORACLE_CAP, OracleCapError, fundamental_matrix,
                       second_fundamental_matrix, xi_determinant_oracle,
                       xi_second_determinant_oracle)
from .schedules import Schedule

if TYPE_CHECKING:
    import numpy as np

REPEATED_ROOT_TOL = 1e-9
_WALK_ROWS = 4096   # rows a walk lists at a time; bounds its lists


@dataclass(frozen=True)
class XiTable:
    """Triangular slice of fundamental solutions for one anchor time.

    ``values[i]`` holds xi_{t,i} for i = 0..depth; index -1 is defined as 0.
    """

    anchor: int
    values: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.values) - 1

    def xi(self, i: int) -> float:
        if i == -1:
            return 0.0
        if not 0 <= i <= self.depth:
            raise IndexError(f"depth {i} not in table (-1..{self.depth})")
        return float(self.values[i])


def _walk(windows: Iterable[np.ndarray]) -> Iterator[float]:
    """xi_{t,0}, xi_{t,1}, ...: the one run of the first-row recurrence
    xi_{t,i} = phi1(t-i+1) * xi_{t,i-1} + phi2(t-i+2) * xi_{t,i-2},
    over the rows of times t, t-1, ... in ``windows`` (each newest first),
    listed _WALK_ROWS at a time.  xi_{t,i} reads back to time t-i+1, so
    only a value that needs a time past the windows read takes the next."""
    yield 1.0
    prev2, prev, phi2 = 1.0, None, []
    for rows in (window[j:j + _WALK_ROWS] for window in windows
                 for j in range(0, len(window), _WALK_ROWS)):
        phi1 = rows[:, 1].tolist()
        phi2 = phi2[-1:] + rows[:, 2].tolist()
        if prev is None:   # xi_{t,1} = phi1(t) exactly, a -0.0 included
            prev = phi1.pop(0)
            yield prev
        for a, b in zip(phi1, phi2):
            prev2, prev = prev, a * prev + b * prev2
            yield prev


def xi_stream(schedule: Schedule, t: int,
              floor: float | None = None) -> Iterator[float]:
    """Yield xi_{t,0}, xi_{t,1}, ... lazily for a fixed anchor t, walking
    the ``Schedule.walk_back`` windows from t down to ``floor`` (default
    the schedule's earliest time): only a value past it reads one time at
    a time, and past the schedule's earliest time raises."""
    return _walk(schedule.walk_back(
        t, schedule.earliest if floor is None else floor))


def green_functions(schedule: Schedule, t: int, k_max: int) -> XiTable:
    """Table of xi_{t,0..k_max}: the Green functions anchored at time t,
    read from the coefficient window t-k_max+1 .. t."""
    import numpy as np
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return XiTable(int(t), np.fromiter(xi_stream(schedule, t, t - k_max + 1),
                                       float, k_max + 1))


def xi(schedule: Schedule, t: int, k: int) -> float:
    """Fundamental solution xi_{t,k}; xi_{t,0} = 1, xi_{t,-1} = 0."""
    if k < -1:
        raise ValueError("k must be >= -1")
    return green_functions(schedule, t, max(k, 0)).xi(k)


def xi_second(schedule: Schedule, t: int, k: int) -> float:
    """Second fundamental solution: phi2(t-k+1) * xi_{t,k-1}, for k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return schedule.at(t - k + 1).phi2 * xi(schedule, t, k - 1)


def constant_xi(phi1: float, phi2: float, k: int) -> float:
    """Closed-form xi for constant coefficients via the lag-polynomial roots.

    With 1 - phi1*z - phi2*z^2 = (1 - lam1*z)(1 - lam2*z) and distinct roots,
    xi_k = (lam1^(k+1) - lam2^(k+1)) / (lam1 - lam2); the repeated-root limit
    is (k+1) * lam^k.
    """
    if k < -1:
        raise ValueError("k must be >= -1")
    if k == -1:
        return 0.0
    if k == 0:
        return 1.0
    disc = cmath.sqrt(phi1 * phi1 + 4.0 * phi2)
    lam1 = (phi1 + disc) / 2.0
    lam2 = (phi1 - disc) / 2.0
    if abs(lam1 - lam2) < REPEATED_ROOT_TOL * max(1.0, abs(lam1)):
        lam = (lam1 + lam2) / 2.0
        value = (k + 1) * lam ** k
    else:
        value = (lam1 ** (k + 1) - lam2 ** (k + 1)) / (lam1 - lam2)
    # real for real phi1, phi2: conjugate roots give a real quotient, and
    # real ones an imaginary part only from complex ** (polar form, k > 100)
    return value.real
