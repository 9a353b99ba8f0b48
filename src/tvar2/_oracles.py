"""Test oracles: the definitions the fast algorithms are checked against.

The paper defines xi_{t,k} as the determinant of a k x k tridiagonal
matrix of lag coefficients.  This module is the only one that builds that
matrix.  ``xi_determinant_oracle`` and ``xi_second_determinant_oracle``
check the recurrence in ``xi``; ``particular_solution_determinant_oracle``
and ``forward_recursion`` (the defining recursion iterated forward) check
the general solution in ``solution``; ``block_determinant_oracle`` checks
the transfer-product decomposition in ``blockdet``; ``stacked_var_radius``
checks ``vs.stationarity_check`` on the matrices of ``vs.build_vs``.  Each
determinant is a dense O(k^3) one, so every determinant oracle refuses
k > ORACLE_CAP.  ``xi``, ``solution`` and ``blockdet`` re-export the
oracles that check them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .schedules import Schedule

if TYPE_CHECKING:
    from .blockdet import BlockSpec
    from .vs import VSMatrices

ORACLE_CAP = 64


class OracleCapError(ValueError):
    """Determinant oracle asked for a size beyond its testing cap."""


def _sized(k: int, innovations: Sequence[float] | None = None) -> None:
    """Every determinant oracle's checks, made before it reads a window."""
    if k < 1:
        raise ValueError("oracle requires k >= 1")
    if k > ORACLE_CAP:
        raise OracleCapError(f"oracle cap {ORACLE_CAP} exceeded (k={k})")
    if innovations is not None and len(innovations) != k:
        raise ValueError(f"expected {k} innovations, got {len(innovations)}")


def _window_matrix(schedule: Schedule, t: int,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """The window t-k+1 .. t and the ``fundamental_matrix`` built from it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = schedule.window(t - k + 1, t)
    mat = np.diag(rows[:, 1])
    i = np.arange(k - 1)
    mat[i + 1, i] = rows[1:, 2]
    mat[i, i + 1] = -1.0
    return rows, mat


def fundamental_matrix(schedule: Schedule, t: int, k: int) -> np.ndarray:
    """Dense k x k tridiagonal matrix whose determinant is xi_{t,k}.

    Row i (1-based) carries time t-k+i: diagonal phi1, subdiagonal phi2,
    superdiagonal -1.
    """
    return _window_matrix(schedule, t, k)[1]


def second_fundamental_matrix(schedule: Schedule, t: int, k: int) -> np.ndarray:
    """Matrix for the second fundamental solution: first column is
    (phi2(t-k+1), 0, ...), the rest as in ``fundamental_matrix``."""
    rows, mat = _window_matrix(schedule, t, k)
    mat[:, 0] = 0.0
    mat[0, 0] = rows[0, 2]
    return mat


def xi_determinant_oracle(schedule: Schedule, t: int, k: int) -> float:
    """Test oracle: xi_{t,k} via direct LU determinant of the assembled matrix."""
    _sized(k)
    return float(np.linalg.det(fundamental_matrix(schedule, t, k)))


def xi_second_determinant_oracle(schedule: Schedule, t: int, k: int) -> float:
    """Test oracle for the second fundamental solution."""
    _sized(k)
    return float(np.linalg.det(second_fundamental_matrix(schedule, t, k)))


def forward_recursion(schedule: Schedule, t: int, k: int,
                      y_init: tuple[float, float],
                      innovations: Sequence[float]) -> float:
    """Brute-force oracle: iterate the defining recursion k steps forward."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(innovations) != k:
        raise ValueError(f"expected {k} innovations, got {len(innovations)}")
    y_prev, y_prev2 = y_init
    rows = schedule.window(t - k + 1, t).tolist()
    for (phi0, phi1, phi2, _), eps in zip(rows, innovations):
        y = phi0 + phi1 * y_prev + phi2 * y_prev2 + eps
        y_prev2, y_prev = y_prev, y
    return float(y_prev)


def particular_solution_determinant_oracle(schedule: Schedule, t: int, k: int,
                                           innovations: Sequence[float]
                                           ) -> float:
    """Test oracle for the particular part: determinant of the core matrix
    augmented on the left by the forcing column phi0 + innovation.

    Equals the particular part of ``evaluate_solution`` (zero initial values).
    Innovations are ordered oldest to newest, as everywhere else.
    """
    _sized(k, innovations)
    rows, mat = _window_matrix(schedule, t, k)
    mat[:, 0] = rows[:, 0] + np.asarray(innovations, float)
    return float(np.linalg.det(mat))


def assemble_block_matrix(schedule: Schedule, t: int,
                          spec: BlockSpec) -> np.ndarray:
    """Dense block-tridiagonal matrix: the within-segment continuant
    matrices on the diagonal, joined at each boundary by its coupling phi2
    below the diagonal and -1 above.  Test oracle: its determinant equals
    the recurrence value of xi_{t,total}."""
    k = spec.total
    _sized(k)
    mat = fundamental_matrix(schedule, t, k)
    for b, coupling in zip(spec.boundaries, spec.couplings):
        mat[k - b, k - b - 1] = coupling   # first row of the newer segment
    return mat


def block_determinant_oracle(schedule: Schedule, t: int,
                             spec: BlockSpec) -> float:
    """Determinant of the assembled block matrix."""
    return float(np.linalg.det(assemble_block_matrix(schedule, t, spec)))


def stacked_var_radius(vs: VSMatrices) -> float:
    """Test oracle: spectral radius of phi0_mat^-1 phi1_mat, the stacked
    companion, by a dense LAPACK solve and eigendecomposition."""
    return float(max(abs(np.linalg.eigvals(
        np.linalg.solve(vs.phi0_mat, vs.phi1_mat)))))
