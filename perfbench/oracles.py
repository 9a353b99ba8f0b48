"""Reference answers the benchmark checks tvar2 against.

Each reference avoids the code path being timed: constant schedules use the
AR(2) root and moment closed forms, periodic coefficient sequences use the
2x2 state-space form (period matrix M = A_l...A_1 and its Lyapunov solve),
forecasts use the defining recursion and a covariance propagation, short
Green-function tables use the LU determinant oracle, and the stacked
(vector-of-seasons) matrices are read off each season's defining
equation.  Coefficients are read
through ``Schedule.at``, which defines the schedule; the benchmark pauses
its tracer while checking, so reference work never shows in a trace.

A check returns ``None`` when the answer is right and a cause string when
it is not.  Causes listed in ``KNOWN_DEFECTS`` are the defects the seed
commit is known to have; any other cause is a wrong answer.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

# tvar2 re-exports the function xi, which shadows the submodule attribute
XI = importlib.import_module("tvar2.xi")


RTOL = 1e-9
CLI_RTOL = 1e-12
MC_SIGMAS = 5.0

# cause -> what is wrong; fixing these is the program's job, not the benchmark's
KNOWN_DEFECTS = {
    "series-overflow-converged":
        "a moment series overflows to inf/nan but reports converged=True",
    "forecast-nonfinite":
        "forecast returns nan/inf point or mse with no flag",
    "acf-tol0-partial-csv":
        "acf --tol 0 writes the CSV header, then exits 1 instead of 2",
    "bad-flag-exit-1":
        "an out-of-range flag exits 1 where a flag error should exit 2",
    "out-created-before-validation":
        "--out creates the output file before the flags are validated",
}


def close(got: float, want: float, rtol: float = RTOL, scale: float = 1.0) -> bool:
    """|got - want| <= rtol * max(|want|, scale); nan and inf never match."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return abs(got - want) <= rtol * max(abs(want), scale)


def _step(tup) -> tuple[float, float, float, float]:
    return tup.phi0, tup.phi1, tup.phi2, tup.sigma2


# --- Green functions ---------------------------------------------------------

def constant_xi_table(phi1: float, phi2: float, k: int) -> np.ndarray:
    """xi_0..xi_k from the lag-polynomial roots, vectorised."""
    disc = np.sqrt(complex(phi1 * phi1 + 4.0 * phi2))
    lam1, lam2 = (phi1 + disc) / 2.0, (phi1 - disc) / 2.0
    i = np.arange(k + 1)
    if abs(lam1 - lam2) < XI.REPEATED_ROOT_TOL * max(1.0, abs(lam1)):
        lam = (lam1 + lam2) / 2.0
        return ((i + 1) * lam ** i).real
    return ((lam1 ** (i + 1) - lam2 ** (i + 1)) / (lam1 - lam2)).real


def _companion(phi1: float, phi2: float) -> np.ndarray:
    return np.array([[phi1, phi2], [1.0, 0.0]])


def periodic_xi_table(schedule, period: int, t: int, k: int) -> np.ndarray:
    """xi_{t,0..k} from powers of the one-period product of the 2x2 step
    matrices [[phi1(t-i+1), phi2(t-i+2)], [1, 0]]: depth n*l + r is
    (P_r M^n)[0, 0], with P_r the product of the first r steps."""
    steps = [_companion(schedule.at(t - i + 1).phi1, schedule.at(t - i + 2).phi2)
             for i in range(1, period + 1)]
    prefix = [np.eye(2)]
    for mat in steps:
        prefix.append(mat @ prefix[-1])
    heads, monodromy = np.array(prefix[:period]), prefix[period]
    out = np.empty(k + 1)
    power = np.eye(2)
    for lo in range(0, k + 1, period):
        hi = min(lo + period, k + 1)
        out[lo:hi] = (heads @ power)[:hi - lo, 0, 0]
        power = power @ monodromy
    return out


def check_green(values: np.ndarray, schedule, t: int, k: int,
                period: int | None) -> str | None:
    """Every depth against the closed form (constant), the period-matrix
    powers (periodic) or the determinant oracle (anything else, k <= 24)."""
    if len(values) != k + 1 or values[0] != 1.0:
        return "wrong:green:shape"
    scale = float(np.max(np.abs(values)))
    if not math.isfinite(scale):
        return "wrong:green:nonfinite"
    if schedule.kind == "constant":
        ref = constant_xi_table(schedule.coefficients.phi1, schedule.coefficients.phi2, k)
    elif period is not None:
        ref = periodic_xi_table(schedule, period, t, k)
    elif k <= 24:
        ref = np.array([1.0] + [XI.xi_determinant_oracle(schedule, t, i)
                                for i in range(1, k + 1)])
    else:
        return "wrong:green:no oracle"
    ok = np.all(np.abs(values - ref) <= RTOL * np.maximum(np.abs(ref), scale))
    return None if ok else f"wrong:green:{schedule.kind}"


# --- forecasts and the general solution -------------------------------------

def forecast_reference(schedule, t: int, k: int, y_init) -> tuple[float, float]:
    """Point forecast by the defining recursion with zero innovations, and
    its MSE by propagating the state covariance from zero over k steps."""
    y_prev, y_prev2 = y_init
    p00 = p01 = p11 = 0.0
    for tau in range(t - k + 1, t + 1):
        phi0, phi1, phi2, sigma2 = _step(schedule.at(tau))
        y_prev, y_prev2 = phi0 + phi1 * y_prev + phi2 * y_prev2, y_prev
        n00 = phi1 * phi1 * p00 + 2 * phi1 * phi2 * p01 + phi2 * phi2 * p11 + sigma2
        n01 = phi1 * p00 + phi2 * p01
        p00, p01, p11 = n00, n01, p00
    return y_prev, p00


def check_forecast(point: float, mse: float, model, t: int, k: int,
                   y_init) -> str | None:
    if not (math.isfinite(point) and math.isfinite(mse)):
        # a flag should say so; a stationary forecast never overflows
        return "forecast-nonfinite" if model.explosive else "wrong:forecast:nonfinite"
    ref_point, ref_mse = forecast_reference(model.schedule, t, k, y_init)
    if not close(point, ref_point, RTOL, math.sqrt(ref_mse)):
        return "wrong:forecast:point"
    if not close(mse, ref_mse):
        return "wrong:forecast:mse"
    return None


# --- stacked (vector-of-seasons) form -----------------------------------------

def period_matrix(schedule, period: int) -> np.ndarray:
    """M = A_l ... A_1, the 2x2 step matrices of seasons 1..l multiplied."""
    mono = np.eye(2)
    for s in range(1, period + 1):
        tup = schedule.at(s)
        mono = _companion(tup.phi1, tup.phi2) @ mono
    return mono


def vs_reference(schedule, period: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The stacked-form matrices read off the defining equation of each
    season, y_s - phi1(s) y_{s-1} - phi2(s) y_{s-2}, written over the
    previous period and this one; and the spectral radius of the period
    matrix, whose eigenvalues are the stacked form's nonzero ones."""
    rows = np.zeros((period, 2 * period))
    for s in range(1, period + 1):
        tup = schedule.at(s)
        rows[s - 1, period + s - 1] = 1.0
        rows[s - 1, period + s - 2] -= tup.phi1
        rows[s - 1, period + s - 3] -= tup.phi2
    rho = float(max(abs(np.linalg.eigvals(period_matrix(schedule, period)))))
    return rows[:, period:], -rows[:, :period], rho


# --- unconditional moments ---------------------------------------------------

class ConstantMoments:
    """AR(2) closed forms: mean, gamma_0, gamma_1 and the Yule-Walker
    recursion gamma_k = phi1 gamma_{k-1} + phi2 gamma_{k-2}."""

    def __init__(self, schedule):
        c = schedule.coefficients
        self.phi1, self.phi2 = c.phi1, c.phi2
        self._mean = c.phi0 / (1.0 - c.phi1 - c.phi2)
        g0 = ((1.0 - c.phi2) * c.sigma2
              / ((1.0 + c.phi2) * ((1.0 - c.phi2) ** 2 - c.phi1 ** 2)))
        self.gammas = [g0, c.phi1 * g0 / (1.0 - c.phi2)]

    def mean(self, t: int) -> float:
        return self._mean

    def acf(self, t: int, k: int) -> float:
        while len(self.gammas) <= k:
            self.gammas.append(self.phi1 * self.gammas[-1] + self.phi2 * self.gammas[-2])
        return self.gammas[k]


class PeriodicMoments:
    """Exact season moments of a coefficient sequence with period l.

    State x_t = (y_t, y_{t-1}) follows x_t = c_t + A_t x_{t-1} + e_t.  Over
    one period the mean obeys m = M m + d and the covariance P = M P M' + W,
    solved directly; one more pass gives every season.
    """

    def __init__(self, schedule, period: int):
        self.period = period
        self.steps = [_step(schedule.at(s)) for s in range(1, period + 1)]
        mats = [_companion(p1, p2) for _, p1, p2, _ in self.steps]
        m_acc, p_acc, monodromy = np.zeros(2), np.zeros((2, 2)), np.eye(2)
        for (phi0, _, _, sigma2), a in zip(self.steps, mats):
            m_acc = a @ m_acc + np.array([phi0, 0.0])
            p_acc = a @ p_acc @ a.T + np.diag([sigma2, 0.0])
            monodromy = a @ monodromy
        m = np.linalg.solve(np.eye(2) - monodromy, m_acc)
        p = np.linalg.solve(np.eye(4) - np.kron(monodromy, monodromy),
                            p_acc.reshape(4)).reshape(2, 2)
        self.means, self.covs, self.mats = [], [], mats
        for (phi0, _, _, sigma2), a in zip(self.steps, mats):
            m = a @ m + np.array([phi0, 0.0])
            p = a @ p @ a.T + np.diag([sigma2, 0.0])
            self.means.append(m)
            self.covs.append(p)

    def _season(self, t: int) -> int:
        return (int(t) - 1) % self.period

    def mean(self, t: int) -> float:
        return float(self.means[self._season(t)][0])

    def acf(self, t: int, k: int) -> float:
        """Cov(y_t, y_{t-k}) = (A_t ... A_{t-k+1} P_{t-k})[0, 0]."""
        prod = self.covs[self._season(t - k)]
        for tau in range(t - k + 1, t + 1):
            prod = self.mats[self._season(tau)] @ prod
        return float(prod[0, 0])


def moments_oracle(schedule, period: int | None):
    if schedule.kind == "constant":
        return ConstantMoments(schedule)
    return PeriodicMoments(schedule, period)


def check_series(value: float, converged: bool, want: float, scale: float,
                 explosive: bool) -> str | None:
    """A stationary answer must converge to the reference; an explosive one
    must report converged=False."""
    if explosive:
        if not converged:
            return None
        return "series-overflow-converged" if not math.isfinite(value) else "wrong:series:explosive-converged"
    if not converged:
        return "wrong:series:not-converged"
    return None if close(value, want, 1e-8, scale) else "wrong:series:value"


def within_se(estimate, want: float) -> bool:
    return abs(estimate.value - want) <= MC_SIGMAS * estimate.se


def sample_within_se(x: np.ndarray, mean: float, variance: float) -> bool:
    """The sample mean and variance of x, each within MC_SIGMAS standard
    errors of the analytic value."""
    n = len(x)
    dev2 = (x - x.mean()) ** 2
    se_mean = math.sqrt(dev2.sum() / (n - 1) / n)
    se_var = float(dev2.std(ddof=1)) / math.sqrt(n)
    return (abs(x.mean() - mean) <= MC_SIGMAS * se_mean
            and abs(dev2.sum() / (n - 1) - variance) <= MC_SIGMAS * se_var)
