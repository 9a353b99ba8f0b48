"""Monte Carlo path generation for time-varying AR(2) schedules.

Random stream contract, version ``STREAM_VERSION``: path p belongs to the
block b = p // SUB_BLOCK, and block b is one SFC64 stream seeded through
``SeedSequence([master seed, b])``, drawn time-major at full block width.
A path's values therefore depend on neither the ensemble size nor how
paths are chunked.  No path runs its burn-in step by step; both families
read the burn-in coefficients once and walk those rows in Python to find
how the state x_B = (y_B, y_{B-1}) after it is made.  With normal innovations x_B is
exactly Gaussian: its mean m and covariance P are propagated over the
burn-in coefficients, and the block's first two rows z give x_B = m + L z,
L the lower Cholesky factor of P.  With uniform innovations x_B is, by the
general solution, a weighted sum of the burn-in draws.  Their weights
decay on a stationary schedule, so only the K newest burn-in steps are
drawn: the oldest B - K steps are dropped while their summed |weight|
stays at most 2^-53 (float64's unit roundoff) of each row's total, and
their innovations sit at their mean 0.  That moves x_B by at most 2^-54
of the summed |weights|, below the rounding of the sum itself.  A
near-unit-root, explosive or overflowed schedule, or B <= 1, keeps all B
steps and the bits of version 5.  The block draws its K rows u, DRAW_ROWS
at a time, and x_B = c + W u, each slab of u contracted with its columns
of the (2, K) weights W by ``np.einsum`` (no BLAS, whose bits depend on
the CPU) at the full block width.  The next ``length`` rows of either
family are the kept innovations.  The ensemble
is time-major, two start rows and then one row per kept step, and each
chunk of whole blocks is simulated in place in its columns of it: x_B
goes into the start rows, the calling thread continues each block's
stream DRAW_ROWS steps at a time, scaled by sigma, straight into the kept
rows, and the recursion then runs over them in place.  So the kept
steps' bits depend on neither DRAW_ROWS nor ``workers``, which has no
effect; no thread is started.  A uniform start's bits depend on
DRAW_ROWS, which sets how its sum is split.  On a constant, periodic or
cyclical schedule the start, (m, L) or (c, W), depends only on the
family, the season of t_B and B, so it is kept in the schedule's season
cache (``Schedule.season_cached``) and a schedule object shared between
calls computes it once per season; only that computation reads the
burn-in coefficients.

Statistics are collected at fixed anchor times, never time-averaged: the
moments are themselves functions of time.  ``empirical_moments`` answers
one anchor per call from tables of slabs of rows: the kept rows are cut
into slabs of at most _SLAB_FLOATS values, and the first call that reads
a slab builds the mean, the variance and their standard errors of each
of its rows, and the first asking for lag k there the rows' lag-k
autocovariances and their standard errors.  Each row is reduced on its
own, pairwise and with no BLAS call, so every value has the bits of that
anchor's row reduced alone, on any CPU, and no temporary grows with the
ensemble: a call reduces one slab per lag and the lag-0 slabs of the rows
those lags reach back to, and copies no more than a slab of a user-built
ensemble whose rows are not contiguous.  The tables are kept with an
ensemble whose values nothing can write, as ``simulate_paths`` returns
them, and are built afresh on every call for any other.

Ensembles are read-only.  The last one simulated is remembered by a weak
reference, so ``empirical_forecast_error`` on an equal config reuses it
while its caller still holds it, instead of simulating it again.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .schedules import Schedule
from .solution import _solution, general_solution

DEFAULT_BURN_IN = 500
CHUNK_TARGET = 20_000   # paths per chunk; bounds its scratch rows' width
SUB_BLOCK = 256         # paths per random stream; chunks hold whole blocks
DRAW_ROWS = 128         # time steps per draw call; bounds the draw buffer
# cap on the values an ensemble draws: paths rounded up to whole SUB_BLOCK
# blocks, since every block is drawn at full width, times the rows each
# block draws, 2 + length (normal) or at most burn_in + length (uniform)
MAX_PATH_STEPS = 10**8
# cap on burn_in, the CLI's MAX_DEPTH: both families walk their burn-in
# rows in Python, a normal ensemble once to find the law of its start
# state, a uniform one twice for the general solutions' weights on its draws
MAX_BURN_IN = 10**6
# float64's unit roundoff: a uniform start draws no burn-in step whose
# weights sum to at most this share of the total (see _unresolved)
RESOLUTION = 2.0**-53
# the version of the stream contract above; any change to the simulated
# bits (and so to a pinned ensemble digest) must bump it
STREAM_VERSION = 6
# values the ensemble statistics reduce at a time, whole rows of at most
# this many (at least one row): bounds each of their temporaries.  2^14
# keeps them under glibc's mmap threshold but was slower in-process at
# 2000 and 5000 paths (one more slab per request outweighs the faults)
_SLAB_FLOATS = 1 << 15

# (config, weak reference to its ensemble) of the last simulate_paths call;
# the weak reference keeps no ensemble alive after its caller drops it
_last_ensemble = (None, None)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that determines an ensemble.

    Each path is the recursion run ``burn_in`` steps from zero initial
    conditions, then the final ``length`` values ending at ``t_end``, which
    are kept.  ``innovations`` is "normal" or "uniform" (scaled to unit
    variance either way, then by sigma_t).  No path runs the burn-in
    steps: a normal path draws its state after them from that state's
    exact Gaussian law, and a uniform path sums its burn-in draws with the
    general solution's weights.  A uniform path draws only the K newest
    burn-in steps, those whose weights reach float64 resolution; the
    older ones sit at their mean, which moves its start by at most 2^-54
    of the summed |weights|.  The MAX_PATH_STEPS cap still counts
    burn_in + length rows per uniform block, a conservative bound on the
    K + length it draws.
    """

    schedule: Schedule
    n_paths: int
    t_end: int
    length: int
    seed: int
    burn_in: int = DEFAULT_BURN_IN
    innovations: str = "normal"
    workers: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not 0 <= self.burn_in <= MAX_BURN_IN:
            raise ValueError(f"burn_in must be in [0, {MAX_BURN_IN}] "
                             f"(got {self.burn_in})")
        if not -2**63 <= self.t_end - self.length + 1 <= self.t_end < 2**63:
            raise ValueError("t_end must keep the kept times t_end - length "
                             f"+ 1 .. t_end in int64 (got {self.t_end})")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be in [0, 2**63) (got {self.seed})")
        if self.innovations not in ("normal", "uniform"):
            raise ValueError(f"unknown innovation family {self.innovations!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # rows drawn per block: a normal block draws its start state from
        # two rows, a uniform one at most every burn-in step (K of them,
        # known only once the weights are built, so the cap counts all B)
        normal = self.innovations == "normal"
        steps = (2 if normal else self.burn_in) + self.length
        if -(-self.n_paths // SUB_BLOCK) * SUB_BLOCK * steps > MAX_PATH_STEPS:
            raise ValueError(f"n_paths, rounded up to a multiple of {SUB_BLOCK}"
                             f", times ({'2' if normal else 'burn_in'} + "
                             f"length) must be <= {MAX_PATH_STEPS}")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated values: ``values[p, j]`` is path p at time ``times[j]``.

    ``simulate_paths`` stores the ensemble time-major, one C-contiguous row
    per time, the two start rows before the kept ones, and hands out
    ``values`` as the transpose of the view past the start rows: the
    (paths, times) array, F-contiguous, so ``at(t)`` is one contiguous row.
    Both arrays and the base of ``values`` are read-only."""

    times: np.ndarray
    values: np.ndarray

    @property
    def nonfinite_paths(self) -> int:
        """Number of paths holding an infinite or NaN value: an explosive
        schedule overflows its paths instead of raising."""
        return int(np.count_nonzero(~np.isfinite(self.values).all(axis=1)))

    def at(self, t: int) -> np.ndarray:
        """Cross-section of all paths at time t (contiguous in an ensemble
        from ``simulate_paths``)."""
        idx = int(t) - int(self.times[0])
        if not 0 <= idx < len(self.times):
            raise ValueError(f"t={t} not in simulated range "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return self.values[:, idx]


@dataclass(frozen=True)
class EstimateWithSE:
    value: float
    se: float


@dataclass(frozen=True)
class EmpiricalMoments:
    anchor: int
    mean: EstimateWithSE
    variance: EstimateWithSE
    autocovariances: tuple[EstimateWithSE, ...] = field(default=())


def _propagate(coeffs: np.ndarray):
    """Mean (m0, m1) and covariance (P00, P01, P11) of the state
    x_s = (y_s, y_{s-1}) after the coefficient rows ``coeffs`` (oldest
    first) from zero: m_s = A_s m_{s-1} + (phi0, 0) and
    P_s = A_s P_{s-1} A_s^T + diag(sigma2, 0), A_s = [[phi1, phi2], [1, 0]].
    The rows are read DRAW_ROWS at a time, never as one list.  Python
    floats overflow to inf and nan without a warning."""
    m0 = m1 = p00 = p01 = p11 = 0.0
    for j0 in range(0, len(coeffs), DRAW_ROWS):
        for phi0, phi1, phi2, sigma2 in coeffs[j0:j0 + DRAW_ROWS].tolist():
            a = phi1 * p00 + phi2 * p01     # (A P)[0, 0]
            b = phi1 * p01 + phi2 * p11     # (A P)[0, 1]
            p00, p01, p11 = (a * phi1 + b * phi2) + sigma2, a, p00
            m0, m1 = (phi0 + phi1 * m0) + phi2 * m1, m0
    return (m0, m1), (p00, p01, p11)


def _start_law(burn: np.ndarray):
    """(m, L) of the state after the burn-in rows ``burn`` from zero: its
    mean and the lower Cholesky factor (L00, L10, L11) of its covariance,
    each diagonal entry's square clamped at 0, so a singular P (no or one
    burn-in step) gives no nan.  An overflowed P gives a non-finite L."""
    mean, (p00, p01, p11) = _propagate(burn)
    l00 = math.sqrt(p00) if not p00 < 0.0 else 0.0
    l10 = p01 / l00 if l00 else 0.0
    d = p11 - l10 * l10
    return mean, (l00, l10, math.sqrt(d) if not d < 0.0 else 0.0)


def _uniform_start(burn: np.ndarray):
    """(c, W) of the state x_B = (y_B, y_{B-1}) after the burn-in rows
    ``burn`` (oldest first) from zero, as a map of a block's raw uniform
    burn-in draws u, one row per step: x_B = c + W u.  By the general
    solution y_B = sum_i xi_{t_B,i} (phi0(t_B-i) + sigma eps), so the rows
    of W are the innovation weights w of the general solution of all B
    rows and of all but the newest, oldest first, with a 0 for time t_B
    in the second, times sigma and the map eps = u 2 sqrt(3) - sqrt(3):
    W = 2 sqrt(3) (w sigma) and c = drift - sqrt(3) sum(w sigma).  The
    oldest columns are dropped, their innovations set to their mean 0,
    while their summed |w sigma| stays within RESOLUTION of each row's
    total: W keeps the K newest columns and c sums over them.  An
    overflowed weight gives a non-finite (c, W) with every column kept."""
    weights = np.zeros((2, len(burn)))
    *_, drift_now, weights[0, ::-1] = _solution(burn[::-1])
    *_, drift_before, weights[1, -2::-1] = _solution(burn[-2::-1])
    root3 = math.sqrt(3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        weights *= np.sqrt(burn[:, 3])
        weights = weights[:, _unresolved(weights):]
        c = np.array([drift_now, drift_before]) - root3 * weights.sum(axis=1)
        return c, (2.0 * root3) * weights


def _unresolved(weights: np.ndarray) -> int:
    """Number of oldest columns of the (2, B) weights whose summed |w| is
    at most RESOLUTION times its row's total in both rows; 0 if a total
    is not finite (a weight or the sum overflowed).  The running sums are sequential (``np.cumsum``, each
    one the previous plus one term), not numpy's SIMD-dispatched pairwise
    ``sum``, so the count is the same on every CPU."""
    if not weights.size:
        return 0
    running = np.abs(weights)
    np.cumsum(running, axis=1, out=running)
    totals = running[:, -1]
    if not np.isfinite(totals).all():
        return 0
    return int(min(np.searchsorted(row, RESOLUTION * total, side="right")
                   for row, total in zip(running, totals.tolist())))


def _start(config: SimulationConfig, t_b: int):
    """The ``start`` of ``_simulate_chunk`` after the burn_in rows ending at
    t_b: ``_start_law``'s (m, L) for normal innovations,
    ``_uniform_start``'s (c, W) for uniform ones.  On a schedule with a
    season cache the burn-in rows, and so the start, depend only on the
    family, burn_in and the season of t_b, so the start is kept there,
    read-only (``Schedule.season_cached``), and the rows are read only to
    compute it."""
    def compute():
        burn = config.schedule.window(t_b - config.burn_in + 1, t_b)
        if config.innovations == "normal":
            return _start_law(burn)
        c, weights = start = _uniform_start(burn)
        c.flags.writeable = weights.flags.writeable = False
        return start
    return config.schedule.season_cached((config.innovations, config.burn_in),
                                         t_b, compute)


def _simulate_chunk(config: SimulationConfig, first_path: int,
                    coeffs: np.ndarray, start, out: np.ndarray) -> None:
    """Simulate paths first_path .. first_path + out.shape[1] - 1 in place
    in the time-major ``out`` over the kept coefficient rows ``coeffs``:
    rows 0 and 1 take x_B, as y_{B-1} and y_B, and row j + 2 kept step j;
    first_path is a multiple of SUB_BLOCK.  ``start`` is the (m, L) of
    ``_start_law`` for normal innovations: each block draws z from its
    first two rows, and x_B = m + L z.  For uniform ones it is the (c, W)
    of ``_uniform_start``: each block draws its K kept burn-in rows
    DRAW_ROWS at a time and adds W times each slab of them to c."""
    n_paths = out.shape[1]
    length = len(coeffs)
    sigma = np.sqrt(coeffs[:, 3])[:, None]
    streams = [np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        [config.seed, (first_path + b) // SUB_BLOCK])))
        for b in range(0, n_paths, SUB_BLOCK)]
    uniform = config.innovations == "uniform"
    with np.errstate(over="ignore", invalid="ignore"):
        if uniform:
            c, weights = start
            burn = weights.shape[1]
            draws = np.empty((min(DRAW_ROWS, burn), SUB_BLOCK))
            x = np.empty((2, SUB_BLOCK))
            for b, rng in zip(range(0, n_paths, SUB_BLOCK), streams):
                x[:] = c[:, None]
                for j0 in range(0, burn, DRAW_ROWS):
                    u = draws[:min(DRAW_ROWS, burn - j0)]
                    rng.random(out=u)
                    # at the full block width, so no path's bits depend
                    # on where the ensemble ends
                    x += np.einsum("ik,kj->ij", weights[:, j0:j0 + len(u)],
                                   u, optimize=False)
                width = min(SUB_BLOCK, n_paths - b)
                out[1, b:b + width] = x[0, :width]     # y_B
                out[0, b:b + width] = x[1, :width]     # y_{B-1}
        else:
            (m0, m1), (l00, l10, l11) = start
            z = np.empty((len(streams), 2, SUB_BLOCK))
            for rng, rows in zip(streams, z):
                rng.standard_normal(out=rows)
            z0, z1 = (z[:, i].reshape(-1)[:n_paths] for i in (0, 1))
            out[1] = m0 + l00 * z0                     # y_B
            out[0] = (m1 + l10 * z0) + l11 * z1        # y_{B-1}
    block = np.empty((min(DRAW_ROWS, length), SUB_BLOCK))
    acc, tmp = np.empty((2, n_paths))
    root3 = math.sqrt(3.0)
    for j0 in range(0, length, DRAW_ROWS):
        n = min(DRAW_ROWS, length - j0)
        rows, scale = block[:n], sigma[j0:j0 + n]
        for b, rng in zip(range(0, n_paths, SUB_BLOCK), streams):
            # the block is drawn at full width even where the ensemble ends
            # inside it; each draw continues the block's stream
            if uniform:
                rng.random(out=rows)
                rows *= 2.0 * root3
                rows -= root3
            else:
                rng.standard_normal(out=rows)
            width = min(SUB_BLOCK, n_paths - b)
            np.multiply(rows[:, :width], scale,
                        out=out[j0 + 2:j0 + 2 + n, b:b + width])
        # ((phi0 + phi1*y1) + phi2*y2) + eps, operand order kept bit for bit;
        # a list of DRAW_ROWS coefficient rows, never of the whole window
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (phi0, phi1, phi2, _) in enumerate(
                    coeffs[j0:j0 + n].tolist(), j0):
                np.multiply(phi1, out[j + 1], out=acc)
                np.add(phi0, acc, out=acc)
                np.multiply(phi2, out[j], out=tmp)
                np.add(acc, tmp, out=acc)
                np.add(acc, out[j + 2], out=out[j + 2])


def simulate_paths(config: SimulationConfig) -> PathEnsemble:
    """Generate the ensemble; bit-identical for a given config and seed,
    whatever ``workers`` and ``CHUNK_TARGET``.  Every call runs the kernel
    and returns a new ensemble."""
    global _last_ensemble
    t_b = config.t_end - config.length    # the burn-in's last time
    # the kept rows before the burn-in's, so that an error names the newest
    # bad time, as one window over both would
    coeffs = config.schedule.window(t_b + 1, config.t_end)
    start = _start(config, t_b)
    # two start rows, then one row per kept step
    time_major = np.empty((config.length + 2, config.n_paths))
    chunk = max(1, CHUNK_TARGET // SUB_BLOCK) * SUB_BLOCK
    for first in range(0, config.n_paths, chunk):
        _simulate_chunk(config, first, coeffs, start,
                        time_major[:, first:first + chunk])
    times = np.arange(config.t_end - config.length + 1, config.t_end + 1,
                      dtype=np.int64)
    # read-only before the view is taken, so neither the view nor its base
    # can be written
    time_major.flags.writeable = False
    times.flags.writeable = False
    ensemble = PathEnsemble(times, time_major[2:].T)
    _last_ensemble = (config, weakref.ref(ensemble))
    return ensemble


def _row_moments(rows: np.ndarray, variance: bool):
    """Each row's sample mean and its standard error s / sqrt(n), and if
    ``variance`` also its sample variance s^2 with the large-sample
    standard error sqrt(max(m4 - s^4, 0) / n); every se is inf and s^2 is 0
    for fewer than two values.  Each row of the C-contiguous ``rows`` is
    reduced on its own, pairwise, so it gets the bits of ``row.mean()``
    and ``row.var(ddof=1)``, its centered squares' sum over n - 1, whose
    root over sqrt(n) is the mean's se.  No BLAS call, whose kernel is
    picked by CPU, sets a bit.  m4 = mean(c^2 * c^2) is the central fourth
    moment, the squares squared again in place instead of raised to the
    power 4, which numpy evaluates through libm ``pow`` per element."""
    n = rows.shape[1]
    mean = rows.mean(axis=1)
    if n < 2:
        inf = np.full(len(rows), math.inf)
        return (mean, inf, np.zeros(len(rows)), inf) if variance else (mean, inf)
    centered = rows - mean[:, None]
    squares = np.square(centered, out=centered)
    s2 = squares.sum(axis=1) / (n - 1)
    se = np.sqrt(s2) / math.sqrt(n)
    if not variance:
        return mean, se
    m4 = np.square(squares, out=squares).mean(axis=1)
    return mean, se, s2, np.sqrt(np.maximum(m4 - s2 * s2, 0.0) / n)


def _sample_moments(sample: np.ndarray):
    """(mean, variance) of one sample, each with its standard error (see
    ``_row_moments``)."""
    mean, mean_se, s2, se = _row_moments(sample[None], True)
    return (EstimateWithSE(float(mean[0]), float(mean_se[0])),
            EstimateWithSE(float(s2[0]), float(se[0])))


def _frozen(values: np.ndarray) -> bool:
    """Whether nothing can write ``values``: it and every array it views
    are read-only, as for an ensemble from ``simulate_paths``."""
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        values = values.base
    return values is None


def _slab_rows(values: np.ndarray) -> int:
    """Kept rows per slab of the statistics: whole rows of at most
    _SLAB_FLOATS values, and at least one row."""
    return max(1, _SLAB_FLOATS // max(values.shape[0], 1))


def _slab_table(values: np.ndarray, tables: dict, lag: int,
                slab: int) -> tuple:
    """Statistics of the kept rows j of slab ``slab`` of the ensemble
    ``values``, rows slab * step .. (step of ``_slab_rows``), as read-only
    arrays indexed by j - slab * step: (mean, its se, variance, its se)
    for lag 0, and for a lag k >= 1 (autocovariance, its se) of row j with
    row j - k (nan for j < k).  Each is built the first time it is asked
    for and kept in ``tables`` under (lag, slab), so later anchors in the
    slab only index it.  The rows reduced are those of ``values.T`` made
    C-contiguous: a view for an ensemble from ``simulate_paths``, a copy
    of the slab for a user-built one."""
    table = tables.get((lag, slab))
    if table is not None:
        return table
    step = _slab_rows(values)
    j0, j1 = slab * step, min(slab * step + step, values.shape[1])
    if lag:
        lo = max(j0, lag)
        products = (np.ascontiguousarray(values[:, lo:j1].T)
                    - _slab_means(values, tables, lo, j1)[:, None])
        products *= (values[:, lo - lag:j1 - lag].T
                     - _slab_means(values, tables, lo - lag, j1 - lag)[:, None])
        table = _row_moments(products, False)
        if lo > j0:
            table = tuple(np.concatenate((np.full(lo - j0, math.nan), column))
                          for column in table)
    else:
        table = _row_moments(np.ascontiguousarray(values[:, j0:j1].T), True)
    for column in table:
        column.flags.writeable = False
    # a thread may have built the same slab meanwhile; one is kept
    return tables.setdefault((lag, slab), table)


def _slab_means(values: np.ndarray, tables: dict, j0: int,
                j1: int) -> np.ndarray:
    """The means of kept rows j0 .. j1 - 1, from their lag-0 slabs."""
    step = _slab_rows(values)
    first, last = j0 // step, (j1 - 1) // step
    means = [_slab_table(values, tables, 0, slab)[0]
             for slab in range(first, last + 1)]
    means = means[0] if first == last else np.concatenate(means)
    return means[j0 - first * step:j1 - first * step]


def empirical_moments(ensemble: PathEnsemble, t: int,
                      max_lag: int = 0) -> EmpiricalMoments:
    """Cross-path sample mean, variance and autocovariances at anchor t,
    read from the tables of the slab of rows that holds t (see
    ``_slab_table``).  They are kept with the ensemble when nothing can
    write its values, and built for this call alone otherwise."""
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    ensemble.at(t)                  # raises for an anchor outside the ensemble
    j = int(t) - int(ensemble.times[0])
    if max_lag > j:
        ensemble.at(t - (j + 1))    # raises: the first lag before the ensemble
    values = ensemble.values
    tables = vars(ensemble).get("_moment_tables")
    if tables is None:
        tables = (vars(ensemble).setdefault("_moment_tables", {})
                  if _frozen(values) else {})
    slab, i = divmod(j, _slab_rows(values))
    mean, mean_se, variance, variance_se = _slab_table(values, tables, 0, slab)
    autocovs = tuple(EstimateWithSE(float(value[i]), float(se[i]))
                     for value, se in (_slab_table(values, tables, k, slab)
                                       for k in range(1, max_lag + 1)))
    return EmpiricalMoments(int(t), EstimateWithSE(float(mean[i]),
                                                   float(mean_se[i])),
                            EstimateWithSE(float(variance[i]),
                                           float(variance_se[i])), autocovs)


def empirical_forecast_error(config: SimulationConfig, t: int, k: int
                             ) -> tuple[EstimateWithSE, EstimateWithSE]:
    """Per-path k-step forecast errors at anchor t.

    Each path's realized y_t is compared with the analytic predictor built
    from that path's own (y_{t-k}, y_{t-k-1}).  Returns (error mean, error
    variance), each with a standard error; the variance estimates the
    forecast mean square error.  The ensemble is the one ``simulate_paths``
    last returned if its config equals ``config`` and it is still alive,
    and a fresh simulation otherwise; both give the same bits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if config.n_paths < 100:
        raise ValueError("need at least 100 paths")
    needed = k + 2
    if config.t_end - config.length + 1 > t - k - 1 or t > config.t_end:
        raise ValueError(
            f"ensemble window must cover t-k-1..t; need length >= {needed}")
    recorded, ref = _last_ensemble
    ensemble = ref() if recorded == config else None
    if ensemble is None:
        ensemble = simulate_paths(config)
    sol = general_solution(config.schedule, t, k)
    predicted = (sol.drift + sol.w0 * ensemble.at(t - k)
                 + sol.w1 * ensemble.at(t - k - 1))
    errors = ensemble.at(t) - predicted
    return _sample_moments(errors)
